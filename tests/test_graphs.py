import json
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graphent import graphs
from graphent.graphs import (
    DegreeDistribution,
    DirectedGraph,
    bridged_cycles_degree_counts,
    degree_distribution,
    ffnn_degree_counts,
    flip_edge,
    from_json,
    full_binary_tree_degree_counts,
    gen_bridged_cycles,
    gen_ffnn,
    gen_full_binary_tree,
    gen_young_fibonacci,
    load_graph,
    permute_vertices,
    random_graph,
    save_graph,
    to_json,
    young_fibonacci_degree_counts,
)
from graphent.statevector import InitialQubit, InteractionParams, build_graph_state_rows

from helpers import NoNumpy, directed_graphs, reference_graph

import numpy as np


# ----------------------------------------------------------------------
# construction and validation
# ----------------------------------------------------------------------

def test_minimal_edge():
    g = DirectedGraph(2, [(0, 1)])
    assert g.num_vertices == 2
    assert g.edges == ((0, 1),)
    assert g.degrees.tolist() == [1, 1]
    assert g.out_degrees.tolist() == [1, 0]
    # the degree vectors are derived data: not part of repr, equality or hashing
    assert repr(g) == "DirectedGraph(num_vertices=2, edges=((0, 1),))"
    assert hash(g) == hash(DirectedGraph(2, [(np.int64(0), np.int64(1))]))


@pytest.mark.parametrize(
    "num_vertices, edges",
    [
        (2, [(0, 1), (1, 0)]),  # anti-parallel pair
        (3, [(0, 0)]),  # self-loop
        (3, [(0, 1), (0, 1)]),  # duplicate
        (2, [(0, 2)]),  # index out of range
        (2, [(-1, 0)]),
        (3, [(0, 1, 2)]),  # not a pair: refused, not cut to (0, 1)
        (3, [5]),  # not a pair: a ValueError, not a TypeError from unpacking
        (3, [None]),
    ],
)
def test_invalid_edges_rejected(num_vertices, edges):
    with pytest.raises(ValueError):
        DirectedGraph(num_vertices, edges)


@pytest.mark.parametrize("endpoint", [1.7, 1.0, True, np.True_, "1", None])
def test_non_integer_endpoints_rejected(endpoint):
    # refused, never truncated: int(1.7) and int(True) would both give vertex 1
    with pytest.raises(ValueError, match=f"edge endpoint {re.escape(repr(endpoint))} is not an integer"):
        DirectedGraph(3, [(0, endpoint)])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 2)], "edges[1] (2, 2): self-loop at vertex 2"),
        ([(0, 1), (1, 0)], "edges[1] (1, 0): duplicate or anti-parallel edge on pair (0, 1)"),
        ([(0, 3)], "edges[0] (0, 3): edge (0,3) out of range for 3 vertices"),
        ([(0, 1), (0, 1.5)], "edges[1] (0, 1.5): edge endpoint 1.5 is not an integer"),
        ([5], "edges[0] 5: must be a pair of integer vertices"),
        ([(0, 1, 2)], "edges[0] (0, 1, 2): must be a pair of integer vertices"),
    ],
)
def test_edge_errors_name_index_and_edge(edges, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DirectedGraph(3, edges)


def test_numpy_integer_endpoints_accepted():
    g = DirectedGraph(3, [(np.int64(0), np.int32(2)), (np.uint8(1), 2)])
    assert g == DirectedGraph(3, [(0, 2), (1, 2)])
    assert all(type(v) is int for edge in g.edges for v in edge)


def _assert_matches_reference(num_vertices, edges):
    """The constructor accepts exactly what the per-edge reference loop
    accepts, with the same edges and degrees, and refuses the rest with the
    same message."""
    try:
        expected = reference_graph(num_vertices, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            DirectedGraph(num_vertices, edges)
        assert str(refused.value) == str(exc)
    else:
        g = DirectedGraph(num_vertices, edges)
        assert (g.edges, g.degrees.tolist(), g.out_degrees.tolist()) == expected
        assert g.edge_array.dtype == np.int64 and g.edge_array.shape == (g.num_edges, 2)
        assert g.degrees.dtype == g.out_degrees.dtype == np.int64


@given(st.integers(1, 6), st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), max_size=12))
@example(1, [])  # the edgeless graph of one qubit, as product_state builds it
@example(1, [(0, 0)])
@example(3, [(0, 1), (2, 5), (1, 0)])  # a duplicate before an out-of-range edge wins
@example(3, [(0, 1), (2, 2), (1, 0)])
@example(3, [(0, 1), (0, 5), (1, 0)])  # an out-of-range edge before a repeat wins
def test_int_pairs_match_reference(num_vertices, edges):
    _assert_matches_reference(num_vertices, edges)


@st.composite
def _in_range_pairs(draw):
    """A vertex count and pairs of its vertices, so that self-loops and
    repeated pairs are common."""
    m = draw(st.integers(1, 5))
    vertex = st.integers(0, m - 1)
    return m, draw(st.lists(st.tuples(vertex, vertex), max_size=10))


@given(_in_range_pairs())
@example((3, [(0, 1), (1, 2), (1, 0), (2, 1)]))  # the first repeat is edges[2]
def test_in_range_pairs_match_reference(case):
    _assert_matches_reference(*case)


def test_first_repeat_named_in_a_long_list():
    # long enough that numpy's sort is no insertion sort: the repeat, not
    # the edge it repeats, is named, and the earlier of two repeats wins
    edges = [(i, i + 1) for i in range(300)] + [(151, 150), (6, 5)]
    _assert_matches_reference(301, edges)
    with pytest.raises(ValueError, match=re.escape("edges[300] (151, 150): duplicate")):
        DirectedGraph(301, edges)


_ENDPOINTS = st.one_of(
    st.integers(-1, 4),
    st.integers(-1, 4).map(np.int32),
    st.integers(-1, 4).map(np.int64),
    st.integers(0, 4).map(np.uint8),
    st.sampled_from([True, np.True_, 1.0, np.float64(2.0), 1.5, None, "1", 2**70, -(2**70)]),
)
_EDGES = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4)),
    st.tuples(_ENDPOINTS, _ENDPOINTS),
    st.lists(_ENDPOINTS, min_size=1, max_size=3),  # ragged and non-pair lists
    st.tuples(_ENDPOINTS, _ENDPOINTS, _ENDPOINTS),
    st.sampled_from([None, 5, "ab", ()]),
)


@given(st.integers(1, 5), st.lists(_EDGES, max_size=8))
@example(3, [(0, 1), (1, 0), (0, 1.5)])  # a repeat before a float endpoint wins
@example(3, [(0, 1), (1, 0), 5])  # a repeat before a non-pair wins
@example(3, [(np.int64(0), np.int64(1)), (np.int32(2), 1), (np.uint8(1), np.int64(0))])
def test_mixed_edges_match_reference(num_vertices, edges):
    _assert_matches_reference(num_vertices, edges)


@given(
    st.integers(1, 6),
    st.builds(
        np.ndarray.astype,
        hnp.arrays(
            np.int64,
            st.one_of(
                st.tuples(st.integers(0, 8), st.just(2)),
                st.tuples(st.integers(0, 3), st.integers(1, 3)),
                st.tuples(st.integers(0, 3)),
            ),
            elements=st.integers(-1, 6),
        ),
        st.sampled_from([np.int32, np.uint8, np.int64, np.uint64, np.bool_, np.float64]),
    ),
)
@example(3, np.array([[0, 2**63]], dtype=np.uint64))  # beyond int64: out of range, not wrapped
@example(3, np.array([[0, -1]], dtype=np.int32))
def test_ndarray_edges_match_reference(num_vertices, edges):
    # integer arrays are accepted like lists of their entries; bool and
    # float arrays are refused like bool and float endpoints
    _assert_matches_reference(num_vertices, edges)


def test_edges_from_an_iterator():
    g = DirectedGraph(3, ((a, (a + 1) % 3) for a in range(3)))
    assert g.edges == ((0, 1), (1, 2), (2, 0))
    with pytest.raises(ValueError, match=re.escape("edges[1] (1, 1): self-loop at vertex 1")):
        DirectedGraph(3, iter([(0, 1), (1, 1)]))


def test_graph_is_immutable():
    g = DirectedGraph(3, [(0, 1), (2, 1)])
    with pytest.raises(AttributeError):
        g.num_vertices = 4
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 2  # read-only
    edges = np.array([[0, 1]])
    h = DirectedGraph(2, edges)
    edges[0] = (1, 0)  # the graph holds its own copy
    assert h.edges == ((0, 1),)


def test_benchmark_contract(monkeypatch):
    # The benchmark's traced run wraps DirectedGraph.__post_init__ on the
    # class, reads num_edges after it, and hashes tuple(graph.edges).
    validated = []
    original = DirectedGraph.__post_init__

    def traced(self, *args):
        original(self, *args)
        validated.append(self.num_edges)

    monkeypatch.setattr(DirectedGraph, "__post_init__", traced)
    g = DirectedGraph(3, [(0, 1), (2, 1)])
    assert validated == [2]
    assert g.num_edges == 2
    assert isinstance(hash(tuple(g.edges)), int)


@pytest.mark.parametrize("num_vertices", [0, True, 2.0, "3"])
def test_zero_vertices_rejected(num_vertices):
    # True, 2.0 and "3" are refused, not read as 1, 2 or 3 vertices
    with pytest.raises(ValueError, match="^num_vertices "):
        DirectedGraph(num_vertices, [])
    with pytest.raises(ValueError, match="^num_vertices "):
        random_graph(num_vertices, np.random.default_rng(0))


def test_neighbors_and_degree():
    g = DirectedGraph(3, [(0, 1), (2, 1), (0, 2)])
    assert g.out_degrees.tolist() == [2, 0, 1]
    assert g.degrees.tolist() == [2, 2, 2]


def test_binary_tree_depth2_degrees():
    g = gen_full_binary_tree(2)
    assert g.degrees[0] == 2
    assert g.degrees[1] == 1 and g.degrees[2] == 1


def test_young_fibonacci_3_degree_multiset():
    g = gen_young_fibonacci(3)
    assert sorted(g.degrees) == [1, 1, 2, 2, 3, 3]


def _assert_degrees_match_edge_scan(g):
    vertices = range(g.num_vertices)
    assert g.degrees.tolist() == [sum(1 for a, b in g.edges if i in (a, b)) for i in vertices]
    assert g.out_degrees.tolist() == [sum(1 for a, _ in g.edges if a == i) for i in vertices]


@given(directed_graphs(max_vertices=10), st.data())
def test_degree_vector_matches_edge_scan(g, data):
    _assert_degrees_match_edge_scan(g)
    if g.edges:
        flipped = flip_edge(g, data.draw(st.integers(0, len(g.edges) - 1)))
        _assert_degrees_match_edge_scan(flipped)
        assert flipped.degrees.tolist() == g.degrees.tolist()
    relabeled = permute_vertices(g, data.draw(st.permutations(range(g.num_vertices))))
    _assert_degrees_match_edge_scan(relabeled)


# ----------------------------------------------------------------------
# degree distribution
# ----------------------------------------------------------------------

def test_distribution_empty_graph():
    g = DirectedGraph(3, [])
    assert degree_distribution(g).counts == {0: 3}


def test_distribution_young_fibonacci_3():
    assert degree_distribution(gen_young_fibonacci(3)).counts == {1: 2, 2: 2, 3: 2}


def test_distribution_ffnn_3442():
    # layer degrees: input M2=4, hidden M1+M3=7 and M2+M4=6, output M3=4
    assert degree_distribution(gen_ffnn((3, 4, 4, 2))).counts == {4: 5, 6: 4, 7: 4}


@given(directed_graphs())
def test_distribution_counts_sum_to_vertices(g):
    dist = degree_distribution(g)
    assert sum(dist.counts.values()) == g.num_vertices


def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({})
    with pytest.raises(ValueError):
        DegreeDistribution({5: 2})  # degree 5 impossible on 2 vertices
    with pytest.raises(ValueError):
        DegreeDistribution({1: 0})
    with pytest.raises(ValueError, match="odd"):
        DegreeDistribution({0: 1, 1: 1})  # handshake lemma
    with pytest.raises(ValueError, match="Erdos-Gallai"):
        DegreeDistribution({3: 2, 1: 2})  # two hubs on 4 vertices leave no degree-1 vertex


def test_a_graphs_distribution_skips_the_checks_a_callers_counts_get(monkeypatch):
    # A graph's own degrees are graphical by construction; counts a caller
    # hands in still get every check, Erdos-Gallai included.
    checked = []
    erdos_gallai = graphs._erdos_gallai
    monkeypatch.setattr(graphs, "_erdos_gallai", lambda counts: checked.append(1) or erdos_gallai(counts))
    rng = np.random.default_rng(3)
    for g in [gen_young_fibonacci(5), gen_ffnn((3, 4, 2)), random_graph(30, rng, 0.3), DirectedGraph(1, [])]:
        dist = degree_distribution(g)
        assert dist == DegreeDistribution(Counter(g.degrees.tolist()))
        assert all(type(k) is int and type(n) is int for k, n in dist.counts.items())
    assert len(checked) == 4  # one per DegreeDistribution above, none for the graphs
    with pytest.raises(
        ValueError,
        match=r"^degrees \{1: 2, 3: 2\} fail the Erdos-Gallai inequalities: no simple graph has them$",
    ):
        DegreeDistribution({3: 2, 1: 2})
    assert len(checked) == 5


def _havel_hakimi(degrees):
    """Reference graphicality test: repeatedly join the largest-degree vertex
    to the next largest ones."""
    seq = sorted(degrees, reverse=True)
    while seq and seq[0] > 0:
        d = seq.pop(0)
        if d > len(seq):
            return False
        for i in range(d):
            seq[i] -= 1
        if seq and min(seq) < 0:
            return False
        seq.sort(reverse=True)
    return True


@given(st.lists(st.integers(0, 8), min_size=1, max_size=9))
def test_distribution_accepts_exactly_graphical_sequences(degrees):
    if _havel_hakimi(degrees):
        assert DegreeDistribution(Counter(degrees)).num_vertices == len(degrees)
    else:
        with pytest.raises(ValueError):
            DegreeDistribution(Counter(degrees))


@given(st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_random_graph_distributions_are_accepted(n, edge_prob, seed):
    g = random_graph(n, np.random.default_rng(seed), edge_prob)
    assert degree_distribution(g).num_vertices == n


# ----------------------------------------------------------------------
# generators: counts and degree distributions vs the closed-form counting
# ----------------------------------------------------------------------

def _drop_zeros(counts):
    return {k: n for k, n in counts.items() if n}


@pytest.mark.parametrize("n", range(2, 9))
def test_young_fibonacci_counts(n):
    g = gen_young_fibonacci(n)
    assert g.num_vertices == n * (n + 1) // 2
    assert g.num_edges == n * (n - 1)
    expected = _drop_zeros({1: 2, 2: n - 1, 3: 2 * (n - 2), 4: (n - 2) * (n - 3) // 2})
    assert degree_distribution(g).counts == expected


def test_young_fibonacci_4_distribution():
    assert degree_distribution(gen_young_fibonacci(4)).counts == {1: 2, 2: 3, 3: 4, 4: 1}


def test_young_fibonacci_rejects_small():
    with pytest.raises(ValueError):
        gen_young_fibonacci(1)
    with pytest.raises(ValueError, match="num_layers 3.5 is not an integer"):
        gen_young_fibonacci(3.5)


def test_generators_bound_their_size_before_they_allocate(monkeypatch):
    # Each count is refused before numpy is reached, so these fail fast
    # instead of filling memory.
    monkeypatch.setattr(graphs, "np", NoNumpy())
    with pytest.raises(ValueError, match=r"^num_vertices 50000000005000000000 is more than 2\^63 - 1$"):
        gen_young_fibonacci(10**10)
    with pytest.raises(ValueError, match=r"^num_vertices 9223372036854775811 is more than 2\^63 - 1$"):
        gen_bridged_cycles((2**62, 2**62, 3))


@pytest.mark.parametrize(
    "generate, size, edges",
    [
        (gen_young_fibonacci, 4, 12),
        (gen_ffnn, (3, 4, 2), 20),
        (gen_full_binary_tree, 3, 6),
        (gen_bridged_cycles, (3, 4, 5), 14),
    ],
)
def test_generators_bound_their_edges_by_memory(monkeypatch, generate, size, edges):
    # The edge count comes from the family's degree counts; a build that
    # needs more than the available memory, _EDGE_BYTES per edge, is
    # refused before numpy allocates anything.
    need = graphs._EDGE_BYTES * edges
    assert generate(size).num_edges == edges
    monkeypatch.setattr(graphs, "_available_bytes", lambda: need)
    assert generate(size).num_edges == edges
    monkeypatch.setattr(graphs, "_available_bytes", lambda: None)  # unreadable: no check
    assert generate(size).num_edges == edges
    monkeypatch.setattr(graphs, "_available_bytes", lambda: need - 1)
    monkeypatch.setattr(graphs, "np", NoNumpy())
    with pytest.raises(ValueError, match=rf" has {edges} edges, which need {need} bytes, "):
        generate(size)


@pytest.mark.parametrize(
    "generate, size",
    [
        (gen_young_fibonacci, 450),
        (gen_ffnn, (500, 400)),
        (gen_ffnn, (50,) * 40),
        (gen_full_binary_tree, 18),
        (gen_bridged_cycles, (100000, 100000)),
        (gen_bridged_cycles, (3,) * 60000),
    ],
    ids=["yf", "ffnn-2", "ffnn-40", "btree", "bridged-2", "bridged-60000"],
)
def test_generator_peak_fits_the_memory_bound(generate, size):
    # About 2e5 edges each: generating and validating the graph, tracked by
    # tracemalloc (numpy reports its buffers to it), stays within the
    # _EDGE_BYTES per edge that the bound charges.
    generate(size)  # first-call allocations are not the family's
    tracemalloc.start()
    try:
        graph = generate(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.num_edges > 90_000
    assert peak <= graphs._EDGE_BYTES * graph.num_edges


@pytest.mark.parametrize(
    "generate, size",
    [
        (gen_young_fibonacci, 450),
        (gen_ffnn, (500, 400)),
        (gen_ffnn, (50,) * 40),
        (gen_full_binary_tree, 18),
        (gen_bridged_cycles, (100000, 100000)),
        (gen_bridged_cycles, (3,) * 60000),
    ],
    ids=["yf", "ffnn-2", "ffnn-40", "btree", "bridged-2", "bridged-60000"],
)
def test_generate_and_save_peak_fits_the_memory_bound(tmp_path, generate, size):
    # Writing the graph in chunks holds no list or text of every edge, so
    # generating and saving it stays within the generators' bound too.
    path = str(tmp_path / "g.json")
    save_graph(generate(size), path)  # first-call allocations are not the family's
    tracemalloc.start()
    try:
        graph = generate(size)
        save_graph(graph, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.num_edges > 90_000
    assert peak <= graphs._EDGE_BYTES * graph.num_edges


FAMILIES = st.one_of(
    st.tuples(st.just("yf"), st.integers(2, 12)),
    st.tuples(st.just("ffnn"), st.lists(st.integers(1, 6), min_size=2, max_size=6).map(tuple)),
    st.tuples(st.just("btree"), st.integers(1, 9)),
    st.tuples(st.just("bridged"), st.lists(st.integers(3, 9), min_size=2, max_size=6).map(tuple)),
)
RULES = {
    "yf": (young_fibonacci_degree_counts, gen_young_fibonacci),
    "ffnn": (ffnn_degree_counts, gen_ffnn),
    "btree": (full_binary_tree_degree_counts, gen_full_binary_tree),
    "bridged": (bridged_cycles_degree_counts, gen_bridged_cycles),
}


@given(FAMILIES)
def test_degree_count_rule_is_the_built_graphs_distribution(family):
    name, size = family
    count, generate = RULES[name]
    assert count(size) == degree_distribution(generate(size)).counts


@pytest.mark.parametrize("n", range(1, 9))
def test_binary_tree_counts(n):
    g = gen_full_binary_tree(n)
    assert g.num_vertices == 2**n - 1
    assert g.num_edges == g.num_vertices - 1
    if n == 1:
        expected = {0: 1}
    else:
        expected = _drop_zeros({1: 2 ** (n - 1), 2: 1, 3: 2 * (2 ** (n - 2) - 1)})
    assert degree_distribution(g).counts == expected


def test_binary_tree_4_distribution():
    assert degree_distribution(gen_full_binary_tree(4)).counts == {1: 8, 2: 1, 3: 6}


def test_binary_tree_rejects_zero():
    with pytest.raises(ValueError):
        gen_full_binary_tree(0)
    with pytest.raises(ValueError, match="depth 2.5 is not an integer"):
        gen_full_binary_tree(2.5)


@pytest.mark.parametrize(
    "sizes",
    [(1, 1), (2, 2), (3, 4, 4, 2), (1, 2, 2, 1), (6, 1, 6), (2, 3, 4, 5, 6)],
)
def test_ffnn_counts(sizes):
    g = gen_ffnn(sizes)
    assert g.num_vertices == sum(sizes)
    assert g.num_edges == sum(a * b for a, b in zip(sizes, sizes[1:]))
    expected = {}
    for i, m in enumerate(sizes):
        if i == 0:
            d = sizes[1]
        elif i == len(sizes) - 1:
            d = sizes[-2]
        else:
            d = sizes[i - 1] + sizes[i + 1]
        expected[d] = expected.get(d, 0) + m
    assert degree_distribution(g).counts == expected


def test_ffnn_3442_shape():
    g = gen_ffnn((3, 4, 4, 2))
    assert g.num_vertices == 13
    assert g.num_edges == 12 + 16 + 8


def test_ffnn_22_all_degree_two():
    g = gen_ffnn((2, 2))
    assert degree_distribution(g).counts == {2: 4}


@pytest.mark.parametrize("sizes", [(3,), (), (2, 0, 2), (3, 2.5), (True, 2)])
def test_ffnn_rejects_bad_layers(sizes):
    with pytest.raises(ValueError):
        gen_ffnn(sizes)


@pytest.mark.parametrize("sizes", [(3, 3), (3, 3, 3), (5, 5), (3, 4, 3), (4, 6, 5)])
def test_bridged_cycles_counts(sizes):
    g = gen_bridged_cycles(sizes)
    n = len(sizes)
    assert g.num_vertices == sum(sizes)
    assert g.num_edges == sum(sizes) + n - 1
    expected = {2: sum(sizes) - 2 * n + 2, 3: 2 * (n - 1)}
    assert degree_distribution(g).counts == expected


def test_bridged_cycles_examples():
    assert degree_distribution(gen_bridged_cycles((3, 3))).counts == {2: 4, 3: 2}
    assert degree_distribution(gen_bridged_cycles((3, 3, 3))).counts == {2: 5, 3: 4}
    assert degree_distribution(gen_bridged_cycles((5, 5))).counts == {2: 8, 3: 2}


@pytest.mark.parametrize("sizes", [(3,), (3, 2), (2, 3), (3, 3.7)])
def test_bridged_cycles_rejects_bad_sizes(sizes):
    with pytest.raises(ValueError):
        gen_bridged_cycles(sizes)


def test_bridged_cycles_alternate_placement_same_distribution():
    # The bridge endpoints are a free choice; any valid placement gives the
    # same degree distribution, hence the same entanglement.
    g = gen_bridged_cycles((3, 4, 3))
    sizes = (3, 4, 3)
    starts = [0, 3, 7]
    edges = []
    for i, s in enumerate(sizes):
        for t in range(s):
            edges.append((starts[i] + t, starts[i] + (t + 1) % s))
    # bridges leaving from local vertex 1 instead of 0, entering local 0
    edges.append((starts[0] + 1, starts[1]))
    edges.append((starts[1] + 1, starts[2]))
    alt = DirectedGraph(10, edges)
    assert degree_distribution(alt).counts == degree_distribution(g).counts


# ----------------------------------------------------------------------
# transformations
# ----------------------------------------------------------------------

def test_identity_permutation_is_noop():
    g = gen_young_fibonacci(3)
    assert permute_vertices(g, range(g.num_vertices)) == g


def test_flip_twice_restores():
    g = gen_bridged_cycles((3, 3))
    assert flip_edge(flip_edge(g, 4), 4) == g


def test_invalid_permutation_rejected():
    g = DirectedGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        permute_vertices(g, [0, 0, 1])
    with pytest.raises(ValueError):
        permute_vertices(g, [0, 1])
    with pytest.raises(ValueError, match="permutation entry 0.2 is not an integer"):
        permute_vertices(g, [0.2, 1.9, 2.0])  # not truncated to [0, 1, 2]


def test_flip_bad_index_rejected():
    g = DirectedGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        flip_edge(g, 1)
    with pytest.raises(ValueError, match="edge index 0.5 is not an integer"):
        flip_edge(g, 0.5)


@given(directed_graphs(max_vertices=10), st.data())
def test_derived_graphs_equal_validated_ones(g, data):
    # flip_edge and permute_vertices derive their graphs without validating
    # them again: each must equal the graph validated from its edges.
    derived = [permute_vertices(g, data.draw(st.permutations(range(g.num_vertices))))]
    if g.num_edges:
        derived.append(flip_edge(g, data.draw(st.integers(0, g.num_edges - 1))))
    build_graph_state_rows([(h, InitialQubit(0.3), InteractionParams(0.7)) for h in derived])
    for h in derived:
        # the oracle counts the out-degrees it needs from the edges: building
        # a derived graph's state leaves its degree vectors uncounted
        assert "degrees" not in vars(h) and "out_degrees" not in vars(h)
        rebuilt = DirectedGraph(h.num_vertices, h.edges)
        assert h == rebuilt and hash(h) == hash(rebuilt)
        assert h.edges == rebuilt.edges
        assert np.array_equal(h.degrees, rebuilt.degrees)
        assert np.array_equal(h.out_degrees, rebuilt.out_degrees)
        assert not h.edge_array.flags.writeable
        for graph in g, h, rebuilt:
            for counts in graph.degrees, graph.out_degrees:
                assert counts.dtype == np.int64 and not counts.flags.writeable


def test_binary_tree_edge_order():
    assert gen_full_binary_tree(3).edges == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))
    assert gen_full_binary_tree(1).edges == ()


@given(directed_graphs(), st.randoms(use_true_random=False))
def test_permutation_pushes_degrees_through(g, rnd):
    perm = list(range(g.num_vertices))
    rnd.shuffle(perm)
    h = permute_vertices(g, perm)
    for i in range(g.num_vertices):
        assert h.degrees[perm[i]] == g.degrees[i]
    assert degree_distribution(h).counts == degree_distribution(g).counts


@given(directed_graphs(min_vertices=2), st.data())
def test_flip_preserves_degrees(g, data):
    if not g.edges:
        return
    idx = data.draw(st.integers(0, len(g.edges) - 1))
    h = flip_edge(g, idx)
    assert h.degrees.tolist() == g.degrees.tolist()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

@given(directed_graphs())
def test_json_round_trip(g):
    assert from_json(to_json(g)) == g


def test_json_format():
    g = DirectedGraph(3, [(0, 2), (2, 1)])
    data = json.loads(to_json(g))
    assert data == {"num_vertices": 3, "edges": [[0, 2], [2, 1]]}


def test_file_round_trip(tmp_path):
    g = gen_ffnn((2, 3, 1))
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    assert load_graph(path) == g


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        from_json('{"edges": [[0, 1]]}')


@pytest.mark.parametrize(
    "text, field",
    [
        ('[{"num_vertices": 2, "edges": []}]', "top level"),
        ('{"num_vertices": true, "edges": []}', "num_vertices"),
        ('{"num_vertices": 2.7, "edges": []}', "num_vertices"),
        ('{"num_vertices": "2", "edges": []}', "num_vertices"),
        ('{"num_vertices": 3, "edges": {"0": 1}}', "edges"),
        ('{"num_vertices": 3, "edges": [[0, 1], [1, 2, 5]]}', "edges[1]"),
        ('{"num_vertices": 3, "edges": [[0]]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [[0, true]]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [[0, 1.0]]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [["0", 1]]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [[0, 1], 5]}', "edges[1]"),
        ('{"num_vertices": 3, "edges": [null]}', "edges[0]"),
        ('{"num_vertices": 3, "edges": [[0, 1], [2, 2]]}', "edges[1]"),
        ('{"num_vertices": 3, "edges": [[0, 3]]}', "edges[0]"),
    ],
    ids=[
        "top-level-list",
        "num-vertices-bool",
        "num-vertices-float",
        "num-vertices-string",
        "edges-object",
        "edge-three-elements",
        "edge-one-element",
        "endpoint-bool",
        "endpoint-float",
        "endpoint-string",
        "edge-integer",
        "edge-null",
        "self-loop",
        "endpoint-out-of-range",
    ],
)
def test_strict_json_rejected(text, field):
    with pytest.raises(ValueError, match=f"malformed graph JSON: {re.escape(field)} "):
        from_json(text)


# ----------------------------------------------------------------------
# random graphs
# ----------------------------------------------------------------------

def test_random_graph_seeded_determinism():
    a = random_graph(8, np.random.default_rng(123))
    b = random_graph(8, np.random.default_rng(123))
    assert a == b
    assert a.num_vertices == 8
