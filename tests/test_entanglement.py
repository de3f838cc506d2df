import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphent.entanglement import (
    EdReport,
    ed_binary_tree,
    ed_binary_tree_limit,
    ed_bridged_cycles,
    ed_closed_form,
    ed_closed_general,
    ed_ffnn,
    ed_ffnn_output_self_exponent,
    ed_general_report,
    ed_numeric,
    ed_young_fibonacci,
    ed_young_fibonacci_limit,
    pauli_vector_closed,
    two_qubit_ed_analytic,
)
from graphent.graphs import (
    DegreeDistribution,
    DirectedGraph,
    bridged_cycles_degree_counts,
    degree_distribution,
    flip_edge,
    full_binary_tree_degree_counts,
    gen_bridged_cycles,
    gen_ffnn,
    gen_full_binary_tree,
    gen_young_fibonacci,
    permute_vertices,
    random_graph,
    young_fibonacci_degree_counts,
)
from graphent.statevector import (
    InitialQubit,
    InteractionParams,
    PureState,
    build_graph_state,
    pauli_vectors,
    product_state,
)

from helpers import angles, directed_graphs, grid, probabilities
from test_density import GRID_P, GRID_THETA, same_bits

BALANCED = InitialQubit()


def balanced_state(g, theta, psi=0.0):
    return build_graph_state(g, BALANCED, InteractionParams(theta, psi))


# ----------------------------------------------------------------------
# numeric route
# ----------------------------------------------------------------------

@given(probabilities, angles, angles)
@settings(max_examples=50)
def test_product_state_has_zero_ed(p, d0, d1):
    report = ed_numeric(product_state(4, InitialQubit(p, d0, d1)))
    assert abs(report.total) <= 1e-12


def test_single_edge_maximal():
    g = DirectedGraph(2, [(0, 1)])
    assert ed_numeric(balanced_state(g, math.pi / 2)).total == pytest.approx(1.0, abs=1e-12)


def test_single_edge_half():
    g = DirectedGraph(2, [(0, 1)])
    assert ed_numeric(balanced_state(g, math.pi / 4)).total == pytest.approx(0.5, abs=1e-12)


def test_ed_numeric_rejects_unnormalized():
    with pytest.raises(ValueError):
        ed_numeric(PureState(1, np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match="not normalized: norm error nan"):
        ed_numeric(PureState(1, np.array([math.nan, 0.0])))
    with pytest.raises(ValueError, match="not normalized: norm error 1.000e"):
        pauli_vectors(PureState(1, np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match="not normalized: norm error nan"):
        pauli_vectors(PureState(1, np.array([math.nan, 0.0])))


def test_report_mean_invariant():
    report = ed_numeric(balanced_state(gen_young_fibonacci(3), 0.9))
    assert report.total == pytest.approx(sum(report.per_vertex) / 6, abs=1e-15)
    assert len(report.per_vertex) == 6


def test_report_validation():
    with pytest.raises(ValueError):
        EdReport(())
    with pytest.raises(ValueError):
        EdReport((1.5, 1.5))  # mean outside [0, 1]


def test_report_mean_is_exactly_rounded():
    # A plain left-to-right sum drifts here, to 0.10000000000133288.
    assert EdReport((0.1,) * 10**6).total == 0.1


# ----------------------------------------------------------------------
# closed forms over degree distributions
# ----------------------------------------------------------------------

def test_closed_form_no_edges():
    for theta in grid(0.0, math.pi, 9):
        assert ed_closed_form({0: 5}, theta) == 0.0


def test_closed_form_pair_at_max():
    assert ed_closed_form({1: 2}, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_closed_form_young_fibonacci_3():
    assert ed_closed_form({1: 2, 2: 2, 3: 2}, math.pi / 4) == pytest.approx(17 / 24, abs=1e-15)


def test_closed_form_rejects_empty():
    # and every other invalid entry: refused, never truncated or divided by a
    # zero vertex count
    for counts in ({}, {-1: 3}, {2: 0}, {1: -2}, {1: 2.5}, {1.9: 2}, {True: 2}):
        with pytest.raises(ValueError):
            ed_closed_form(counts, 0.7)
        with pytest.raises(ValueError):
            ed_closed_general(counts, 0.3, 0.7)
        with pytest.raises(ValueError):
            DegreeDistribution(counts)


def test_closed_form_accepts_counts_no_graph_has():
    # entry checks only: layer sizes (1, 2, 1) with the output layer's own
    # width as its exponent give degrees {2: 3, 1: 1}, an odd degree sum
    counts = Counter({2: 3, 1: 1})
    with pytest.raises(ValueError, match="odd"):
        DegreeDistribution(counts)
    assert ed_closed_form(counts, 0.7) == pytest.approx(
        ed_ffnn_output_self_exponent(0.7, (1, 2, 1)), abs=1e-15
    )
    assert ed_closed_form({np.int64(1): np.int32(2)}, 0.7) == ed_closed_form({1: 2}, 0.7)


def test_general_reduces_to_balanced():
    dist = {1: 2, 2: 3, 3: 1}
    for theta in grid(0.0, math.pi, 17):
        assert ed_closed_general(dist, 0.5, theta) == pytest.approx(
            ed_closed_form(dist, theta), abs=1e-12
        )


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_general_classical_inputs_give_zero(p):
    assert ed_closed_general({1: 2, 3: 4}, p, 1.1) == pytest.approx(0.0, abs=1e-15)


def test_general_spot_value():
    # r^2 = 1/4 at (p=1/4, theta=pi/2); 1 - 1/4 - 3/4 * 1/4 = 9/16
    assert ed_closed_general({1: 2}, 0.25, math.pi / 2) == pytest.approx(9 / 16, abs=1e-15)


def test_general_rejects_bad_p():
    with pytest.raises(ValueError):
        ed_closed_general({1: 2}, 1.2, 0.5)


# The closed forms a sweep or verify reads, as value(counts, p, theta).
ARRAY_FORMS = {
    "ed_closed_general": ed_closed_general,
    "ed_closed_form": lambda counts, p, theta: ed_closed_form(counts, theta),
    "ed_young_fibonacci_limit": lambda counts, p, theta: ed_young_fibonacci_limit(theta),
    "ed_binary_tree_limit": lambda counts, p, theta: ed_binary_tree_limit(theta),
}


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.integers(0, 40), st.integers(1, 10**6), min_size=1, max_size=6),
    st.lists(GRID_P, min_size=1, max_size=7),
    st.lists(GRID_THETA, min_size=1, max_size=7),
)
# The figure sweeps' grids, where numpy's array power disagrees with Python's
# `**` in the last bit on some points.
@example(young_fibonacci_degree_counts(10), grid(0.0, 1.0, 11), grid(0.0, math.pi, 201))
def test_closed_forms_on_arrays_have_the_scalar_bits(counts, ps, thetas):
    # Three shapes: theta columns x p rows (a 2-D sweep), a theta array at a
    # fixed p (a 1-D sweep), and same-shape (p, theta) pairs (verify's draws).
    pairs = min(len(ps), len(thetas))
    for name, form in ARRAY_FORMS.items():
        table = np.broadcast_to(form(counts, np.array([ps]), np.array(thetas)[:, None]), (len(thetas), len(ps)))
        column = form(counts, ps[0], np.array(thetas))
        paired = form(counts, np.array(ps[:pairs]), np.array(thetas[:pairs]))
        assert column.shape == (len(thetas),) and paired.shape == (pairs,)
        for i, theta in enumerate(thetas):
            for j, p in enumerate(ps):
                scalar = form(counts, p, theta)
                assert type(scalar) is float, name  # a float in gives a float out
                assert same_bits(table[i, j], scalar), (name, p, theta)
                if j == 0:
                    assert same_bits(column[i], scalar), (name, p, theta)
                if i == j:
                    assert same_bits(paired[i], scalar), (name, p, theta)


def test_reports_match_distribution_forms():
    g = gen_bridged_cycles((3, 4, 3))
    dist = degree_distribution(g)
    balanced = ed_general_report(g, 0.5, 0.7)
    assert balanced.total == pytest.approx(ed_closed_form(dist, 0.7), abs=1e-14)
    general = ed_general_report(g, 0.3, 0.7)
    assert general.total == pytest.approx(ed_closed_general(dist, 0.3, 0.7), abs=1e-14)


@given(directed_graphs(max_vertices=10), angles)
@example(DirectedGraph(7, [(0, i) for i in range(1, 7)]), 1 / 3)
def test_closed_report_is_general_report_at_half(g, theta):
    # exact: p = 1/2 zeroes (1-2p)^2 and makes 4p(1-p) one, so the general
    # formula gives the bits of the balanced one, 1 - cos^2(theta)^d, in
    # Python's float power (numpy's power on the int64 degrees may differ in
    # the last bit)
    balanced = tuple(1.0 - (math.cos(theta) ** 2) ** d for d in g.degrees.tolist())
    assert ed_general_report(g, 0.5, theta).per_vertex == balanced


def test_per_vertex_contribution_depends_only_on_degree():
    g = gen_young_fibonacci(4)
    report = ed_general_report(g, 0.5, 1.07)
    by_degree = {}
    for i, value in enumerate(report.per_vertex):
        by_degree.setdefault(g.degrees[i], set()).add(round(value, 14))
    assert all(len(vals) == 1 for vals in by_degree.values())


@given(st.integers(1, 12), st.floats(min_value=0.05, max_value=1.5))
def test_contribution_monotone_in_degree(k, theta):
    # 0 < cos(theta) < 1 on this range, so deeper coordination always helps;
    # compare the cosine powers directly to dodge 1-x rounding near x=0
    c2 = math.cos(theta) ** 2
    assert c2 ** (k + 1) < c2**k


# ----------------------------------------------------------------------
# oracle equivalence on random graphs
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(directed_graphs(max_vertices=6), angles, angles)
def test_closed_form_matches_oracle(g, theta, psi):
    numeric = ed_numeric(balanced_state(g, theta, psi)).total
    closed = ed_closed_form(degree_distribution(g), theta)
    assert abs(numeric - closed) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(directed_graphs(max_vertices=6), angles, angles, probabilities, angles, angles)
def test_general_form_matches_oracle(g, theta, psi, p, d0, d1):
    state = build_graph_state(g, InitialQubit(p, d0, d1), InteractionParams(theta, psi))
    closed = ed_closed_general(degree_distribution(g), p, theta)
    assert abs(ed_numeric(state).total - closed) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(directed_graphs(max_vertices=5), angles)
def test_ed_independent_of_psi(g, theta):
    values = [
        ed_numeric(balanced_state(g, theta, psi)).total for psi in (-2.0, 0.0, 0.31, 1.7)
    ]
    assert max(values) - min(values) <= 1e-10


# ----------------------------------------------------------------------
# closed-form Pauli vector
# ----------------------------------------------------------------------

def test_pauli_vector_trivial_vertex():
    vec = pauli_vector_closed(0, 0, BALANCED, InteractionParams(0.7, 0.2))
    assert np.allclose(vec, [1.0, 0.0, 0.0], atol=1e-15)


@given(st.integers(0, 4), st.integers(0, 4), probabilities, angles, angles)
@settings(max_examples=60)
def test_pauli_vector_z_component(d_out, d_in, p, theta, psi):
    vec = pauli_vector_closed(d_out, d_in, InitialQubit(p), InteractionParams(theta, psi))
    assert vec[2] == pytest.approx(1 - 2 * p, abs=1e-14)


@given(st.integers(0, 5), st.integers(0, 5), probabilities, angles, angles)
@settings(max_examples=60)
def test_pauli_vector_norm_only_sees_total_degree(d_out, d_in, p, theta, psi):
    params = InteractionParams(theta, psi)
    qubit = InitialQubit(p, 0.3, -0.8)
    split = pauli_vector_closed(d_out, d_in, qubit, params)
    lumped = pauli_vector_closed(d_out + d_in, 0, qubit, params)
    r2 = math.cos(theta) ** 2 + math.sin(theta) ** 2 * (1 - 2 * p) ** 2
    expected = (1 - 2 * p) ** 2 + 4 * p * (1 - p) * r2 ** (d_out + d_in)
    assert float(split @ split) == pytest.approx(expected, abs=1e-12)
    assert float(split @ split) == pytest.approx(float(lumped @ lumped), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(directed_graphs(max_vertices=5), angles, angles, probabilities, angles, angles)
def test_pauli_vector_norm_matches_simulation(g, theta, psi, p, d0, d1):
    qubit = InitialQubit(p, d0, d1)
    params = InteractionParams(theta, psi)
    state = build_graph_state(g, qubit, params)
    for i, numeric in enumerate(pauli_vectors(state)):
        closed = pauli_vector_closed(g.out_degrees[i], g.degrees[i] - g.out_degrees[i], qubit, params)
        assert float(numeric @ numeric) == pytest.approx(float(closed @ closed), abs=1e-10)


def test_pauli_vector_components_match_simulation_at_zero_psi():
    g = DirectedGraph(4, [(0, 1), (2, 1), (1, 3)])
    qubit = InitialQubit(0.3, 0.4, -0.7)
    params = InteractionParams(1.1, 0.0)
    vectors = pauli_vectors(build_graph_state(g, qubit, params))
    for i in range(4):
        closed = pauli_vector_closed(g.out_degrees[i], g.degrees[i] - g.out_degrees[i], qubit, params)
        assert np.allclose(vectors[i], closed, atol=1e-12)


def test_pauli_vector_phase_convention_report():
    # delta = arg(z) + psi: every component of every vertex's closed vector
    # matches the oracle, at general inputs and angles, not only its norm.
    rng = np.random.default_rng(11)
    for m in (2, 4, 6, 7):
        g = random_graph(m, rng, edge_prob=0.6)
        qubit = InitialQubit(rng.uniform(0, 1), rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        params = InteractionParams(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        vectors = pauli_vectors(build_graph_state(g, qubit, params))
        for i in range(m):
            d_out, d_in = g.out_degrees[i], g.degrees[i] - g.out_degrees[i]
            closed = pauli_vector_closed(d_out, d_in, qubit, params)
            assert np.allclose(vectors[i], closed, rtol=0, atol=1e-12), (g, i)


def test_pauli_vector_rejects_negative_counts():
    with pytest.raises(ValueError):
        pauli_vector_closed(-1, 0, BALANCED, InteractionParams(1.0))
    # edge counts are integers: refused, not used as 1.5 or 1 edges
    with pytest.raises(ValueError, match="d_out 1.5 is not an integer"):
        pauli_vector_closed(1.5, 0, BALANCED, InteractionParams(1.0))
    with pytest.raises(ValueError, match="d_in True is not an integer"):
        pauli_vector_closed(1, True, BALANCED, InteractionParams(1.0))


# ----------------------------------------------------------------------
# two-qubit analytic
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "p, theta, expected",
    [(0.5, math.pi / 2, 1.0), (0.0, 1.3, 0.0), (1.0, 1.3, 0.0), (0.5, math.pi / 4, 0.5)],
)
def test_two_qubit_values(p, theta, expected):
    assert two_qubit_ed_analytic(p, theta) == pytest.approx(expected, abs=1e-15)


@given(probabilities, angles)
@settings(max_examples=40, deadline=None)
def test_two_qubit_matches_oracle(p, theta):
    g = DirectedGraph(2, [(0, 1)])
    state = build_graph_state(g, InitialQubit(p), InteractionParams(theta, 0.0))
    assert abs(ed_numeric(state).total - two_qubit_ed_analytic(p, theta)) <= 1e-10


# ----------------------------------------------------------------------
# per-topology formulas
# ----------------------------------------------------------------------

def test_young_fibonacci_spot_values():
    assert ed_young_fibonacci(math.pi / 2, 5) == pytest.approx(1.0, abs=1e-15)
    assert ed_young_fibonacci(math.pi / 4, 3) == pytest.approx(17 / 24, abs=1e-14)
    assert ed_young_fibonacci_limit(math.pi / 4) == pytest.approx(15 / 16, abs=1e-15)
    with pytest.raises(ValueError):
        ed_young_fibonacci(1.0, 1)
    with pytest.raises(ValueError, match="num_layers 3.5 is not an integer"):
        ed_young_fibonacci(0.5, 3.5)


@pytest.mark.parametrize("n", range(2, 9))
def test_young_fibonacci_matches_generator(n):
    dist = degree_distribution(gen_young_fibonacci(n))
    for theta in grid(0.0, math.pi, 17):
        assert abs(ed_young_fibonacci(theta, n) - ed_closed_form(dist, theta)) <= 1e-12


def test_ffnn_two_layers_is_pair_formula():
    for theta in grid(0.0, math.pi, 17):
        assert ed_ffnn(theta, (1, 1)) == pytest.approx(1 - math.cos(theta) ** 2, abs=1e-14)


def test_ffnn_spot_value():
    assert ed_ffnn(math.pi / 4, (3, 4, 4, 2)) == pytest.approx(31 / 32, abs=1e-14)
    assert ed_ffnn(math.pi / 2, (2, 5, 3)) == pytest.approx(1.0, abs=1e-15)
    # widths are integers: refused, not evaluated as (3, 2) or (1, 2)
    with pytest.raises(ValueError, match="layer size 2.5 is not an integer"):
        ed_ffnn(0.5, (3, 2.5))
    with pytest.raises(ValueError, match="layer size True is not an integer"):
        ed_ffnn(0.5, (True, 2))


@pytest.mark.parametrize("sizes", [(1, 1), (1, 2, 2, 1), (3, 4, 4, 2), (2, 2), (4, 1, 4)])
def test_ffnn_matches_generator(sizes):
    dist = degree_distribution(gen_ffnn(sizes))
    for theta in grid(0.0, math.pi, 17):
        assert abs(ed_ffnn(theta, sizes) - ed_closed_form(dist, theta)) <= 1e-12


def test_ffnn_output_self_exponent_variant_deviates():
    # at (3,4,4,2) the last two layer widths differ, so the variant parts company
    correct = ed_ffnn(math.pi / 4, (3, 4, 4, 2))
    variant = ed_ffnn_output_self_exponent(math.pi / 4, (3, 4, 4, 2))
    assert correct == pytest.approx(31 / 32, abs=1e-14)
    assert abs(variant - correct) > 1e-3
    # but it collapses to the correct form when the widths agree
    assert ed_ffnn_output_self_exponent(0.8, (2, 3, 3)) == pytest.approx(
        ed_ffnn(0.8, (2, 3, 3)), abs=1e-15
    )


def test_binary_tree_spot_values():
    assert ed_binary_tree(math.pi / 4, 2) == pytest.approx(7 / 12, abs=1e-14)
    assert ed_binary_tree(math.pi / 2, 6) == pytest.approx(1.0, abs=1e-15)
    assert ed_binary_tree(1.3, 1) == 0.0
    assert ed_binary_tree_limit(math.pi / 4) == pytest.approx(11 / 16, abs=1e-15)
    with pytest.raises(ValueError):
        ed_binary_tree(1.0, 0)
    with pytest.raises(ValueError, match="depth 2.5 is not an integer"):
        ed_binary_tree(0.5, 2.5)


@pytest.mark.parametrize("n", range(2, 9))
def test_binary_tree_matches_generator(n):
    dist = degree_distribution(gen_full_binary_tree(n))
    for theta in grid(0.0, math.pi, 17):
        assert abs(ed_binary_tree(theta, n) - ed_closed_form(dist, theta)) <= 1e-12


def test_bridged_cycles_spot_values():
    assert ed_bridged_cycles(math.pi / 4, 6, 2) == pytest.approx(19 / 24, abs=1e-14)
    assert ed_bridged_cycles(math.pi / 2, 12, 3) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ed_bridged_cycles(1.0, 9, 1)
    with pytest.raises(ValueError):
        ed_bridged_cycles(1.0, 5, 2)
    with pytest.raises(ValueError, match="total_vertices 7.5 is not an integer"):
        ed_bridged_cycles(0.5, 7.5, 2)
    with pytest.raises(ValueError, match="num_cycles 3.0 is not an integer"):
        ed_bridged_cycles(0.5, 9, 3.0)


@pytest.mark.parametrize("n", [2, 3])
def test_bridged_cycles_matches_generator(n):
    sizes = (3,) * n
    dist = degree_distribution(gen_bridged_cycles(sizes))
    for theta in grid(0.0, math.pi, 17):
        assert abs(ed_bridged_cycles(theta, 3 * n, n) - ed_closed_form(dist, theta)) <= 1e-12


# Sizes no graph could reach: each explicit polynomial against the closed
# total of its family's degree-count rule.  (ed_ffnn is that total itself.)
PAST_ANY_GRAPH = {
    "yf": (lambda t: ed_young_fibonacci(t, 4 * 10**9), young_fibonacci_degree_counts(4 * 10**9)),
    "btree": (lambda t: ed_binary_tree(t, 60), full_binary_tree_degree_counts(60)),
    "bridged": (
        lambda t: ed_bridged_cycles(t, 4 * 10**17 + 5, 3),
        bridged_cycles_degree_counts((10**17, 3 * 10**17, 5)),
    ),
}


@pytest.mark.parametrize("family", sorted(PAST_ANY_GRAPH))
def test_formulas_match_the_count_rules_past_any_graph(family):
    formula, counts = PAST_ANY_GRAPH[family]
    for theta in grid(0.0, math.pi, 33):
        assert abs(formula(theta) - ed_closed_form(counts, theta)) <= 1e-15


@pytest.mark.parametrize("depth", [40, 60, 63])
def test_binary_tree_formula_is_its_rule_total(depth):
    counts = full_binary_tree_degree_counts(depth)
    assert ed_closed_form(counts, 0.3) == ed_binary_tree(0.3, depth)


@pytest.mark.parametrize(
    "formula, args, message",
    [
        (ed_binary_tree, (0.3, 2000), r"^depth 2000 is more than 63: "),
        (ed_young_fibonacci, (0.3, 10**200), r"^num_vertices 5\d{399} is more than 2\^63 - 1$"),
        (ed_bridged_cycles, (0.3, 10**400, 2), r"^num_vertices 10{400} is more than 2\^63 - 1$"),
        (ed_ffnn, (0.3, (2**62, 2**62)), r"^num_vertices 9223372036854775808 is more than 2\^63 - 1$"),
    ],
    ids=["btree", "yf", "bridged", "ffnn"],
)
def test_formulas_refuse_oversized_families(formula, args, message):
    # The count rules' size checks, not an OverflowError from a float.
    with pytest.raises(ValueError, match=message):
        formula(*args)


def test_closed_total_ignores_labels_and_orientation():
    # fsum rounds once, so the order in which a graph lists its degrees
    # cannot move the closed total's bits.
    rng = np.random.default_rng(0)
    for _ in range(300):
        g = random_graph(int(rng.integers(3, 13)), rng)
        p, theta = rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)
        total = ed_closed_general(degree_distribution(g), p, theta)
        relabelled = permute_vertices(g, rng.permutation(g.num_vertices))
        assert ed_closed_general(degree_distribution(relabelled), p, theta) == total
        if g.num_edges:
            flipped = flip_edge(g, int(rng.integers(g.num_edges)))
            assert ed_closed_general(degree_distribution(flipped), p, theta) == total


# ----------------------------------------------------------------------
# range and asymptotics
# ----------------------------------------------------------------------

@given(directed_graphs(), angles)
def test_ed_range(g, theta):
    value = ed_closed_form(degree_distribution(g), theta)
    assert -1e-12 <= value <= 1.0 + 1e-12


def test_ed_zero_when_theta_multiple_of_pi():
    dist = degree_distribution(gen_young_fibonacci(4))
    assert ed_closed_form(dist, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert ed_closed_form(dist, math.pi) == pytest.approx(0.0, abs=1e-12)


def test_ed_one_at_max_point_when_all_connected():
    dist = degree_distribution(gen_ffnn((2, 3)))  # min degree 2 >= 1
    assert ed_closed_form(dist, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_young_fibonacci_deviation_scales_like_inverse_layers():
    thetas = grid(0.0, math.pi, 33)

    def max_dev(n):
        return max(abs(ed_young_fibonacci(t, n) - ed_young_fibonacci_limit(t)) for t in thetas)

    ratio = max_dev(50) / max_dev(100)
    assert 1.6 <= ratio <= 2.4


def test_binary_tree_converges_geometrically():
    for theta in grid(0.0, math.pi, 33):
        assert abs(ed_binary_tree(theta, 20) - ed_binary_tree_limit(theta)) <= 1e-5
