"""Directed simple graphs, degree bookkeeping, and layered topology families.

Vertices are 0-based.  Graphs are immutable after construction and simple in
the undirected sense: no self-loops and at most one edge per unordered vertex
pair, whichever way it points.  A graph holds its edges once, as the
read-only (E, 2) int64 array `edge_array`: a vectorised accept pass takes
valid integer input, and an explain pass names the first refused edge.  The
degree vectors are counted from it on demand.  `flip_edge` and
`permute_vertices` derive their array from a valid graph without a second
check.

Each topology family has a degree-count rule, `*_degree_counts(size)`, that
returns its {degree: vertices} in O(layers) or O(cycles) with no graph
built, so a closed form can total a family of any size up to 2^63 - 1
vertices; the rule owns the family's size checks.  Its generator, `gen_*`,
reads the vertex and edge counts from the rule and refuses a family whose
build would not fit in memory, _EDGE_BYTES per edge, before it allocates;
it then writes the edge array with numpy.  Generators number layers from the
top/input side and vertices left-to-right within a layer, and orient all
edges downstream, so identical parameters always produce identical graphs.
"""

from __future__ import annotations

import functools
import json
import numbers
import operator
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DirectedGraph",
    "DegreeDistribution",
    "degree_distribution",
    "young_fibonacci_degree_counts",
    "gen_young_fibonacci",
    "ffnn_layer_sizes",
    "ffnn_degree_counts",
    "gen_ffnn",
    "full_binary_tree_degree_counts",
    "gen_full_binary_tree",
    "bridged_cycles_degree_counts",
    "gen_bridged_cycles",
    "permute_vertices",
    "flip_edge",
    "random_graph",
    "to_json",
    "from_json",
    "save_graph",
    "load_graph",
]


def _integer(x: object, what: str) -> int:
    """x as a plain int: numpy integers pass, while floats and bools are
    refused rather than truncated."""
    if not isinstance(x, bool):  # operator.index(True) is 1
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} {x!r} is not an integer")


# Bytes per edge that generating and validating a family's graph peak at,
# the edge array, its validated copy and the pair keys included: tracemalloc
# read 64 (ffnn) to 76 (bridged 3-cycles) at about 2e5 edges, and the tests
# hold every family to this bound.
_EDGE_BYTES = 80


def _vertex_count(m: object) -> int:
    """A checked vertex count: an integer from 1 to 2^63 - 1, so that every
    vertex index fits the int64 edge array."""
    m = _integer(m, "num_vertices")
    if m < 1:
        raise ValueError(f"num_vertices must be >= 1, got {m}")
    if m >= 2**63:
        raise ValueError(f"num_vertices {m} is more than 2^63 - 1")
    return m


def _available_bytes(meminfo: str = "/proc/meminfo") -> int | None:
    """MemAvailable in bytes, or None where it cannot be read."""
    try:
        with open(meminfo, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the value is in kB
    except (OSError, ValueError, IndexError):
        pass
    return None


def _family_size(counts: Mapping[int, int], what: str) -> tuple[int, int]:
    """The vertex and edge counts of a generated family, read from its
    degree counts, refused before anything is allocated when generating and
    validating its edge array, _EDGE_BYTES per edge, would not fit in the
    available memory."""
    num_vertices = sum(counts.values())
    num_edges = sum(k * n for k, n in counts.items()) // 2
    needed = _EDGE_BYTES * num_edges
    available = _available_bytes()
    if available is not None and needed > available:
        raise ValueError(
            f"{what} has {num_edges} edges, which need {needed} bytes, "
            f"but only {available} bytes of memory are available"
        )
    return num_vertices, num_edges


def _check_p(p: float | np.ndarray) -> None:
    """Refuse an input amplitude split p that is not a real number in [0, 1]:
    NaN fails the range test, and a bool, str or None is not a real number.
    An array is checked element by element, as a Python scalar each."""
    if isinstance(p, np.ndarray):
        for v in p.ravel().tolist():
            _check_p(v)
        return
    real = type(p) is float or (isinstance(p, numbers.Real) and not isinstance(p, bool))
    if not (real and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p!r}")


def _each(fn: Callable[[float], float], x: float | np.ndarray) -> float | np.ndarray:
    """fn(x) for a scalar; for an array, fn of each element as a Python
    scalar, mapped in C when fn is a builtin such as `math.log`, in a float64
    array of x's shape.  The closed forms take every transcendental and power
    factor through it, so each array element has the scalar call's bits."""
    return _each_of(functools.partial(map, fn), x)


def _each_of(fn: Callable[[list], Iterable[float]], x: float | np.ndarray) -> float | np.ndarray:
    """fn maps a list of Python floats to one float each: fn([x]) for a
    scalar, as a float, or fn of an array's elements, in a float64 array of
    its shape."""
    if not isinstance(x, np.ndarray):
        (value,) = fn([x])
        return value
    return np.fromiter(fn(x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _checked_counts(counts: Mapping[int, int]) -> dict[int, int]:
    """{degree: vertex count} as plain ints, each degree >= 0 and each count
    >= 1, none truncated.  Whether some graph has these degrees is left to
    the caller."""
    checked = {}
    for k, n in counts.items():
        k, n = _integer(k, "degree"), _integer(n, "vertex count")
        if k < 0 or n < 1:
            raise ValueError(f"invalid entry degree {k} -> count {n}")
        checked[k] = n
    if not checked:
        raise ValueError("degree distribution is empty")
    return checked


def _int_pairs(edges: Sequence) -> np.ndarray | None:
    """edges as an (E, 2) int64 array when they are an integer ndarray of
    pairs or a sequence of pairs of plain ints, else None.  A uint64
    endpoint of 2^63 or more wraps to a negative one, which is out of range
    either way."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        return edges.astype(np.int64)
    try:  # TypeError: an edge without a length, such as 5; OverflowError: beyond int64
        if set(map(len, edges)) <= {2}:
            flat = list(chain.from_iterable(edges))
            if len(flat) == 2 * len(edges) and set(map(type, flat)) <= {int}:
                return np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2)
    except (TypeError, OverflowError):
        pass
    return None


def _explained(edges: Sequence, m: int) -> np.ndarray:
    """The explain pass: walk the edges in input order and return them as
    an (E, 2) int64 array, or raise "edges[i] <edge>: <reason>" for the
    first one refused."""
    pairs = []
    seen = set()
    for i, edge in enumerate(edges):
        try:
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise ValueError("must be a pair of integer vertices") from None
            a, b = _integer(a, "edge endpoint"), _integer(b, "edge endpoint")
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"edge ({a},{b}) out of range for {m} vertices")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            pair = (min(a, b), max(a, b))
            if pair in seen:
                raise ValueError(f"duplicate or anti-parallel edge on pair {pair}")
        except ValueError as exc:
            raise ValueError(f"edges[{i}] {edge!r}: {exc}") from None
        seen.add(pair)
        pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DirectedGraph:
    """A directed simple graph: vertex count plus an ordered edge list.

    The edges are held once, as the read-only (E, 2) int64 array
    `edge_array`; `edges`, the same list as a tuple of (int, int) pairs, is
    made from it on first use.  `out_degrees[i]` counts the edges leaving
    vertex i and `degrees[i]` its total degree, ignoring orientation, so
    `degrees[i] - out_degrees[i]` is its in-degree.  Both are read-only
    int64 arrays, each counted from `edge_array` by one `np.bincount` on
    first use (the accept pass keeps the total it counts), and are derived
    data, so they take no part in equality, hashing or repr.  A graph is
    immutable.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Sequence[int]]) -> None:
        # Validation runs in __post_init__: the benchmark's per-layer trace
        # wraps that name on the class.
        self.__post_init__(num_vertices, edges)

    def __post_init__(self, num_vertices: int, edges: Iterable[Sequence[int]]) -> None:
        """Validate the vertex count and every edge.

        The accept pass takes integer ndarrays and pairs of plain ints in
        one vectorised check that answers only yes or no.  Everything it
        does not accept goes to the explain pass, `_explained`, which
        either accepts the edges one by one or names the first refused
        edge, in input order: "edges[i] <edge>: <reason>"."""
        m = _vertex_count(num_vertices)
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        array = _int_pairs(edges)
        if array is not None:
            a, b = array.T
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            if not ((lo < 0) | (hi >= m) | (lo == hi)).any():
                # The total-degree count is allocated before the pair keys
                # lo*m + hi are formed, so a vertex count whose keys would
                # overflow int64 runs out of memory first; an accepted
                # graph keeps it as `degrees`.
                degrees = np.bincount(array.ravel(), minlength=m)
                keys = np.sort(lo * m + hi)
                if not (keys[1:] == keys[:-1]).any():
                    self._set(m, array, degrees=_read_only(degrees))
                    return
        self._set(m, _explained(edges, m))

    @classmethod
    def _derived(cls, m: int, edge_array: np.ndarray) -> DirectedGraph:
        """A graph whose edges were derived from a valid graph by a
        transformation that keeps it simple: nothing is checked again."""
        graph = cls.__new__(cls)
        graph._set(m, edge_array)
        return graph

    def _set(self, m: int, edge_array: np.ndarray, **cached: np.ndarray) -> None:
        vars(self).update(num_vertices=m, edge_array=_read_only(edge_array), **cached)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @functools.cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.bincount(self.edge_array.ravel(), minlength=self.num_vertices))

    @functools.cached_property
    def out_degrees(self) -> np.ndarray:
        return _read_only(np.bincount(self.edge_array[:, 0], minlength=self.num_vertices))

    @property
    def num_edges(self) -> int:
        return len(self.edge_array)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num_vertices == other.num_vertices and np.array_equal(
            self.edge_array, other.edge_array
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"DirectedGraph(num_vertices={self.num_vertices!r}, edges={self.edges!r})"


def _erdos_gallai(counts: Mapping[int, int]) -> bool:
    """Erdos-Gallai inequalities for a degree sequence given as {degree: count}.

    With the degrees sorted descending, d_1 >= ... >= d_m, and an even degree
    sum, a simple graph exists iff for every k
        sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k).
    Testing the last k of each run of equal degrees suffices (Tripathi and
    Vijay, Discrete Math. 265 (2003)), so the cost is quadratic in the number
    of distinct degrees, not in the number of vertices.
    """
    runs = sorted(counts.items(), reverse=True)
    k = 0
    head = 0
    for j, (d, n) in enumerate(runs):
        k += n
        head += d * n
        if head > k * (k - 1) + sum(c * min(e, k) for e, c in runs[j + 1:]):
            return False
    return True


@dataclass(frozen=True)
class DegreeDistribution:
    """Map from total degree k to the number of vertices n_k with that degree.

    Only distributions that some simple graph has are accepted.
    """

    counts: Mapping[int, int]

    def __post_init__(self) -> None:
        counts = _checked_counts(self.counts)
        object.__setattr__(self, "counts", counts)
        m = sum(counts.values())
        for k in counts:
            if k > m - 1:
                raise ValueError(f"degree {k} impossible in a simple graph on {m} vertices")
        total = sum(k * n for k, n in counts.items())
        if total % 2:
            raise ValueError(f"degree sum {total} is odd: no graph has these degrees")
        if not _erdos_gallai(counts):
            raise ValueError(
                f"degrees {dict(sorted(counts.items()))} fail the Erdos-Gallai inequalities: "
                "no simple graph has them"
            )

    @classmethod
    def _of_graph(cls, counts: dict[int, int]) -> DegreeDistribution:
        """The distribution of a valid graph's own degrees, which some simple
        graph has by construction: nothing is checked."""
        dist = cls.__new__(cls)
        object.__setattr__(dist, "counts", counts)
        return dist

    @property
    def num_vertices(self) -> int:
        return sum(self.counts.values())


def degree_distribution(g: DirectedGraph) -> DegreeDistribution:
    """The graph's {total degree: vertex count}, taken as it is: a caller's
    own counts go through `DegreeDistribution` and all its checks."""
    return DegreeDistribution._of_graph(dict(Counter(g.degrees.tolist())))


# ----------------------------------------------------------------------
# Topology families: a degree-count rule and a generator each
# ----------------------------------------------------------------------

def _yf_layers(num_layers: int) -> int:
    """Checked layer count of the triangular layered graph: an integer >= 2
    whose n(n+1)/2 vertices fit the int64 edge array."""
    n = _integer(num_layers, "num_layers")
    if n < 2:
        raise ValueError(f"need at least 2 layers, got {n}")
    _vertex_count(n * (n + 1) // 2)
    return n


def young_fibonacci_degree_counts(num_layers: int) -> dict[int, int]:
    """{degree: vertices} of the triangular layered graph: the bottom
    layer's two end vertices have degree 1, its other n - 2 vertices and the
    apex degree 2, the other layers' end vertices degree 3 and every other
    vertex degree 4."""
    n = _yf_layers(num_layers)
    counts = {1: 2, 2: n - 1, 3: 2 * (n - 2), 4: (n - 2) * (n - 3) // 2}
    return {k: c for k, c in counts.items() if c}


def gen_young_fibonacci(num_layers: int) -> DirectedGraph:
    """Triangular layered graph: layer i holds i vertices, and the vertex at
    position j of layer i feeds positions j and j+1 of layer i+1.

    Total vertices: num_layers*(num_layers+1)/2.
    """
    n = _yf_layers(num_layers)
    m, num_edges = _family_size(young_fibonacci_degree_counts(n), f"a triangular graph of {n} layers")
    # Rows 2v and 2v + 1 are the two edges of vertex v, the v-th vertex above
    # the bottom layer; in layer i its left child is v + i.
    edges = np.empty((num_edges // 2, 2, 2), dtype=np.int64)
    edges[:, :, 0] = np.arange(num_edges // 2)[:, None]
    edges[:, 0, 1] = edges[:, 0, 0] + np.repeat(np.arange(1, n), np.arange(1, n))
    edges[:, 1, 1] = edges[:, 0, 1] + 1
    return DirectedGraph(m, edges.reshape(num_edges, 2))


def _sizes(values: Sequence[int], minimum: int, what: str) -> tuple[int, ...]:
    """Checked sizes of a chain of layers or cycles: at least 2, each an
    integer >= minimum, with at most 2^63 - 1 vertices in all."""
    sizes = tuple(_integer(v, f"{what} size") for v in values)
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 {what}s, got {len(sizes)}")
    if any(s < minimum for s in sizes):
        raise ValueError(f"all {what} sizes must be >= {minimum}, got {sizes}")
    _vertex_count(sum(sizes))
    return sizes


def ffnn_layer_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    """Checked widths of a layered network: at least 2 layers, each >= 1."""
    return _sizes(layer_sizes, 1, "layer")


def ffnn_degree_counts(layer_sizes: Sequence[int]) -> dict[int, int]:
    """{degree: vertices} of the layered network: the input layer's vertices
    have degree M_2, hidden layer i's M_(i-1) + M_(i+1) and the output
    layer's M_(N-1)."""
    sizes = ffnn_layer_sizes(layer_sizes)
    counts = Counter({sizes[1]: sizes[0]})
    for above, width, below in zip(sizes, sizes[1:], sizes[2:]):
        counts[above + below] += width
    counts[sizes[-2]] += sizes[-1]
    return dict(counts)


def gen_ffnn(layer_sizes: Sequence[int]) -> DirectedGraph:
    """Layered network with complete bipartite connections between consecutive
    layers, oriented input-to-output."""
    sizes = ffnn_layer_sizes(layer_sizes)
    m, num_edges = _family_size(ffnn_degree_counts(sizes), f"a layered network of layer sizes {sizes}")
    edges = np.empty((num_edges, 2), dtype=np.int64)
    row = 0
    for end, width, below in zip(accumulate(sizes), sizes, sizes[1:]):
        # Every vertex of the layer ending at `end`, in order, to every
        # vertex of the next layer, in order.
        block = edges[row : row + width * below].reshape(width, below, 2)
        block[:, :, 0] = np.arange(end - width, end)[:, None]
        block[:, :, 1] = np.arange(end, end + below)
        row += width * below
    return DirectedGraph(m, edges)


def _tree_depth(depth: int) -> int:
    """Checked layer count of the full binary tree: an integer from 1 to 63,
    so that its 2^depth - 1 vertices fit the int64 edge array."""
    depth = _integer(depth, "depth")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > 63:
        raise ValueError(f"depth {depth} is more than 63: 2^depth - 1 vertices exceed 2^63 - 1")
    return depth


def full_binary_tree_degree_counts(depth: int) -> dict[int, int]:
    """{degree: vertices} of the full binary tree: 2^(depth-1) leaves of
    degree 1, the root of degree 2 and 2^(depth-1) - 2 inner vertices of
    degree 3; a tree of depth 1 is one vertex of degree 0."""
    depth = _tree_depth(depth)
    if depth == 1:
        return {0: 1}
    leaves = 2 ** (depth - 1)
    return {k: c for k, c in {1: leaves, 2: 1, 3: leaves - 2}.items() if c}


def gen_full_binary_tree(depth: int) -> DirectedGraph:
    """Full binary tree with `depth` layers (2^depth - 1 vertices), edges
    oriented parent-to-child, heap numbering."""
    depth = _tree_depth(depth)
    m, num_edges = _family_size(
        full_binary_tree_degree_counts(depth), f"a full binary tree of depth {depth}"
    )
    edges = np.empty((num_edges, 2), dtype=np.int64)
    edges[:, 1] = np.arange(1, m)
    np.floor_divide(edges[:, 1] - 1, 2, out=edges[:, 0])
    return DirectedGraph(m, edges)


def bridged_cycles_degree_counts(cycle_sizes: Sequence[int]) -> dict[int, int]:
    """{degree: vertices} of the chain of N cycles: the 2(N - 1) bridge
    endpoints have degree 3, every other vertex degree 2."""
    sizes = _sizes(cycle_sizes, 3, "cycle")
    bridged = 2 * (len(sizes) - 1)
    return {2: sum(sizes) - bridged, 3: bridged}


def gen_bridged_cycles(cycle_sizes: Sequence[int]) -> DirectedGraph:
    """Chain of directed cycles, consecutive cycles joined by one bridge edge.

    The bridge leaves vertex 0 of cycle i and enters vertex floor(M/2) of
    cycle i+1 (local indices), so the two bridge endpoints inside a middle
    cycle are always distinct for cycle sizes >= 3.
    """
    sizes = _sizes(cycle_sizes, 3, "cycle")
    m, num_edges = _family_size(
        bridged_cycles_degree_counts(sizes), f"a chain of cycles of sizes {sizes}"
    )
    width = np.array(sizes, dtype=np.int64)
    first = np.cumsum(width) - width  # each cycle's first vertex
    edges = np.empty((num_edges, 2), dtype=np.int64)
    edges[:m, 0] = np.arange(m)
    edges[:m, 1] = edges[:m, 0] + 1
    edges[first + width - 1, 1] = first  # each cycle's last vertex closes it
    edges[m:, 0] = first[:-1]
    edges[m:, 1] = first[1:] + width[1:] // 2
    return DirectedGraph(m, edges)


# ----------------------------------------------------------------------
# Transformations (used to test relabeling / orientation invariance)
# ----------------------------------------------------------------------

def permute_vertices(g: DirectedGraph, permutation: Sequence[int]) -> DirectedGraph:
    """Relabel vertices: old vertex i becomes permutation[i]."""
    perm = [_integer(x, "permutation entry") for x in permutation]
    if sorted(perm) != list(range(g.num_vertices)):
        raise ValueError(f"not a permutation of 0..{g.num_vertices - 1}")
    new = np.array(perm, dtype=np.int64)
    return DirectedGraph._derived(g.num_vertices, new[g.edge_array])


def flip_edge(g: DirectedGraph, edge_index: int) -> DirectedGraph:
    """Reverse the orientation of one edge.  Simplicity guarantees the flipped
    edge cannot collide with an existing one."""
    edge_index = _integer(edge_index, "edge index")
    if not (0 <= edge_index < g.num_edges):
        raise ValueError(f"edge index {edge_index} out of range")
    edges = g.edge_array.copy()
    edges[edge_index, ::-1] = g.edge_array[edge_index]
    return DirectedGraph._derived(g.num_vertices, edges)


def random_graph(num_vertices: int, rng: np.random.Generator, edge_prob: float = 0.4) -> DirectedGraph:
    """Erdos-Renyi style directed simple graph: each unordered pair is linked
    with probability edge_prob, then oriented by a fair coin flip."""
    num_vertices = _integer(num_vertices, "num_vertices")
    edges = []
    for a in range(num_vertices):
        for b in range(a + 1, num_vertices):
            if rng.random() < edge_prob:
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
    return DirectedGraph(num_vertices, edges)


# ----------------------------------------------------------------------
# Serialization: {"num_vertices": M, "edges": [[a, b], ...]}
# ----------------------------------------------------------------------

def to_json(g: DirectedGraph) -> str:
    return json.dumps({"num_vertices": g.num_vertices, "edges": g.edge_array.tolist()})


def from_json(text: str) -> DirectedGraph:
    """Parse {"num_vertices": M, "edges": [[a, b], ...]}.  Only the document's
    shape is checked here: `DirectedGraph` checks the count and every edge.  Any
    error is a ValueError "malformed graph JSON: <field> ...", e.g. "edges[3] [0, 0]: "."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(
            f"malformed graph JSON: top level must be an object, got {type(data).__name__}"
        )
    try:
        num_vertices = data["num_vertices"]
        edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"malformed graph JSON: missing {exc}") from exc
    if not isinstance(edges, list):
        raise ValueError(f"malformed graph JSON: edges must be a list, got {type(edges).__name__}")
    try:
        return DirectedGraph(num_vertices, edges)
    except ValueError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


# Edges per write of `save_graph`: writing a chunk peaks at about 0.5 MB.
_SAVE_EDGES = 4096


def save_graph(g: DirectedGraph, path: str) -> None:
    """Write the bytes of `to_json(g)` and a newline, _SAVE_EDGES edges at a
    time, so no list or text of the whole edge set is held."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"num_vertices": {g.num_vertices}, "edges": [')
        for start in range(0, g.num_edges, _SAVE_EDGES):
            chunk = g.edge_array[start : start + _SAVE_EDGES]
            text = ", ".join(["[%d, %d]"] * len(chunk)) % tuple(chunk.ravel().tolist())
            fh.write((", " if start else "") + text)
        fh.write("]}\n")


def load_graph(path: str) -> DirectedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
