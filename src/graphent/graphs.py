"""Directed simple graphs, degree bookkeeping, and layered topology generators.

Vertices are 0-based.  Graphs are immutable after construction and simple in
the undirected sense: no self-loops and at most one edge per unordered vertex
pair, whichever way it points.  A graph holds its edges once, as the
read-only (E, 2) int64 array `edge_array`, validated in one vectorised pass;
the degree vectors are counted from it on demand.  `flip_edge` and
`permute_vertices` derive their array from a valid graph without a second
check.  The generators number layers from the top/input side and vertices
left-to-right within a layer, with all edges oriented downstream, so
identical parameters always produce identical graphs.
"""

from __future__ import annotations

import functools
import json
import numbers
import operator
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate, chain, pairwise
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DirectedGraph",
    "DegreeDistribution",
    "degree_distribution",
    "gen_young_fibonacci",
    "ffnn_layer_sizes",
    "gen_ffnn",
    "gen_full_binary_tree",
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


def _vertex_count(m: object) -> int:
    """A checked vertex count: an integer from 1 to 2^63 - 1, so that every
    vertex index fits the int64 edge array."""
    m = _integer(m, "num_vertices")
    if m < 1:
        raise ValueError(f"num_vertices must be >= 1, got {m}")
    if m >= 2**63:
        raise ValueError(f"num_vertices {m} is more than 2^63 - 1")
    return m


def _check_p(p: float) -> None:
    """Refuse an input amplitude split p that is not a real number in [0, 1]:
    NaN fails the range test, and a bool, str or None is not a real number."""
    real = type(p) is float or (isinstance(p, numbers.Real) and not isinstance(p, bool))
    if not (real and 0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p!r}")


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


def _edge(edge: object, m: int) -> tuple[int, int] | str:
    """One edge as a pair of vertices, or why it is refused, repeats of an
    earlier pair aside."""
    try:
        a, b = edge
    except (TypeError, ValueError):
        return "must be a pair of integer vertices"
    try:
        a, b = _integer(a, "edge endpoint"), _integer(b, "edge endpoint")
    except ValueError as exc:
        return str(exc)
    if not (0 <= a < m and 0 <= b < m):
        return f"edge ({a},{b}) out of range for {m} vertices"
    if a == b:
        return f"self-loop at vertex {a}"
    return a, b


def _pairs(edges: Sequence, m: int) -> tuple[np.ndarray, int]:
    """(array, n): the first n edges as an (n, 2) int64 array, where
    edges[n], if there is one, is the first edge that is not a pair of
    integers or, on the slow path, is refused by `_edge`.

    Plain ints take one flat pass and an integer ndarray none; numpy
    integers and anything refused fall back to a per-edge loop.  A uint64
    endpoint of 2^63 or more wraps to a negative one, which is out of range
    either way, and the error message is made from the input edge."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        return edges.astype(np.int64), len(edges)
    try:
        pairs = set(map(len, edges)) <= {2}
    except TypeError:  # an edge without a length, such as 5 or None
        pairs = False
    if pairs:
        flat = list(chain.from_iterable(edges))
        if len(flat) == 2 * len(edges) and set(map(type, flat)) <= {int}:
            try:
                return np.fromiter(flat, np.int64, len(flat)).reshape(-1, 2), len(edges)
            except OverflowError:  # an endpoint beyond int64: out of range
                pass
    rows = []
    for edge in edges:
        pair = _edge(edge, m)
        if isinstance(pair, str):
            break
        rows.append(pair)
    return np.array(rows, dtype=np.int64).reshape(-1, 2), len(rows)


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
    first use (validation keeps the total it counts), and are derived data,
    so they take no part in equality, hashing or repr.  A graph is
    immutable.
    """

    def __init__(self, num_vertices: int, edges: Iterable[Sequence[int]]) -> None:
        # Validation runs in __post_init__: the benchmark's per-layer trace
        # wraps that name on the class.
        self.__post_init__(num_vertices, edges)

    def __post_init__(self, num_vertices: int, edges: Iterable[Sequence[int]]) -> None:
        """Validate the vertex count and every edge in one vectorised pass.

        Only when a check fails is the first refused edge, in input order,
        looked up, so its error names it: "edges[i] <edge>: <reason>"."""
        m = _vertex_count(num_vertices)
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        array, n = _pairs(edges, m)
        a, b = array.T
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        bad = (lo < 0) | (hi >= m) | (lo == hi)  # out of range or a self-loop
        if bad.any():
            n = int(bad.argmax())  # the edges before it are still searched for repeats
            lo, hi = lo[:n], hi[:n]
        # The total-degree count is allocated before the pair keys lo*m + hi
        # are formed, so a vertex count whose keys would overflow int64 runs
        # out of memory first; a valid graph keeps it as `degrees`.
        degrees = np.bincount(array[:n].ravel(), minlength=m)
        keys = lo * m + hi
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(keys, kind="stable")
            i = int(order[1:][keys[order[1:]] == keys[order[:-1]]].min())
            reason = f"duplicate or anti-parallel edge on pair {divmod(int(keys[i]), m)}"
        elif n < len(edges):
            i = n
            reason = _edge(edges[i], m)
        else:
            self._set(m, array, degrees=_read_only(degrees))
            return
        raise ValueError(f"edges[{i}] {edges[i]!r}: {reason}")

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

    @property
    def num_vertices(self) -> int:
        return sum(self.counts.values())


def degree_distribution(g: DirectedGraph) -> DegreeDistribution:
    return DegreeDistribution(dict(Counter(g.degrees.tolist())))


# ----------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------

def _blocks(sizes: Sequence[int]) -> list[range]:
    """Vertex ranges of consecutive blocks (layers or cycles) of these sizes."""
    bounds = list(accumulate(sizes, initial=0))
    _vertex_count(bounds[-1])
    return [range(a, b) for a, b in pairwise(bounds)]


def _yf_layers(num_layers: int) -> int:
    """Checked layer count of the triangular layered graph: an integer >= 2."""
    n = _integer(num_layers, "num_layers")
    if n < 2:
        raise ValueError(f"need at least 2 layers, got {n}")
    return n


def gen_young_fibonacci(num_layers: int) -> DirectedGraph:
    """Triangular layered graph: layer i holds i vertices, and the vertex at
    position j of layer i feeds positions j and j+1 of layer i+1.

    Total vertices: num_layers*(num_layers+1)/2.
    """
    n = _yf_layers(num_layers)
    edges = []
    for upper, lower in pairwise(_blocks(range(1, n + 1))):
        for j, v in enumerate(upper):
            edges.append((v, lower[j]))
            edges.append((v, lower[j + 1]))
    return DirectedGraph(n * (n + 1) // 2, edges)


def _sizes(values: Sequence[int], minimum: int, what: str) -> tuple[int, ...]:
    """Checked sizes of a chain of layers or cycles: at least 2, each an integer >= minimum."""
    sizes = tuple(_integer(v, f"{what} size") for v in values)
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 {what}s, got {len(sizes)}")
    if any(s < minimum for s in sizes):
        raise ValueError(f"all {what} sizes must be >= {minimum}, got {sizes}")
    return sizes


def ffnn_layer_sizes(layer_sizes: Sequence[int]) -> tuple[int, ...]:
    """Checked widths of a layered network: at least 2 layers, each >= 1."""
    return _sizes(layer_sizes, 1, "layer")


def gen_ffnn(layer_sizes: Sequence[int]) -> DirectedGraph:
    """Layered network with complete bipartite connections between consecutive
    layers, oriented input-to-output."""
    layers = _blocks(ffnn_layer_sizes(layer_sizes))
    edges = [(u, v) for upper, lower in pairwise(layers) for u in upper for v in lower]
    return DirectedGraph(layers[-1].stop, edges)


def _tree_depth(depth: int) -> int:
    """Checked layer count of the full binary tree: an integer >= 1."""
    depth = _integer(depth, "depth")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return depth


def gen_full_binary_tree(depth: int) -> DirectedGraph:
    """Full binary tree with `depth` layers (2^depth - 1 vertices), edges
    oriented parent-to-child, heap numbering."""
    m = 2 ** _tree_depth(depth) - 1
    child = np.arange(1, m)
    return DirectedGraph(m, np.column_stack(((child - 1) // 2, child)))


def gen_bridged_cycles(cycle_sizes: Sequence[int]) -> DirectedGraph:
    """Chain of directed cycles, consecutive cycles joined by one bridge edge.

    The bridge leaves vertex 0 of cycle i and enters vertex floor(M/2) of
    cycle i+1 (local indices), so the two bridge endpoints inside a middle
    cycle are always distinct for cycle sizes >= 3.
    """
    cycles = _blocks(_sizes(cycle_sizes, 3, "cycle"))
    edges = [(c[t], c[(t + 1) % len(c)]) for c in cycles for t in range(len(c))]
    edges += [(a[0], b[len(b) // 2]) for a, b in pairwise(cycles)]
    return DirectedGraph(cycles[-1].stop, edges)


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


def save_graph(g: DirectedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_json(g) + "\n")


def load_graph(path: str) -> DirectedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
