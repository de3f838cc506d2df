"""Shared test utilities: a dense-matrix reference implementation, the
per-edge reference validator, and hypothesis strategies.

The dense builder below constructs graph states with full 2^M x 2^M operator
matrices via np.kron.  It shares no code path with the package's diagonal
fast kernel, so agreement between the two is a genuine dual-route check.
Only practical for small M.
"""

from __future__ import annotations

import operator

import numpy as np
from hypothesis import strategies as st

from graphent.graphs import DirectedGraph, _integer

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def lift(op: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """One-qubit operator on the full register; qubit i = bit i, so the first
    kron factor belongs to the most significant qubit."""
    out = np.array([[1.0 + 0j]])
    for q in range(num_qubits - 1, -1, -1):
        out = np.kron(out, op if q == qubit else I2)
    return out


def dense_edge_operator(a: int, b: int, num_qubits: int, theta: float, psi: float) -> np.ndarray:
    ubar = np.exp(-1j * psi) * np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    t0 = np.array([[1.0 + 0j]])
    t1 = np.array([[1.0 + 0j]])
    for q in range(num_qubits - 1, -1, -1):
        t0 = np.kron(t0, P0 if q == a else I2)
        t1 = np.kron(t1, P1 if q == a else (ubar if q == b else I2))
    return t0 + t1


def dense_graph_state(
    graph: DirectedGraph,
    theta: float,
    psi: float = 0.0,
    p: float = 0.5,
    delta0: float = 0.0,
    delta1: float = 0.0,
) -> np.ndarray:
    phi = np.array([np.sqrt(1 - p) * np.exp(1j * delta0), np.sqrt(p) * np.exp(1j * delta1)])
    vec = np.array([1.0 + 0j])
    for _ in range(graph.num_vertices):
        vec = np.kron(phi, vec)  # prepend the next qubit as the new MSB
    for a, b in graph.edges:
        vec = dense_edge_operator(a, b, graph.num_vertices, theta, psi) @ vec
    return vec


def dense_pauli_expectations(vec: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    return np.array([(vec.conj() @ lift(s, qubit, num_qubits) @ vec).real for s in PAULIS])


def reference_graph(num_vertices, edges):
    """The per-edge loop that `DirectedGraph` validated with before it held
    its edges as an array: (edges, degrees, out_degrees) of an accepted
    graph, the degree counts as lists, or the ValueError that names the
    first refused edge."""
    m = _integer(num_vertices, "num_vertices")
    if m < 1:
        raise ValueError(f"num_vertices must be >= 1, got {m}")
    pairs = []
    out = [0] * m
    into = [0] * m
    seen = set()
    for i, edge in enumerate(edges):
        try:
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise ValueError("must be a pair of integer vertices") from None
            if type(a) is not int or type(b) is not int:
                a, b = _integer(a, "edge endpoint"), _integer(b, "edge endpoint")
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"edge ({a},{b}) out of range for {m} vertices")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            key = a * m + b if a < b else b * m + a
            if key in seen:
                raise ValueError(f"duplicate or anti-parallel edge on pair {divmod(key, m)}")
        except ValueError as exc:
            raise ValueError(f"edges[{i}] {edge!r}: {exc}") from None
        seen.add(key)
        out[a] += 1
        into[b] += 1
        pairs.append((a, b))
    return tuple(pairs), list(map(operator.add, out, into)), out


@st.composite
def directed_graphs(draw, min_vertices: int = 1, max_vertices: int = 6) -> DirectedGraph:
    """Random directed simple graphs: a subset of unordered pairs, each given
    a random orientation."""
    m = draw(st.integers(min_vertices, max_vertices))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        chosen = []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(b, a) if f else (a, b) for (a, b), f in zip(chosen, flips)]
    return DirectedGraph(m, edges)


angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (i * (hi - lo)) / (steps - 1) for i in range(steps)]


class NoNumpy:
    """Stands in for the numpy module of graphent.graphs: any use of it
    fails, so a family refused by its size checks is shown to allocate
    nothing."""

    def __getattr__(self, name: str):
        raise AssertionError(f"a refused family reached np.{name}")
