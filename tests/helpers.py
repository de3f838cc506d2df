"""Shared test utilities: a dense-matrix reference implementation, the
graph-state amplitudes at the Clifford point, reduced density matrices, the
per-edge reference validator, and hypothesis strategies.

The dense builder below constructs graph states with full 2^M x 2^M operator
matrices via np.kron.  It shares no code path with the package's diagonal
fast kernel, so agreement between the two is a genuine dual-route check.
Only practical for small M.  The reduced density matrices are the numeric
route for the single-vertex closed forms of `graphent.density`: a partial
trace of a simulated state, its spectrum from a general eigensolver, and
no closed-form code (tests/test_layering.py walks this module's imports).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from graphent.graphs import DirectedGraph, _echo, _integer

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


def clifford_amplitudes(graph: DirectedGraph) -> np.ndarray:
    """The 2^M amplitudes of the undirected graph state of the graph's
    skeleton: amplitude x is 2^(-M/2) * (-1)^|E[x]|, |E[x]| the number of
    edges with both ends set in x, read from the parity of x >> a & x >> b.
    It is the package's state at p = 1/2 and theta = psi = pi/2, where each
    edge operator is a CZ, from no closed form and no dense operator."""
    m = graph.num_vertices
    x = np.arange(1 << m)
    parity = np.zeros(1 << m, dtype=x.dtype)
    for a, b in graph.edges:
        parity ^= x >> a & x >> b
    return np.where(parity & 1, -1.0, 1.0) * 2.0 ** (-m / 2)


def dense_pauli_expectations(vec: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    return np.array([(vec.conj() @ lift(s, qubit, num_qubits) @ vec).real for s in PAULIS])


HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A small validated density matrix: Hermitian, unit trace, PSD within tolerance.
    `eigenvalues`, ascending, is computed by that check with a general eigensolver, sharing
    no algebra with the closed forms; it is outside equality and repr."""

    matrix: np.ndarray
    eigenvalues: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        if not np.isfinite(mat).all():  # before any arithmetic: inf - inf warns
            raise ValueError("density matrix entries must be finite")
        herm = np.max(np.abs(mat - mat.conj().T))
        if not herm <= HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max asymmetry {herm:.3e}")
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        lams = tuple(np.linalg.eigvalsh(mat).tolist())
        if not lams[0] >= EIGENVALUE_FLOOR:
            raise ValueError(f"matrix not positive semidefinite: min eigenvalue {lams[0]:.3e}")
        object.__setattr__(self, "eigenvalues", lams)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def partial_trace(state: np.ndarray, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of the qubits in `keep` (a set; the complement
    is traced out) of a state of 2^M amplitudes.  Row/column index r encodes
    the j-th smallest kept qubit as bit j of r, matching the global bit
    convention."""
    amplitudes = np.asarray(state, dtype=np.complex128)
    m = amplitudes.size.bit_length() - 1
    if amplitudes.shape != (1 << m,):
        raise ValueError(f"expected 2^M amplitudes, got shape {amplitudes.shape}")
    keep_list = [_integer(q, "qubit") for q in keep]
    if not keep_list:
        raise ValueError("keep set must be non-empty")
    kept = sorted(set(keep_list))
    if len(kept) != len(keep_list):
        raise ValueError(f"duplicate vertices in keep set {keep_list}")
    for q in kept:
        if not (0 <= q < m):
            raise ValueError(f"qubit {q} out of range for {m} qubits")
    k = len(kept)
    view = amplitudes.reshape((2,) * m)
    # Move kept-qubit axes to the front, most significant kept qubit first.
    src = [m - 1 - q for q in reversed(kept)]
    block = np.ascontiguousarray(np.moveaxis(view, src, range(k))).reshape(2**k, -1)
    return DensityMatrix(block @ block.conj().T)


def maximally_mixed(dimension: int = 2) -> DensityMatrix:
    return DensityMatrix(np.eye(dimension) / dimension)


def hs_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Hilbert-Schmidt distance sqrt(0.5 * tr[(rho1-rho2)^dag (rho1-rho2)])."""
    a, b = rho1.matrix, rho2.matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return math.sqrt(0.5 * float(np.vdot(diff, diff).real))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho], with 0*ln(0) := 0, from rho's validated spectrum; the
    rounding `DensityMatrix` lets through, below 0 or above 1, adds nothing."""
    return -math.fsum(v * math.log(v) for v in (min(v, 1.0) for v in rho.eigenvalues) if v > 0.0)


def entropy_at_half_p(theta: float) -> float:
    """The paper's reduced-state entropy of an isolated pair along p = 1/2:

        ln(2/|sin theta|) + (|cos theta|/2) ln[(1-|cos theta|)/(1+|cos theta|)]

    returning the separable limit 0 when sin(theta) vanishes.
    """
    s = abs(math.sin(theta))
    if s < 1e-12:
        return 0.0
    c = abs(math.cos(theta))
    return math.log(2.0 / s) + 0.5 * c * math.log((1.0 - c) / (1.0 + c))


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
            raise ValueError(f"edges[{i}] {_echo(edge)}: {exc}") from None
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
