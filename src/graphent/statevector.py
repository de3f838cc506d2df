"""Exact state-vector construction of directed-graph qubit states: a
phase-count kernel and Pauli expectations.

Basis convention (fixed everywhere): basis index x encodes qubit i as bit i
of x, so qubit 0 is the least significant bit.  Every edge operator is
diagonal in this basis, which turns state construction into per-amplitude
phase multiplies and makes the edge application order irrelevant.

Phase convention: an edge (a, b) with control bit x_a = 1 multiplies the
amplitude by exp(i*(theta - psi)) when the target bit x_b is 0 and by
exp(-i*(theta + psi)) when it is 1, i.e. it adds the phase
theta - psi - 2*theta*x_b.  Summed over all edges, basis state x picks up

    (theta - psi) * c(x) - 2*theta * n11(x),

where c(x) = sum_a x_a * d_out(a) and n11(x) counts the edges whose two
endpoints are both 1 (the weighted-graph-state form: Hein, Eisert and
Briegel, PRA 69, 062311, 2004).  This is still a direct simulation of the
edge operators, not a degree closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "InteractionParams",
    "InitialQubit",
    "PureState",
    "product_state",
    "build_graph_state",
    "pauli_expectations",
]

# 2^22 complex amplitudes = 64 MiB; a hard guard, not a silent truncation.
DEFAULT_MAX_QUBITS = 22


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


@dataclass(frozen=True)
class InteractionParams:
    """Edge interaction angles.

    When the control qubit of an edge is 1, the target qubit picks up
    exp(-i*psi) * diag(exp(i*theta), exp(-i*theta)); when it is 0, nothing
    happens.  Both angles are radians, unconstrained (all formulas are
    periodic).
    """

    theta: float
    psi: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.psi)):
            raise ValueError(f"angles must be finite, got theta={self.theta}, psi={self.psi}")


@dataclass(frozen=True)
class InitialQubit:
    """Per-vertex input state sqrt(1-p)*e^{i*delta0}|0> + sqrt(p)*e^{i*delta1}|1>.

    The default (p=1/2, zero phases) is the balanced real superposition that
    maximizes entanglement of the resulting graph states.
    """

    p: float = 0.5
    delta0: float = 0.0
    delta1: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")

    @property
    def alpha0(self) -> complex:
        return math.sqrt(1.0 - self.p) * cmath.exp(1j * self.delta0)

    @property
    def alpha1(self) -> complex:
        return math.sqrt(self.p) * cmath.exp(1j * self.delta1)


@dataclass(frozen=True)
class PureState:
    """A pure M-qubit state as 2^M complex amplitudes (qubit i = bit i)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for {self.num_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_error(self) -> float:
        """|sum of squared moduli - 1|."""
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


def product_state(
    num_qubits: int,
    qubit: InitialQubit = InitialQubit(),
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> PureState:
    """Tensor power of the single-qubit input state: amplitude at index x is
    the product over qubits i of alpha_{bit_i(x)}."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if num_qubits > max_qubits:
        raise ValueError(
            f"{num_qubits} qubits exceeds the configured cap of {max_qubits} "
            f"(2^{num_qubits} amplitudes); raise the cap explicitly to proceed"
        )
    if num_qubits > DEFAULT_MAX_QUBITS:
        # The last concatenate holds the old 2^(M-1) amplitudes, its two scaled
        # halves and the 2^M result at once: 2.5 * 2^M complex128 values.  The
        # graph-state build that follows peaks lower, at 36 bytes per
        # amplitude (16 for the state, 4 for the counts, 16 for a gather).
        needed = 40 * 2**num_qubits
        available = _available_bytes()
        if available is not None and needed > available:
            raise ValueError(
                f"{num_qubits} qubits need about {needed} bytes to build, "
                f"but only {available} bytes of memory are available"
            )
    a0, a1 = qubit.alpha0, qubit.alpha1
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(num_qubits):
        amps = np.concatenate([a0 * amps, a1 * amps])
    return PureState(num_qubits, amps)


def _phase_counts(graph: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """c(x) and n11(x) (see the module docstring) for every basis index x, as
    int16 arrays of length 2^M.

    Built by doubling: appending qubit k copies the counts of the lower k
    qubits and adds d_out(k) to c and, to n11, the number of k's set
    lower-numbered neighbours.  int16 holds any count, since both are at most
    E <= M(M-1)/2.
    """
    m = graph.num_vertices
    out_degree = [0] * m
    lower = [0] * m  # bit mask of each vertex's lower-numbered neighbours
    for a, b in graph.edges:
        out_degree[a] += 1
        if a < b:
            lower[b] |= 1 << a
        else:
            lower[a] |= 1 << b
    size = 1 << m
    c = np.zeros(size, dtype=np.int16)
    n11 = np.zeros(size, dtype=np.int16)
    index = np.arange(size >> 1)
    for k in range(m):
        n = 1 << k
        np.add(c[:n], out_degree[k], out=c[n : 2 * n])
        np.add(n11[:n], np.bitwise_count(index[:n] & lower[k]), out=n11[n : 2 * n])
    return c, n11


def build_graph_state(
    graph: DirectedGraph,
    qubit: InitialQubit,
    params: InteractionParams,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> PureState:
    """Product input state followed by one edge operator per graph edge.

    All edge operators are diagonal, so together they multiply amplitude x by
    exp(i*((theta - psi)*c(x) - 2*theta*n11(x))); the two factors are
    gathered from tables indexed by the counts 0..E.
    """
    state = product_state(graph.num_vertices, qubit, max_qubits=max_qubits)
    if not graph.edges:
        return state
    # Counted only now, so the peak stays below product_state's own: the
    # state, the counts and one gathered factor, 36 bytes per amplitude.
    c, n11 = _phase_counts(graph)
    k = np.arange(graph.num_edges + 1)
    amps = state.amplitudes  # nothing else holds this state yet
    amps *= np.exp(1j * (params.theta - params.psi) * k)[c]
    amps *= np.exp(-2j * params.theta * k)[n11]
    return state


def pauli_expectations(state: PureState, i: int) -> np.ndarray:
    """Expectation values (<sx>, <sy>, <sz>) of the Pauli operators on qubit i."""
    m = state.num_qubits
    if not (0 <= i < m):
        raise ValueError(f"qubit {i} out of range for {m} qubits")
    view = state.amplitudes.reshape((2,) * m)
    axis = m - 1 - i
    low = np.take(view, 0, axis=axis).ravel()
    high = np.take(view, 1, axis=axis).ravel()
    cross = np.vdot(low, high)  # sum over x with bit_i=0 of conj(amp(x)) amp(x + 2^i)
    sz = float(np.vdot(low, low).real - np.vdot(high, high).real)
    return np.array([2.0 * cross.real, 2.0 * cross.imag, sz])
