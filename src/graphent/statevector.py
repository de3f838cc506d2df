"""Exact state-vector construction of directed-graph qubit states: one
in-place doubling loop over the qubits, and every qubit's Pauli vector.

Basis convention (fixed everywhere): basis index x encodes qubit i as bit i
of x, so qubit 0 is the least significant bit.  Every edge operator is
diagonal in this basis, which turns state construction into per-amplitude
phase multiplies and makes the edge application order irrelevant.

Phase convention: an edge (a, b) with control bit x_a = 1 multiplies the
amplitude by exp(i*(theta - psi)) when the target bit x_b is 0 and by
exp(-i*(theta + psi)) when it is 1, i.e. it adds the phase
theta - psi - 2*theta*x_b.  Charging each edge to its higher-numbered
endpoint, appending qubit k to the state of qubits 0..k-1 copies it into the
half where bit k is set, with the input amplitude alpha1 times
exp(i*(theta - psi)*d_out(k)) and one factor exp(-2i*theta) per set
lower-numbered neighbour of k; the half where bit k is clear takes alpha0.
This is the qubit-by-qubit form of the weighted graph state (Hein, Eisert
and Briegel, PRA 69, 062311, 2004), still a direct simulation of the edge
operators, not a degree closed form.

Pauli vectors: `pauli_vectors` returns every qubit's (<sx>, <sy>, <sz>) in
one call and copies no part of the state.  <sz> comes from one probability
array folded M times, top qubit first: the upper half (bit k = 1) is added
onto the lower half and left in place, so one segmented sum at the end gives
every qubit's weight of bit 1, after about 2 * 2^M adds in all.  The cross
term sum_x conj(amp(x)) amp(x + 2^i), over x with bit i clear, is one dot
per contiguous block pair of the (-1, 2, 2^i) view of the amplitudes, read
in place and written into the spent probability buffer; a second segmented
sum adds them up.  Qubit 0, whose pairs are neighbours, is one strided dot.
The probability buffer, half the state's bytes, is the largest allocation.
The fold's total is the state's norm, so `pauli_vectors` refuses a state
that is not normalized without a further pass over it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph, _check_p

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "InteractionParams",
    "InitialQubit",
    "PureState",
    "product_state",
    "build_graph_state",
    "pauli_vectors",
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
        _check_p(self.p)
        if not (math.isfinite(self.delta0) and math.isfinite(self.delta1)):
            raise ValueError(
                f"phases must be finite, got delta0={self.delta0}, delta1={self.delta1}"
            )

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
    the product over qubits i of alpha_{bit_i(x)}.  It is the state of the
    edgeless graph, whose appended halves take alpha1 * e^{0i} = alpha1;
    `DirectedGraph` checks num_qubits."""
    return build_graph_state(
        DirectedGraph(num_qubits, ()), qubit, InteractionParams(0.0), max_qubits=max_qubits
    )


def build_graph_state(
    graph: DirectedGraph,
    qubit: InitialQubit,
    params: InteractionParams,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> PureState:
    """Product input state followed by one edge operator per graph edge,
    built by in-place doubling (see the module docstring)."""
    m = graph.num_vertices
    if m > max_qubits:
        raise ValueError(
            f"{m} qubits exceeds the configured cap of {max_qubits} "
            f"(2^{m} amplitudes); raise the cap explicitly to proceed"
        )
    if m > DEFAULT_MAX_QUBITS:
        # The peak is about 28.5 bytes per amplitude: 16 for the state, 4 for
        # the int64 index over half of it, and, in the last step, 8 for the
        # gathered pair factors plus 0.5 for their uint8 counts; 40 bounds it.
        needed = 40 * 2**m
        available = _available_bytes()
        if available is not None and needed > available:
            raise ValueError(
                f"{m} qubits need about {needed} bytes to build, "
                f"but only {available} bytes of memory are available"
            )
    lower = [0] * m  # bit mask of each vertex's lower-numbered neighbours
    for a, b in graph.edges:
        lower[max(a, b)] |= 1 << min(a, b)
    a0, a1 = qubit.alpha0, qubit.alpha1
    step = 1j * (params.theta - params.psi)
    pair = np.exp(-2j * params.theta * np.arange(m))
    amps = np.empty(1 << m, dtype=np.complex128)
    amps[0] = 1.0
    index = np.arange(1 << (m - 1))
    for k in range(m):
        n = 1 << k
        high = amps[n : 2 * n]
        np.multiply(amps[:n], a1 * cmath.exp(step * graph.out_degrees[k]), out=high)
        if lower[k]:
            high *= pair[np.bitwise_count(index[:n] & lower[k])]
        amps[:n] *= a0
    return PureState(m, amps)


def pauli_vectors(state: PureState) -> np.ndarray:
    """Row i is (<sx>, <sy>, <sz>) of qubit i, read from the amplitudes in
    place (see the module docstring); a norm off by more than 1e-8 is refused."""
    m = state.num_qubits
    amps = state.amplitudes
    vectors = np.empty((m, 3))
    starts = 1 << np.arange(m)
    prob = np.abs(amps)
    np.square(prob, out=prob)
    for k in range(m - 1, -1, -1):  # fold qubit k's upper half onto its lower half
        np.add(prob[: 1 << k], prob[1 << k : 2 << k], out=prob[: 1 << k])
    # prob[2^k : 2^(k+1)] still holds bit k's upper half; prob[0] is the norm.
    norm = prob[0]
    if not abs(norm - 1.0) <= 1e-8:  # a NaN norm is refused too
        raise ValueError(f"state not normalized: norm error {abs(norm - 1.0):.3e}")
    np.add.reduceat(prob, starts, out=vectors[:, 2])
    # The spent buffer takes qubit i's block dots at blocks[2^(m-1-i) : 2^(m-i)]
    # for i >= 1, so segment j of the second sum is qubit m-1-j.  xy views
    # the first two columns as one complex column: each cross term lands
    # there and is doubled into (<sx>, <sy>) below.
    blocks = prob.view(np.complex128)
    half = blocks.size
    xy = vectors[:, :2].view(np.complex128)[:, 0]
    xy[0] = np.vecdot(amps[0::2], amps[1::2])  # qubit 0 pairs neighbours
    for i in range(1, m):
        pairs = amps.reshape(-1, 2, 1 << i)  # axis 1 is bit i
        np.vecdot(pairs[:, 0], pairs[:, 1], out=blocks[half >> i : half >> (i - 1)])
    np.add.reduceat(blocks, starts[:-1], out=xy[:0:-1])
    vectors *= (2.0, 2.0, -2.0)
    vectors[:, 2] += norm  # <sz> = norm - 2 * weight of bit 1
    return vectors
