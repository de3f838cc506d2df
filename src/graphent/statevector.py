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

Rows: `build_graph_state_rows` runs that loop once for R states of one qubit
count M, held as the rows of an (R, 2^M) array; each row has its own graph,
input qubit and angles.  Per-row data are arrays made from the rows'
`edge_array`s, concatenated: one scatter over those edges builds the
lower-neighbour masks and one `bincount` counts the out-degrees d_out(k).
The masks and the high-half factors alpha1 * exp(i*(theta - psi)*d_out(k))
are (M, R), and the pair factors exp(-2i*theta*c) are one flat (R*M) table
read at c + r*M.  `pauli_vector_rows` reads such an array, and
`build_graph_state` and `pauli_vectors` are the one-row calls of the same
code.  Batching pays for small states, where each numpy call does little
work: the verification harness evaluates its rows in batches of at most
max(2^15, 2^M) amplitudes, so a state of more than 2^15 amplitudes is always
built alone.

Pauli vectors: `pauli_vector_rows` returns every qubit's (<sx>, <sy>, <sz>)
in one call and copies no part of the states.  <sz> comes from one
probability array folded M times, top qubit first: the upper half (bit k = 1)
is added onto the lower half and left in place, so one segmented sum at the
end gives every qubit's weight of bit 1, after about 2 * 2^M adds per row.
The cross term sum_x conj(amp(x)) amp(x + 2^i), over x with bit i clear, is
read in place from the (R, blocks, 2, 2^i) view of the amplitudes as one dot
per contiguous block pair, except for qubits whose blocks hold at most 4
amplitudes (64 bytes) and are fewer than their count: those take one strided
dot per offset in the block, across all blocks, instead of one call per
block (2^20 calls for qubit 1 at M = 22).  The partial dots go into the spent
probability buffer and a second segmented sum adds them up.  The
probability buffer, half the states' bytes, is the largest allocation.  The
fold's total is each row's norm, so a row that is not normalized is refused
without a further pass over it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DirectedGraph, _check_p

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "InteractionParams",
    "InitialQubit",
    "PureState",
    "product_state",
    "build_graph_state",
    "build_graph_state_rows",
    "pauli_vectors",
    "pauli_vector_rows",
]

# 2^22 complex amplitudes = 64 MiB; a hard guard, not a silent truncation.
DEFAULT_MAX_QUBITS = 22
# A qubit whose blocks hold at most this many amplitudes (64 bytes, one cache
# line) is summed across its blocks.  Longer blocks are read block by block:
# a strided dot loads each cache line once per offset it holds, which made
# the across form 3 to 8 times slower from 8 amplitudes up at M = 22.
_ACROSS_BLOCKS = 4


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
    built by in-place doubling (see the module docstring): the one-row call
    of `build_graph_state_rows`."""
    rows = build_graph_state_rows([graph], [qubit], [params], max_qubits=max_qubits)
    return PureState(graph.num_vertices, rows[0])


def build_graph_state_rows(
    graphs: Sequence[DirectedGraph],
    qubits: Sequence[InitialQubit],
    params: Sequence[InteractionParams],
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Row r of the (R, 2^M) result holds the amplitudes of graphs[r] built
    from qubits[r] under params[r]; one doubling loop serves every row.  The
    graphs must share their vertex count M."""
    rows = len(graphs)
    if not rows or len(qubits) != rows or len(params) != rows:
        raise ValueError(
            f"need one graph, qubit and params per row, got {rows}, {len(qubits)}, {len(params)}"
        )
    m = graphs[0].num_vertices
    if any(g.num_vertices != m for g in graphs):
        sizes = sorted({g.num_vertices for g in graphs})
        raise ValueError(f"rows must share one vertex count, got {sizes}")
    if m > max_qubits:
        raise ValueError(
            f"{m} qubits exceeds the configured cap of {max_qubits} "
            f"(2^{m} amplitudes); raise the cap explicitly to proceed"
        )
    if m > DEFAULT_MAX_QUBITS:
        # The peak is about 26 * R + 2 bytes per amplitude of one row: 16 per
        # row for the states, 2 for the int32 index over half a row, shared by
        # the rows, and, in the last step, 2 per row for the int32 pair
        # indices plus 8 for the gathered pair factors; 40 * R bounds it.
        needed = 40 * rows * 2**m
        available = _available_bytes()
        if available is not None and needed > available:
            raise ValueError(
                f"{m} qubits need about {needed} bytes to build, "
                f"but only {available} bytes of memory are available"
            )
    # int32 holds every index, mask and pair offset up to 32 qubits.
    itype = np.int32 if m <= 32 else np.int64
    # Each vertex's bit mask of lower-numbered neighbours and its out-degree,
    # row r's vertex k at r*M + k: one pass each over every row's edges.
    a, b = np.concatenate([g.edge_array for g in graphs]).T
    row_starts = np.repeat(np.arange(0, rows * m, m), [g.num_edges for g in graphs])
    lower = np.zeros(rows * m, dtype=itype)
    np.bitwise_or.at(
        lower, np.maximum(a, b) + row_starts, np.left_shift(1, np.minimum(a, b), dtype=itype)
    )
    lower = lower.reshape(rows, m).T[:, :, None]  # (M, R, 1)
    d_out = np.bincount(a + row_starts, minlength=rows * m).reshape(rows, m).T  # (M, R)
    theta = np.array([q.theta for q in params])
    step = 1j * (theta - np.array([q.psi for q in params]))
    high = np.array([q.alpha1 for q in qubits]) * np.exp(step * d_out)
    a0 = np.array([q.alpha0 for q in qubits])[:, None]
    pair = np.exp(-2j * theta[:, None] * np.arange(m)).ravel()  # row r at [r*M : (r+1)*M]
    offsets = np.arange(0, rows * m, m, dtype=itype)[:, None]
    amps = np.empty((rows, 1 << m), dtype=np.complex128)
    amps[:, 0] = 1.0
    index = np.arange(1 << (m - 1), dtype=itype)
    for k in range(m):
        n = 1 << k
        half = amps[:, n : 2 * n]
        np.multiply(amps[:, :n], high[k, :, None], out=half)
        if lower[k].any():
            gather = index[:n] & lower[k]
            np.bitwise_count(gather, out=gather)
            gather += offsets
            half *= pair[gather]
        amps[:, :n] *= a0
    return amps


def pauli_vectors(state: PureState) -> np.ndarray:
    """Row i is (<sx>, <sy>, <sz>) of qubit i, read from the amplitudes in
    place (see the module docstring); a norm off by more than 1e-8 is refused.
    The one-row call of `pauli_vector_rows`."""
    return pauli_vector_rows(state.amplitudes[None])[0]


def pauli_vector_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Entry [r, i] is (<sx>, <sy>, <sz>) of qubit i in row r of an (R, 2^M)
    array of amplitudes; a row whose norm is off by more than 1e-8 is refused."""
    rows, size = amplitudes.shape
    m = size.bit_length() - 1
    if m < 1 or size != 1 << m:
        raise ValueError(f"expected 2^M amplitudes per row with M >= 1, got {size}")
    vectors = np.empty((rows, m, 3))
    prob = np.abs(amplitudes)
    np.square(prob, out=prob)
    for k in range(m - 1, -1, -1):  # fold qubit k's upper half onto its lower half
        np.add(prob[:, : 1 << k], prob[:, 1 << k : 2 << k], out=prob[:, : 1 << k])
    # prob[:, 2^k : 2^(k+1)] still holds bit k's upper half; prob[:, 0] is the norm.
    norms = prob[:, 0].copy()
    error = np.max(np.abs(norms - 1.0))
    if not error <= 1e-8:  # a NaN norm is refused too
        raise ValueError(f"state not normalized: norm error {error:.3e}")
    np.add.reduceat(prob, 1 << np.arange(m), axis=1, out=vectors[:, :, 2])
    # The spent buffer takes each qubit's partial dots in turn, qubit 0
    # first; xy views the first two columns as one complex column: each
    # cross term lands there and is doubled into (<sx>, <sy>) below.
    blocks = prob.view(np.complex128)
    xy = vectors[:, :, :2].view(np.complex128)[:, :, 0]
    starts = []
    end = 0
    for i in range(m):
        # lo and hi are (R, blocks, 2^i): the block halves where bit i is clear and set.
        lo, hi = amplitudes.reshape(rows, -1, 2, 1 << i).transpose(2, 0, 1, 3)
        count, length = lo.shape[1:]
        across = length <= _ACROSS_BLOCKS and length < count  # one dot per offset
        starts.append(end)
        end += length if across else count
        np.vecdot(lo, hi, axis=1 if across else 2, out=blocks[:, starts[-1] : end])
    np.add.reduceat(blocks[:, :end], starts, axis=1, out=xy)
    vectors *= (2.0, 2.0, -2.0)
    vectors[:, :, 2] += norms[:, None]  # <sz> = norm - 2 * weight of bit 1
    return vectors
