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

Rows: a row is one (graph, input qubit, interaction params) triple, that
is, one state.  `build_graph_state_rows` runs that loop once for R rows of
one qubit count M, whose states are the rows of an (R, 2^M) array.  Per-row
data are arrays made from the rows' `edge_array`s, concatenated: one
`bincount` over those edges, weighted by 2^min(a, b), builds the
lower-neighbour masks and one more counts the out-degrees d_out(k).  The
masks and the high-half factors
alpha1 * exp(i*(theta - psi)*d_out(k)) are (M, R), and the pair factors
exp(-2i*theta*c) are one flat (R*M) table read at c + r*M.
`pauli_vector_rows` reads such an array, and `build_graph_state` and
`pauli_vectors` are the one-row calls of the same code.  How many rows go
into one call is the caller's choice; `entanglement.ed_numeric_rows` holds
the batch rule the oracle's callers use.

Build: the step that appends qubit k multiplies each place l of the new
half by pair[popcount(l & lower_k)].  Up to 2^11 places (every step of a
state of at most 12 qubits) that factor is gathered per place.  Past that,
the place is split into its low 11 bits and the rest, pair[c + c'] =
pair[c] * pair[c'], and the half is written through an (R, blocks, 2^11)
view: once from the lower half times one factor per block (high_k folded
in), then times one factor per place in a block.  No step allocates
anything the size of a half, so the states themselves, 16 bytes per
amplitude per row, are the build's peak.

Pauli vectors: `pauli_vector_rows` returns every qubit's (<sx>, <sy>, <sz>)
in one call and copies no part of the states.  The cross term
sum_x conj(amp(x)) amp(x + 2^i), over x with bit i clear, is read in place
from the (R, blocks, 2, 2^i) view of the amplitudes as one dot per
contiguous block pair.  How the low qubits are read depends on the size of
a row:

- Below 2^18 amplitudes, <sz> comes from one probability array folded M
  times, top qubit first: the upper half (bit k = 1) is added onto the lower
  half and left in place, so one segmented sum at the end gives every
  qubit's weight of bit 1, after about 2 * 2^M adds per row.  Qubits whose
  blocks hold at most 4 amplitudes (64 bytes) and are fewer than their count
  take one strided dot per offset in the block, across all blocks, instead
  of one dot per block, which halves the dot loop (median, 2-core Xeon:
  174 vs 361 us on 35 rows of 9 qubits, 298 vs 610 us on 8 rows of 12).
  The partial dots go into the spent probability buffer, half the states'
  bytes and the largest allocation, and a second segmented sum adds them up.
- From 2^18 amplitudes on, the float64 view V of a row, 2^(M-6) rows of 64
  amplitudes' real and imaginary parts, gives one 128 x 128 Gram matrix
  G = V^T V: every cross term and weight of qubits 0..5 is a sum of its
  entries.  The weights of V's rows, folded like the probabilities, give the
  norm and the other qubits' <sz>; qubits 6 and up take their block dots.
  Nothing the size of a state is allocated: the Gram, the row weights and
  the partial dots together take a few percent of the states' bytes.  On
  smaller rows the Gram costs more than the passes it saves.

Either way the weights' total is each row's norm, so a row that is not
normalized is refused without a further pass over it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import DirectedGraph, _available_bytes, _check_p, _integer

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

# 2^22 complex amplitudes = 64 MiB: the CLI's default --max-qubits, and the
# state size past which a build first probes the available memory.
DEFAULT_MAX_QUBITS = 22
# A qubit whose blocks hold at most this many amplitudes (64 bytes, one cache
# line) is summed across its blocks.  Longer blocks are read block by block:
# a strided dot loads each cache line once per offset it holds.  One qubit's
# dots, across vs per block, median of alternating calls: blocks of 4 took
# 18 vs 65 us on 35 rows of 9 qubits and 71 vs 468 us on one row of 17;
# blocks of 16 took 19 vs 17 us and 298 vs 153 us.
_ACROSS_BLOCKS = 4
# Doubling steps past 2^_LOW_BITS amplitudes split each pair factor into a
# low-bit and a high-bit table instead of gathering one factor per amplitude.
_LOW_BITS = 11
# A row of at least _GRAM_AMPLITUDES amplitudes reads its qubits below
# _GRAM_QUBITS from one real Gram matrix instead of a probability buffer and
# block dots.  Against the probability pass, median of alternating calls on
# one row unless stated: 3.0x at 12 qubits with 8 rows, 1.10x at 16, 0.96x
# at 17 (faster in 28 of 40), 0.86x at 18 (40 of 40), 0.82x at 20, 0.72x at 22.
_GRAM_AMPLITUDES = 1 << 18
_GRAM_QUBITS = 6
# Row i holds l * 2^g + l + 2^i, with g = _GRAM_QUBITS, for every l whose
# bit i is clear: the entries of a flat 2^g x 2^g table that qubit i's cross
# term sums.
_PAIRS = np.array(
    [
        [(l << _GRAM_QUBITS) + l + bit for l in range(1 << _GRAM_QUBITS) if not l & bit]
        for bit in (1 << i for i in range(_GRAM_QUBITS))
    ]
)


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

    # Computed once per instance: a batch reads them once per row.
    @functools.cached_property
    def alpha0(self) -> complex:
        return math.sqrt(1.0 - self.p) * cmath.exp(1j * self.delta0)

    @functools.cached_property
    def alpha1(self) -> complex:
        return math.sqrt(self.p) * cmath.exp(1j * self.delta1)


@dataclass(frozen=True)
class PureState:
    """A pure M-qubit state as 2^M complex amplitudes (qubit i = bit i)."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        m = _integer(self.num_qubits, "num_qubits")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        # No array holds 2^63 amplitudes, so 2^M is formed only below that.
        if not (0 <= m < 63 and amps.shape == (1 << m,)):
            raise ValueError(f"expected 2^{m} amplitudes for {m} qubits, got shape {amps.shape}")
        object.__setattr__(self, "num_qubits", m)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_error(self) -> float:
        """|sum of squared moduli - 1|."""
        return abs(float(np.vdot(self.amplitudes, self.amplitudes).real) - 1.0)


def product_state(num_qubits: int, qubit: InitialQubit = InitialQubit()) -> PureState:
    """Tensor power of the single-qubit input state: amplitude at index x is
    the product over qubits i of alpha_{bit_i(x)}.  It is the state of the
    edgeless graph, whose appended halves take alpha1 * e^{0i} = alpha1;
    `DirectedGraph` checks num_qubits."""
    return build_graph_state(DirectedGraph(num_qubits, ()), qubit, InteractionParams(0.0))


def build_graph_state(graph: DirectedGraph, qubit: InitialQubit, params: InteractionParams) -> PureState:
    """Product input state followed by one edge operator per graph edge,
    built by in-place doubling (see the module docstring): the one-row call
    of `build_graph_state_rows`."""
    states = build_graph_state_rows([(graph, qubit, params)])
    return PureState(graph.num_vertices, states[0])


def build_graph_state_rows(
    rows: Sequence[tuple[DirectedGraph, InitialQubit, InteractionParams]],
) -> np.ndarray:
    """Row r of the (R, 2^M) result holds the amplitudes of the state of
    rows[r], a (graph, input qubit, params) triple; one doubling loop serves
    every row.  The graphs must share their vertex count M, below 63."""
    if not rows:
        raise ValueError("need at least one row")
    graphs, qubits, params = zip(*rows)
    count = len(rows)
    m = graphs[0].num_vertices
    if any(g.num_vertices != m for g in graphs):
        sizes = sorted({g.num_vertices for g in graphs})
        raise ValueError(f"rows must share one vertex count, got {sizes}")
    if m >= 63:  # as in PureState: no array holds 2^63 amplitudes
        raise ValueError(f"{m} qubits need 2^{m} amplitudes, more than any array holds")
    if count << m > 1 << DEFAULT_MAX_QUBITS:
        # The states take 16 bytes per amplitude per row.  The build's pair
        # tables and the Pauli pass's Gram, row weights and partial dots add
        # under 1 (tracemalloc, one row of 18 to 22 qubits: the build peaks at
        # 1.003-1.05x the state's bytes, the Pauli pass at 0.02-0.06x); 17 * R
        # bounds it.
        needed = 17 * count * 2**m
        available = _available_bytes()
        if available is not None and needed > available:
            raise ValueError(
                f"{m} qubits need about {needed} bytes to build, "
                f"but only {available} bytes of memory are available"
            )
    # int32 holds every index, mask and pair offset up to 32 qubits.
    itype = np.int32 if m <= 32 else np.int64
    # Each vertex's bit mask of lower-numbered neighbours and its out-degree,
    # row r's vertex k at r*M + k: one pass each over every row's edges.  A
    # vertex's lower neighbours are distinct bits, so their sum is their OR;
    # the float64 sum is exact below 2^53, and no state of 53 qubits fits.
    a, b = np.concatenate([g.edge_array for g in graphs]).T
    row_starts = np.repeat(np.arange(0, count * m, m), [g.num_edges for g in graphs])
    lower = np.bincount(
        np.maximum(a, b) + row_starts, weights=np.left_shift(1, np.minimum(a, b)), minlength=count * m
    ).astype(itype)
    lower = lower.reshape(count, m).T[:, :, None]  # (M, R, 1)
    d_out = np.bincount(a + row_starts, minlength=count * m).reshape(count, m).T  # (M, R)
    theta = np.array([q.theta for q in params])
    # Finite angles can still overflow a phase, (theta - psi) * d_out or
    # 2 * theta * c; that row's table entries come out inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        step = 1j * (theta - np.array([q.psi for q in params]))
        high = np.array([q.alpha1 for q in qubits]) * np.exp(step * d_out)
        pair = np.exp(-2j * theta[:, None] * np.arange(m)).ravel()  # row r at [r*M : (r+1)*M]
    finite = np.isfinite(high).all(axis=0) & np.isfinite(pair).reshape(count, m).all(axis=1)
    if not finite.all():
        bad = params[int(np.argmin(finite))]
        raise ValueError(
            f"edge phases overflow at theta={bad.theta}, psi={bad.psi}; "
            "reduce the angles mod 2*pi"
        )
    a0 = np.array([q.alpha0 for q in qubits])[:, None]
    offsets = np.arange(0, count * m, m, dtype=itype)[:, None]
    amps = np.empty((count, 1 << m), dtype=np.complex128)
    amps[:, 0] = 1.0
    width = 1 << _LOW_BITS
    index = np.arange(min(1 << (m - 1), width), dtype=itype)
    for k in range(m):
        n = 1 << k
        half = amps[:, n : 2 * n]
        if n > width and lower[k].any():
            # pair[c + c'] = pair[c] * pair[c']: the high bits of a place in
            # the half pick one factor per block of `width` places, the low
            # bits one factor per place in a block.
            high_bits = np.arange(0, n, width, dtype=itype) & lower[k]
            np.bitwise_count(high_bits, out=high_bits)
            high_bits += offsets
            low_bits = index & lower[k]
            np.bitwise_count(low_bits, out=low_bits)
            low_bits += offsets
            upper = half.reshape(count, -1, width)
            per_block = high[k, :, None] * pair[high_bits]
            np.multiply(amps[:, :n].reshape(count, -1, width), per_block[:, :, None], out=upper)
            upper *= pair[low_bits][:, None, :]
        else:
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
    # xy views the first two columns as one complex column: each cross term
    # lands there and is doubled into (<sx>, <sy>) below.
    xy = vectors[:, :, :2].view(np.complex128)[:, :, 0]
    if size < _GRAM_AMPLITUDES:
        low = 0
        prob = np.abs(amplitudes)
        np.square(prob, out=prob)
        norms = _fold_weights(prob, vectors[:, :, 2])
        # The spent probability buffer takes the partial dots.
        blocks = prob.view(np.complex128)
    else:
        low = _GRAM_QUBITS
        # Row h of v holds the real and imaginary parts of amplitudes
        # h*2^low .. (h+1)*2^low - 1; gram[r, l, s, k, t] sums part s of
        # amplitude l times part t of amplitude k over every h.
        v = np.ascontiguousarray(amplitudes).view(np.float64).reshape(rows, -1, 2 << low)
        gram = np.matmul(v.transpose(0, 2, 1), v).reshape(rows, 1 << low, 2, 1 << low, 2)
        # Entry l * 2^low + k: the real and imaginary parts of
        # sum_h conj(amp l) amp k.  np.take keeps each row's sum in the same
        # order however many rows there are.
        re = (gram[:, :, 0, :, 0] + gram[:, :, 1, :, 1]).reshape(rows, -1)
        im = (gram[:, :, 0, :, 1] - gram[:, :, 1, :, 0]).reshape(rows, -1)
        vectors[:, :low, 0] = np.take(re, _PAIRS, axis=1).sum(axis=2)
        vectors[:, :low, 1] = np.take(im, _PAIRS, axis=1).sum(axis=2)
        # The diagonal of re holds each place's |amp l|^2 summed over h.
        _fold_weights(re[:, :: (1 << low) + 1].copy(), vectors[:, :low, 2])
        norms = _fold_weights(np.vecdot(v, v, axis=2), vectors[:, low:, 2])
        blocks = np.empty((rows, 1 << (m - low)), dtype=np.complex128)
    error = np.max(np.abs(norms - 1.0))
    if not error <= 1e-8:  # a NaN norm is refused too
        raise ValueError(f"state not normalized: norm error {error:.3e}")
    starts = []
    end = 0
    for i in range(low, m):
        # lo and hi are (R, blocks, 2^i): the block halves where bit i is clear and set.
        lo, hi = amplitudes.reshape(rows, -1, 2, 1 << i).transpose(2, 0, 1, 3)
        count, length = lo.shape[1:]
        across = length <= _ACROSS_BLOCKS and length < count  # one dot per offset
        starts.append(end)
        end += length if across else count
        np.vecdot(lo, hi, axis=1 if across else 2, out=blocks[:, starts[-1] : end])
    np.add.reduceat(blocks[:, :end], starts, axis=1, out=xy[:, low:])
    vectors *= (2.0, 2.0, -2.0)
    vectors[:, :, 2] += norms[:, None]  # <sz> = norm - 2 * weight of bit 1
    return vectors


def _fold_weights(prob: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold an (R, 2^n) array of weights n times, top bit first, adding each
    upper half onto its lower half in place; out[r, j] becomes row r's weight
    with bit j set.  Returns the (R,) totals."""
    n = out.shape[1]
    for k in range(n - 1, -1, -1):
        np.add(prob[:, : 1 << k], prob[:, 1 << k : 2 << k], out=prob[:, : 1 << k])
    # prob[:, 2^k : 2^(k+1)] still holds bit k's upper half; prob[:, 0] is the total.
    np.add.reduceat(prob, 1 << np.arange(n), axis=1, out=out)
    return prob[:, 0].copy()
