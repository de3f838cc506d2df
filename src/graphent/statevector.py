"""Exact state-vector oracle for directed-graph qubit states: one in-place
doubling loop over the qubits, every qubit's Pauli vector, and the ED per
qubit read from them.

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

Rows: a row is one state, that is, a graph, interaction angles theta and
psi, and an input qubit sqrt(1-p)*e^{i*delta0}|0> + sqrt(p)*e^{i*delta1}|1>,
all as plain values.  The oracle takes its rows in one form, `StateRows`:
for R rows of one qubit count M, one (E, 2) edge array holding each row's
edges in turn, the per-row edge counts, and per-row theta, psi, p, delta0
and delta1, from which `StateRows.alpha0` and `alpha1`, the only formula for
the input amplitudes, form them.  The edges come in as a graph's do and go
through the graph's own checks, all rows as one disjoint-union graph.
`build_graph_state` makes the one row of a graph and those values, taken by
keyword, so one-row calls and many rows run the one kernel.
`build_graph_state_rows` runs that loop once for the R rows, whose states
are the rows of an (R, 2^M) array; a one-row state is one (2^M,) array.  It
takes two steps.  `_row_tables` forms the loop's per-row tables: one
`bincount` over the edges, weighted by 2^min(a, b), builds the
lower-neighbour masks and one more counts the out-degrees d_out(k); the
masks, the high-half factors alpha1 * exp(i*(theta - psi)*d_out(k)) and the
pair factors exp(-2i*theta*c) are (R, M), alpha0 is (R, 1), and a row whose
angles overflow a phase is refused there.  `_double_rows` is the doubling
loop over the tables of a batch of rows.  `pauli_vector_rows` reads such an
array, and `build_graph_state` and `pauli_vectors` are the one-row calls of
the same code.  How many rows go into one call is the caller's choice;
`ed_numeric_rows` holds the batch rule the oracle's callers use.

Buffers: `ed_numeric_rows` forms the tables of all its rows once and
allocates one state buffer, one batch in size, per call; every batch takes
its row slices of the tables and is built into that buffer.  Below 2^18
amplitudes per row one scratch buffer, the states' bytes up to 15 qubits
(half at 16, a quarter at 17), takes the build's gathered factors and then
the Pauli pass's tile, so no batch allocates an array of its size.  A batch
array freed after each batch was returned to the system by glibc (unmapped,
or trimmed off the heap top) and faulted back in by the next: a `verify` op
of 120 graphs of at most 12 vertices, 5 samples, took 18,621 minor page
faults in a bare process with new arrays per batch and 1,920 with the
buffers of one call per qubit count (16 ops).  Rows of 2^18 amplitudes or
more are built one per batch and read one row at a time, so they take no
scratch: the read allocates one tile, then one slab buffer, each at most
1/16 of a row, and their partial sums.

Build: the step that appends qubit k multiplies each place l of the new
half by high_k * pair[popcount(l & lower_k)].  Up to 2^11 places (every
step of a state of at most 12 qubits) high_k is folded into the step's
(R, M) pair table, one factor is gathered per place into the scratch, the
lower half is multiplied onto it there, and the product is copied into the
half: one gather, one multiply and one copy.  Past that, the place is split
into its low 11 bits and the rest, pair[c + c'] = pair[c] * pair[c'], and the
half is written through an (R, blocks, 2^11) view: row by row from the
lower half times one factor per block (high_k folded in), then times one
factor per place in a block.  A batch's halves interleave in memory, so a
multiply from the lower halves of several rows into their upper halves
would make numpy copy its input first: 34.0 against 26.1 us at 8 rows of
2^11 places (median of 2,000 alternating calls).  Every factor is the first
operand of its multiply, in every branch: complex multiply is not bitwise
commutative (it rounds one cross product before the fused add), and a
row's factor must meet its lower half the same way whichever branch its
batch takes.  The step then multiplies the lower half by alpha0, lower half
first, row by row from 2^9 to 2^11 places: there numpy runs a broadcast
(R, 1) operand through its buffered iterator, 33 against 13 us per step at
8 rows of 2^11 places (median of 11 runs of 20 calls, one BLAS thread,
2-core Xeon).  Below 2^9 places and above 2^11 the broadcast is as fast or
faster; at one or two rows the loop costs about 1 us more per step.  No
step past the gather steps allocates anything the size of a half, so for
large states the states themselves, 16 bytes per amplitude per row, are the
build's peak.  Against building every batch's tables apart, with its own
`StateRows` slice, and gathering high_k and the pair factor in two
multiplies, one batch took 0.30x the time at 2 qubits (350 rows), 0.54x at
6, 0.75x at 12 and 0.87x at 17 (median of 60 alternating calls, one BLAS
thread, 2-core Xeon).

Pauli vectors: `pauli_vector_rows` returns every qubit's (<sx>, <sy>, <sz>)
in one call and copies no half of a state.  The cross term
sum_x conj(amp(x)) amp(x + 2^i), over x with bit i clear, is read as one dot
per contiguous block pair, where a block is a run of 2^i places with bit i
clear, or as one dot per pair of rows of a transposed tile.  Each row is
read one chunk of 2^c contiguous amplitudes at a time, so the chunk sits in
a core's 2 MiB L2 cache while it is read, the way state-vector simulators
block their short-stride qubits (Haener and Steiger, SC'17,
arXiv:1704.01127).  A chunk is copied, transposed, into a (2^t, 2^(c-t))
tile, so qubits 0..t-1 pair tile rows, contiguous runs of 2^(c-t)
amplitudes, where their blocks in the row hold 1 to 2^(t-1); qubits
t..c-1 take their block dots on the chunk itself.  The row weights of the
tile and of the chunk's (2^(c-t), 2^t) view, folded top bit first (each
upper half added onto its lower half), give the weights of bits 0..c-1, and
the chunk totals those of bits c and up and the norm.  How the rows are
taken depends on their size:

- Below 2^18 amplitudes, every row of the array at once, in chunks of
  2^c = min(2^M, 2^15) amplitudes with tiles of 2^(c//2) rows, all rows'
  tiles in the scratch.  Qubits c and up (at 16 and 17 qubits) take block
  dots over the whole array.  Against the probability fold and per-block
  dots this replaced, a batch's read took 0.75x the time at 11 and 12
  qubits, 0.82x at 15 and 0.66x at 17, but 1.1x to 1.65x at 2 to 8 qubits,
  where its many short dots cost more than they save (40 to 115 us per
  call; median of 60 alternating calls, as above).
- From 2^18 amplitudes on, one row at a time, c = min(16, M - 4), so a chunk
  is 1 MiB at most, with tiles of 2^8 rows.  Qubits c and up pair rows of
  the row's (2^(M-c), 2^c) view, 1 MiB apart at 22 qubits, so they are read
  in one more pass, one slab of 2^10 columns of that view at a time: the
  slab is copied into one reused contiguous buffer, whose rows the top
  qubits pair while it sits in L2.  One qubit's dots over a whole 64 MiB row
  took 1.4 to 2.7 ms, as more or less of the host's shared L3 cache was
  free, and 0.9 to 1.1 ms on the row's 64 slabs in L2.  Nothing the size of
  a state is allocated: the tile, the slab buffer and the partial sums peak
  at 8% of a state's bytes at 18 qubits and 2% at 22 (tracemalloc).

Either way the weights' total is each row's norm, so a row that is not
normalized is refused without a further pass over it.

ED step: `ed_numeric` and `ed_numeric_rows` turn the Pauli vectors into the
per-vertex contributions 1 - ||<sigma^(i)>||^2 and their mean, the ED per
qubit, from the simulated state alone; the closed forms they are checked
against live in `entanglement`, which this module never imports.
`ed_numeric_rows` keeps every batch's (R, M) contributions and takes the
means of all its rows in one `_mean` call: one `math.fsum` per row, one
division and one range check, whose refusal names the row.  `EdReport` is
its one-row call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import (
    DirectedGraph, _accepted, _available_bytes, _check_angles, _check_p, _check_phases, _explained, _int_pairs,
    _read_only, _vertex_count,
)

__all__ = [
    "DEFAULT_MAX_QUBITS",
    "StateRows",
    "product_state",
    "build_graph_state",
    "build_graph_state_rows",
    "pauli_vectors",
    "pauli_vector_rows",
    "EdReport",
    "ed_numeric",
    "ed_numeric_rows",
]

# 2^22 complex amplitudes = 64 MiB: the CLI's default --max-qubits, and the
# state size past which a build first probes the available memory.
DEFAULT_MAX_QUBITS = 22
# Doubling steps past 2^_LOW_BITS amplitudes split each pair factor into a
# low-bit and a high-bit table instead of gathering one factor per amplitude.
_LOW_BITS = 11
# A row of at least _CHUNKED_AMPLITUDES amplitudes is read on its own, in
# chunks of up to 2^_CHUNK_BITS contiguous amplitudes (see `_read_chunks`)
# and then in slabs; smaller rows are read all together.  Against a 128 x
# 128 Gram read of qubits 0..5, the one-row chunked read took 0.71x the time
# at 18 qubits, 0.62x at 20 and 0.58x at 22, faster in 15 of 15 alternating
# one-row calls each (medians, one BLAS thread, 2-core Xeon with 2 MiB of L2
# per core).
_CHUNKED_AMPLITUDES = 1 << 18
# Chunks of 2^16 amplitudes, 1 MiB, and the tile copied from them fill one
# core's L2 cache: at 22 qubits chunks of 2^17 took 1.22x the time and
# chunks of 2^14 1.18x.  A row of M qubits takes chunks of at most 2^(M-4)
# amplitudes, so the tile is at most 1/16 of the row's bytes.
_CHUNK_BITS = 16
# On the one-row read, qubits below _TILE_BITS are read from the transposed
# tile.  At 22 qubits 6 took 1.07x the time of 8; 7 and 9 read within the
# noise (0.97x and 1.03x).
_TILE_BITS = 8
# Qubits from the chunk bits up are read from slabs of 2^_SLAB_BITS places
# per top-bit value (see `_read_slabs`), 1 MiB at 22 qubits.  At 22 qubits
# the slab pass took 11.0 ms at 10, 12.0 ms at 9 and 12.6 ms at 8 (median of
# 20 calls); wider slabs would outgrow a chunk.
_SLAB_BITS = 10
# Rows below _CHUNKED_AMPLITUDES are read all together in chunks of at most
# 2^_BATCH_CHUNK_BITS amplitudes, BATCH_AMPLITUDES, so the tiles of a batch
# fill at most the one-batch scratch of `ed_numeric_rows`, 512 KiB, and sit
# in L2 with the chunks they are copied from.  Their tiles have 2^(c//2)
# rows, so the tile and chunk qubits take about half the bits each.
_BATCH_CHUNK_BITS = 15
# Oracle rows are built and read in batches of at most max(2^15, 2^M)
# amplitudes: one doubling loop and one Pauli pass per batch, not per state.
BATCH_AMPLITUDES = 2**15


@dataclass(frozen=True, eq=False)
class StateRows:
    """R oracle rows of one qubit count M, below 63, as arrays: the one form
    the oracle takes.  Row r's graph has M vertices and the next
    edge_counts[r] rows of the (E, 2) `edges` as its edges; its input qubit
    is (p, delta0, delta1)[r] and its angles are (theta, psi)[r].  A per-row
    field takes one value for every row or one value per row; p, delta0 and
    delta1 default to the balanced input.

    The rows are checked once, vectorised, by `graphs`' guards: finite real
    angles and phases (a str, bool, None or complex is refused, not read as
    a float), a real p in [0, 1], and edges taken as a
    `DirectedGraph` takes them, an integer (E, 2) array or pairs of plain
    ints, into a read-only copy, and refused exactly when a row's graph
    would be, the first refused row named by the graph's explain pass.  M of
    63 or more is refused here: no array holds 2^63 amplitudes."""

    num_qubits: int
    edges: np.ndarray
    edge_counts: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    p: np.ndarray = 0.5
    delta0: np.ndarray = 0.0
    delta1: np.ndarray = 0.0

    _PER_ROW = ("theta", "psi", "p", "delta0", "delta1")

    def __post_init__(self) -> None:
        m = _vertex_count(self.num_qubits)
        if m >= 63:
            raise ValueError(f"{m} qubits need 2^{m} amplitudes, more than any array holds")
        edges, counts = _int_pairs(self.edges), np.asarray(self.edge_counts)
        if edges is None:
            got = self.edges
            got = f"{got.dtype} {got.shape}" if isinstance(got, np.ndarray) else type(got).__name__
            raise ValueError(f"edges must be an (E, 2) integer array or pairs of plain ints, got {got}")
        if counts.dtype.kind not in "iu" or counts.ndim != 1 or (counts < 0).any() or counts.sum() != len(edges):
            raise ValueError(f"edge_counts must be one count >= 0 per row, summing to the {len(edges)} edges")
        vars(self).update(num_qubits=m, edges=_read_only(edges), edge_counts=_read_only(counts.astype(np.int64)))
        self._check_edges()
        rows = len(counts)
        per_row = {}
        for name in self._PER_ROW:
            # A list or scalar is taken as Python objects: np.asarray would
            # read [0.1, True] as floats before a guard could see the bool.
            x = getattr(self, name)
            x = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
            try:
                per_row[name] = np.broadcast_to(x, (rows,))
            except ValueError:
                raise ValueError(
                    f"{name} must be one value or one per row of the {rows} rows, got shape {x.shape}"
                ) from None
        _check_p(per_row["p"])
        _check_angles(per_row["theta"], per_row["psi"])
        _check_phases(per_row["delta0"], per_row["delta1"])
        vars(self).update((name, _read_only(x.astype(np.float64))) for name, x in per_row.items())

    def _check_edges(self) -> None:
        """Refuse the first row holding an edge its graph would refuse.  Once
        every endpoint is in [0, M), the rows go through the graph's accept
        pass as one graph, row r's vertices offset by r*M as by the kernel's
        `row_starts` (without the range test, endpoint M of row r would be
        vertex 0 of row r + 1).  If either refuses, the graph's explain pass
        walks the rows in order and names the first refused edge: a pair key
        that wraps past int64 can only send good rows to that walk."""
        m, edges, counts = self.num_qubits, self.edges, self.edge_counts
        offsets = np.repeat(np.arange(len(counts)) * m, counts)
        # A negative endpoint viewed as unsigned is 2^63 or more: one compare.
        if (edges.view(np.uint64) < m).all() and _accepted(edges + offsets[:, None], len(counts) * m) is not None:
            return
        ends = self._edge_ends
        for r in range(len(counts)):
            try:
                _explained(edges[ends[r] : ends[r + 1]].tolist(), m)
            except ValueError as exc:
                raise ValueError(f"row {r}: {exc}") from None

    @classmethod
    def _unchecked(cls, **fields: object) -> StateRows:
        """Rows whose fields are already arrays of checked values."""
        rows = cls.__new__(cls)
        vars(rows).update(fields)
        return rows

    def __len__(self) -> int:
        return len(self.edge_counts)

    def __getitem__(self, rows: slice) -> StateRows:
        """The rows of a step-1 slice, with nothing checked again."""
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError(f"row slices take step 1, got {step}")
        stop = max(start, stop)
        first, last = self._edge_ends[[start, stop]]
        return self._unchecked(
            num_qubits=self.num_qubits,
            edges=self.edges[first:last],
            edge_counts=self.edge_counts[start:stop],
            **{name: getattr(self, name)[start:stop] for name in self._PER_ROW},
        )

    @functools.cached_property
    def _edge_ends(self) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(self.edge_counts)))

    # The input amplitudes per row: sqrt(1-p)*e^{i*delta0} and sqrt(p)*e^{i*delta1}.
    @property
    def alpha0(self) -> np.ndarray:
        return np.sqrt(1.0 - self.p) * np.exp(1j * self.delta0)

    @property
    def alpha1(self) -> np.ndarray:
        return np.sqrt(self.p) * np.exp(1j * self.delta1)


def product_state(num_qubits: int, *, p: float = 0.5, delta0: float = 0.0, delta1: float = 0.0) -> np.ndarray:
    """The 2^M amplitudes of the tensor power of the input qubit
    sqrt(1-p)*e^{i*delta0}|0> + sqrt(p)*e^{i*delta1}|1>: amplitude x is the
    product over qubits i of alpha_{bit_i(x)}.  It is the state of the
    edgeless graph, whose appended halves take alpha1 * e^{0i} = alpha1;
    `DirectedGraph` checks num_qubits."""
    return build_graph_state(DirectedGraph(num_qubits, ()), theta=0.0, p=p, delta0=delta0, delta1=delta1)


def build_graph_state(
    graph: DirectedGraph, *, theta: float, psi: float = 0.0, p: float = 0.5, delta0: float = 0.0, delta1: float = 0.0
) -> np.ndarray:
    """The 2^M amplitudes of the product input state followed by one edge
    operator per graph edge, at interaction angles theta and psi, built by
    in-place doubling (see the module docstring): the one-row call of
    `build_graph_state_rows`.  When the control qubit of an edge is 1, its
    target picks up exp(-i*psi) * diag(exp(i*theta), exp(-i*theta))."""
    row = StateRows(graph.num_vertices, graph.edge_array, [graph.num_edges], theta, psi, p, delta0, delta1)
    return build_graph_state_rows(row)[0]


def _state_buffer(count: int, m: int) -> np.ndarray:
    """An empty (count, 2^m) complex array for the states of `count` rows of
    m < 63 qubits, refused when, past the default cap, building them would
    not fit in the available memory."""
    if count << m > 1 << DEFAULT_MAX_QUBITS:
        # The states take 16 bytes per amplitude per row.  The build's pair
        # tables and the Pauli pass's tile, slab buffer and partial sums add
        # under 1 (tracemalloc, one row of 18 to 22 qubits: the build peaks
        # at 1.004-1.06x the state's bytes, the Pauli pass at 0.02-0.08x);
        # 17 * R bounds it.
        needed = 17 * count * 2**m
        available = _available_bytes()
        if available is not None and needed > available:
            raise ValueError(
                f"{m} qubits need about {needed} bytes to build, "
                f"but only {available} bytes of memory are available"
            )
    return np.empty((count, 1 << m), dtype=np.complex128)


def build_graph_state_rows(
    rows: StateRows, *, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Row r of the (R, 2^M) result holds the amplitudes of the state of row
    r of `rows`: the rows' tables (`_row_tables`) run through one doubling
    loop (`_double_rows`).  The states are written into the first R rows of
    `out`, an (R', 2^M) complex array with R' >= R, and the gathered factors
    of the steps up to 2^11 places into `scratch`, a flat float64 array of at
    least R * 2^min(M, 12) entries; each is allocated when not given."""
    count, m = len(rows), rows.num_qubits
    if out is None:
        out = _state_buffer(count, m)
    elif out.dtype != np.complex128 or out.shape[1:] != (1 << m,) or len(out) < count:
        raise ValueError(f"out must be a complex array of at least {count} rows of 2^{m}, got {out.shape}")
    if not count:
        return out[:0]
    return _double_rows(_row_tables(rows), out=out, scratch=scratch)


def _row_tables(rows: StateRows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The doubling loop's tables of R rows, row first, so the tables of a
    batch are their row slices: each vertex's mask of lower-numbered
    neighbours, (R, M) ints; its high-half factor alpha1 *
    exp(i*(theta - psi)*d_out(k)), (R, M); the pair factors exp(-2i*theta*c)
    for c in [0, M), (R, M); and alpha0, (R, 1).  A row whose angles
    overflow a phase is refused."""
    count, m = len(rows), rows.num_qubits
    # int32 holds every index, mask and pair offset up to 32 qubits.
    itype = np.int32 if m <= 32 else np.int64
    # Row r's vertex k is at r*M + k: one bincount over every row's edges
    # gives the masks and one the out-degrees.  A vertex's lower neighbours
    # are distinct bits, so their sum is their OR; the float64 sum is exact
    # below 2^53, and no state of 53 qubits fits.
    a, b = rows.edges.T
    row_starts = np.repeat(np.arange(0, count * m, m), rows.edge_counts)
    lower = np.bincount(
        np.maximum(a, b) + row_starts, weights=np.left_shift(1, np.minimum(a, b)), minlength=count * m
    ).astype(itype)
    d_out = np.bincount(a + row_starts, minlength=count * m).reshape(count, m)
    theta = rows.theta
    # Finite angles can still overflow a phase, (theta - psi) * d_out or
    # 2 * theta * c; that row's table entries come out inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        step = 1j * (theta - rows.psi)
        high = rows.alpha1[:, None] * np.exp(step[:, None] * d_out)
        pair = np.exp(-2j * theta[:, None] * np.arange(m))
    finite = np.isfinite(high).all(axis=1) & np.isfinite(pair).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise ValueError(
            f"edge phases overflow at theta={float(theta[r])}, psi={float(rows.psi[r])}; "
            "reduce the angles mod 2*pi"
        )
    return lower.reshape(count, m), high, pair, rows.alpha0[:, None]


def _double_rows(
    tables: Sequence[np.ndarray], *, out: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Build the states of the R rows of `_row_tables`' tables into the first
    R rows of `out`, (R', 2^M) complex, and return them; `scratch` is as for
    `build_graph_state_rows`.  Every factor multiplies the lower half as its
    first operand: complex multiply rounds its two cross products
    differently when the operands swap, and a row must come out the same
    whichever branch its batch takes."""
    lower, high, pair, a0 = tables
    count, m = lower.shape
    amps = out[:count]
    if scratch is None:
        scratch = np.empty(count << min(m, _LOW_BITS + 1))
    offsets = np.arange(0, count * m, m, dtype=lower.dtype)[:, None]
    amps[:, 0] = 1.0
    width = 1 << _LOW_BITS
    index = np.arange(min(1 << (m - 1), width), dtype=lower.dtype)
    for k in range(m):
        n = 1 << k
        half = amps[:, n : 2 * n]
        mask = lower[:, k, None]
        # The lower and upper halves of a batch of rows interleave in memory,
        # so numpy would copy the lower half before writing the upper one:
        # each step writes its upper half from the scratch, or row by row.
        if n > width:
            if mask.any():
                # pair[c + c'] = pair[c] * pair[c']: the high bits of a place in
                # the half pick one factor per block of `width` places, the low
                # bits one factor per place in a block.
                high_bits = np.arange(0, n, width, dtype=lower.dtype) & mask
                np.bitwise_count(high_bits, out=high_bits)
                high_bits += offsets
                low_bits = index & mask
                np.bitwise_count(low_bits, out=low_bits)
                low_bits += offsets
                upper = half.reshape(count, -1, width)
                per_block = high[:, k, None] * np.take(pair, high_bits)
                for r in range(count):
                    np.multiply(per_block[r, :, None], amps[r, :n].reshape(-1, width), out=upper[r])
                upper *= np.take(pair, low_bits)[:, None, :]
            else:
                for r in range(count):
                    np.multiply(high[r, k], amps[r, :n], out=half[r])
        else:
            factors = scratch[: 2 * count * n].view(np.complex128).reshape(count, n)
            if mask.any():
                # high_k folded into this step's pair table: place l of row r
                # takes entry popcount(l & lower) of row r's table.
                gather = index[:n] & mask
                np.bitwise_count(gather, out=gather)
                gather += offsets
                # mode="clip" (the indices are in range) writes straight into
                # the scratch; the default mode would buffer the output.
                np.take(high[:, k, None] * pair, gather, out=factors, mode="clip")
                np.multiply(factors, amps[:, :n], out=factors)
            else:
                np.multiply(high[:, k, None], amps[:, :n], out=factors)
            np.copyto(half, factors)
        if width >> 2 <= n <= width:
            # At these sizes numpy runs the broadcast (R, 1) operand through its
            # buffered iterator, slower than one multiply per row.
            for row, a in zip(amps[:, :n], a0[:, 0]):
                row *= a
        else:
            amps[:, :n] *= a0
    return amps


def pauli_vectors(state: np.ndarray) -> np.ndarray:
    """Row i is (<sx>, <sy>, <sz>) of qubit i of a state of 2^M amplitudes,
    read in place (see the module docstring); a norm off by more than 1e-8
    is refused.  The one-row call of `pauli_vector_rows`."""
    return pauli_vector_rows(np.asarray(state)[None])[0]


def pauli_vector_rows(amplitudes: np.ndarray, *, scratch: np.ndarray | None = None) -> np.ndarray:
    """Entry [r, i] is (<sx>, <sy>, <sz>) of qubit i in row r of an (R, 2^M)
    array of amplitudes; a row whose norm is off by more than 1e-8 is refused.
    Any array or nested list of that shape is read as complex, and a
    C-contiguous complex array, such as the oracle's own states, is read in
    place, not copied.  Below 2^18 amplitudes per row the rows' tile goes into
    `scratch`, a flat float64 array of at least R * 2^(min(M, 15) + 1)
    entries, allocated when not given."""
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    rows, size = amplitudes.shape if amplitudes.ndim == 2 else (0, 0)
    m = size.bit_length() - 1
    if m < 1 or size != 1 << m:
        raise ValueError(f"expected 2^M amplitudes per row with M >= 1, got shape {amplitudes.shape}")
    vectors = np.empty((rows, m, 3))
    if not rows:
        return vectors
    # xy views the first two columns as one complex column: each cross term
    # lands there and is doubled into (<sx>, <sy>) below.
    xy = vectors[:, :, :2].view(np.complex128)[:, :, 0]
    weights = vectors[:, :, 2]
    amplitudes = np.ascontiguousarray(amplitudes)
    if size < _CHUNKED_AMPLITUDES:
        # Every row at once, one chunk of each at a time.
        c = min(m, _BATCH_CHUNK_BITS)
        if scratch is None:
            scratch = np.empty(rows << (c + 1))
        tile = scratch[: rows << (c + 1)].view(np.complex128).reshape(rows, 1 << c // 2, -1)
        norms = _read_chunks(amplitudes, c, tile, xy, weights)
        for i in range(c, m):
            lo, hi = amplitudes.reshape(rows, -1, 2, 1 << i).transpose(2, 0, 1, 3)
            xy[:, i] = np.vecdot(lo, hi).sum(axis=1)
    else:
        # One row at a time.
        c = min(_CHUNK_BITS, m - 4)
        # The tile is freed before the slab buffer is allocated.
        tile = np.empty((1, 1 << _TILE_BITS, 1 << (c - _TILE_BITS)), dtype=np.complex128)
        norms = _read_chunks(amplitudes, c, tile, xy, weights)
        del tile
        _read_slabs(amplitudes, c, xy[:, c:])
    error = np.max(np.abs(norms - 1.0), initial=0.0)
    if not error <= 1e-8:  # a NaN norm is refused too
        raise ValueError(f"state not normalized: norm error {error:.3e}")
    vectors *= (2.0, 2.0, -2.0)
    vectors[:, :, 2] += norms[:, None]  # <sz> = norm - 2 * weight of bit 1
    return vectors


def _read_chunks(amplitudes: np.ndarray, c: int, tile: np.ndarray, xy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Read a C-contiguous (R, 2^M) array one chunk of 2^c contiguous
    amplitudes per row at a time, G rows together, where `tile` is a
    (G, 2^t, 2^(c-t)) complex buffer and G divides R: the cross terms of
    qubits 0..c-1 go into xy[:, :c] and every qubit's weight of bit 1 into
    `weights`, both (R, M).  Returns the (R,) norms.

    Chunk place h * 2^t + l is copied to entry (l, h) of its row's tile, so
    qubit i < t pairs tile rows l and l + 2^i: contiguous runs of 2^(c-t)
    amplitudes.  Qubits t..c-1 take their block dots on the chunk itself
    while it is still in cache.  The tile's row weights give bits 0..t-1,
    the chunk's (2^(c-t), 2^t) row weights bits t..c-1, and the chunk totals
    the bits from c up and the norm."""
    rows, size = amplitudes.shape
    group, tile_rows, _ = tile.shape
    t = tile_rows.bit_length() - 1
    chunks = size >> c
    counts = [(1 << t) // 2] * t + [1 << (c - i - 1) for i in range(t, c)]
    starts = np.cumsum([0, *counts[:-1]])
    dots = np.empty((group, sum(counts)), dtype=np.complex128)
    # lo and hi are the tile rows where bit i is clear and set, and out their dots.
    tile_pairs = [
        (
            *tile.reshape(group, n >> i, 2, 1 << i, -1).transpose(2, 0, 1, 3, 4),
            dots[:, start : start + n].reshape(group, n >> i, 1 << i),
        )
        for i, start, n in zip(range(t), starts, counts)
    ]
    tile_floats = tile.view(np.float64)
    cross = np.empty((chunks, group, c), dtype=np.complex128)
    tile_weights = np.empty((chunks, group, 1 << t))
    square_weights = np.empty((chunks, group, 1 << (c - t)))
    norms = np.empty(rows)
    for g in range(0, rows, group):
        rows_g = slice(g, g + group)
        row = amplitudes[rows_g].reshape(group, chunks, 1 << c)
        square = row.reshape(group, chunks, 1 << (c - t), 1 << t)
        square_floats = row.view(np.float64).reshape(group, chunks, 1 << (c - t), 2 << t)
        # lo and hi are (G, chunks, blocks, 2^i): the block halves where bit i is clear and set.
        chunk_pairs = [
            (*row.reshape(group, chunks, -1, 2, 1 << i).transpose(3, 0, 1, 2, 4), dots[:, start : start + n])
            for i, start, n in zip(range(t, c), starts[t:], counts[t:])
        ]
        for j in range(chunks):
            # The first pass brings the chunk into cache, so the transposed
            # copy reads it from there: 6.5 ms per 22-qubit row, against 15
            # ms as the first pass.
            np.vecdot(square_floats[:, j], square_floats[:, j], out=square_weights[j])
            for lo, hi, out in chunk_pairs:
                np.vecdot(lo[:, j], hi[:, j], out=out)
            np.copyto(tile, square[:, j].transpose(0, 2, 1))
            for lo, hi, out in tile_pairs:
                np.vecdot(lo, hi, out=out)
            np.vecdot(tile_floats, tile_floats, out=tile_weights[j])
            np.add.reduceat(dots, starts, axis=1, out=cross[j])
        xy[rows_g, :c] = cross.sum(axis=0)
        _fold_weights(tile_weights.sum(axis=0), weights[rows_g, :t])
        _fold_weights(square_weights.sum(axis=0), weights[rows_g, t:c])
        norms[rows_g] = _fold_weights(tile_weights.sum(axis=2).T, weights[rows_g, c:])
    return norms


def _read_slabs(amplitudes: np.ndarray, c: int, xy: np.ndarray) -> None:
    """Read the cross terms of qubits c..M-1 of each row of a C-contiguous
    (R, 2^M) array into xy, (R, M - c), one slab at a time.

    In a row's (2^(M-c), 2^c) view qubit c + j pairs view rows h and
    h + 2^j.  A slab is 2^w columns of that view, every view row's run of
    2^w places, w = min(_SLAB_BITS, 2c - M), so a slab holds at most 2^c
    amplitudes, a chunk's worth.  Each slab is copied into one reused
    contiguous buffer, whose rows the top qubits pair while it sits in
    cache; the dots of all slabs are added up once per row."""
    rows, size = amplitudes.shape
    top = size.bit_length() - 1 - c
    w = max(min(_SLAB_BITS, c - top), 0)
    slabs = 1 << (c - w)
    half = 1 << (top - 1)
    buffer = np.empty((1 << top, 1 << w), dtype=np.complex128)
    dots = np.empty((slabs, top, half), dtype=np.complex128)
    # lo and hi are the buffer rows where bit j is clear and set, and out their dots per slab.
    pairs = [
        (*buffer.reshape(half >> j, 2, 1 << j, -1).transpose(1, 0, 2, 3), dots[:, j].reshape(slabs, half >> j, 1 << j))
        for j in range(top)
    ]
    for r in range(rows):
        view = amplitudes[r].reshape(1 << top, slabs, 1 << w)
        for s in range(slabs):
            np.copyto(buffer, view[:, s])
            for lo, hi, out in pairs:
                np.vecdot(lo, hi, out=out[s])
        dots.sum(axis=(0, 2), out=xy[r])


def _fold_weights(prob: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fold an (R, 2^n) array of weights n times, top bit first, adding each
    upper half onto its lower half in place; out[r, j] becomes row r's weight
    with bit j set.  Returns the (R,) totals."""
    n = out.shape[1]
    for k in range(n - 1, -1, -1):
        np.add(prob[:, : 1 << k], prob[:, 1 << k : 2 << k], out=prob[:, : 1 << k])
    # prob[:, 2^k : 2^(k+1)] still holds bit k's upper half; prob[:, 0] is the total.
    if n:
        np.add.reduceat(prob, 1 << np.arange(n), axis=1, out=out)
    return prob[:, 0].copy()


@dataclass(frozen=True)
class EdReport:
    """Per-vertex contributions 1 - ||<sigma^(i)>||^2; `total`, their mean, is
    derived from them."""

    per_vertex: tuple[float, ...]
    total: float = field(init=False)

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.per_vertex)
        object.__setattr__(self, "per_vertex", values)
        object.__setattr__(self, "total", float(_mean(np.array([values]))[0]))


def _mean(contributions: np.ndarray) -> np.ndarray:
    """The ED per qubit of each row of an (R, M) float array of per-vertex
    contributions: each row's `math.fsum` over M, which must lie in [0, 1]
    give or take 1e-9 of rounding; the first row outside is named."""
    rows, m = contributions.shape
    if not m:
        raise ValueError("report needs at least one vertex")
    totals = np.fromiter(map(math.fsum, contributions.tolist()), np.float64, rows) / m
    inside = (totals >= -1e-9) & (totals <= 1.0 + 1e-9)  # False at NaN
    if not inside.all():
        r = int(np.argmin(inside))
        raise ValueError(f"row {r}: total {float(totals[r])} outside [0, 1]")
    return totals


def _contribution_rows(amplitudes: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Entry [r, i] is 1 - ||<sigma^(i)>||^2 of qubit i in row r."""
    vectors = pauli_vector_rows(amplitudes, scratch=scratch)
    return 1.0 - np.vecdot(vectors, vectors)


def ed_numeric(state: np.ndarray) -> EdReport:
    """Brute-force Entanglement Distance from a simulated state of 2^M
    amplitudes, with its per-vertex contributions."""
    return EdReport(_contribution_rows(np.asarray(state)[None])[0].tolist())


def ed_numeric_rows(rows: StateRows) -> np.ndarray:
    """The brute-force ED per qubit of each row of `rows`, as an (R,) array,
    bit for bit `ed_numeric(build_graph_state(graph, theta=..., ...)).total`
    for the graph, angles and input qubit the row holds, but with no report
    built.  The rows' tables are formed once, and the rows of M qubits are
    built and read in batches of at most max(BATCH_AMPLITUDES, 2^M)
    amplitudes, every batch in the same state buffer and, below 2^18
    amplitudes per row, the same scratch buffer; the means of all rows are
    taken once, from their (R, M) contributions."""
    count, m = len(rows), rows.num_qubits
    if not count:
        return np.empty(0)
    per_batch = min(max(BATCH_AMPLITUDES >> m, 1), count)
    states = _state_buffer(per_batch, m)
    # The scratch takes the build's gathered factors, R * 2^min(M, 12) floats,
    # and then the Pauli pass's tiles, R * 2^(min(M, 15) + 1).  Rows of 2^18
    # amplitudes or more are read one at a time with a tile of their own, and
    # the build allocates its own small buffer.
    scratch = np.empty(per_batch << (min(m, _BATCH_CHUNK_BITS) + 1)) if 1 << m < _CHUNKED_AMPLITUDES else None
    tables = _row_tables(rows)
    contributions = np.empty((count, m))
    for start in range(0, count, per_batch):
        batch = _double_rows([t[start : start + per_batch] for t in tables], out=states, scratch=scratch)
        contributions[start : start + len(batch)] = _contribution_rows(batch, scratch)
    return _mean(contributions)
