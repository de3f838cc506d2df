"""Entanglement Distance of directed-graph states, numeric and closed form.

The per-qubit Entanglement Distance of a pure M-qubit state is

    E = 1 - (1/M) * sum_i ||<sigma^(i)>||^2

with <sigma^(i)> the vector of Pauli expectations on qubit i.  For graph
states built from balanced inputs (p = 1/2) the contribution of a vertex
depends only on its total degree d:  1 - cos(theta)^(2d).  For a general
input (p, delta0, delta1) it is  1 - (1-2p)^2 - 4p(1-p) r^(2d)  with
r^2 = cos^2(theta) + sin^2(theta) (1-2p)^2.  Both closed forms therefore
consume nothing but the degree distribution; the state-vector route in
:mod:`graphent.statevector` is the brute-force oracle they are checked
against.

`ed_closed_general`, `ed_closed_form` and the two limit curves take a float
or arrays of p and theta that broadcast, through one code path, as the
density closed forms do: a float in gives a float out, and each array
element has the scalar call's bits.  cos^2 and sin^2 are computed once per
theta and (1-2p)^2 once per p, with `math` and Python's `**` per element
(`graphs._each`); each point's n_k r^(2k) takes Python's `**` and its sum
over the degrees `math.fsum`.  numpy only combines the pieces by + - *, in
the scalar expression's order, so 4p(1-p) and r^2 are numpy's.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .graphs import DegreeDistribution, DirectedGraph, _check_p, _checked_counts, _integer
from .graphs import _each, _each_of, _tree_depth, _vertex_count, _yf_layers
from .graphs import ffnn_degree_counts, ffnn_layer_sizes
from .statevector import InitialQubit, InteractionParams, PureState
from .statevector import build_graph_state_rows, pauli_vector_rows

__all__ = [
    "EdReport",
    "ed_numeric",
    "ed_numeric_rows",
    "ed_closed_form",
    "ed_closed_general",
    "ed_general_report",
    "pauli_vector_closed",
    "interaction_expectation",
    "two_qubit_ed_analytic",
    "ed_young_fibonacci",
    "ed_young_fibonacci_limit",
    "ed_ffnn",
    "ed_ffnn_output_self_exponent",
    "ed_binary_tree",
    "ed_binary_tree_limit",
    "ed_bridged_cycles",
]

DistributionLike = Union[DegreeDistribution, Mapping[int, int]]
Real = Union[float, np.ndarray]  # a float, or an array of them that broadcasts
# Oracle rows are built and read in batches of at most max(2^15, 2^M)
# amplitudes: one doubling loop and one Pauli pass per batch, not per state.
BATCH_AMPLITUDES = 2**15


@dataclass(frozen=True)
class EdReport:
    """Per-vertex contributions 1 - ||<sigma^(i)>||^2; `total`, their mean, is
    derived from them."""

    per_vertex: tuple[float, ...]
    total: float = field(init=False)

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.per_vertex)
        object.__setattr__(self, "per_vertex", values)
        object.__setattr__(self, "total", _mean(values))


def _mean(values: Sequence[float]) -> float:
    """The ED per qubit: the mean of the per-vertex contributions, which
    must lie in [0, 1] give or take 1e-9 of rounding."""
    if not values:
        raise ValueError("report needs at least one vertex")
    total = math.fsum(values) / len(values)
    if not -1e-9 <= total <= 1.0 + 1e-9:
        raise ValueError(f"total {total} outside [0, 1]")
    return total


def _degree_counts(dist: DistributionLike) -> Mapping[int, int]:
    """A distribution's counts; a raw mapping gets the entry checks but not
    the graphicality checks, since some closed forms are evaluated on degree
    counts that no graph has."""
    return dist.counts if isinstance(dist, DegreeDistribution) else _checked_counts(dist)


def _contribution_rows(amplitudes: np.ndarray) -> np.ndarray:
    """Entry [r, i] is 1 - ||<sigma^(i)>||^2 of qubit i in row r."""
    vectors = pauli_vector_rows(amplitudes)
    return 1.0 - np.vecdot(vectors, vectors)


def ed_numeric(state: PureState) -> EdReport:
    """Brute-force Entanglement Distance from a simulated state, with its
    per-vertex contributions."""
    return EdReport(_contribution_rows(state.amplitudes[None])[0].tolist())


def ed_numeric_rows(rows: Sequence[tuple[DirectedGraph, InitialQubit, InteractionParams]]) -> np.ndarray:
    """The brute-force ED per qubit of each (graph, input qubit, params) row,
    as an (R,) array, bit for bit `ed_numeric(build_graph_state(*row)).total`
    but with no report built.  The graphs share their vertex count M; rows are
    built and read in batches of at most max(BATCH_AMPLITUDES, 2^M) amplitudes."""
    per_batch = max(BATCH_AMPLITUDES >> rows[0][0].num_vertices, 1) if rows else 1
    # Unnamed, each batch's states are freed before the next batch is built.
    batches = (
        _contribution_rows(build_graph_state_rows(rows[i : i + per_batch]))
        for i in range(0, len(rows), per_batch)
    )
    return np.array([_mean(row.tolist()) for batch in batches for row in batch])


def ed_closed_form(dist: DistributionLike, theta: Real) -> Real:
    """Closed-form ED per qubit for balanced inputs: 1 - (1/M) sum_k n_k cos^(2k)(theta)."""
    return ed_closed_general(dist, 0.5, theta)


def _power(x: Real, k: int) -> Real:
    """x**k per element, with Python's `**`."""
    return _each_of(lambda xs: map(pow, xs, repeat(k)), x)


def _cos2(theta: Real) -> Real:
    return _power(_each(math.cos, theta), 2)


def _p_factors(p: Real) -> tuple[Real, Real]:
    """(1-2p)^2 and 4p(1-p): a vertex's share is 1 - (1-2p)^2 - 4p(1-p) r^(2d)."""
    return _power(1.0 - 2.0 * p, 2), 4.0 * p * (1.0 - p)


def _r_squared(q: Real, theta: Real) -> Real:
    """r^2 = cos^2(theta) + sin^2(theta) q, with q = (1-2p)^2."""
    return _cos2(theta) + _power(_each(math.sin, theta), 2) * q


def _degree_means(counts: Mapping[int, int], r2s: list[float]) -> Iterable[float]:
    """(1/M) sum_k n_k r2^k for each r2 in r2s: each term n_k * r2**k with
    Python's `**` and each sum by `math.fsum`, all mapped in C."""
    m = sum(counts.values())
    terms = [map(operator.mul, repeat(n), map(pow, r2s, repeat(k))) for k, n in counts.items()]
    return map(operator.truediv, map(math.fsum, zip(*terms)), repeat(m))


def ed_closed_general(dist: DistributionLike, p: Real, theta: Real) -> Real:
    """Closed-form ED per qubit for an arbitrary input amplitude split p:
    1 - (1-2p)^2 - 4p(1-p) * (1/M) sum_k n_k r^(2k).

    At p = 1/2 this is exactly :func:`ed_closed_form`; at p in {0, 1} it is 0.
    Input phases never enter: only the moduli of the input amplitudes matter.
    The sum is `math.fsum`, rounded once, so it does not depend on the order
    of the degrees: a relabelled graph, and a family's degree-count rule and
    its built graph, give the same bits.  p and theta may be arrays that
    broadcast (see the module docstring).
    """
    _check_p(p)
    q, w = _p_factors(p)
    mean = _each_of(functools.partial(_degree_means, _degree_counts(dist)), _r_squared(q, theta))
    return 1.0 - q - w * mean


def ed_general_report(graph: DirectedGraph, p: float, theta: float) -> EdReport:
    """Per-vertex closed-form report for a general input amplitude split:
    one formula per entry of the graph's degree vector, O(M) after the O(E)
    count that validation made (a derived graph counts on first use).  At
    p = 1/2 each entry is exactly the balanced contribution 1 - cos(theta)^(2d).
    Its `total` is the mean of the per-vertex shares, which is rounded
    differently from the mean of r^(2d) that :func:`ed_closed_general` takes,
    so the two may differ in the last bit; `ed` prints the latter."""
    _check_p(p)
    q, w = _p_factors(p)
    r2 = _r_squared(q, theta)
    degrees = graph.degrees.tolist()
    share = {d: 1.0 - q - w * r2**d for d in set(degrees)}
    return EdReport([share[d] for d in degrees])


def interaction_expectation(qubit: InitialQubit, params: InteractionParams) -> complex:
    """z = <phi| Ubar |phi> for the single-qubit edge operator Ubar: the
    modulus r drives every closed form, the phase feeds the x/y components."""
    p = qubit.p
    return cmath.exp(-1j * params.psi) * complex(
        math.cos(params.theta), (1.0 - 2.0 * p) * math.sin(params.theta)
    )


def pauli_vector_closed(
    d_out: int, d_in: int, qubit: InitialQubit, params: InteractionParams
) -> np.ndarray:
    """Closed-form Pauli expectation vector of a vertex with d_out outgoing
    and d_in incoming edges:

        ( 2 sqrt(p(1-p)) r^d cos(Phi), -2 sqrt(p(1-p)) r^d sin(Phi), 1-2p )

    with d = d_out + d_in, r = |z|, and
    Phi = delta0 - delta1 - d*delta + d_out*psi + d_in*theta, where
    delta = arg(z) + psi is the phase of z from
    :func:`interaction_expectation` without its global e^{-i psi}.  The
    norm depends only on d, never on the (d_out, d_in) split; the x/y
    components match the simulated state component by component.
    """
    d_out, d_in = _integer(d_out, "d_out"), _integer(d_in, "d_in")
    if d_out < 0 or d_in < 0:
        raise ValueError(f"edge counts must be non-negative, got ({d_out}, {d_in})")
    p = qubit.p
    z = interaction_expectation(qubit, params)
    delta = cmath.phase(z) + params.psi
    d = d_out + d_in
    amplitude = 2.0 * math.sqrt(p * (1.0 - p)) * abs(z) ** d
    phi = qubit.delta0 - qubit.delta1 - d * delta + d_out * params.psi + d_in * params.theta
    return np.array([amplitude * math.cos(phi), -amplitude * math.sin(phi), 1.0 - 2.0 * p])


def two_qubit_ed_analytic(p: float, theta: float) -> float:
    """ED of an isolated interacting pair: 16 p^2 (1-p)^2 sin^2(theta)."""
    _check_p(p)
    return 16.0 * p**2 * (1.0 - p) ** 2 * math.sin(theta) ** 2


# ----------------------------------------------------------------------
# Per-topology formulas (balanced inputs).  Each is an explicit polynomial in
# cos^2(theta); the test suite pins them against ed_closed_form applied to the
# matching generator's degree distribution, and against the simulation oracle.
# ----------------------------------------------------------------------

def ed_young_fibonacci(theta: float, num_layers: int) -> float:
    """ED per qubit of the triangular layered graph with `num_layers` layers."""
    n = _yf_layers(num_layers)
    c2 = math.cos(theta) ** 2
    # (n-2)/(n-3) factors vanish on their own at n = 2, 3.
    poly = 4.0 + 2.0 * (n - 1) * c2 + 4.0 * (n - 2) * c2**2 + (n - 2) * (n - 3) * c2**3
    return 1.0 - c2 * poly / (n * (n + 1))


def ed_young_fibonacci_limit(theta: Real) -> Real:
    """Infinite-layer limit: 1 - cos^8(theta), set by the interior vertices."""
    return 1.0 - _power(_each(math.cos, theta), 8)


def ed_ffnn(theta: float, layer_sizes: Sequence[int]) -> float:
    """ED per qubit of a layered feed-forward network.

    Built from the degree distribution: input-layer vertices have degree
    M_2, hidden layer i has degree M_{i-1} + M_{i+1}, the output layer has
    degree M_{N-1}.
    """
    return ed_closed_form(ffnn_degree_counts(layer_sizes), theta)


def ed_ffnn_output_self_exponent(theta: float, layer_sizes: Sequence[int]) -> float:
    """Variant of :func:`ed_ffnn` whose output-layer exponent is that layer's
    own width rather than the preceding layer's width.  It disagrees with the
    state-vector oracle whenever the two widths differ; kept so the
    verification harness can demonstrate which form is consistent."""
    sizes = ffnn_layer_sizes(layer_sizes)
    counts = Counter(ffnn_degree_counts(sizes))
    counts[sizes[-2]] -= sizes[-1]  # the output layer moves to degree sizes[-1]
    counts[sizes[-1]] += sizes[-1]
    return ed_closed_form(+counts, theta)  # unary + drops an emptied degree


def ed_binary_tree(theta: float, depth: int) -> float:
    """ED per qubit of the full binary tree with `depth` layers; depth 1 is a
    single vertex with no entanglement."""
    depth = _tree_depth(depth)
    if depth == 1:
        return 0.0
    c2 = math.cos(theta) ** 2
    half = 2.0 ** (depth - 1)
    return 1.0 - c2 * (half + c2 + (half - 2.0) * c2**2) / (2.0**depth - 1.0)


def ed_binary_tree_limit(theta: Real) -> Real:
    """Infinite-depth limit: 1 - (cos^2(theta)/2)(1 + cos^4(theta)); leaves and
    interior vertices each contribute half the weight."""
    c2 = _cos2(theta)
    return 1.0 - 0.5 * c2 * (1.0 + _power(c2, 2))


def ed_bridged_cycles(theta: float, total_vertices: int, num_cycles: int) -> float:
    """ED per qubit of a chain of `num_cycles` cycles with `total_vertices`
    vertices overall: 1 - (cos^4(theta)/M)(M - 2(N-1) sin^2(theta))."""
    total_vertices = _integer(total_vertices, "total_vertices")
    num_cycles = _integer(num_cycles, "num_cycles")
    if num_cycles < 2:
        raise ValueError(f"need at least 2 cycles, got {num_cycles}")
    if total_vertices < 3 * num_cycles:
        raise ValueError(
            f"{num_cycles} cycles of size >= 3 need at least {3 * num_cycles} vertices, "
            f"got {total_vertices}"
        )
    _vertex_count(total_vertices)
    c4 = math.cos(theta) ** 4
    s2 = math.sin(theta) ** 2
    return 1.0 - c4 * (total_vertices - 2.0 * (num_cycles - 1) * s2) / total_vertices
