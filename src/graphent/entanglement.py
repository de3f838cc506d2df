"""Entanglement Distance of directed-graph states in closed form.

The per-qubit Entanglement Distance of a pure M-qubit state is

    E = 1 - (1/M) * sum_i ||<sigma^(i)>||^2

with <sigma^(i)> the vector of Pauli expectations on qubit i.  For graph
states built from balanced inputs (p = 1/2) the contribution of a vertex
depends only on its total degree d:  1 - cos(theta)^(2d).  For a general
input (p, delta0, delta1) it is  4p(1-p) (1 - r^(2d))  with
r^2 = cos^2(theta) + sin^2(theta) (1-2p)^2, since 1 - (1-2p)^2 = 4p(1-p).
Both closed forms therefore consume nothing but the degree distribution;
the state-vector oracle in :mod:`graphent.statevector`, ED step included,
is the brute-force route they are checked against, and this module neither
holds nor imports any part of it: the two routes share only
:mod:`graphent.graphs`, whose guards check the plain values (theta, psi,
p, delta0, delta1) that both take.  Every closed form that takes theta
refuses, with a ValueError naming it, a theta that is not a finite real
number, whole arrays in one vectorised pass.

`vertex_share` is one vertex's term, 4p(1-p) (1 - r^(2d)); the reduced-state
quantities in :mod:`graphent.density` read it.  It, `ed_closed_general`,
`ed_closed_form` and the two limit curves take a float or arrays of p and
theta that broadcast, through one code path: a float in gives a float out,
and each array element has the scalar call's bits.  cos^2 and sin^2 are
computed once per theta and (1-2p)^2 once per p, with `math` and Python's
`**` per element (`graphs._each`); each point's n_k r^(2k) takes Python's
`**` and its sum over the degrees `math.fsum`.  numpy only combines the
pieces by + - *, in the scalar expression's order, so 4p(1-p) and r^2 are
numpy's.

Rows: `ed_closed_general_rows` and `ed_closed_form_rows` take one
distribution per leading row of p and theta, so the draws of many graphs
take one call, and numpy's fixed cost per call is paid once.  The
one-distribution forms are the one-row case of the same formula, and every
row has their bits.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from collections import Counter
from itertools import repeat
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .graphs import DegreeDistribution, _check_angles, _check_p, _check_phases, _check_theta, _checked_counts, _integer
from .graphs import _each, _each_of, _echo, _tree_depth, _vertex_count, _yf_layers
from .graphs import ffnn_degree_counts, ffnn_layer_sizes

__all__ = [
    "ed_closed_form",
    "ed_closed_form_rows",
    "ed_closed_general",
    "ed_closed_general_rows",
    "vertex_share",
    "pauli_vector_closed",
    "interaction_expectation",
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


def _degree_counts(dist: DistributionLike) -> Mapping[int, int]:
    """A distribution's counts; a raw mapping gets the entry checks but not
    the graphicality checks, since some closed forms are evaluated on degree
    counts that no graph has."""
    counts = dist.counts if isinstance(dist, DegreeDistribution) else _checked_counts(dist)
    for k, n in counts.items():
        _float_sized(k, "degree")
        _float_sized(n, "vertex count")
    _float_sized(sum(counts.values()), "vertex total")
    return counts


def _float_sized(n: int, what: str) -> int:
    """n, a checked int, refused when no float holds it: the closed forms
    compute in floats, which would raise OverflowError on it."""
    if n > sys.float_info.max:
        raise ValueError(f"{what} {_echo(n)} is past the largest float")
    return n


def ed_closed_form(dist: DistributionLike, theta: Real) -> Real:
    """Closed-form ED per qubit for balanced inputs: 1 - (1/M) sum_k n_k cos^(2k)(theta)."""
    return ed_closed_general(dist, 0.5, theta)


def ed_closed_form_rows(dists: Sequence[DistributionLike], theta: np.ndarray) -> np.ndarray:
    """Row r is ``ed_closed_form(dists[r], theta[r])``, bit for bit: the
    balanced case of :func:`ed_closed_general_rows`."""
    return ed_closed_general_rows(dists, 0.5, theta)


def _power(x: Real, k: int) -> Real:
    """x**k per element, with Python's `**`."""
    return _each_of(lambda xs: map(pow, xs, repeat(k)), x)


def _cos2(theta: Real) -> Real:
    return _power(_each(math.cos, theta), 2)


def _p_factors(p: Real) -> tuple[Real, Real]:
    """(1-2p)^2, which r^2 reads, and 4p(1-p): a vertex's share is
    4p(1-p) (1 - r^(2d)), in factored form so that it is exactly 0 where
    r^(2d) is 1 (degree 0, or theta = 0)."""
    return _power(1.0 - 2.0 * p, 2), 4.0 * p * (1.0 - p)


def _r_squared(q: Real, theta: Real) -> Real:
    """r^2 = cos^2(theta) + sin^2(theta) q, with q = (1-2p)^2."""
    return _cos2(theta) + _power(_each(math.sin, theta), 2) * q


def _degree_means(rows: Sequence[Mapping[int, int]], r2s: list[float]) -> Iterator[float]:
    """(1/M) sum_k n_k r2^k for each r2 in r2s, taken as len(rows) runs of
    equal length, run r with the counts rows[r]: each term n_k * r2**k with
    Python's `**` and each sum by `math.fsum`, all mapped in C per run."""
    size = len(r2s) // len(rows) if rows else 0
    for r, counts in enumerate(rows):
        run = r2s[r * size : (r + 1) * size]
        m = sum(counts.values())
        terms = [map(operator.mul, repeat(n), map(pow, run, repeat(k))) for k, n in counts.items()]
        yield from map(operator.truediv, map(math.fsum, zip(*terms)), repeat(m))


def ed_closed_general(dist: DistributionLike, p: Real, theta: Real) -> Real:
    """Closed-form ED per qubit for an arbitrary input amplitude split p:
    4p(1-p) * (1 - (1/M) sum_k n_k r^(2k)).

    At p = 1/2 this is exactly :func:`ed_closed_form`; at p in {0, 1}, on
    edgeless degree counts and at theta = 0 it is exactly 0.
    Input phases never enter: only the moduli of the input amplitudes matter.
    The sum is `math.fsum`, rounded once, so it does not depend on the order
    of the degrees: a relabelled graph, and a family's degree-count rule and
    its built graph, give the same bits.  p and theta may be arrays that
    broadcast (see the module docstring).  It is the one-row case of the
    formula that :func:`ed_closed_general_rows` runs.
    """
    return _closed_general([dist], p, theta)


def ed_closed_general_rows(dists: Sequence[DistributionLike], p: Real, theta: Real) -> np.ndarray:
    """Row r is ``ed_closed_general(dists[r], p[r], theta[r])``, bit for bit:
    p and theta broadcast to a shape whose leading axis has one entry per
    distribution, so one call takes the draws of many graphs."""
    shape = np.broadcast_shapes(np.shape(p), np.shape(theta))
    if shape[:1] != (len(dists),):
        raise ValueError(f"p and theta must broadcast to {len(dists)} leading rows, one per distribution, got {shape}")
    return _closed_general(dists, p, theta)


def _closed_general(dists: Sequence[DistributionLike], p: Real, theta: Real) -> Real:
    """The general closed form of both calls: the r^2 of p and theta, in
    C order, form len(dists) runs of equal length, run r read with dists[r].
    With one distribution the run is all of them, a scalar included."""
    _check_p(p)
    _check_theta(theta)
    q, w = _p_factors(p)
    rows = [_degree_counts(dist) for dist in dists]
    mean = _each_of(functools.partial(_degree_means, rows), _r_squared(q, theta))
    return w * (1.0 - mean)


def vertex_share(degree: int, p: Real, theta: Real) -> Real:
    """One vertex's ED share, 4p(1-p) (1 - r^(2d)) for total degree d: the
    term that :func:`ed_closed_general` averages, with the bits of
    ``ed_closed_general({d: 1}, p, theta)``.  It is 1 - |<sigma>|^2, so a
    vertex's reduced state depends on its degree alone; an isolated pair's
    ED is the share at d = 1, 16 p^2 (1-p)^2 sin^2(theta)."""
    d = _float_sized(_integer(degree, "degree"), "degree")
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    _check_p(p)
    _check_theta(theta)
    q, w = _p_factors(p)
    return w * (1.0 - _power(_r_squared(q, theta), d))


def interaction_expectation(*, theta: float, psi: float = 0.0, p: float = 0.5) -> complex:
    """z = <phi| Ubar |phi> for the single-qubit edge operator
    Ubar = exp(-i*psi) * diag(exp(i*theta), exp(-i*theta)) and an input qubit
    of |1> weight p: the modulus r drives every closed form, the phase feeds
    the x/y components."""
    _check_p(p)
    _check_angles(theta, psi)
    return cmath.exp(-1j * psi) * complex(math.cos(theta), (1.0 - 2.0 * p) * math.sin(theta))


def pauli_vector_closed(
    d_out: int, d_in: int, *, theta: float, psi: float = 0.0, p: float = 0.5, delta0: float = 0.0, delta1: float = 0.0
) -> np.ndarray:
    """Closed-form Pauli expectation vector of a vertex with d_out outgoing
    and d_in incoming edges, input qubit sqrt(1-p)*e^{i*delta0}|0> +
    sqrt(p)*e^{i*delta1}|1> and interaction angles theta, psi:

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
    _float_sized(d_out, "d_out")
    _float_sized(d_in, "d_in")
    _float_sized(d_out + d_in, "degree d_out + d_in")
    _check_phases(delta0, delta1)
    z = interaction_expectation(theta=theta, psi=psi, p=p)
    delta = cmath.phase(z) + psi
    d = d_out + d_in
    amplitude = 2.0 * math.sqrt(p * (1.0 - p)) * abs(z) ** d
    phi = delta0 - delta1 - d * delta + d_out * psi + d_in * theta
    return np.array([amplitude * math.cos(phi), -amplitude * math.sin(phi), 1.0 - 2.0 * p])


# ----------------------------------------------------------------------
# Per-topology formulas (balanced inputs).  Each is an explicit polynomial in
# cos^2(theta); the test suite pins them against ed_closed_form applied to the
# matching generator's degree distribution, and against the simulation oracle.
# ----------------------------------------------------------------------

def ed_young_fibonacci(theta: float, num_layers: int) -> float:
    """ED per qubit of the triangular layered graph with `num_layers` layers."""
    _check_theta(theta)
    n = _yf_layers(num_layers)
    c2 = math.cos(theta) ** 2
    # (n-2)/(n-3) factors vanish on their own at n = 2, 3.
    poly = 4.0 + 2.0 * (n - 1) * c2 + 4.0 * (n - 2) * c2**2 + (n - 2) * (n - 3) * c2**3
    return 1.0 - c2 * poly / (n * (n + 1))


def ed_young_fibonacci_limit(theta: Real) -> Real:
    """Infinite-layer limit: 1 - cos^8(theta), set by the interior vertices."""
    _check_theta(theta)
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
    _check_theta(theta)
    depth = _tree_depth(depth)
    if depth == 1:
        return 0.0
    c2 = math.cos(theta) ** 2
    half = 2.0 ** (depth - 1)
    return 1.0 - c2 * (half + c2 + (half - 2.0) * c2**2) / (2.0**depth - 1.0)


def ed_binary_tree_limit(theta: Real) -> Real:
    """Infinite-depth limit: 1 - (cos^2(theta)/2)(1 + cos^4(theta)); leaves and
    interior vertices each contribute half the weight."""
    _check_theta(theta)
    c2 = _cos2(theta)
    return 1.0 - 0.5 * c2 * (1.0 + _power(c2, 2))


def ed_bridged_cycles(theta: float, total_vertices: int, num_cycles: int) -> float:
    """ED per qubit of a chain of `num_cycles` cycles with `total_vertices`
    vertices overall: 1 - (cos^4(theta)/M)(M - 2(N-1) sin^2(theta))."""
    _check_theta(theta)
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
