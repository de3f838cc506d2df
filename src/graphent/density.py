"""Reduced density matrices and the two-qubit analytics of an isolated edge.

Each quantity here comes in two routes: a numeric one via partial trace of a
simulated state, and a closed form in (p, theta) for the two endpoints of a
single interacting pair.  The test suite drives both and compares.

Matrix arguments are `DensityMatrix` values, validated once on construction,
which keep the spectrum that check computes; nothing here checks them again.
Entropies use the natural logarithm throughout.

The closed forms take floats or arrays that broadcast, through one code
path, so a (theta, p) sweep evaluates its grid in one call.  Each element has
the bits of the scalar call (a float in gives a float out), on every machine:
numpy's `np.log` and array `p**3` disagreed with libm and Python's `**` in the
last bit on 667 and 10,819 of 200,000 values.  So the factors in p alone and
in theta alone are computed per element with Python's `**` and `math`
(`graphs._each`), each log of x ln x is `math.log` mapped in C over the
distinct positive elements, and numpy only combines them by + - * sqrt
maximum, which round once, in the scalar expression's order.
`entanglement`'s closed forms follow the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import _check_p, _each, _integer
from .statevector import PureState

__all__ = [
    "DensityMatrix",
    "partial_trace",
    "hs_distance",
    "hs_distance_sq_analytic",
    "reduced_eigenvalues_analytic",
    "von_neumann_entropy",
    "entropy_at_half_p",
    "pair_entropy_analytic",
    "maximally_mixed",
]

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A small validated density matrix: Hermitian, unit trace, PSD within tolerance.
    `eigenvalues`, ascending, is computed by that check with a general eigensolver, sharing
    no algebra with the closed forms below; it is outside equality and repr."""

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


def partial_trace(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of the qubits in `keep` (a set; the complement
    is traced out).  Row/column index r encodes the j-th smallest kept qubit
    as bit j of r, matching the global bit convention."""
    keep_list = [_integer(q, "qubit") for q in keep]
    if not keep_list:
        raise ValueError("keep set must be non-empty")
    kept = sorted(set(keep_list))
    if len(kept) != len(keep_list):
        raise ValueError(f"duplicate vertices in keep set {keep_list}")
    m = state.num_qubits
    for q in kept:
        if not (0 <= q < m):
            raise ValueError(f"qubit {q} out of range for {m} qubits")
    k = len(kept)
    view = state.amplitudes.reshape((2,) * m)
    # Move kept-qubit axes to the front, most significant kept qubit first.
    src = [m - 1 - q for q in reversed(kept)]
    block = np.ascontiguousarray(np.moveaxis(view, src, range(k))).reshape(2**k, -1)
    return DensityMatrix(block @ block.conj().T)


def hs_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Hilbert-Schmidt distance sqrt(0.5 * tr[(rho1-rho2)^dag (rho1-rho2)])."""
    a, b = rho1.matrix, rho2.matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return math.sqrt(0.5 * float(np.vdot(diff, diff).real))


def hs_distance_sq_analytic(p: float | np.ndarray, theta: float | np.ndarray) -> float | np.ndarray:
    """Squared Hilbert-Schmidt distance between either endpoint's reduced state
    of an isolated interacting pair and the maximally mixed qubit:

        1/4 - 2 p^2 + 4 p^3 - 2 p^4 + 2 (1-p)^2 p^2 cos(2 theta)

    Zero exactly at p = 1/2, theta = pi/2 (mod pi).
    """
    _check_p(p)
    head = _each(lambda p: 0.25 - 2.0 * p**2 + 4.0 * p**3 - 2.0 * p**4, p)
    scale = _each(lambda p: 2.0 * (1.0 - p) ** 2 * p**2, p)
    return head + scale * _each(lambda t: math.cos(2.0 * t), theta)


def reduced_eigenvalues_analytic(
    p: float | np.ndarray, theta: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of either endpoint's reduced state of an isolated pair:
    (1 -/+ sqrt(1 - 16 p^2 (1-p)^2 sin^2 theta)) / 2, ascending."""
    _check_p(p)
    weight = _each(lambda p: 16.0 * p**2 * (1.0 - p) ** 2, p)
    radicand = 1.0 - weight * _each(lambda t: math.sin(t) ** 2, theta)
    if isinstance(radicand, np.ndarray):
        s = np.sqrt(np.maximum(radicand, 0.0))
    else:
        s = math.sqrt(max(radicand, 0.0))
    return (0.5 * (1.0 - s), 0.5 * (1.0 + s))


def _xlogx(v: float | np.ndarray) -> float | np.ndarray:
    """v ln v per element, with 0 ln 0 := 0: NaN stays NaN, and v <= 0 adds
    +0.0.  The logs are `math.log` mapped in C over the distinct elements
    above zero (a grid's eigenvalues repeat about three times each), and numpy
    only multiplies; a float in gives a float out."""
    values = np.asarray(v, dtype=np.float64)
    terms = np.zeros(values.shape)
    above = ~(values <= 0.0)  # NaN included
    kept = values[above]
    distinct, where = np.unique(kept, return_inverse=True)
    terms[above] = kept * _each(math.log, distinct)[where]
    return terms if isinstance(v, np.ndarray) else float(terms)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho], with 0*ln(0) := 0, from rho's validated spectrum; the
    rounding `DensityMatrix` lets through, below 0 or above 1, adds nothing."""
    return -sum(_xlogx(min(v, 1.0)) for v in rho.eigenvalues)


def entropy_at_half_p(theta: float) -> float:
    """Reduced-state entropy of an isolated pair along p = 1/2:

        ln(2/|sin theta|) + (|cos theta|/2) ln[(1-|cos theta|)/(1+|cos theta|)]

    returning the separable limit 0 when sin(theta) vanishes.
    """
    s = abs(math.sin(theta))
    if s < 1e-12:
        return 0.0
    c = abs(math.cos(theta))
    return math.log(2.0 / s) + 0.5 * c * math.log((1.0 - c) / (1.0 + c))


def pair_entropy_analytic(p: float | np.ndarray, theta: float | np.ndarray) -> float | np.ndarray:
    """Reduced-state entropy of an isolated pair at general (p, theta), from
    the closed-form eigenvalues: -(lo ln lo + hi ln hi), each term per
    element, a zero eigenvalue adding nothing.  No term is -0.0, so where
    both are 0.0 the total is -0.0, as the figure CSV writes it."""
    lo, hi = (_xlogx(v) for v in reduced_eigenvalues_analytic(p, theta))
    return -(lo + hi)


def maximally_mixed(dimension: int = 2) -> DensityMatrix:
    return DensityMatrix(np.eye(dimension) / dimension)
