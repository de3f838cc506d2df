"""Reduced density matrices and the two-qubit analytics of an isolated edge.

Each quantity here comes in two routes: a numeric one via partial trace of a
simulated state, and a closed form in (p, theta) for the two endpoints of a
single interacting pair.  The test suite drives both and compares.

Matrix arguments are `DensityMatrix` values, validated once on construction,
which keep the spectrum that check computes; nothing here checks them again.
Entropies use the natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graphs import _check_p, _integer
from .statevector import PureState

__all__ = [
    "DensityMatrix",
    "partial_trace",
    "hs_distance",
    "hs_distance_sq_analytic",
    "reduced_eigenvalues_analytic",
    "eigenvalues_2x2",
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
    `eigenvalues`, ascending, is computed by that check; it is outside equality and repr."""

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
        lams = eigenvalues_2x2(mat) if mat.shape == (2, 2) else tuple(np.linalg.eigvalsh(mat).tolist())
        if not lams[0] >= EIGENVALUE_FLOOR:
            raise ValueError(f"matrix not positive semidefinite: min eigenvalue {lams[0]:.3e}")
        object.__setattr__(self, "eigenvalues", lams)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def eigenvalues_2x2(mat: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a 2x2 Hermitian matrix in closed form (ascending), from
    trace and determinant; no general eigensolver involved."""
    mean = 0.5 * (mat[0, 0] + mat[1, 1]).real
    det = (mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]).real
    spread = math.sqrt(max(mean * mean - det, 0.0))
    return (mean - spread, mean + spread)


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


def hs_distance_sq_analytic(p: float, theta: float) -> float:
    """Squared Hilbert-Schmidt distance between either endpoint's reduced state
    of an isolated interacting pair and the maximally mixed qubit:

        1/4 - 2 p^2 + 4 p^3 - 2 p^4 + 2 (1-p)^2 p^2 cos(2 theta)

    Zero exactly at p = 1/2, theta = pi/2 (mod pi).
    """
    _check_p(p)
    return (
        0.25
        - 2.0 * p**2
        + 4.0 * p**3
        - 2.0 * p**4
        + 2.0 * (1.0 - p) ** 2 * p**2 * math.cos(2.0 * theta)
    )


def reduced_eigenvalues_analytic(p: float, theta: float) -> tuple[float, float]:
    """Eigenvalues of either endpoint's reduced state of an isolated pair:
    (1 -/+ sqrt(1 - 16 p^2 (1-p)^2 sin^2 theta)) / 2, ascending."""
    _check_p(p)
    radicand = 1.0 - 16.0 * p**2 * (1.0 - p) ** 2 * math.sin(theta) ** 2
    s = math.sqrt(max(radicand, 0.0))
    return (0.5 * (1.0 - s), 0.5 * (1.0 + s))


def _entropy_from_probs(probs: Sequence[float]) -> float:
    return -sum(v * math.log(v) for v in probs if not v <= 0.0)  # NaN stays NaN


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr[rho ln rho], with 0*ln(0) := 0, from rho's validated spectrum; the
    rounding `DensityMatrix` lets through, below 0 or above 1, adds nothing."""
    return _entropy_from_probs([min(v, 1.0) for v in rho.eigenvalues])


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


def pair_entropy_analytic(p: float, theta: float) -> float:
    """Reduced-state entropy of an isolated pair at general (p, theta), from
    the closed-form eigenvalues."""
    return _entropy_from_probs(reduced_eigenvalues_analytic(p, theta))


def maximally_mixed(dimension: int = 2) -> DensityMatrix:
    return DensityMatrix(np.eye(dimension) / dimension)
