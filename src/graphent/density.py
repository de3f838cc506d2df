"""A vertex's reduced state from its ED share.

Qubit i's reduced state is (I + b.sigma)/2, with b its Pauli vector, and
|b|^2 = 1 - share, where share is :func:`graphent.entanglement.vertex_share`
of the vertex's total degree.  So the eigenvalues (1 -/+ |b|)/2, the von
Neumann entropy and the squared Hilbert-Schmidt distance to I/2, |b|^2/4,
depend on the degree alone.  An isolated interacting pair (Figures 1 and 2)
is the degree-1 case.  Entropies use the natural logarithm.

Each function takes a degree and p, theta as floats or arrays that
broadcast, through one code path, so a (theta, p) sweep evaluates its grid
in one call.  Each element has the bits of the scalar call (a float in gives
a float out), on every machine: numpy's `np.log` disagreed with libm in the
last bit on 667 of 200,000 values.  So the share follows `entanglement`'s
per-element rule, each log of x ln x is `math.log` mapped in C over the
distinct positive elements, and numpy only combines them by + - * / sqrt,
which round once, in the scalar expression's order.
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import Real, vertex_share
from .graphs import _each

__all__ = ["vertex_eigenvalues", "vertex_entropy", "vertex_hs2"]


def vertex_hs2(degree: int, p: Real, theta: Real) -> Real:
    """Squared Hilbert-Schmidt distance between a vertex's reduced state and
    I/2: |b|^2 / 4 = (1 - share) / 4.  For an isolated pair (degree 1) it is
    zero exactly at p = 1/2, theta = pi/2 (mod pi)."""
    return (1.0 - vertex_share(degree, p, theta)) / 4.0


def vertex_eigenvalues(degree: int, p: Real, theta: Real) -> tuple[Real, Real]:
    """Eigenvalues of a vertex's reduced state, (1 -/+ |b|)/2, ascending."""
    b2 = 1.0 - vertex_share(degree, p, theta)  # >= 0: the share is at most 1
    b = np.sqrt(b2) if isinstance(b2, np.ndarray) else math.sqrt(b2)
    return (0.5 * (1.0 - b), 0.5 * (1.0 + b))


def _xlogx(v: Real) -> Real:
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


def vertex_entropy(degree: int, p: Real, theta: Real) -> Real:
    """Von Neumann entropy of a vertex's reduced state, -(lo ln lo + hi ln hi)
    from :func:`vertex_eigenvalues`, each term per element, a zero eigenvalue
    adding nothing.  No term is -0.0, so where both are 0.0 the total is
    -0.0, as the figure CSV writes it."""
    lo, hi = (_xlogx(v) for v in vertex_eigenvalues(degree, p, theta))
    return -(lo + hi)
