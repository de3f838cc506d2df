"""Exact state-vector construction of directed-graph qubit states.

Basis convention (fixed everywhere): basis index x encodes qubit i as bit i
of x, so qubit 0 is the least significant bit.  Every edge operator is
diagonal in this basis, which turns state construction into per-amplitude
phase multiplies and makes the edge application order irrelevant.
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

    def target_phases(self) -> tuple[complex, complex]:
        """Phase factors for target bit 0 and 1, applied when the control bit is 1."""
        return (
            cmath.exp(1j * (self.theta - self.psi)),
            cmath.exp(-1j * (self.theta + self.psi)),
        )


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
        # halves and the 2^M result at once: 2.5 * 2^M complex128 values.
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


def build_graph_state(
    graph: DirectedGraph,
    qubit: InitialQubit,
    params: InteractionParams,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> PureState:
    """Product input state followed by one edge operator per graph edge.

    All edge operators commute exactly (they are diagonal), so the result does
    not depend on the edge order.
    """
    m = graph.num_vertices
    state = product_state(m, qubit, max_qubits=max_qubits)
    # Nothing else holds this state yet, so its amplitudes are phased in place
    # through one view with an axis per qubit (axis t holds qubit m-1-t).
    view = state.amplitudes.reshape((2,) * m)
    phase0, phase1 = params.target_phases()
    index: list[object] = [slice(None)] * m
    for a, b in graph.edges:
        # Control bit a set: target bit b at 0 and at 1 take their phases.
        index[m - 1 - a] = 1
        index[m - 1 - b] = 0
        view[tuple(index)] *= phase0
        index[m - 1 - b] = 1
        view[tuple(index)] *= phase1
        index[m - 1 - a] = index[m - 1 - b] = slice(None)
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
