"""Seeded verification harness: closed forms against the simulation oracle.

Five checks run over every supplied graph with freshly drawn parameters per
sample: the balanced and general closed forms against `ed_numeric`, and the
three invariances (psi sweep, edge orientation flip, vertex relabeling).
Each check counts the samples it evaluated; one that evaluated none (the
orientation flip on edgeless graphs) is reported as skipped, not passed.
All randomness comes from one seeded generator, so a report is reproducible
byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import entanglement
from .entanglement import ed_numeric
from .graphs import DirectedGraph, degree_distribution, flip_edge, gen_ffnn, permute_vertices
from .statevector import DEFAULT_MAX_QUBITS, InitialQubit, InteractionParams, build_graph_state

__all__ = ["CheckResult", "VerificationReport", "run_verification", "ffnn_variant_report"]

CHECK_ORDER = (
    "closed-form oracle",
    "general-closed oracle",
    "psi independence",
    "orientation flip",
    "vertex relabeling",
)

BALANCED = InitialQubit()
FFNN_THETAS = tuple(i * math.pi / 8 for i in range(1, 8))
FFNN_PSI = 0.4


def _oracle(
    graph: DirectedGraph, qubit: InitialQubit, params: InteractionParams, *, max_qubits: int
) -> float:
    """The simulation oracle's ED per qubit."""
    return ed_numeric(build_graph_state(graph, qubit, params, max_qubits=max_qubits)).total


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    samples: int  # parameter draws the check evaluated; 0 means it was skipped


@dataclass
class VerificationReport:
    tol: float
    checks: list[CheckResult]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # A skipped check reads 0, so it never fails.
        return all(c.max_deviation <= self.tol for c in self.checks)

    def format_table(self) -> str:
        lines = [f"{'check':<24}{'max deviation':>26}  status"]
        for c in self.checks:
            if not c.samples:
                status = "skipped"
            else:
                status = "pass" if c.max_deviation <= self.tol else "FAIL"
            lines.append(f"{c.name:<24}{c.max_deviation:>26.17g}  {status}")
        lines.extend(self.notes)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'} (tol {self.tol:.17g})")
        return "\n".join(lines)


def run_verification(
    graphs: Sequence[DirectedGraph],
    samples: int,
    seed: int,
    tol: float,
    *,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> VerificationReport:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not graphs:
        raise ValueError("no graphs to verify")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(CHECK_ORDER, 0.0)
    ran = dict.fromkeys(CHECK_ORDER, 0)
    oracle = functools.partial(_oracle, max_qubits=max_qubits)

    def record(name: str, deviation: float) -> None:
        if deviation > worst[name] or math.isnan(deviation):  # a NaN stays and fails
            worst[name] = deviation
        ran[name] += 1

    for g in graphs:
        dist = degree_distribution(g)
        for _ in range(samples):
            theta = rng.uniform(0.0, math.pi)
            psi = rng.uniform(-math.pi, math.pi)
            params = InteractionParams(theta, psi)
            base = oracle(g, BALANCED, params)

            closed = entanglement.ed_closed_form(dist, theta)
            record("closed-form oracle", abs(base - closed))

            p = rng.uniform(0.0, 1.0)
            theta_g = rng.uniform(0.0, math.pi)
            psi_g = rng.uniform(-math.pi, math.pi)
            qubit = InitialQubit(p, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            numeric_g = oracle(g, qubit, InteractionParams(theta_g, psi_g))
            closed_g = entanglement.ed_closed_general(dist, p, theta_g)
            record("general-closed oracle", abs(numeric_g - closed_g))

            psi_values = [base]
            for _ in range(3):
                alt = InteractionParams(theta, rng.uniform(-math.pi, math.pi))
                psi_values.append(oracle(g, BALANCED, alt))
            record("psi independence", max(psi_values) - min(psi_values))

            if g.edges:
                flipped = flip_edge(g, int(rng.integers(len(g.edges))))
                flipped_ed = oracle(flipped, BALANCED, params)
                record("orientation flip", abs(base - flipped_ed))

            perm = [int(x) for x in rng.permutation(g.num_vertices)]
            relabeled_ed = oracle(permute_vertices(g, perm), BALANCED, params)
            record("vertex relabeling", abs(base - relabeled_ed))

    return VerificationReport(tol, [CheckResult(name, worst[name], ran[name]) for name in CHECK_ORDER])


def ffnn_variant_report(
    layer_sizes: Sequence[int], *, max_qubits: int = DEFAULT_MAX_QUBITS
) -> tuple[float, float]:
    """Max deviation from the simulation oracle of the two layered-network
    closed forms (degree-distribution form, output-self-exponent form) over
    FFNN_THETAS at psi = FFNN_PSI.  Informational: shows which form the
    oracle backs."""
    g = gen_ffnn(layer_sizes)
    dev_degree = 0.0
    dev_variant = 0.0
    for theta in FFNN_THETAS:
        oracle = _oracle(g, BALANCED, InteractionParams(theta, FFNN_PSI), max_qubits=max_qubits)
        dev_degree = max(dev_degree, abs(oracle - entanglement.ed_ffnn(theta, layer_sizes)))
        dev_variant = max(
            dev_variant,
            abs(oracle - entanglement.ed_ffnn_output_self_exponent(theta, layer_sizes)),
        )
    return dev_degree, dev_variant
