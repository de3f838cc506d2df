"""Seeded verification harness: closed forms against the simulation oracle.

Five checks run over every supplied graph with freshly drawn parameters per
sample: the balanced and general closed forms against the oracle's ED, and
the three invariances (psi sweep, edge orientation flip, vertex relabeling).
The oracle's per-row totals are read as one table per graph, one row per
sample, and each check is an array reduction over its columns.
Each check counts the samples it evaluated; one that evaluated none (the
orientation flip on edgeless graphs) is reported as skipped, not passed.
All randomness comes from one seeded generator, so a report is reproducible
byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import entanglement
from .graphs import DirectedGraph, degree_distribution, flip_edge, permute_vertices
from .statevector import InitialQubit, InteractionParams, ed_numeric_rows

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
    graphs: Sequence[DirectedGraph], samples: int, seed: int, tol: float
) -> VerificationReport:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not graphs:
        raise ValueError("no graphs to verify")
    rng = np.random.default_rng(seed)
    found = []  # per graph, one array of deviations per check, in CHECK_ORDER
    for g in graphs:
        # Every draw of the graph's samples first, in the order of the checks;
        # the oracle then evaluates all their rows together, and each closed
        # form all its (p, theta) draws in one call on arrays.
        rows, thetas, ps, thetas_g = [], [], [], []
        for _ in range(samples):
            params = InteractionParams(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
            p = rng.uniform(0.0, 1.0)
            params_g = InteractionParams(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
            qubit = InitialQubit(p, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            rows += (g, BALANCED, params), (g, qubit, params_g)
            thetas.append(params.theta)
            ps.append(p)
            thetas_g.append(params_g.theta)
            for psi in rng.uniform(-math.pi, math.pi, 3):
                rows.append((g, BALANCED, InteractionParams(params.theta, psi)))
            if g.num_edges:
                rows.append((flip_edge(g, rng.integers(g.num_edges)), BALANCED, params))
            rows.append((permute_vertices(g, rng.permutation(g.num_vertices)), BALANCED, params))
        # One row per sample; columns base, general, three psi draws, then the
        # flip (only when the graph has an edge) and the relabeling.
        table = ed_numeric_rows(rows).reshape(samples, -1)
        base = table[:, 0]
        dist = degree_distribution(g)
        closed_b = entanglement.ed_closed_form(dist, np.array(thetas))
        closed_g = entanglement.ed_closed_general(dist, np.array(ps), np.array(thetas_g))
        found.append((
            abs(base - closed_b),
            abs(table[:, 1] - closed_g),
            np.ptp(table[:, [0, 2, 3, 4]], axis=1),
            abs(base - table[:, 5]) if g.num_edges else np.empty(0),
            abs(base - table[:, -1]),
        ))
    checks = []
    for name, per_graph in zip(CHECK_ORDER, zip(*found)):
        values = np.concatenate(per_graph)
        # np.max keeps a NaN, so it fails; a check with no samples reads 0.
        checks.append(CheckResult(name, float(np.max(values, initial=0.0)), values.size))
    return VerificationReport(tol, checks)


def ffnn_variant_report(layer_sizes: Sequence[int], graph: DirectedGraph) -> tuple[float, float]:
    """Max deviation from the simulation oracle, on `graph`, the built
    gen_ffnn(layer_sizes), of the two layered-network closed forms
    (degree-distribution form, output-self-exponent form) over FFNN_THETAS
    at psi = FFNN_PSI.  Informational: shows which form the oracle backs."""
    rows = [(graph, BALANCED, InteractionParams(theta, FFNN_PSI)) for theta in FFNN_THETAS]
    oracle = ed_numeric_rows(rows)
    degree = [entanglement.ed_ffnn(t, layer_sizes) for t in FFNN_THETAS]
    variant = [entanglement.ed_ffnn_output_self_exponent(t, layer_sizes) for t in FFNN_THETAS]
    return float(np.max(abs(oracle - degree))), float(np.max(abs(oracle - variant)))
