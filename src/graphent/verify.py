"""Seeded verification harness: closed forms against the simulation oracle.

Five checks run over every supplied graph with freshly drawn parameters per
sample: the balanced and general closed forms against the oracle's ED, and
the three invariances (psi sweep, edge orientation flip, vertex relabeling).
Every graph's draws are made first, in a fixed order, each sample's ten
angles and inputs as raw doubles that one array pass maps to their bounds
per op; the oracle then runs once per qubit count, on the rows of every
graph of that count as one `StateRows`, with each flipped or relabelled copy
written straight into its edge array.  Its per-row totals are split into
one table per graph, one row per sample.  Each closed form is one call per
op, one row per graph, and each check is an array reduction over its
columns.  So the fixed costs of numpy calls are paid per op or per batch of
oracle rows, not per sample, graph or row.
Each check counts the samples it evaluated; one that evaluated none (the
orientation flip on edgeless graphs) is reported as skipped, not passed.
All randomness comes from one seeded generator, so a report is reproducible
byte for byte.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import entanglement
from .graphs import DirectedGraph, degree_distribution
from .statevector import StateRows, ed_numeric_rows

__all__ = ["CheckResult", "VerificationReport", "run_verification", "ffnn_variant_report"]

CHECK_ORDER = (
    "closed-form oracle",
    "general-closed oracle",
    "psi independence",
    "orientation flip",
    "vertex relabeling",
)

# The balanced input qubit (p, delta0, delta1), StateRows' default.
BALANCED = (0.5, 0.0, 0.0)
FFNN_THETAS = tuple(i * math.pi / 8 for i in range(1, 8))
FFNN_PSI = 0.4
# The bounds of a sample's ten uniform draws, in the stream order that
# `run_verification` lists.  Each sample draws ten raw doubles u, and one
# array pass per op maps them all to _LOW + (_HIGH - _LOW) * u, which is how
# numpy's `uniform(low, high)` forms each value from the same u: the stream
# and every value are the same as with one `uniform` call per element.
_LOW = np.array([0.0, -math.pi, 0.0, 0.0] + [-math.pi] * 6)
_HIGH = np.array([math.pi, math.pi, 1.0, math.pi] + [math.pi] * 6)


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
    values, flips, perms = _draws(graphs, samples, np.random.default_rng(seed))
    # One oracle call per qubit count, its rows graph by graph.  A table has
    # one row per sample; columns base, general, three psi draws, then the
    # flip (only when the graph has an edge) and the relabelling.
    tables = [None] * len(graphs)
    members = defaultdict(list)
    for i, g in enumerate(graphs):
        members[g.num_vertices].append(i)
    for m, indices in members.items():
        parts = [_sample_rows(graphs[i], values[i], flips[i], perms[i]) for i in indices]
        ends = np.cumsum([len(part[1]) for part in parts])
        rows = StateRows(m, *map(np.concatenate, zip(*parts)))
        del parts  # the rows hold a copy; freed before the oracle's buffers are allocated
        totals = ed_numeric_rows(rows)
        for i, table in zip(indices, np.split(totals, ends[:-1])):
            tables[i] = table.reshape(samples, -1)
    # One call per closed form for every graph's draws, one row per graph.
    dists = [degree_distribution(g) for g in graphs]
    closed_b = entanglement.ed_closed_form_rows(dists, values[:, :, 0])
    closed_g = entanglement.ed_closed_general_rows(dists, values[:, :, 2], values[:, :, 3])
    found = []  # per graph, one array of deviations per check, in CHECK_ORDER
    for g, table, balanced, general in zip(graphs, tables, closed_b, closed_g):
        base = table[:, 0]
        found.append((
            abs(base - balanced),
            abs(table[:, 1] - general),
            np.ptp(table[:, [0, 2, 3, 4]], axis=1),
            abs(base - table[:, 5]) if g.num_edges else np.empty(0),
            abs(base - table[:, -1]),
        ))
    checks = []
    for name, per_graph in zip(CHECK_ORDER, zip(*found)):
        deviations = np.concatenate(per_graph)
        # np.max keeps a NaN, so it fails; a check with no samples reads 0.
        checks.append(CheckResult(name, float(np.max(deviations, initial=0.0)), deviations.size))
    return VerificationReport(tol, checks)


def _draws(
    graphs: Sequence[DirectedGraph], samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every graph's draws, graph by graph and sample by sample in the order
    of the checks: per sample theta, psi, p, theta_g, psi_g, delta0, delta1
    and three more psi, as (G, S, 10) values, then the flipped edge, (G, S),
    and the relabelling, one (S, M) array per graph.  Each sample draws its
    ten values raw; they are mapped to their bounds once, after the loop."""
    values = np.empty((len(graphs), samples, 10))
    flips = np.zeros((len(graphs), samples), dtype=np.int64)
    perms = []
    for g, draws, flipped in zip(graphs, values, flips):
        perm = np.empty((samples, g.num_vertices), dtype=np.int64)
        for s in range(samples):
            rng.random(out=draws[s])
            if g.num_edges:
                flipped[s] = rng.integers(g.num_edges)
            perm[s] = rng.permutation(g.num_vertices)
        perms.append(perm)
    return _LOW + (_HIGH - _LOW) * values, flips, perms


# The draws' columns of theta and psi in a sample's oracle rows: base,
# general, three psi draws, then the flip and the relabelling, or the
# relabelling alone, with the base angles.
_THETA_COLUMNS = [0, 3, 0, 0, 0, 0, 0]
_PSI_COLUMNS = [1, 4, 7, 8, 9, 1, 1]


def _sample_rows(
    g: DirectedGraph, values: np.ndarray, flips: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The oracle rows of a graph's samples as the fields of `StateRows`
    after the qubit count: edges, edge counts, theta, psi, p, delta0 and
    delta1.  The flip is the graph's edges with one row reversed and the
    relabelling perm[edges], with no graph built for either."""
    samples, e = len(values), g.num_edges
    width = 7 if e else 6  # no flip row on an edgeless graph
    edges = np.empty((samples, width, e, 2), dtype=np.int64)
    edges[:, :-1] = g.edge_array
    if e:
        edges[np.arange(samples), 5, flips] = g.edge_array[flips, ::-1]
    edges[:, -1] = perms[:, g.edge_array]
    # (p, delta0, delta1) per row: the general row's draws, else the balanced input.
    inputs = np.empty((3, samples, width))
    inputs[:] = np.array(BALANCED)[:, None, None]
    inputs[:, :, 1] = values[:, [2, 5, 6]].T
    return (
        edges.reshape(-1, 2),
        np.full(samples * width, e),
        values[:, _THETA_COLUMNS[:width]].ravel(),
        values[:, _PSI_COLUMNS[:width]].ravel(),
        *inputs.reshape(3, -1),
    )


def ffnn_variant_report(layer_sizes: Sequence[int], graph: DirectedGraph) -> tuple[float, float]:
    """Max deviation from the simulation oracle, on `graph`, the built
    gen_ffnn(layer_sizes), of the two layered-network closed forms
    (degree-distribution form, output-self-exponent form) over FFNN_THETAS
    at psi = FFNN_PSI.  Informational: shows which form the oracle backs."""
    count = len(FFNN_THETAS)
    rows = StateRows(
        graph.num_vertices,
        np.tile(graph.edge_array, (count, 1)),
        np.full(count, graph.num_edges),
        FFNN_THETAS,
        FFNN_PSI,
    )
    oracle = ed_numeric_rows(rows)
    degree = [entanglement.ed_ffnn(t, layer_sizes) for t in FFNN_THETAS]
    variant = [entanglement.ed_ffnn_output_self_exponent(t, layer_sizes) for t in FFNN_THETAS]
    return float(np.max(abs(oracle - degree))), float(np.max(abs(oracle - variant)))
