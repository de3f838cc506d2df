"""Per-layer tracing for the traced run: spans around graphent's public functions.

The wrappers live here, in the benchmark, not in the program.  A wrapper
replaces its function under every name that points at it in every loaded
graphent module and in the figure script, because modules that did
``from .graphs import degree`` hold their own reference; a wrapper installed
only on ``graphs.degree`` would miss ``entanglement.degree``.

Spans are kept in memory per operation as (name, start, end, parent, op id).
When an operation ends, each span's self time (its duration minus the time
its child spans cover) is added to per-name totals and the list is cleared,
so memory does not grow with the run.

Kernel work counts are computed from array sizes, 16 bytes per complex
amplitude read or written by each numpy call, cache reuse ignored:
  build_graph_state   128 * 2^M (product state: two scaled copies and a
                      concatenate per qubit) + 16 * 2^M per edge (read and
                      write two quarter-blocks);
  pauli_expectations  80 * 2^M (np.take copies both halves, then three vdots).
No bandwidth or roofline figure is derived from them: a 22-qubit state is
64 MiB, below four times the last-level cache of the reference machine
(300 MiB L3), and no peak-bandwidth run is made.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

CLOSED_FORMS = (
    "ed_closed_form",
    "ed_closed_general",
    "ed_closed_report",
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
)
MODULES = ("cli", "graphs", "statevector", "entanglement", "density", "verify")
# Span names in report order; each reports <name>.calls and <name>.self_s per op.
SPANS = (
    "cli.main",
    "cli.run_sweep",
    "cli.write_csv",
    "graphs.load_graph",
    "graphs.DirectedGraph",
    "graphs.degree",
    "graphs.degree_distribution",
    "graphs.build_topology",
    "graphs.random_graph",
    "graphs.flip_edge",
    "graphs.permute_vertices",
    "statevector.build_graph_state",
    "statevector.pauli_expectations",
    "entanglement.ed_numeric",
    "entanglement.ed_general_report",
    "entanglement.closed_forms",
    "density.analytic",
    "verify.run_verification",
    "verify.ffnn_variant_report",
)
# Work counters, reported per op.
COUNTERS = {
    "cli.csv_bytes": "bytes/op",
    "graphs.edges_validated": "edges/op",
    "graphs.json_bytes_read": "bytes/op",
    "graphs.degree.edges_scanned": "edges/op",
    "statevector.build_graph_state.amplitudes": "amps/op",
    "statevector.build_graph_state.edges_applied": "edges/op",
    "statevector.build_graph_state.computed_bytes": "bytes/op",
    "statevector.pauli_expectations.computed_bytes": "bytes/op",
    "verify.samples": "samples/op",
}
REPEAT_SHARE = "statevector.build_graph_state.repeat_graph_share"
# Filled in by the worker from its untraced and traced phases.
TRACE_METRICS = {
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "share",
}


def units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = "calls/op"
        out[f"{name}.self_s"] = "s/op"
    out.update(COUNTERS)
    out[REPEAT_SHARE] = "share"
    for module in MODULES:
        out[f"{module}.self_share"] = "share"
    out.update(TRACE_METRICS)
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, op id) of the current op
        self.stack: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.built: set = set()  # graphs built so far in the current op
        self.builds = 0
        self.repeat_builds = 0
        self.missing: list[str] = []  # traced functions the program no longer has

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args) runs once the span has closed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent, self.op_id)
                self.stack.pop()
            if after is not None:
                after(args)
            return result

        return wrapper

    def run_op(self, op_id: int, fn):
        """Run one operation under a root span and fold its spans into the totals."""
        self.op_id = op_id
        self.spans.clear()
        self.built.clear()
        try:
            return self.wrap("op", fn)()
        finally:
            self._fold()

    def _fold(self) -> None:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += end - start - covered[index]
        self.ops += 1
        self.spans.clear()

    # -- counters -------------------------------------------------------

    def _count(self, name, amount) -> None:
        self.counts[name] += amount

    def _built(self, args) -> None:
        graph = args[0]
        size = 2**graph.num_vertices
        edges = graph.num_edges
        self._count("statevector.build_graph_state.amplitudes", size)
        self._count("statevector.build_graph_state.edges_applied", edges)
        self._count("statevector.build_graph_state.computed_bytes", (128 + 16 * edges) * size)
        key = (graph.num_vertices, tuple(graph.edges))
        self.builds += 1
        if key in self.built:
            self.repeat_builds += 1
        else:
            self.built.add(key)

    def install(self, graphent, figure_script) -> None:
        """Wrap the traced functions in every module that refers to them."""
        cli, graphs, statevector = graphent.cli, graphent.graphs, graphent.statevector
        entanglement, density, verify = graphent.entanglement, graphent.density, graphent.verify
        table = [
            ("cli.main", cli, "main", None),
            ("cli.run_sweep", cli, "run_sweep", None),
            ("cli.write_csv", cli, "_write_csv",
             lambda a: self._count("cli.csv_bytes", os.path.getsize(a[0]))),
            ("graphs.load_graph", graphs, "load_graph",
             lambda a: self._count("graphs.json_bytes_read", os.path.getsize(a[0]))),
            # The constructor's validation runs in __post_init__, looked up on the class.
            ("graphs.DirectedGraph", graphs.DirectedGraph, "__post_init__",
             lambda a: self._count("graphs.edges_validated", a[0].num_edges)),
            ("graphs.degree", graphs, "degree",
             lambda a: self._count("graphs.degree.edges_scanned", a[0].num_edges)),
            ("graphs.degree_distribution", graphs, "degree_distribution", None),
            ("graphs.build_topology", graphs, "build_topology", None),
            ("graphs.random_graph", graphs, "random_graph", None),
            ("graphs.flip_edge", graphs, "flip_edge", None),
            ("graphs.permute_vertices", graphs, "permute_vertices", None),
            ("statevector.build_graph_state", statevector, "build_graph_state", self._built),
            ("statevector.pauli_expectations", statevector, "pauli_expectations",
             lambda a: self._count("statevector.pauli_expectations.computed_bytes",
                                   80 * 2**a[0].num_qubits)),
            ("entanglement.ed_numeric", entanglement, "ed_numeric", None),
            ("entanglement.ed_general_report", entanglement, "ed_general_report", None),
            ("density.analytic", density, "hs_distance_sq_analytic", None),
            ("density.analytic", density, "pair_entropy_analytic", None),
            ("verify.run_verification", verify, "run_verification",
             lambda a: self._count("verify.samples", len(a[0]) * a[1])),
            ("verify.ffnn_variant_report", verify, "ffnn_variant_report", None),
        ]
        table += [("entanglement.closed_forms", entanglement, fn, None) for fn in CLOSED_FORMS]
        holders = [m for key, m in sorted(vars(graphent).items()) if key in MODULES]
        holders += [graphent, figure_script]
        for name, module, attr, after in table:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            wrapped = self.wrap(name, original, after)
            setattr(module, attr, wrapped)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics per traced op, except the trace.* ones."""
        ops = max(self.ops, 1)
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        out[REPEAT_SHARE] = self.repeat_builds / self.builds if self.builds else 0.0
        op_wall = self.total_s["op"]
        for module in MODULES:
            own = sum(self.self_s[n] for n in SPANS if n.startswith(module + "."))
            out[f"{module}.self_share"] = own / op_wall if op_wall else 0.0
        main = self.total_s["cli.main"]
        out["trace.unattributed_share"] = self.self_s["cli.main"] / main if main else 0.0
        return out
