"""Command-line surface: topology generation, ED evaluation, parameter sweeps
to CSV, and the closed-form-vs-simulation verification harness.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors.
Numeric output uses 17 significant digits so printed values round-trip to the
exact in-memory doubles, and identical invocations (same flags, same seed)
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import entanglement, verify
from .density import hs_distance_sq_analytic, pair_entropy_analytic
from .graphs import (
    DegreeDistribution,
    DirectedGraph,
    bridged_cycles_degree_counts,
    degree_distribution,
    ffnn_degree_counts,
    full_binary_tree_degree_counts,
    gen_bridged_cycles,
    gen_ffnn,
    gen_full_binary_tree,
    gen_young_fibonacci,
    load_graph,
    random_graph,
    save_graph,
    young_fibonacci_degree_counts,
)
from .statevector import DEFAULT_MAX_QUBITS, InitialQubit, InteractionParams, build_graph_state

__all__ = ["TOPOLOGIES", "run_sweep", "main"]

# sweep --quantity NAME -> the dests of the sweep flags it does not read.
SWEEP_IGNORES = {
    "ed": ("p", "p_min", "p_max", "p_steps"),
    "ed-general": ("limit",),
    "entropy": ("graph", "topology", "limit"),
    "hs2": ("graph", "topology", "limit"),
}

# --topology NAME -> (dest of the flag that sizes it, the family's degree-count
# rule and its generator, each passed that flag's value, the infinite-size ED
# curve that sweep --limit draws).
TOPOLOGIES: dict[
    str, tuple[str, Callable[..., dict[int, int]], Callable[..., DirectedGraph], Callable[[float], float] | None]
] = {
    "yf": ("layers", young_fibonacci_degree_counts, gen_young_fibonacci, entanglement.ed_young_fibonacci_limit),
    "ffnn": ("layer_sizes", ffnn_degree_counts, gen_ffnn, None),
    "btree": ("depth", full_binary_tree_degree_counts, gen_full_binary_tree, entanglement.ed_binary_tree_limit),
    "bridged": ("cycles", bridged_cycles_degree_counts, gen_bridged_cycles, None),
}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _grid(lo: float, hi: float, steps: int, name: str) -> list[float]:
    """Inclusive uniform grid over --NAME-min .. --NAME-max: lo + i*(hi-lo)/(steps-1)."""
    if not lo < hi:
        raise ValueError(f"--{name}-min must be less than --{name}-max")
    return [lo + (i * (hi - lo)) / (steps - 1) for i in range(steps)]


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc


def _probability(text: str) -> float:
    """argparse type: a number in [0, 1]."""
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return value


def _finite(text: str) -> float:
    """argparse type: a finite number (angles go into cos and sin)."""
    value = _number(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _pi_fraction(text: str) -> float:
    """argparse type: a rational multiple of pi, e.g. '1/2' -> pi/2, '0.25' -> pi/4."""
    try:
        value = math.pi * float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite rational multiple of pi, got {text!r}")
    return value


def _integer(minimum: int) -> Callable[[str], int]:
    """argparse type: an integer >= minimum."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type: a finite number >= 0 (NaN would fail every check)."""
    value = _number(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _add_source_flags(parser: argparse.ArgumentParser, graph: bool = True):
    """Add the size flags and the exclusive group of graph sources (required without --graph)."""
    source = parser.add_mutually_exclusive_group(required=not graph)
    if graph:
        source.add_argument("--graph", help="graph JSON path")
    source.add_argument("--topology", choices=sorted(TOPOLOGIES), help="generator family")
    parser.add_argument("--layers", type=int, help="layer count (topology yf)")
    parser.add_argument("--layer-sizes", type=_parse_sizes, help="e.g. 3,4,4,2 (topology ffnn)")
    parser.add_argument("--cycles", type=_parse_sizes, help="e.g. 3,3,3 (topology bridged)")
    parser.add_argument("--depth", type=int, help="layer count (topology btree)")
    return source


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _refuse(args: argparse.Namespace, dests: Sequence[str], reason: str) -> None:
    """Refuse the first of these flags that was given, as one that would be ignored."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:  # by identity: 0.0 == False
            raise ValueError(f"{_flag(dest)} {reason}")


def _check_size_flags(args: argparse.Namespace) -> None:
    """Refuse a topology size flag that would be ignored."""
    for name, (dest, *_) in TOPOLOGIES.items():
        if getattr(args, dest) is None:
            continue
        if getattr(args, "graph", None) is not None:
            raise ValueError(f"{_flag(dest)} does not apply with --graph")
        if getattr(args, "limit", False):
            raise ValueError(f"{_flag(dest)} does not apply with --limit")
        if args.topology is None:
            raise ValueError(f"{_flag(dest)} needs --topology {name}")
        if args.topology != name:
            raise ValueError(f"{_flag(dest)} does not apply to --topology {args.topology}")


def _within_cap(num_qubits: int, cap: int | None) -> None:
    """Refuse a state-vector build of more qubits than --max-qubits allows."""
    if cap is not None and num_qubits > cap:
        raise ValueError(
            f"{num_qubits} qubits exceeds the configured cap of {cap} "
            f"(2^{num_qubits} amplitudes); raise the cap explicitly to proceed"
        )


def _sized(flag: str, make: Callable[[Any], Any], value: object) -> Any:
    """make(value), with every refusal of a size naming its flag."""
    try:
        return make(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _graph_from_args(
    args: argparse.Namespace, degrees_only: bool = False, cap: int | None = None
) -> DirectedGraph | DegreeDistribution:
    """The graph the source flags name or, with degrees_only, its degree
    distribution: a --topology family's comes from its degree-count rule,
    with no graph built.  A graph of more than `cap` vertices is refused, a
    family's by its rule's vertex count before it is generated."""
    if getattr(args, "graph", None) is not None:
        graph = load_graph(args.graph)
        _within_cap(graph.num_vertices, cap)
        return degree_distribution(graph) if degrees_only else graph
    if args.topology is None:
        raise ValueError("no graph source: pass --graph PATH or --topology plus its parameters")
    dest, count, generate, _ = TOPOLOGIES[args.topology]
    flag, size = _flag(dest), getattr(args, dest)
    if size is None:
        raise ValueError(f"--topology {args.topology} needs {flag}")
    counts = _sized(flag, count, size)
    if degrees_only:
        return _sized(flag, DegreeDistribution, counts)
    _within_cap(sum(counts.values()), cap)
    return _sized(flag, generate, size)


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    graph = _graph_from_args(args)
    save_graph(graph, args.out)
    dist = degree_distribution(graph)
    print(f"vertices: {graph.num_vertices}")
    print(f"edges: {graph.num_edges}")
    print(f"degree distribution: {dict(sorted(dist.counts.items()))}")
    print(f"wrote: {args.out}")
    return 0


# ----------------------------------------------------------------------
# ed
# ----------------------------------------------------------------------

def cmd_ed(args: argparse.Namespace) -> int:
    if args.method == "closed":
        _refuse(args, ("psi", "max_qubits"), "does not apply to --method closed")
    # The closed total reads only the degrees: a graph is built for the
    # per-vertex lines and, within the qubit cap (at least 1), for the oracle.
    cap = None if args.method == "closed" else args.max_qubits or DEFAULT_MAX_QUBITS
    graph = None if cap is None and not args.verbose else _graph_from_args(args, cap=cap)
    results = {}  # name -> (total, per-vertex contributions), closed before simulate
    if args.method in ("closed", "both"):
        dist = _graph_from_args(args, degrees_only=True) if graph is None else degree_distribution(graph)
        total = entanglement.ed_closed_general(dist, args.p, args.theta)
        per_vertex = entanglement.ed_general_report(graph, args.p, args.theta).per_vertex if args.verbose else ()
        results["closed"] = (total, per_vertex)
    if args.method in ("simulate", "both"):
        state = build_graph_state(
            graph,
            InitialQubit(args.p),
            InteractionParams(args.theta, 0.0 if args.psi is None else args.psi),
        )
        report = entanglement.ed_numeric(state)
        results["simulate"] = (report.total, report.per_vertex)
    for name, (total, per_vertex) in results.items():
        print(f"{name}: {_fmt(total)}")
        if args.verbose:
            for i, value in enumerate(per_vertex):
                print(f"  vertex {i}: {_fmt(value)}")
    if args.method == "both":
        print(f"diff: {_fmt(abs(results['closed'][0] - results['simulate'][0]))}")
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def run_sweep(
    value: Callable[..., np.ndarray], thetas: Sequence[float], ps: Sequence[float] | None = None
) -> np.ndarray:
    """value over thetas, or value(p, theta) over thetas crossed with ps, in
    one call on the whole grid: theta as an array, or as a column with p as
    a row.  Returns the (T,) or (T, P) values, theta outer and p inner."""
    theta = np.array(thetas, dtype=np.float64)
    if ps is None:
        return np.asarray(value(theta), dtype=np.float64)
    return np.asarray(value(np.array([ps], dtype=np.float64), theta[:, None]), dtype=np.float64)


def _write_csv(
    path: str, thetas: Sequence[float], ps: Sequence[float] | None, values: np.ndarray
) -> None:
    """The sweep as CSV rows theta,value or theta,p,value, theta outer and p
    inner.  Every field is written as _fmt writes it; each theta and p is
    formatted once, and each row of theta places its values into one template."""
    cells = [",%.17g\n"] if ps is None else [f",{_fmt(p)},%.17g\n" for p in ps]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,value\n" if ps is None else "theta,p,value\n")
        for theta, row in zip(thetas, values.reshape(len(thetas), -1).tolist()):
            head = _fmt(theta)
            fh.write((head + head.join(cells)) % tuple(row))


def cmd_sweep(args: argparse.Namespace) -> int:
    _refuse(args, SWEEP_IGNORES[args.quantity], f"does not apply to --quantity {args.quantity}")
    if args.p_steps is None:
        _refuse(args, ("p_min", "p_max"), "needs --p-steps")
    else:
        _refuse(args, ("p",), "does not apply with --p-steps")
    # Every closed form takes the grid whole, as arrays that broadcast.
    if args.limit:
        value = TOPOLOGIES[args.topology][3] if args.topology is not None else None
        if value is None:
            names = " or ".join(name for name, row in TOPOLOGIES.items() if row[3] is not None)
            raise ValueError(f"--limit needs --topology {names}")
    elif args.quantity in ("ed", "ed-general"):
        value = functools.partial(entanglement.ed_closed_general, _graph_from_args(args, degrees_only=True))
    else:
        value = pair_entropy_analytic if args.quantity == "entropy" else hs_distance_sq_analytic
    ps = None
    if args.p_steps is not None:
        p_max = 1.0 if args.p_max is None else args.p_max
        ps = _grid(0.0 if args.p_min is None else args.p_min, p_max, args.p_steps, "p")
    elif not args.limit:  # value(p, theta) at the fixed p; --quantity ed refuses --p
        value = functools.partial(value, 0.5 if args.p is None else args.p)
    thetas = _grid(args.theta_min, args.theta_max, args.theta_steps, "theta")
    values = run_sweep(value, thetas, ps)
    _write_csv(args.out, thetas, ps, values)
    print(f"wrote: {args.out} ({values.size} rows)")
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    if args.random_graphs is not None:
        max_vertices = 10 if args.max_vertices is None else args.max_vertices
        edge_prob = 0.4 if args.edge_prob is None else args.edge_prob
        rng = np.random.default_rng(args.seed)
        graphs = []
        for _ in range(args.random_graphs):
            graphs.append(random_graph(int(rng.integers(2, max_vertices + 1)), rng, edge_prob))
            _within_cap(graphs[-1].num_vertices, args.max_qubits)
        header = f"graphs: {len(graphs)} random (<= {max_vertices} vertices)"
    else:
        _refuse(args, ("max_vertices", "edge_prob"), "needs --random-graphs")
        graphs = [_graph_from_args(args, cap=args.max_qubits)]
        header = f"graphs: 1 ({graphs[0].num_vertices} vertices, {graphs[0].num_edges} edges)"
    report = verify.run_verification(graphs, args.samples, args.seed, args.tol)
    if args.layer_sizes is not None:  # only --topology ffnn accepts it
        dev_degree, dev_variant = verify.ffnn_variant_report(args.layer_sizes, graphs[0])
        report.notes.append(f"ffnn degree-distribution form vs oracle: {_fmt(dev_degree)}")
        report.notes.append(f"ffnn output-self-exponent form vs oracle: {_fmt(dev_variant)}")
    print(header)  # only once nothing can fail, so an error leaves stdout empty
    print(report.format_table())
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphent",
        description="Directed-graph qubit states: generation, entanglement, sweeps, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a topology and write its graph JSON")
    _add_source_flags(p_gen, graph=False)
    p_gen.add_argument("--out", default="graph.json", help="output path (default graph.json)")
    p_gen.set_defaults(func=cmd_gen)

    p_ed = sub.add_parser("ed", help="evaluate the ED of a graph")
    _add_source_flags(p_ed)
    angle = p_ed.add_mutually_exclusive_group(required=True)
    angle.add_argument("--theta", type=_finite, help="interaction angle in radians")
    angle.add_argument(
        "--theta-pi-frac", dest="theta", type=_pi_fraction,
        help="interaction angle as a rational multiple of pi, e.g. 1/2",
    )
    p_ed.add_argument("--p", type=_probability, default=0.5, help="input |1> weight (default 0.5)")
    p_ed.add_argument("--psi", type=_finite, help="global interaction phase (default 0)")
    p_ed.add_argument("--method", choices=("closed", "simulate", "both"), default="both")
    p_ed.add_argument("--max-qubits", type=_integer(1), help=f"simulation cap (default {DEFAULT_MAX_QUBITS})")
    p_ed.add_argument("--verbose", action="store_true", help="also print per-vertex contributions")
    p_ed.set_defaults(func=cmd_ed)

    p_sweep = sub.add_parser("sweep", help="write a parameter sweep as CSV")
    p_sweep.add_argument("--quantity", choices=tuple(SWEEP_IGNORES), required=True)
    _add_source_flags(p_sweep)
    p_sweep.add_argument("--limit", action="store_true", help="asymptotic curve (yf/btree, quantity ed)")
    p_sweep.add_argument("--theta-min", type=_finite, default=0.0)
    p_sweep.add_argument("--theta-max", type=_finite, default=math.pi)
    p_sweep.add_argument("--theta-steps", type=_integer(2), required=True)
    p_sweep.add_argument("--p-min", type=_probability, help="p grid start (default 0)")
    p_sweep.add_argument("--p-max", type=_probability, help="p grid end (default 1)")
    p_sweep.add_argument("--p-steps", type=_integer(2), help="add an inner p grid (2-D sweep)")
    p_sweep.add_argument("--p", type=_probability, help="fixed p for 1-D sweeps (default 0.5)")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="closed forms vs the simulation oracle")
    source = _add_source_flags(p_verify)
    source.add_argument("--random-graphs", type=_integer(1), help="verify on this many seeded random graphs")
    p_verify.add_argument("--max-vertices", type=_integer(2), help="random-graph size cap (default 10)")
    p_verify.add_argument("--edge-prob", type=_probability, help="random-graph edge probability (default 0.4)")
    p_verify.add_argument("--samples", type=_integer(1), default=25, help="parameter draws per graph (default 25)")
    p_verify.add_argument("--seed", type=_integer(0), default=0)
    p_verify.add_argument("--tol", type=_tolerance, default=1e-10)
    p_verify.add_argument("--max-qubits", type=_integer(1), default=DEFAULT_MAX_QUBITS, help="simulation cap (default %(default)s)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage; keep its code
        return int(exc.code) if exc.code is not None else 0
    try:
        _check_size_flags(args)
        return args.func(args)
    except (ValueError, OSError) as exc:  # JSON decode errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
