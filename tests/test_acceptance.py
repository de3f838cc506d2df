"""End-to-end acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them on success).
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import graphent
from graphent.cli import main as cli_main
from graphent.density import (
    entropy_at_half_p,
    hs_distance,
    hs_distance_sq_analytic,
    maximally_mixed,
    partial_trace,
    reduced_eigenvalues_analytic,
    von_neumann_entropy,
)
from graphent.entanglement import (
    ed_binary_tree,
    ed_binary_tree_limit,
    ed_bridged_cycles,
    ed_closed_form,
    ed_closed_general,
    ed_ffnn,
    ed_numeric,
    ed_young_fibonacci,
    ed_young_fibonacci_limit,
    two_qubit_ed_analytic,
)
from graphent.graphs import (
    DirectedGraph,
    degree_distribution,
    gen_bridged_cycles,
    gen_ffnn,
    gen_full_binary_tree,
    gen_young_fibonacci,
    random_graph,
)
from graphent.statevector import InitialQubit, InteractionParams, build_graph_state
from graphent.verify import ffnn_variant_report, run_verification

from helpers import grid

BALANCED = InitialQubit()
THETAS = grid(0.0, math.pi, 33)
THETA_QUARTER_INDEX = 8  # THETAS[8] == pi/4 exactly

# the criterion-1 graph set, each with its matching closed-form curve
TESTBED = [
    ("yf N=2", gen_young_fibonacci(2), lambda th: ed_young_fibonacci(th, 2)),
    ("yf N=3", gen_young_fibonacci(3), lambda th: ed_young_fibonacci(th, 3)),
    ("yf N=4", gen_young_fibonacci(4), lambda th: ed_young_fibonacci(th, 4)),
    ("btree N=2", gen_full_binary_tree(2), lambda th: ed_binary_tree(th, 2)),
    ("btree N=3", gen_full_binary_tree(3), lambda th: ed_binary_tree(th, 3)),
    ("btree N=4", gen_full_binary_tree(4), lambda th: ed_binary_tree(th, 4)),
    ("ffnn 1,2,2,1", gen_ffnn((1, 2, 2, 1)), lambda th: ed_ffnn(th, (1, 2, 2, 1))),
    ("ffnn 3,4,4,2", gen_ffnn((3, 4, 4, 2)), lambda th: ed_ffnn(th, (3, 4, 4, 2))),
    ("bridged 3,3", gen_bridged_cycles((3, 3)), lambda th: ed_bridged_cycles(th, 6, 2)),
    ("bridged 3,4,3", gen_bridged_cycles((3, 4, 3)), lambda th: ed_bridged_cycles(th, 10, 3)),
]


def _report(number, name, ok, detail):
    print(f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} [{name}] failed: {detail}"


def _balanced_ed(graph, theta, psi):
    return ed_numeric(build_graph_state(graph, BALANCED, InteractionParams(theta, psi))).total


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _, graph, _ in TESTBED:
        dist = degree_distribution(graph)
        for psi in rng.uniform(-math.pi, math.pi, size=5):
            for theta in THETAS:
                dev = abs(_balanced_ed(graph, theta, float(psi)) - ed_closed_form(dist, theta))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "oracle equivalence",
        worst <= 1e-10 and elapsed < 120.0,
        f"max dev {worst:.3e}, tol 1e-10, {elapsed:.1f}s of 120s",
    )


def test_criterion_2_general_p_equivalence():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _, graph, _ in TESTBED:
        dist = degree_distribution(graph)
        for _ in range(20):
            p = float(rng.uniform(0.0, 1.0))
            theta = float(rng.uniform(0.0, math.pi))
            psi = float(rng.uniform(-math.pi, math.pi))
            qubit = InitialQubit(p, float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(-math.pi, math.pi)))
            numeric = ed_numeric(
                build_graph_state(graph, qubit, InteractionParams(theta, psi))
            ).total
            worst = max(worst, abs(numeric - ed_closed_general(dist, p, theta)))
    _report(2, "general-p equivalence", worst <= 1e-10, f"max dev {worst:.3e}, tol 1e-10")


def test_criterion_3_two_qubit_analytics():
    pair = DirectedGraph(2, [(0, 1)])
    ps = grid(0.0, 1.0, 41)
    thetas = grid(0.0, math.pi, 41)
    center = (20, 20)  # (theta index of pi/2, p index of 1/2)
    dev_ed = dev_hs2 = dev_eig = dev_entropy = 0.0
    ed_values = np.zeros((41, 41))
    entropy_values = np.zeros((41, 41))
    hs2_values = np.zeros((41, 41))
    for ti, theta in enumerate(thetas):
        for pi_, p in enumerate(ps):
            state = build_graph_state(pair, InitialQubit(p), InteractionParams(theta, 0.0))
            rho = partial_trace(state, [0])

            ed_values[ti, pi_] = ed_numeric(state).total
            dev_ed = max(dev_ed, abs(ed_values[ti, pi_] - two_qubit_ed_analytic(p, theta)))

            hs2_values[ti, pi_] = hs_distance(rho, maximally_mixed()) ** 2
            dev_hs2 = max(dev_hs2, abs(hs2_values[ti, pi_] - hs_distance_sq_analytic(p, theta)))

            numeric_eigs = rho.eigenvalues
            analytic_eigs = reduced_eigenvalues_analytic(p, theta)
            dev_eig = max(dev_eig, max(abs(a - b) for a, b in zip(numeric_eigs, analytic_eigs)))

            entropy_values[ti, pi_] = von_neumann_entropy(rho)
            if pi_ == 20:  # p = 1/2 exactly
                dev_entropy = max(
                    dev_entropy, abs(entropy_values[ti, pi_] - entropy_at_half_p(theta))
                )

    zero_points = np.argwhere(hs2_values <= 1e-10)
    hs2_zero_unique = zero_points.shape[0] == 1 and tuple(zero_points[0]) == center
    others = hs2_values.copy()
    others[center] = 1.0
    hs2_positive_elsewhere = float(others.min()) > 1e-6
    ed_max_at_center = np.unravel_index(np.argmax(ed_values), ed_values.shape) == center
    entropy_max_at_center = np.unravel_index(np.argmax(entropy_values), entropy_values.shape) == center

    ok = (
        dev_ed <= 1e-10
        and dev_hs2 <= 1e-10
        and dev_eig <= 1e-10
        and dev_entropy <= 1e-10
        and hs2_zero_unique
        and hs2_positive_elsewhere
        and ed_max_at_center
        and entropy_max_at_center
    )
    _report(
        3,
        "two-qubit analytics",
        ok,
        f"dev ed {dev_ed:.2e}, hs2 {dev_hs2:.2e}, eig {dev_eig:.2e}, entropy {dev_entropy:.2e}, "
        f"hs2 zero unique {hs2_zero_unique}, maxima at (pi/2, 1/2) {ed_max_at_center and entropy_max_at_center}",
    )


def test_criterion_4_topology_formulas():
    worst = 0.0
    for _, graph, formula in TESTBED:
        dist = degree_distribution(graph)
        for theta in THETAS:
            worst = max(worst, abs(formula(theta) - ed_closed_form(dist, theta)))
    quarter = math.pi / 4
    spots = [
        (ed_young_fibonacci(quarter, 3), 17 / 24),
        (ed_binary_tree(quarter, 2), 7 / 12),
        (ed_ffnn(quarter, (3, 4, 4, 2)), 31 / 32),
        (ed_bridged_cycles(quarter, 6, 2), 19 / 24),
    ]
    spot_dev = max(abs(got - want) for got, want in spots)
    ok = worst <= 1e-12 and spot_dev <= 1e-12
    _report(
        4,
        "topology formulas",
        ok,
        f"max formula-vs-distribution dev {worst:.3e}, spot dev {spot_dev:.3e}, tol 1e-12",
    )


def test_criterion_5_asymptotics():
    yf_ok = True
    yf_detail = []
    for n in (50, 100, 200):
        dev = max(abs(ed_young_fibonacci(t, n) - ed_young_fibonacci_limit(t)) for t in THETAS)
        yf_ok = yf_ok and dev <= 10.0 / n
        yf_detail.append(f"N={n}: {dev:.2e} <= {10.0 / n:.2e}")
    btree_dev = max(abs(ed_binary_tree(t, 20) - ed_binary_tree_limit(t)) for t in THETAS)
    ok = yf_ok and btree_dev <= 1e-5
    _report(5, "asymptotics", ok, "; ".join(yf_detail) + f"; btree N=20: {btree_dev:.2e} <= 1e-5")


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(1006)
    graphs = [random_graph(int(rng.integers(2, 11)), rng) for _ in range(200)]
    assert max(g.num_vertices for g in graphs) <= 10
    report = run_verification(graphs, samples=1, seed=1007, tol=1e-10)
    by_name = {c.name: c.max_deviation for c in report.checks}
    ok = (
        by_name["psi independence"] <= 1e-10
        and by_name["orientation flip"] <= 1e-10
        and by_name["vertex relabeling"] <= 1e-10
        and report.passed
    )
    _report(
        6,
        "invariance suite",
        ok,
        f"200 graphs; psi {by_name['psi independence']:.2e}, "
        f"flip {by_name['orientation flip']:.2e}, relabel {by_name['vertex relabeling']:.2e}",
    )


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


def test_criterion_7_figure_data(tmp_path):
    jobs = {
        "fig1_hs2.csv": ["sweep", "--quantity", "hs2", "--theta-steps", "41", "--p-steps", "41"],
        "fig2_entropy.csv": ["sweep", "--quantity", "entropy", "--theta-steps", "41", "--p-steps", "41"],
        "fig3_yf_N3.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "3", "--theta-steps", "33"],
        "fig3_yf_N5.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "5", "--theta-steps", "33"],
        "fig3_yf_N10.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--layers", "10", "--theta-steps", "33"],
        "fig3_yf_limit.csv": ["sweep", "--quantity", "ed", "--topology", "yf", "--limit", "--theta-steps", "33"],
        "fig5_btree_N2.csv": ["sweep", "--quantity", "ed", "--topology", "btree", "--depth", "2", "--theta-steps", "33"],
        "fig5_btree_N4.csv": ["sweep", "--quantity", "ed", "--topology", "btree", "--depth", "4", "--theta-steps", "33"],
        "fig5_btree_limit.csv": ["sweep", "--quantity", "ed", "--topology", "btree", "--limit", "--theta-steps", "33"],
    }
    deterministic = True
    for name, args in jobs.items():
        first = tmp_path / name
        second = tmp_path / ("again_" + name)
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        deterministic = deterministic and first.read_bytes() == second.read_bytes()

    quarter_row = THETA_QUARTER_INDEX
    spots_ok = (
        abs(float(_rows(tmp_path / "fig3_yf_N3.csv")[quarter_row][1]) - 17 / 24) <= 1e-12
        and abs(float(_rows(tmp_path / "fig3_yf_limit.csv")[quarter_row][1]) - 15 / 16) <= 1e-12
        and abs(float(_rows(tmp_path / "fig5_btree_N2.csv")[quarter_row][1]) - 7 / 12) <= 1e-12
        and abs(float(_rows(tmp_path / "fig5_btree_limit.csv")[quarter_row][1]) - 11 / 16) <= 1e-12
    )
    # the layered-network closed form: the degree-distribution variant tracks
    # the oracle, the output-self-exponent variant does not
    dev_degree, dev_variant = ffnn_variant_report((3, 4, 4, 2), gen_ffnn((3, 4, 4, 2)))
    print(
        f"ffnn (3,4,4,2) vs oracle: degree-distribution form {dev_degree:.3e}, "
        f"output-self-exponent form {dev_variant:.3e}"
    )
    typo_ok = dev_degree <= 1e-10 and dev_variant > 1e-3
    ok = deterministic and spots_ok and typo_ok
    _report(
        7,
        "figure data",
        ok,
        f"9 CSVs deterministic {deterministic}, spot values {spots_ok}, "
        f"ffnn forms split {dev_degree:.1e} vs {dev_variant:.1e}",
    )


def _cli_subprocess(args, cwd):
    # The child runs in a tmp cwd, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) resolves to nothing; put the directory holding the
    # graphent package under test first on its path, by absolute name.
    env = dict(os.environ)
    package_root = str(Path(graphent.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "graphent", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )


def test_criterion_8_determinism(tmp_path):
    runs = {
        "gen": ["gen", "--topology", "yf", "--layers", "5", "--out", "graph.json"],
        "sweep": [
            "sweep", "--quantity", "ed-general", "--topology", "bridged", "--cycles", "3,4,3",
            "--theta-steps", "17", "--p-steps", "9", "--out", "sweep.csv",
        ],
        "verify": ["verify", "--topology", "btree", "--depth", "3", "--samples", "5", "--seed", "42"],
    }
    identical = True
    for label, args in runs.items():
        dirs = []
        outputs = []
        for tag in ("a", "b"):
            cwd = tmp_path / f"{label}_{tag}"
            cwd.mkdir()
            result = _cli_subprocess(args, cwd)
            assert result.returncode == 0, result.stderr.decode()
            outputs.append(result.stdout)
            dirs.append(cwd)
        identical = identical and outputs[0] == outputs[1]
        for produced in dirs[0].iterdir():
            twin = dirs[1] / produced.name
            identical = identical and twin.exists() and produced.read_bytes() == twin.read_bytes()
    _report(8, "determinism", identical, "byte-identical stdout and files for gen/sweep/verify")
