import math

import numpy as np
import pytest

import graphent.entanglement
from graphent.graphs import DirectedGraph, gen_bridged_cycles, gen_full_binary_tree, random_graph
from graphent.verify import CHECK_ORDER, ffnn_variant_report, run_verification


def small_graph_set():
    rng = np.random.default_rng(11)
    return [
        DirectedGraph(2, [(0, 1)]),
        gen_full_binary_tree(3),
        gen_bridged_cycles((3, 3)),
        random_graph(6, rng),
    ]


def test_verification_passes_on_seeded_set():
    report = run_verification(small_graph_set(), samples=5, seed=42, tol=1e-10)
    assert report.passed
    assert [c.name for c in report.checks] == list(CHECK_ORDER)
    for check in report.checks:
        assert check.max_deviation <= 1e-10


def test_report_is_deterministic():
    a = run_verification(small_graph_set(), samples=4, seed=7, tol=1e-10)
    b = run_verification(small_graph_set(), samples=4, seed=7, tol=1e-10)
    assert a.format_table() == b.format_table()


def test_corrupted_closed_form_is_caught(monkeypatch):
    # harness sanity: a wrong closed form must trip the oracle check
    def corrupted(dist, theta):
        return 0.123

    monkeypatch.setattr(graphent.entanglement, "ed_closed_form", corrupted)
    report = run_verification([gen_full_binary_tree(3)], samples=3, seed=1, tol=1e-10)
    assert not report.passed
    by_name = {c.name: c.max_deviation for c in report.checks}
    assert by_name["closed-form oracle"] > 1e-10
    assert "FAIL" in report.format_table()


def test_nan_deviation_fails(monkeypatch):
    monkeypatch.setattr(graphent.entanglement, "ed_closed_form", lambda dist, theta: math.nan)
    report = run_verification([gen_full_binary_tree(2)], samples=2, seed=0, tol=1e-10)
    assert not report.passed
    assert math.isnan(report.checks[0].max_deviation)
    assert report.format_table().splitlines()[1].endswith("nan  FAIL")


def test_table_format():
    report = run_verification([DirectedGraph(2, [(0, 1)])], samples=2, seed=0, tol=1e-10)
    table = report.format_table()
    lines = table.splitlines()
    assert lines[0].startswith("check")
    assert len(lines) == len(CHECK_ORDER) + 2
    assert lines[-1].startswith("result: PASS")


def test_samples_validated():
    with pytest.raises(ValueError):
        run_verification([DirectedGraph(2, [(0, 1)])], samples=0, seed=0, tol=1e-10)
    with pytest.raises(ValueError):
        run_verification([], samples=1, seed=0, tol=1e-10)


def test_samples_counted_and_unsampled_check_skipped():
    graphs = [DirectedGraph(3, []), DirectedGraph(2, [(0, 1)])]
    report = run_verification(graphs, samples=3, seed=0, tol=1e-10)
    assert {c.name: c.samples for c in report.checks} == {
        "closed-form oracle": 6,
        "general-closed oracle": 6,
        "psi independence": 6,
        "orientation flip": 3,  # only the graph with an edge has one to flip
        "vertex relabeling": 6,
    }
    report = run_verification([DirectedGraph(3, [])], samples=2, seed=0, tol=1e-10)
    flip = report.format_table().splitlines()[1 + CHECK_ORDER.index("orientation flip")]
    assert flip.startswith("orientation flip") and flip.endswith("  skipped")
    assert report.passed
    assert report.format_table().count("  pass") == len(CHECK_ORDER) - 1


def test_ffnn_variant_report_separates_the_forms():
    dev_degree, dev_variant = ffnn_variant_report((3, 4, 4, 2))
    assert dev_degree <= 1e-10
    assert dev_variant > 1e-3
