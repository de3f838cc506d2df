import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import graphent.entanglement
import graphent.statevector
from graphent import verify
from graphent.entanglement import (
    ed_closed_form,
    ed_closed_form_rows,
    ed_closed_general,
    ed_ffnn,
    ed_ffnn_output_self_exponent,
)
from graphent.graphs import (
    DirectedGraph,
    degree_distribution,
    flip_edge,
    gen_bridged_cycles,
    gen_ffnn,
    gen_full_binary_tree,
    permute_vertices,
    random_graph,
)
from graphent.statevector import StateRows, build_graph_state, ed_numeric
from graphent.verify import CHECK_ORDER, ffnn_variant_report, run_verification

from helpers import directed_graphs


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
    def corrupted(dists, theta):
        return np.full(theta.shape, 0.123)

    monkeypatch.setattr(graphent.entanglement, "ed_closed_form_rows", corrupted)
    report = run_verification([gen_full_binary_tree(3)], samples=3, seed=1, tol=1e-10)
    assert not report.passed
    by_name = {c.name: c.max_deviation for c in report.checks}
    assert by_name["closed-form oracle"] > 1e-10
    assert "FAIL" in report.format_table()


def test_nan_deviation_fails(monkeypatch):
    monkeypatch.setattr(graphent.entanglement, "ed_closed_form_rows", lambda dists, theta: np.full(theta.shape, math.nan))
    report = run_verification([gen_full_binary_tree(2)], samples=2, seed=0, tol=1e-10)
    assert not report.passed
    assert math.isnan(report.checks[0].max_deviation)
    assert report.format_table().splitlines()[1].endswith("nan  FAIL")
    # A NaN on a later graph, after finite deviations, still sticks: Python's
    # max or np.nanmax would drop it.
    monkeypatch.setattr(
        graphent.entanglement,
        "ed_closed_form_rows",
        lambda dists, theta: np.where(
            [[d.num_vertices == 7] for d in dists], math.nan, ed_closed_form_rows(dists, theta)
        ),
    )
    graphs = [gen_full_binary_tree(2), gen_full_binary_tree(3)]
    report = run_verification(graphs, samples=2, seed=0, tol=1e-10)
    assert not report.passed and report.checks[0].samples == 4
    assert math.isnan(report.checks[0].max_deviation)
    assert report.format_table().splitlines()[1].endswith("nan  FAIL")
    assert all(c.max_deviation <= 1e-10 for c in report.checks[1:])


def test_raw_draws_keep_the_uniform_stream_bit_for_bit():
    # Each sample draws ten raw doubles, mapped once per op as numpy's
    # uniform(low, high) maps its own: low + (high - low) * u.  A numpy build
    # that fused that multiply-add would fail here, where the pinned stdouts
    # might not.  10^4 samples, interleaved with the flip and relabelling
    # draws as run_verification makes them, against one uniform call each.
    rng = np.random.default_rng(34)
    graphs = [random_graph(int(m), rng, 0.4) for m in rng.integers(2, 13, 20)]
    graphs.append(DirectedGraph(3, []))  # no flip draw on an edgeless graph
    samples = 500
    drawn, reference = np.random.default_rng(7), np.random.default_rng(7)
    values, flips, perms = verify._draws(graphs, samples, drawn)
    for g, draws, flipped, perm in zip(graphs, values, flips, perms):
        for s in range(samples):
            uniform = reference.uniform(verify._LOW, verify._HIGH)
            assert np.array_equal(draws[s].view(np.int64), uniform.view(np.int64)), (g, s)
            assert flipped[s] == (reference.integers(g.num_edges) if g.num_edges else 0)
            assert np.array_equal(perm[s], reference.permutation(g.num_vertices))
    # Both generators end in the same state: no draw was added or dropped.
    assert drawn.bit_generator.state == reference.bit_generator.state


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
    dev_degree, dev_variant = ffnn_variant_report((3, 4, 4, 2), gen_ffnn((3, 4, 4, 2)))
    assert dev_degree <= 1e-10
    assert dev_variant > 1e-3


def _one_state_at_a_time(graphs, samples, seed):
    """The harness as one build per oracle call, each ED taken as soon as its
    parameters are drawn: the reference for the draw order and the records."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(CHECK_ORDER, 0.0)
    ran = dict.fromkeys(CHECK_ORDER, 0)

    def record(name, deviation):
        if deviation > worst[name] or math.isnan(deviation):
            worst[name] = deviation
        ran[name] += 1

    def oracle(graph, **values):
        return ed_numeric(build_graph_state(graph, **values)).total

    for g in graphs:
        dist = degree_distribution(g)
        for _ in range(samples):
            theta, psi = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
            base = oracle(g, theta=theta, psi=psi)
            record("closed-form oracle", abs(base - ed_closed_form(dist, theta)))
            p, theta_g = rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi)
            psi_g = rng.uniform(-math.pi, math.pi)
            delta0, delta1 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            numeric_g = oracle(g, theta=theta_g, psi=psi_g, p=p, delta0=delta0, delta1=delta1)
            record("general-closed oracle", abs(numeric_g - ed_closed_general(dist, p, theta_g)))
            values = [base]
            for _ in range(3):
                values.append(oracle(g, theta=theta, psi=rng.uniform(-math.pi, math.pi)))
            record("psi independence", max(values) - min(values))
            if g.edges:
                flipped = flip_edge(g, int(rng.integers(len(g.edges))))
                record("orientation flip", abs(base - oracle(flipped, theta=theta, psi=psi)))
            perm = [int(x) for x in rng.permutation(g.num_vertices)]
            relabeled = permute_vertices(g, perm)
            record("vertex relabeling", abs(base - oracle(relabeled, theta=theta, psi=psi)))
    return worst, ran


def test_batches_keep_draw_order_and_sample_counts(monkeypatch):
    # The oracle runs once per qubit count, on the rows of every graph of
    # that count.  2^15 amplitudes hold 8 rows of 12 vertices, so the two
    # 12-vertex graphs' 6 samples of 7 rows each span six batches, samples
    # and the second graph starting inside one; the two 6-vertex graphs of
    # small_graph_set() share one batch.
    rng = np.random.default_rng(5)
    graphs = [random_graph(12, rng, 0.3), DirectedGraph(4, []), *small_graph_set()]
    graphs.append(random_graph(12, rng, 0.5))
    assert graphent.statevector.BATCH_AMPLITUDES >> 12 == 8
    calls = []
    real = verify.ed_numeric_rows
    monkeypatch.setattr(verify, "ed_numeric_rows", lambda rows: calls.append(rows.num_qubits) or real(rows))
    report = run_verification(graphs, samples=3, seed=9, tol=1e-10)
    assert sorted(calls) == [2, 4, 6, 7, 12]
    worst, ran = _one_state_at_a_time(graphs, samples=3, seed=9)
    assert {c.name: c.max_deviation for c in report.checks} == worst
    assert {c.name: c.samples for c in report.checks} == ran
    assert ran == {name: 21 for name in CHECK_ORDER} | {"orientation flip": 18}
    assert report.passed


def test_ffnn_variant_report_matches_one_build_per_theta():
    sizes = (3, 4, 4, 2)
    g = gen_ffnn(sizes)
    thetas = verify.FFNN_THETAS
    eds = [
        ed_numeric(build_graph_state(g, theta=t, psi=verify.FFNN_PSI)).total
        for t in thetas
    ]
    dev_degree = max(abs(e - ed_ffnn(t, sizes)) for e, t in zip(eds, thetas))
    dev_variant = max(abs(e - ed_ffnn_output_self_exponent(t, sizes)) for e, t in zip(eds, thetas))
    assert ffnn_variant_report(sizes, g) == (dev_degree, dev_variant)


@given(directed_graphs(max_vertices=8), st.integers(0, 2**32 - 1))
def test_flipped_and_relabelled_rows_pass_the_row_check(g, seed):
    # verify writes each sample's flip and relabelling straight into the
    # edge array; StateRows checks every row as a graph, and these pass.
    rng = np.random.default_rng(seed)
    samples = 3
    values = rng.uniform(0.0, 1.0, (samples, 10))
    flips = rng.integers(max(g.num_edges, 1), size=samples)
    perms = np.array([rng.permutation(g.num_vertices) for _ in range(samples)])
    rows = StateRows(g.num_vertices, *verify._sample_rows([g], values[None], flips[None], perms[None]))
    assert len(rows) == samples * 7
