import cmath
import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphent import entanglement, statevector
from graphent.cli import main
from graphent.entanglement import ed_numeric, ed_numeric_rows
from graphent.graphs import DirectedGraph, flip_edge, gen_young_fibonacci, random_graph
from graphent.statevector import (
    InitialQubit,
    InteractionParams,
    PureState,
    build_graph_state,
    build_graph_state_rows,
    pauli_vector_rows,
    pauli_vectors,
    product_state,
)

from helpers import angles, dense_graph_state, dense_pauli_expectations, directed_graphs, probabilities

BALANCED = InitialQubit()


# ----------------------------------------------------------------------
# parameter types
# ----------------------------------------------------------------------

def test_initial_qubit_amplitudes():
    q = InitialQubit(p=0.25, delta0=0.0, delta1=math.pi / 2)
    assert q.alpha0 == pytest.approx(math.sqrt(0.75))
    assert q.alpha1 == pytest.approx(0.5j)


def test_initial_qubit_amplitudes_are_computed_once():
    # A batch reads each row's amplitudes; they are kept on the instance,
    # outside equality, hashing and repr.
    q = InitialQubit(0.3, 0.1, -0.2)
    a0, a1 = q.alpha0, q.alpha1
    assert q.alpha0 is a0 and q.alpha1 is a1
    assert a0 == math.sqrt(1.0 - 0.3) * cmath.exp(0.1j) and a1 == math.sqrt(0.3) * cmath.exp(-0.2j)
    fresh = InitialQubit(0.3, 0.1, -0.2)
    assert q == fresh and hash(q) == hash(fresh) and repr(q) == repr(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.p = 0.5


def test_initial_qubit_rejects_bad_p():
    with pytest.raises(ValueError):
        InitialQubit(p=1.5)


@pytest.mark.parametrize("d0, d1", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_initial_qubit_rejects_nonfinite_phases(d0, d1):
    with pytest.raises(ValueError, match="phases must be finite"):
        InitialQubit(0.5, d0, d1)


@pytest.mark.parametrize("p", ["0.5", None, True, False, np.True_, 1j])
def test_initial_qubit_rejects_non_real_p(p):
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got "):
        InitialQubit(p)


@pytest.mark.parametrize("p", [np.float64(0.3), np.float32(0.25), np.int64(1), 0])
def test_initial_qubit_accepts_real_numbers(p):
    assert InitialQubit(p).alpha1 == pytest.approx(math.sqrt(p))


def test_interaction_params_reject_nonfinite():
    with pytest.raises(ValueError):
        InteractionParams(math.nan)


def test_pure_state_shape_checked():
    with pytest.raises(ValueError):
        PureState(2, np.ones(3))
    assert PureState(np.int64(1), [1, 0]).num_qubits == 1


@pytest.mark.parametrize("m", [1.0, True, "1"])
def test_pure_state_refuses_a_qubit_count_that_is_no_integer(m):
    with pytest.raises(ValueError, match=f"^num_qubits {m!r} is not an integer$"):
        PureState(m, [1, 0])


@pytest.mark.parametrize("m", [20000, 63, -1])
def test_pure_state_refuses_a_count_past_its_amplitudes_without_forming_it(m):
    # 2^20000 has 6021 digits, past Python's 4300-digit limit for str(int).
    with pytest.raises(ValueError, match=rf"^expected 2\^{m} amplitudes for {m} qubits, got shape \(2,\)$"):
        PureState(m, np.zeros(2))


# ----------------------------------------------------------------------
# product states
# ----------------------------------------------------------------------

def test_product_state_basis():
    assert np.allclose(product_state(1, InitialQubit(p=0.0)).amplitudes, [1, 0])


def test_product_state_balanced():
    s = product_state(1)
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_product_state_two_qubits():
    assert np.allclose(product_state(2).amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_product_state_bit_convention():
    # qubit 0 is the least significant bit: |1>_0 |0>_1 sits at index 1
    s = product_state(2, InitialQubit(p=0.25))
    a0, a1 = math.sqrt(0.75), math.sqrt(0.25)
    assert np.allclose(s.amplitudes, [a0 * a0, a1 * a0, a0 * a1, a1 * a1])


@pytest.mark.parametrize("num_qubits", [0, 2.0])
def test_product_state_needs_an_integer_qubit_count(num_qubits):
    with pytest.raises(ValueError, match="^num_vertices "):
        product_state(num_qubits)


def test_qubit_cap_enforced(capsys):
    # The cap is the CLI's --max-qubits: the library takes none, and the CLI
    # refuses the first qubit count past it.
    assert product_state(6).num_qubits == 6
    argv = ["ed", "--topology", "yf", "--layers", "3", "--theta", "0.5", "--method", "simulate"]
    assert main([*argv, "--max-qubits", "6"]) == 0
    assert main([*argv, "--max-qubits", "5"]) == 2
    assert capsys.readouterr().err == (
        "error: 6 qubits exceeds the configured cap of 5 (2^6 amplitudes); "
        "raise the cap explicitly to proceed\n"
    )


def test_memory_estimate_above_default_cap(monkeypatch):
    # The default cap is lowered and the probe replaced, so no large state is allocated.
    probed = []
    monkeypatch.setattr(statevector, "DEFAULT_MAX_QUBITS", 3)
    monkeypatch.setattr(statevector, "_available_bytes", lambda: probed.append(1) or 271)
    assert product_state(3).num_qubits == 3
    assert probed == []  # at or below the default cap there is no probe
    with pytest.raises(ValueError, match="^4 qubits need about 272 bytes to build, but only 271 bytes"):
        product_state(4)
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 272)
    assert product_state(4).num_qubits == 4
    monkeypatch.setattr(statevector, "_available_bytes", lambda: None)  # unreadable: no check
    assert product_state(5).num_qubits == 5
    # A batch needs the bytes of all its rows.
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 543)
    rows = [(DirectedGraph(4, []), BALANCED, InteractionParams(0.0))] * 2
    with pytest.raises(ValueError, match="^4 qubits need about 544 bytes to build"):
        build_graph_state_rows(rows)
    assert build_graph_state_rows(rows[:1]).shape == (1, 16)
    # So is a batch of rows at the default cap, once it holds more amplitudes than one such row.
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 271)
    rows = [(DirectedGraph(3, []), BALANCED, InteractionParams(0.0))] * 2
    with pytest.raises(ValueError, match="^3 qubits need about 272 bytes to build, but only 271 bytes"):
        build_graph_state_rows(rows)


@pytest.mark.parametrize("available", [2**40, None], ids=["probed", "unreadable"])
@pytest.mark.parametrize("m", [70, 20000])
def test_build_refuses_63_qubits_or_more_before_the_probe(monkeypatch, m, available):
    # 17 * 2^20000 bytes has more digits than str(int) writes, and with the
    # probe unreadable nothing else would stand before np.empty.
    probed = []
    monkeypatch.setattr(statevector, "_available_bytes", lambda: probed.append(1) or available)
    message = rf"^{m} qubits need 2\^{m} amplitudes, more than any array holds$"
    with pytest.raises(ValueError, match=message):
        product_state(m)
    with pytest.raises(ValueError, match=message):
        ed_numeric_rows([(DirectedGraph(m, [(0, 1)]), BALANCED, InteractionParams(0.3))] * 3)
    assert probed == []


@pytest.mark.parametrize(
    "text, expected",
    [
        ("MemTotal:       8000 kB\nMemAvailable:    2048 kB\n", 2048 * 1024),
        ("MemTotal:       8000 kB\n", None),
        ("MemAvailable:    lots kB\n", None),
        ("MemAvailable:\n", None),
        (None, None),  # no such file
    ],
)
def test_available_bytes_probe(tmp_path, text, expected):
    path = tmp_path / "meminfo"
    if text is not None:
        path.write_text(text)
    assert statevector._available_bytes(str(path)) == expected


def _input_product(m, qubit):
    """Pi_i alpha_{bit_i(x)} for every index x, multiplied out in plain Python."""
    alpha = (qubit.alpha0, qubit.alpha1)
    amps = []
    for x in range(2**m):
        amp = 1.0
        for i in range(m):
            amp *= alpha[x >> i & 1]
        amps.append(amp)
    return np.array(amps)


def test_product_state_matches_per_index_product():
    qubit = InitialQubit(0.3, 0.8, -2.4)
    expected = _input_product(10, qubit)
    amps = product_state(10, qubit).amplitudes
    assert np.max(np.abs(amps - expected) / np.abs(expected)) <= 1e-15


@given(st.integers(1, 8), probabilities, angles, angles)
def test_product_state_normalized(m, p, d0, d1):
    s = product_state(m, InitialQubit(p, d0, d1))
    assert s.norm_error < 1e-12


# ----------------------------------------------------------------------
# graph states
# ----------------------------------------------------------------------

def test_empty_graph_is_product_state():
    g = DirectedGraph(3, [])
    s = build_graph_state(g, BALANCED, InteractionParams(1.1, 0.3))
    assert np.array_equal(s.amplitudes, product_state(3).amplitudes)


def test_single_edge_amplitudes():
    # edge (1, 0): control on bit 1, target on bit 0
    g = DirectedGraph(2, [(1, 0)])
    product = product_state(2).amplitudes
    for theta, psi in [(math.pi / 2, 0.0), (1.2, 0.7)]:
        s = build_graph_state(g, BALANCED, InteractionParams(theta, psi))
        # control 0 (|00>, |01>): untouched, bit for bit
        assert np.array_equal(s.amplitudes[:2], product[:2])
        # control 1: e^{-i psi} e^{+i theta} on target 0, e^{-i psi} e^{-i theta} on target 1
        expected = [0.5 * cmath.exp(1j * (theta - psi)), 0.5 * cmath.exp(-1j * (theta + psi))]
        assert np.allclose(s.amplitudes[2:], expected, rtol=0, atol=1e-15)


def test_edge_order_irrelevant():
    edges = [(0, 1), (1, 2)]
    g1 = DirectedGraph(3, edges)
    g2 = DirectedGraph(3, edges[::-1])
    params = InteractionParams(0.9, -0.4)
    s1 = build_graph_state(g1, BALANCED, params)
    s2 = build_graph_state(g2, BALANCED, params)
    assert np.max(np.abs(s1.amplitudes - s2.amplitudes)) <= 1e-12


# In a randomly oriented K_7 every qubit has all its lower-numbered neighbours, so
# every entry of the pair-phase table is gathered; a single vertex has no edges.
@settings(max_examples=40, deadline=None)
@given(directed_graphs(max_vertices=5), angles, angles, probabilities, angles, angles, st.randoms(use_true_random=False))
@example(random_graph(7, np.random.default_rng(7), edge_prob=1.0), 1.3, -0.6, 0.35, 0.4, -2.1, random.Random(7))
@example(DirectedGraph(1, []), 1.3, -0.6, 0.35, 0.4, -2.1, random.Random(1))
def test_matches_dense_reference_and_order_stable(g, theta, psi, p, d0, d1, rnd):
    qubit = InitialQubit(p, d0, d1)
    params = InteractionParams(theta, psi)
    state = build_graph_state(g, qubit, params)
    assert state.norm_error <= 1e-12
    reference = dense_graph_state(g, theta, psi, p, d0, d1)
    assert np.max(np.abs(state.amplitudes - reference)) <= 1e-12
    shuffled = list(g.edges)
    rnd.shuffle(shuffled)
    again = build_graph_state(DirectedGraph(g.num_vertices, shuffled), qubit, params)
    assert np.max(np.abs(state.amplitudes - again.amplitudes)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_phase_kernel_matches_edge_definition_at_12_qubits(seed):
    # Beyond the dense reference's reach: each index's input product and phase
    # are built qubit by qubit and edge by edge in plain Python.  p = 1/2 gives
    # every amplitude modulus 2^-6, so one absolute tolerance bounds the phase
    # error of every index alike.
    rng = np.random.default_rng(seed)
    g = random_graph(12, rng, edge_prob=0.5)
    theta, psi, d0, d1 = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
    qubit = InitialQubit(0.5, d0, d1)
    state = build_graph_state(g, qubit, InteractionParams(theta, psi))
    phase = []
    for x in range(2**12):
        total = 0.0
        for a, b in g.edges:
            if x >> a & 1:  # control set: theta - psi, less 2*theta if the target is set
                total += theta - psi - 2 * theta * (x >> b & 1)
        phase.append(total)
    expected = _input_product(12, qubit) * np.exp(1j * np.array(phase))
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-14


@pytest.mark.parametrize("seed", range(2))
def test_phase_kernel_matches_edge_definition_at_14_qubits(seed):
    # Steps past 2^11 amplitudes read the pair phases from a low-bit and a
    # high-bit table; the edges (11, 13) and (12, 13) make the high bits of
    # qubit 13's neighbour mask count.  Each edge's phase is added for every
    # index at once, straight from the edge definition.
    m = 14
    rng = np.random.default_rng(100 + seed)
    g = random_graph(m, rng, edge_prob=0.5)
    edges = {tuple(sorted(e)) for e in g.edges}
    g = DirectedGraph(m, [*g.edges, *((a, 13) for a in (11, 12) if (a, 13) not in edges)])
    theta, psi, d0, d1 = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
    qubit = InitialQubit(0.5, d0, d1)
    state = build_graph_state(g, qubit, InteractionParams(theta, psi))
    x = np.arange(2**m)
    phase = np.zeros(2**m)
    for a, b in g.edges:
        phase += (x >> a & 1) * (theta - psi - 2 * theta * (x >> b & 1))
    expected = _input_product(m, qubit) * np.exp(1j * phase)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-14


# ----------------------------------------------------------------------
# Pauli expectations
# ----------------------------------------------------------------------

def test_plus_state_points_along_x():
    for m in (1, 3):  # one qubit has no block pass, only its neighbour pairs
        vectors = pauli_vectors(product_state(m))
        assert vectors.shape == (m, 3)
        assert np.allclose(vectors, [[1.0, 0.0, 0.0]] * m, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(directed_graphs(max_vertices=5), angles, angles, probabilities, angles, angles)
def test_sigma_z_is_one_minus_two_p(g, theta, psi, p, d0, d1):
    # holds whatever the graph, angles, and input phases
    state = build_graph_state(g, InitialQubit(p, d0, d1), InteractionParams(theta, psi))
    vectors = pauli_vectors(state)
    assert np.allclose(vectors[:, 2], 1 - 2 * p, rtol=0, atol=1e-10)
    assert np.all(np.abs(vectors) <= 1 + 1e-12)


def test_maximally_entangled_pair_has_zero_vector():
    g = DirectedGraph(2, [(0, 1)])
    state = build_graph_state(g, BALANCED, InteractionParams(math.pi / 2))
    assert np.all(np.linalg.norm(pauli_vectors(state), axis=1) <= 1e-12)


@settings(max_examples=30, deadline=None)
@given(directed_graphs(max_vertices=5), angles, angles, probabilities, angles, angles)
@example(DirectedGraph(1, ()), 0.7, 0.2, 0.3, 0.4, -0.7)
def test_pauli_matches_dense_reference(g, theta, psi, p, d0, d1):
    state = build_graph_state(g, InitialQubit(p, d0, d1), InteractionParams(theta, psi))
    reference = dense_graph_state(g, theta, psi, p, d0, d1)
    vectors = pauli_vectors(state)
    for i in range(g.num_vertices):
        assert np.allclose(
            vectors[i], dense_pauli_expectations(reference, i, g.num_vertices), atol=1e-11
        )


def test_flip_edge_preserves_vector_norms():
    # the norm of each vertex's Pauli vector only sees the total degree;
    # x/y components individually may move.
    g = gen_young_fibonacci(3)
    params = InteractionParams(0.8, 0.5)
    norms = np.linalg.norm(pauli_vectors(build_graph_state(g, BALANCED, params)), axis=1)
    for edge_index in range(g.num_edges):
        flipped = build_graph_state(flip_edge(g, edge_index), BALANCED, params)
        after = np.linalg.norm(pauli_vectors(flipped), axis=1)
        assert np.allclose(after**2, norms**2, rtol=0, atol=1e-10)


def test_pauli_vectors_copy_no_state_half():
    # The amplitudes are read in place: the probability buffer (half the
    # state's bytes) is the largest allocation, where copying both halves
    # would reach the state's full size.
    m = 16
    g = random_graph(m, np.random.default_rng(7), edge_prob=0.3)
    state = build_graph_state(g, BALANCED, InteractionParams(0.9, 0.4))
    tracemalloc.start()
    try:
        pauli_vectors(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 16 * 2**m


def _pauli_reference(amps):
    """Each qubit's (<sx>, <sy>, <sz>) from copies of the halves where its bit
    is clear and set: one np.vdot and two sums of |a|^2."""
    m = amps.size.bit_length() - 1
    vectors = []
    for i in range(m):
        halves = amps.reshape(-1, 2, 1 << i)
        lo, hi = halves[:, 0].copy(), halves[:, 1].copy()
        cross = np.vdot(lo, hi)
        vectors.append((2 * cross.real, 2 * cross.imag, np.sum(np.abs(lo) ** 2) - np.sum(np.abs(hi) ** 2)))
    return np.array(vectors)


def _large_rows(m, count):
    rng = np.random.default_rng(m)
    return build_graph_state_rows([
        (
            random_graph(m, rng, edge_prob=0.3),
            InitialQubit(rng.uniform(0.0, 1.0), *rng.uniform(-math.pi, math.pi, 2)),
            InteractionParams(*rng.uniform(-math.pi, math.pi, 2)),
        )
        for _ in range(count)
    ])


# 2^17 amplitudes per row take the probability fold, 2^18 the Gram read.
@pytest.mark.parametrize("m", [17, 18])
@pytest.mark.parametrize("count", [1, 2])
def test_large_rows_match_copied_halves(m, count):
    states = _large_rows(m, count)
    vectors = pauli_vector_rows(states)
    for r in range(count):
        assert np.max(np.abs(vectors[r] - _pauli_reference(states[r]))) <= 1e-13
    assert np.array_equal(vectors[0], pauli_vectors(PureState(m, states[0])))
    strided = np.stack([states[0], states[0]], axis=1)[:, 0]  # not contiguous
    assert np.max(np.abs(pauli_vectors(PureState(m, strided)) - vectors[0])) <= 1e-13


@pytest.mark.parametrize("m", [17, 18])
def test_large_rows_refuse_one_unnormalized_row(m):
    states = _large_rows(m, 2)
    states[1] *= 1.01
    with pytest.raises(ValueError, match="^state not normalized: norm error 2.01"):
        pauli_vector_rows(states)
    states[1] /= 1.01
    states[0, 12345] = math.nan
    with pytest.raises(ValueError, match="^state not normalized: norm error nan"):
        pauli_vector_rows(states)


def test_large_state_memory_peaks():
    # From 2^18 amplitudes on neither pass allocates anything near the state's
    # size: the build writes the state through views of itself, and the Pauli
    # pass reads it through a Gram matrix and block dots.
    m = 18
    g = random_graph(m, np.random.default_rng(11), edge_prob=0.3)
    state_bytes = 16 * 2**m
    tracemalloc.start()
    try:
        state = build_graph_state(g, InitialQubit(0.3, 0.4, -1.2), InteractionParams(0.9, 0.4))
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pauli_vectors(state)
        pauli_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak < 1.1 * state_bytes
    assert pauli_peak < 0.1 * state_bytes


# ----------------------------------------------------------------------
# rows: many states of one qubit count in one call
# ----------------------------------------------------------------------

def _mixed_rows():
    """(graph, qubit, params) rows: different graphs of 7 vertices, the
    edgeless one among them, with p in {0, 1/2, 1} and random p, input
    phases and angles."""
    m = 7
    rng = np.random.default_rng(3)
    graphs = [random_graph(m, rng, edge_prob=q) for q in (0.2, 0.5, 1.0, 0.7, 0.4)]
    graphs.append(DirectedGraph(m, []))
    graphs.append(flip_edge(graphs[1], 0))
    ps = [0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, len(graphs) - 3)]
    qubits = [InitialQubit(p, *rng.uniform(-math.pi, math.pi, 2)) for p in ps]
    params = [InteractionParams(*rng.uniform(-math.pi, math.pi, 2)) for _ in graphs]
    return list(zip(graphs, qubits, params))


def test_rows_equal_their_one_row_calls_bit_for_bit():
    rows = _mixed_rows()
    states = build_graph_state_rows(rows)
    vectors = pauli_vector_rows(states)
    totals = ed_numeric_rows(rows)
    assert states.shape == (len(rows), 2**7) and vectors.shape == (len(rows), 7, 3)
    assert totals.shape == (len(rows),)
    for r, row in enumerate(rows):
        state = build_graph_state(*row)
        assert np.array_equal(states[r], state.amplitudes)
        assert np.array_equal(vectors[r], pauli_vectors(state))
        assert totals[r] == ed_numeric(PureState(7, states[r])).total


def test_oracle_rows_span_batches_bit_for_bit(monkeypatch):
    # 2^15 amplitudes hold 8 states of 12 qubits, so 20 rows take three
    # batches, the last one short; each total is its one-row call's.
    m = 12
    rng = np.random.default_rng(13)
    rows = [
        (
            random_graph(m, rng, edge_prob=rng.uniform(0.0, 0.6)),
            InitialQubit(p, *rng.uniform(-math.pi, math.pi, 2)),
            InteractionParams(*rng.uniform(-math.pi, math.pi, 2)),
        )
        for p in [0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, 17)]
    ]
    batches = []

    def build(batch, **kwargs):
        batches.append(len(batch))
        return build_graph_state_rows(batch, **kwargs)

    monkeypatch.setattr(entanglement, "build_graph_state_rows", build)
    totals = ed_numeric_rows(rows)
    assert batches == [8, 8, 4]
    assert totals.tolist() == [ed_numeric(build_graph_state(*row)).total for row in rows]
    assert ed_numeric_rows([]).shape == (0,) and batches == [8, 8, 4]


def test_rows_refuse_one_unnormalized_row():
    states = build_graph_state_rows(_mixed_rows())
    states[4] *= 1.001
    with pytest.raises(ValueError, match="^state not normalized: norm error 2.00"):
        pauli_vector_rows(states)
    states[4] /= 1.001
    states[2, 5] = math.nan
    with pytest.raises(ValueError, match="^state not normalized: norm error nan"):
        pauli_vector_rows(states)


def test_rows_share_one_vertex_count():
    rows = _mixed_rows()
    with pytest.raises(ValueError, match=r"^rows must share one vertex count, got \[3, 7\]"):
        build_graph_state_rows([*rows[:2], (DirectedGraph(3, []), *rows[2][1:])])
    with pytest.raises(ValueError, match="^need at least one row"):
        build_graph_state_rows([])
    with pytest.raises(ValueError, match="^expected 2"):
        pauli_vector_rows(np.ones((2, 6)))
