import cmath
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphent import statevector
from graphent.cli import main
from graphent.graphs import DirectedGraph, flip_edge, gen_young_fibonacci, random_graph
from graphent.statevector import (
    StateRows,
    build_graph_state,
    build_graph_state_rows,
    ed_numeric,
    ed_numeric_rows,
    pauli_vector_rows,
    pauli_vectors,
    product_state,
)

from helpers import (
    angles, clifford_amplitudes, dense_graph_state, dense_pauli_expectations, directed_graphs, probabilities,
)


# ----------------------------------------------------------------------
# inputs: the input qubit (p, delta0, delta1), the angles (theta, psi) and
# a pure state's 2^M amplitudes, all plain values
# ----------------------------------------------------------------------

def test_initial_qubit_amplitudes():
    state = product_state(1, p=0.25, delta1=math.pi / 2)
    assert state == pytest.approx([math.sqrt(0.75), 0.5j])


def test_initial_qubit_rejects_bad_p():
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got 1.5$"):
        product_state(1, p=1.5)


@pytest.mark.parametrize("d0, d1", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_initial_qubit_rejects_nonfinite_phases(d0, d1):
    with pytest.raises(ValueError, match="phases must be finite"):
        product_state(1, delta0=d0, delta1=d1)


@pytest.mark.parametrize("p", ["0.5", None, True, False, np.True_, 1j])
def test_initial_qubit_rejects_non_real_p(p):
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got "):
        product_state(1, p=p)


@pytest.mark.parametrize("p", [np.float64(0.3), np.float32(0.25), np.int64(1), 0])
def test_initial_qubit_accepts_real_numbers(p):
    assert product_state(1, p=p)[1] == pytest.approx(math.sqrt(p))


def test_interaction_params_reject_nonfinite():
    g = DirectedGraph(2, [(0, 1)])
    with pytest.raises(ValueError, match=r"^angles must be finite, got theta=nan, psi=0.0$"):
        build_graph_state(g, theta=math.nan)
    with pytest.raises(ValueError, match=r"^angles must be finite, got theta=0.3, psi=inf$"):
        build_graph_state(g, theta=0.3, psi=math.inf)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("theta", "psi", "delta0", "delta1") for v in ("1", True, None, 1j)],
)
def test_angles_and_phases_refuse_what_is_no_real_number(field, value):
    # A str or bool angle or phase was read as a float and simulated; each
    # is refused, with None and complex, by its guard, for one row or many.
    message = "angles" if field in ("theta", "psi") else "phases"
    values = {"theta": 0.3, "psi": 0.0, "delta0": 0.0, "delta1": 0.0} | {field: value}
    rows = dict(num_qubits=2, edges=[[0, 1]] * 2, edge_counts=[1, 1])
    with pytest.raises(ValueError, match=rf"^{message} must be finite, got .*{field}={re.escape(repr(value))}"):
        build_graph_state(DirectedGraph(2, [(0, 1)]), **values)
    with pytest.raises(ValueError, match=rf"^{message} must be finite, got .*{field}={re.escape(repr(value))}"):
        StateRows(**rows, **values | {field: [0.1, value]})


@pytest.mark.parametrize("field", ["theta", "psi", "delta0", "delta1"])
def test_ints_past_the_largest_float_are_refused_by_the_guards(field):
    # abs(10**400) < inf holds for a Python int, but no float holds it: the
    # guard refuses it, where converting the row's fields overflowed.
    message = "angles" if field in ("theta", "psi") else "phases"
    values = {"theta": 0.3, "psi": 0.0, "delta0": 0.0, "delta1": 0.0} | {field: 10**400}
    with pytest.raises(ValueError, match=rf"^{message} must be finite, got .*{field}={10**400}"):
        StateRows(2, [[0, 1]], [1], **values)
    with pytest.raises(ValueError, match=rf"^{message} must be finite, got .*{field}={10**400}"):
        StateRows(2, [[0, 1]] * 2, [1, 1], **values | {field: [0.1, 10**400]})


def test_float32_scalar_angles_and_phases_are_read_without_warnings():
    # The int branch of the guard compares no float32 with the largest
    # float, which would overflow the cast (a warning, an error here).
    g = DirectedGraph(2, [(0, 1)])
    as_float32 = dict(theta=np.float32(0.3), psi=np.float32(-0.2), delta0=np.float32(0.1), delta1=np.float32(3e38))
    state = build_graph_state(g, **as_float32)
    assert np.array_equal(state, build_graph_state(g, **{k: float(v) for k, v in as_float32.items()}))


def test_pure_state_shape_checked():
    with pytest.raises(ValueError, match=r"^expected 2\^M amplitudes per row with M >= 1, got shape \(1, 3\)$"):
        pauli_vectors(np.ones(3))
    with pytest.raises(ValueError, match=r"^expected 2\^M amplitudes per row with M >= 1, got shape \(1, 2, 2\)$"):
        pauli_vectors(np.ones((2, 2)) / 2)
    # A list or a real array is read as complex amplitudes.
    assert pauli_vectors([1, 0]).tolist() == [[0.0, 0.0, 1.0]]
    assert ed_numeric(np.array([0.6, 0.8])).total == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("m", [1.0, True, "1"])
def test_pure_state_refuses_a_qubit_count_that_is_no_integer(m):
    with pytest.raises(ValueError, match=f"^num_vertices {m!r} is not an integer$"):
        product_state(m)


@pytest.mark.parametrize("m", [20000, 63, -1])
def test_pure_state_refuses_a_count_past_its_amplitudes_without_forming_it(m):
    # 2^20000 has 6021 digits, past Python's 4300-digit limit for str(int).
    message = "num_vertices must be >= 1, got -1" if m < 1 else rf"{m} qubits need 2\^{m} amplitudes"
    with pytest.raises(ValueError, match=f"^{message}"):
        product_state(m)


# ----------------------------------------------------------------------
# product states
# ----------------------------------------------------------------------

def test_product_state_basis():
    assert np.allclose(product_state(1, p=0.0), [1, 0])


def test_product_state_balanced():
    s = product_state(1)
    assert np.allclose(s, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_product_state_two_qubits():
    assert np.allclose(product_state(2), [0.5, 0.5, 0.5, 0.5])


def test_product_state_bit_convention():
    # qubit 0 is the least significant bit: |1>_0 |0>_1 sits at index 1
    s = product_state(2, p=0.25)
    a0, a1 = math.sqrt(0.75), math.sqrt(0.25)
    assert np.allclose(s, [a0 * a0, a1 * a0, a0 * a1, a1 * a1])


@pytest.mark.parametrize("num_qubits", [0, 2.0])
def test_product_state_needs_an_integer_qubit_count(num_qubits):
    with pytest.raises(ValueError, match="^num_vertices "):
        product_state(num_qubits)


def test_qubit_cap_enforced(capsys):
    # The cap is the CLI's --max-qubits: the library takes none, and the CLI
    # refuses the first qubit count past it.
    assert product_state(6).shape == (2**6,)
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
    assert product_state(3).shape == (2**3,)
    assert probed == []  # at or below the default cap there is no probe
    with pytest.raises(ValueError, match="^4 qubits need about 272 bytes to build, but only 271 bytes"):
        product_state(4)
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 272)
    assert product_state(4).shape == (2**4,)
    monkeypatch.setattr(statevector, "_available_bytes", lambda: None)  # unreadable: no check
    assert product_state(5).shape == (2**5,)
    # A batch needs the bytes of all its rows.
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 543)
    rows = _arrays_of([(DirectedGraph(4, []), dict(theta=0.0))] * 2)
    with pytest.raises(ValueError, match="^4 qubits need about 544 bytes to build"):
        build_graph_state_rows(rows)
    assert build_graph_state_rows(rows[:1]).shape == (1, 16)
    # So is a batch of rows at the default cap, once it holds more amplitudes than one such row.
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 271)
    rows = _arrays_of([(DirectedGraph(3, []), dict(theta=0.0))] * 2)
    with pytest.raises(ValueError, match="^3 qubits need about 272 bytes to build, but only 271 bytes"):
        build_graph_state_rows(rows)


@pytest.mark.parametrize("available", [2**40, None], ids=["probed", "unreadable"])
@pytest.mark.parametrize("m", [70, 20000])
def test_build_refuses_63_qubits_or_more_before_the_probe(monkeypatch, m, available):
    # 17 * 2^20000 bytes has more digits than str(int) writes, and with the
    # probe unreadable nothing else would stand before np.empty.  The rows
    # are refused when made, before their edges are checked.
    probed = []
    monkeypatch.setattr(statevector, "_available_bytes", lambda: probed.append(1) or available)
    message = rf"^{m} qubits need 2\^{m} amplitudes, more than any array holds$"
    with pytest.raises(ValueError, match=message):
        product_state(m)
    with pytest.raises(ValueError, match=message):
        ed_numeric_rows(StateRows(m, np.array([[0, 1]] * 3), [1, 1, 1], 0.3, 0.0))
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


def _input_product(m, p, delta0, delta1):
    """Pi_i alpha_{bit_i(x)} for every index x, multiplied out in plain Python,
    with alpha0 = sqrt(1-p) e^{i delta0} and alpha1 = sqrt(p) e^{i delta1}."""
    alpha = (
        math.sqrt(1.0 - p) * cmath.exp(1j * delta0),
        math.sqrt(p) * cmath.exp(1j * delta1),
    )
    amps = []
    for x in range(2**m):
        amp = 1.0
        for i in range(m):
            amp *= alpha[x >> i & 1]
        amps.append(amp)
    return np.array(amps)


def test_product_state_matches_per_index_product():
    expected = _input_product(10, 0.3, 0.8, -2.4)
    amps = product_state(10, p=0.3, delta0=0.8, delta1=-2.4)
    assert np.max(np.abs(amps - expected) / np.abs(expected)) <= 1e-15


@given(st.integers(1, 8), probabilities, angles, angles)
def test_product_state_normalized(m, p, d0, d1):
    s = product_state(m, p=p, delta0=d0, delta1=d1)
    assert abs(np.vdot(s, s).real - 1.0) < 1e-12


# ----------------------------------------------------------------------
# graph states
# ----------------------------------------------------------------------

def test_empty_graph_is_product_state():
    g = DirectedGraph(3, [])
    s = build_graph_state(g, theta=1.1, psi=0.3)
    assert np.array_equal(s, product_state(3))


def test_single_edge_amplitudes():
    # edge (1, 0): control on bit 1, target on bit 0
    g = DirectedGraph(2, [(1, 0)])
    product = product_state(2)
    for theta, psi in [(math.pi / 2, 0.0), (1.2, 0.7)]:
        s = build_graph_state(g, theta=theta, psi=psi)
        # control 0 (|00>, |01>): untouched, bit for bit
        assert np.array_equal(s[:2], product[:2])
        # control 1: e^{-i psi} e^{+i theta} on target 0, e^{-i psi} e^{-i theta} on target 1
        expected = [0.5 * cmath.exp(1j * (theta - psi)), 0.5 * cmath.exp(-1j * (theta + psi))]
        assert np.allclose(s[2:], expected, rtol=0, atol=1e-15)


def test_edge_order_irrelevant():
    edges = [(0, 1), (1, 2)]
    g1 = DirectedGraph(3, edges)
    g2 = DirectedGraph(3, edges[::-1])
    s1 = build_graph_state(g1, theta=0.9, psi=-0.4)
    s2 = build_graph_state(g2, theta=0.9, psi=-0.4)
    assert np.max(np.abs(s1 - s2)) <= 1e-12


# In a randomly oriented K_7 every qubit has all its lower-numbered neighbours, so
# every entry of the pair-phase table is gathered; a single vertex has no edges.
@settings(max_examples=40, deadline=None)
@given(directed_graphs(max_vertices=5), angles, angles, probabilities, angles, angles, st.randoms(use_true_random=False))
@example(random_graph(7, np.random.default_rng(7), edge_prob=1.0), 1.3, -0.6, 0.35, 0.4, -2.1, random.Random(7))
@example(DirectedGraph(1, []), 1.3, -0.6, 0.35, 0.4, -2.1, random.Random(1))
def test_matches_dense_reference_and_order_stable(g, theta, psi, p, d0, d1, rnd):
    values = dict(theta=theta, psi=psi, p=p, delta0=d0, delta1=d1)
    state = build_graph_state(g, **values)
    assert abs(np.vdot(state, state).real - 1.0) <= 1e-12
    reference = dense_graph_state(g, theta, psi, p, d0, d1)
    assert np.max(np.abs(state - reference)) <= 1e-12
    shuffled = list(g.edges)
    rnd.shuffle(shuffled)
    again = build_graph_state(DirectedGraph(g.num_vertices, shuffled), **values)
    assert np.max(np.abs(state - again)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_phase_kernel_matches_edge_definition_at_12_qubits(seed):
    # Beyond the dense reference's reach: each index's input product and phase
    # are built qubit by qubit and edge by edge in plain Python.  p = 1/2 gives
    # every amplitude modulus 2^-6, so one absolute tolerance bounds the phase
    # error of every index alike.
    rng = np.random.default_rng(seed)
    g = random_graph(12, rng, edge_prob=0.5)
    theta, psi, d0, d1 = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
    state = build_graph_state(g, theta=theta, psi=psi, delta0=d0, delta1=d1)
    phase = []
    for x in range(2**12):
        total = 0.0
        for a, b in g.edges:
            if x >> a & 1:  # control set: theta - psi, less 2*theta if the target is set
                total += theta - psi - 2 * theta * (x >> b & 1)
        phase.append(total)
    expected = _input_product(12, 0.5, d0, d1) * np.exp(1j * np.array(phase))
    assert np.max(np.abs(state - expected)) <= 1e-14


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
    state = build_graph_state(g, theta=theta, psi=psi, delta0=d0, delta1=d1)
    x = np.arange(2**m)
    phase = np.zeros(2**m)
    for a, b in g.edges:
        phase += (x >> a & 1) * (theta - psi - 2 * theta * (x >> b & 1))
    expected = _input_product(m, 0.5, d0, d1) * np.exp(1j * phase)
    assert np.max(np.abs(state - expected)) <= 1e-14


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
    state = build_graph_state(g, theta=theta, psi=psi, p=p, delta0=d0, delta1=d1)
    vectors = pauli_vectors(state)
    assert np.allclose(vectors[:, 2], 1 - 2 * p, rtol=0, atol=1e-10)
    assert np.all(np.abs(vectors) <= 1 + 1e-12)


def test_maximally_entangled_pair_has_zero_vector():
    g = DirectedGraph(2, [(0, 1)])
    state = build_graph_state(g, theta=math.pi / 2)
    assert np.all(np.linalg.norm(pauli_vectors(state), axis=1) <= 1e-12)


@settings(max_examples=30, deadline=None)
@given(directed_graphs(max_vertices=5), angles, angles, probabilities, angles, angles)
@example(DirectedGraph(1, ()), 0.7, 0.2, 0.3, 0.4, -0.7)
def test_pauli_matches_dense_reference(g, theta, psi, p, d0, d1):
    state = build_graph_state(g, theta=theta, psi=psi, p=p, delta0=d0, delta1=d1)
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
    norms = np.linalg.norm(pauli_vectors(build_graph_state(g, theta=0.8, psi=0.5)), axis=1)
    for edge_index in range(g.num_edges):
        flipped = build_graph_state(flip_edge(g, edge_index), theta=0.8, psi=0.5)
        after = np.linalg.norm(pauli_vectors(flipped), axis=1)
        assert np.allclose(after**2, norms**2, rtol=0, atol=1e-10)


def test_pauli_vectors_copy_no_state_half():
    # The amplitudes are read in place: the tile of one chunk of 2^15 (half
    # the state's bytes) is the largest allocation, where copying both
    # halves would reach the state's full size.
    m = 16
    g = random_graph(m, np.random.default_rng(7), edge_prob=0.3)
    state = build_graph_state(g, theta=0.9, psi=0.4)
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
    return build_graph_state_rows(_arrays_of([
        (
            random_graph(m, rng, edge_prob=0.3),
            _random_values(rng, rng.uniform(0.0, 1.0)),
        )
        for _ in range(count)
    ]))


# Below 2^18 amplitudes per row every row is read at once, in chunks of
# 2^min(M, 15) with a (2^(c//2), 2^(c - c//2)) tile: one chunk and a tile of
# (1, 2), (2, 2) or (2, 4) at 1 to 3 qubits, 2, 4 chunks with block dots for
# the qubits >= 15 at 16 and 17.  2^18, 2^20 and 2^22 take the one-row
# chunked read, with chunks of 2^14, 2^16 and 2^16 amplitudes, and the slab
# read of their top 4, 4 and 6 qubits.
@pytest.mark.parametrize(
    "count, m",
    [
        (1, 17), (1, 18), (1, 20), (2, 17), (2, 18), (2, 20), (1, 22),
        (1, 1), (3, 1), (1, 2), (3, 2), (1, 3), (3, 3), (1, 12), (3, 12), (1, 15), (2, 15), (1, 16), (2, 16),
    ],
)
def test_large_rows_match_copied_halves(m, count):
    states = _large_rows(m, count)
    vectors = pauli_vector_rows(states)
    for r in range(count):
        assert np.max(np.abs(vectors[r] - _pauli_reference(states[r]))) <= 1e-13
    assert np.array_equal(vectors[0], pauli_vectors(states[0]))
    strided = np.stack([states[0], states[0]], axis=1)[:, 0]  # not contiguous
    assert np.max(np.abs(pauli_vectors(strided) - vectors[0])) <= 1e-13


@pytest.mark.parametrize("m", [17, 18, 20, 1, 2, 3, 12, 15, 16])
def test_large_rows_refuse_one_unnormalized_row(m):
    states = _large_rows(m, 2)
    states[1] *= 1.01
    with pytest.raises(ValueError, match="^state not normalized: norm error 2.01"):
        pauli_vector_rows(states)
    states[1] /= 1.01
    states[0, 12345 % 2**m] = math.nan
    with pytest.raises(ValueError, match="^state not normalized: norm error nan"):
        pauli_vector_rows(states)


def _assert_memory_peaks(m):
    # From 2^18 amplitudes on neither pass allocates anything near the state's
    # size: the build writes the state through views of itself, and the Pauli
    # pass reads it through one tile and then one slab buffer, each at most
    # 1/16 of the state.
    g = random_graph(m, np.random.default_rng(11), edge_prob=0.3)
    state_bytes = 16 * 2**m
    tracemalloc.start()
    try:
        state = build_graph_state(g, theta=0.9, psi=0.4, p=0.3, delta0=0.4, delta1=-1.2)
        held, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pauli_vectors(state)
        pauli_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert build_peak < 1.1 * state_bytes
    assert pauli_peak < 0.1 * state_bytes


def test_large_state_memory_peaks():
    # 2^18 amplitudes: the chunked read with chunks of 2^14.
    _assert_memory_peaks(18)


def test_large_state_memory_peaks_at_full_chunks():
    # 2^20 amplitudes: chunks of 2^16, the largest the read takes.
    _assert_memory_peaks(20)


def test_large_state_memory_peaks_at_the_default_cap():
    # 2^22 amplitudes, the oracle workload's size: six top qubits in slabs.
    _assert_memory_peaks(22)


@pytest.mark.parametrize("m", [6, 13, 18, 20])
def test_clifford_point_matches_the_graph_state_signs(m):
    # At p = 1/2 and theta = psi = pi/2 every edge operator is a CZ, so the
    # state is the skeleton's graph state, amplitude x 2^(-M/2) (-1)^|E[x]|,
    # whatever the orientations.  An isolated vertex stays |+>, (1, 0, 0);
    # any other vertex is maximally mixed.  6 and 13 qubits take the gather
    # and the table build steps and the batch-wide Pauli read, 18 and 20 the
    # one-row chunked read.
    rng = np.random.default_rng(m)
    cut = set(rng.choice(m, size=2, replace=False).tolist())
    g = DirectedGraph(m, [e for e in random_graph(m, rng, edge_prob=0.3).edges if not set(e) & cut])
    state = build_graph_state(g, theta=math.pi / 2, psi=math.pi / 2, p=0.5)
    assert np.max(np.abs(state - clifford_amplitudes(g))) <= 1e-12
    expected = np.zeros((m, 3))
    expected[np.setdiff1d(np.arange(m), g.edge_array), 0] = 1.0
    assert np.max(np.abs(pauli_vectors(state) - expected)) <= 1e-12


# ----------------------------------------------------------------------
# rows: many states of one qubit count in one call
# ----------------------------------------------------------------------

def _random_values(rng, p):
    """build_graph_state's keywords at p, with random input phases, then
    random angles."""
    delta0, delta1 = rng.uniform(-math.pi, math.pi, 2)
    theta, psi = rng.uniform(-math.pi, math.pi, 2)
    return dict(theta=theta, psi=psi, p=p, delta0=delta0, delta1=delta1)


def _mixed_rows(m=7):
    """(graph, keywords) rows: different graphs of m vertices, the edgeless
    one among them, with p in {0, 1/2, 1} and random p, input phases and
    angles."""
    rng = np.random.default_rng(3)
    graphs = [random_graph(m, rng, edge_prob=q) for q in (0.2, 0.5, 1.0, 0.7, 0.4)]
    graphs.append(DirectedGraph(m, []))
    flipped = graphs[1] if graphs[1].num_edges else graphs[2]  # edgeless only at m = 1
    graphs.append(flip_edge(flipped, 0) if flipped.num_edges else flipped)
    ps = [0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, len(graphs) - 3)]
    return [(g, _random_values(rng, p)) for g, p in zip(graphs, ps)]


def test_rows_equal_their_one_row_calls_bit_for_bit():
    _assert_rows_equal_their_one_row_calls(7)


# One chunk and tile qubits 0 and 0..1 (1 to 3 qubits), one chunk of a whole
# row (12, 15), and chunks of 2^15 with block dots above them (16, 17).  Up
# to 12 qubits the build takes only gather steps, from 13 on factored ones.
@pytest.mark.parametrize("m", [1, 2, 3, 12, 15, 16, 17])
def test_rows_equal_their_one_row_calls_bit_for_bit_at_every_read(m):
    _assert_rows_equal_their_one_row_calls(m)


def _assert_rows_equal_their_one_row_calls(m):
    rows = _mixed_rows(m)
    states = build_graph_state_rows(_arrays_of(rows))
    vectors = pauli_vector_rows(states)
    totals = ed_numeric_rows(_arrays_of(rows))
    assert states.shape == (len(rows), 2**m) and vectors.shape == (len(rows), m, 3)
    assert totals.shape == (len(rows),)
    for r, (g, values) in enumerate(rows):
        state = build_graph_state(g, **values)
        assert np.array_equal(states[r], state)
        assert np.array_equal(vectors[r], pauli_vectors(state))
        assert totals[r] == ed_numeric(states[r]).total


def test_oracle_rows_span_batches_bit_for_bit(monkeypatch):
    # 2^15 amplitudes hold 8 states of 12 qubits, so 20 rows take three
    # batches, the last one short; each total is its one-row call's.
    m = 12
    rng = np.random.default_rng(13)
    rows = [
        (random_graph(m, rng, edge_prob=rng.uniform(0.0, 0.6)), _random_values(rng, p))
        for p in [0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, 17)]
    ]
    # Computed before the patch: the one-row builder calls the patched name too.
    expected = [ed_numeric(build_graph_state(g, **values)).total for g, values in rows]
    batches = []
    double = statevector._double_rows

    def build(tables, **kwargs):
        batches.append(len(tables[0]))
        return double(tables, **kwargs)

    arrays = _arrays_of(rows)
    monkeypatch.setattr(statevector, "_double_rows", build)
    totals = ed_numeric_rows(arrays)
    assert batches == [8, 8, 4]
    assert totals.tolist() == expected
    assert ed_numeric_rows(arrays[:0]).shape == (0,) and batches == [8, 8, 4]


def test_mean_refusal_names_its_row(monkeypatch):
    # The means are taken once, from every row's contributions: a total
    # outside [0, 1] is refused with the row of the call that holds it, here
    # the first row of the second batch of 12-qubit rows.
    rows = StateRows(12, np.array([[0, 1], [2, 3]] * 10), [2] * 10, 0.7, 0.2)
    contributions = statevector._contribution_rows
    batches = []

    def corrupted(amplitudes, scratch=None):
        values = contributions(amplitudes, scratch)
        batches.append(len(values))
        if len(batches) == 2:
            values[0] = 1.5
        return values

    monkeypatch.setattr(statevector, "_contribution_rows", corrupted)
    with pytest.raises(ValueError, match=r"^row 8: total 1\.5 outside \[0, 1\]$"):
        ed_numeric_rows(rows)
    assert batches == [8, 2]


def test_rows_refuse_one_unnormalized_row():
    states = build_graph_state_rows(_arrays_of(_mixed_rows()))
    states[4] *= 1.001
    with pytest.raises(ValueError, match="^state not normalized: norm error 2.00"):
        pauli_vector_rows(states)
    states[4] /= 1.001
    states[2, 5] = math.nan
    with pytest.raises(ValueError, match="^state not normalized: norm error nan"):
        pauli_vector_rows(states)


def test_rows_share_one_vertex_count():
    with pytest.raises(ValueError, match="^expected 2"):
        pauli_vector_rows(np.ones((2, 6)))


# ----------------------------------------------------------------------
# array rows: the oracle's one row format
# ----------------------------------------------------------------------

def _arrays_of(rows):
    """The rows of (graph, build_graph_state keywords) pairs as `StateRows`,
    made through its checked constructor, with build_graph_state's defaults."""
    graphs, values = zip(*rows)
    defaults = dict(psi=0.0, p=0.5, delta0=0.0, delta1=0.0)
    return StateRows(
        graphs[0].num_vertices,
        np.concatenate([g.edge_array for g in graphs]),
        [g.num_edges for g in graphs],
        theta=[v["theta"] for v in values],
        **{name: [v.get(name, default) for v in values] for name, default in defaults.items()},
    )


def test_array_row_slices_hold_their_rows():
    rows = _mixed_rows()
    arrays = _arrays_of(rows)
    assert len(arrays) == len(rows)
    states = build_graph_state_rows(arrays)
    # A slice holds the rows it names, each with its own edges.
    assert np.array_equal(build_graph_state_rows(arrays[2:5]), states[2:5])
    assert len(arrays[5:2]) == 0
    with pytest.raises(ValueError, match="^row slices take step 1"):
        arrays[::2]


def test_zero_rows_give_empty_results():
    assert pauli_vector_rows(np.empty((0, 8), complex)).shape == (0, 3, 3)
    assert pauli_vector_rows(np.empty((0, 2**18), complex)).shape == (0, 18, 3)
    empty = StateRows(3, np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), [], [])
    assert len(empty) == 0
    assert build_graph_state_rows(empty).shape == (0, 8)
    assert ed_numeric_rows(empty).shape == (0,)


@pytest.mark.parametrize("m, count, batches", [(9, 150, [64, 64, 22]), (18, 2, [1, 1])])
def test_batches_of_one_call_share_their_buffers(monkeypatch, m, count, batches):
    # Every batch is built into the same state buffer: the states stay alive
    # here, so one data pointer means one buffer.  Up to 15 qubits the
    # scratch is sized by the Pauli pass's tile, one complex per amplitude of
    # a batch, R * 2^(M + 1) floats; the build's gathered factors take half
    # of it at most.  Rows of 2^18 amplitudes or more take no scratch buffer.
    rng = np.random.default_rng(17)
    g = random_graph(m, rng, edge_prob=0.4)
    rows = StateRows(
        m,
        np.tile(g.edge_array, (count, 1)),
        np.full(count, g.num_edges),
        rng.uniform(-math.pi, math.pi, count),
        rng.uniform(-math.pi, math.pi, count),
        rng.uniform(0.0, 1.0, count),
    )
    states, scratches = [], []
    double = statevector._double_rows

    def build(tables, **kwargs):
        states.append(double(tables, **kwargs))
        scratches.append(kwargs["scratch"])
        return states[-1]

    monkeypatch.setattr(statevector, "_double_rows", build)
    totals = ed_numeric_rows(rows)
    assert [len(s) for s in states] == batches
    assert len({s.__array_interface__["data"][0] for s in states}) == 1
    if m < 18:
        assert scratches[0].size == batches[0] << (m + 1)
        assert all(s is scratches[0] for s in scratches)
    else:
        assert scratches == [None] * len(batches)
    monkeypatch.undo()
    assert np.array_equal(totals, np.concatenate([ed_numeric_rows(rows[r : r + 1]) for r in range(count)]))


def test_array_rows_are_checked_by_the_guards_of_their_parts():
    good = dict(num_qubits=3, edges=np.array([[0, 1], [1, 2], [2, 0]]), edge_counts=[1, 2], theta=[0.1, 0.2])
    rows = StateRows(**good, psi=0.3)
    assert rows.psi.tolist() == [0.3, 0.3] and rows.p.tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match=r"^angles must be finite, got theta=0.2, psi=nan$"):
        StateRows(**good, psi=[0.3, math.nan])
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got 1.5$"):
        StateRows(**good, psi=0.0, p=[0.5, 1.5])
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got nan$"):
        StateRows(**good, psi=0.0, p=math.nan)
    with pytest.raises(ValueError, match=r"^p must be in \[0, 1\], got True$"):
        StateRows(**good, psi=0.0, p=[True, False])
    with pytest.raises(ValueError, match=r"^phases must be finite, got delta0=0.0, delta1=-inf$"):
        StateRows(**good, psi=0.0, delta1=[0.0, -math.inf])
    with pytest.raises(ValueError, match=r"^row 1: edges\[0\] \[2, 3\]: edge \(2,3\) out of range for 3 vertices$"):
        StateRows(**good | {"edges": np.array([[0, 1], [2, 3], [-1, 0]])}, psi=0.0)
    with pytest.raises(ValueError, match="^edge_counts must be one count >= 0 per row"):
        StateRows(**good | {"edge_counts": [2, 2]}, psi=0.0)
    with pytest.raises(ValueError, match=r"^edges must be an \(E, 2\) integer array"):
        StateRows(**good | {"edges": np.zeros((3, 2))}, psi=0.0)
    with pytest.raises(ValueError, match="^num_vertices must be >= 1"):
        StateRows(**good | {"num_qubits": 0}, psi=0.0)


@pytest.mark.parametrize(
    "edges, refused",
    [
        ([[0, 1], [2, 1], [2, 2]], r"edges\[1\] \[2, 2\]: self-loop at vertex 2"),
        ([[0, 1], [2, 1], [0, 2], [1, 2]], r"edges\[2\] \[1, 2\]: duplicate or anti-parallel edge on pair \(1, 2\)"),
        ([[0, 1], [2, 1], [2, 1]], r"edges\[1\] \[2, 1\]: duplicate or anti-parallel edge on pair \(1, 2\)"),
    ],
    ids=["self-loop", "anti-parallel", "repeated"],
)
def test_array_rows_are_refused_as_graphs_are(edges, refused):
    # Row 0 holds the edge (0, 1); row 1 holds the rest, named by the index
    # of the refused edge within the row, as DirectedGraph names it.
    rows = dict(num_qubits=3, edges=np.array(edges), edge_counts=[1, len(edges) - 1], theta=0.7, psi=0.0)
    with pytest.raises(ValueError, match=rf"^row 1: {refused}$"):
        StateRows(**rows)
    with pytest.raises(ValueError, match=rf"^{refused}$"):
        DirectedGraph(3, edges[1:])


@pytest.mark.parametrize("edges", [[[0, 1], [0, 1]], [[0, 1], [1, 0]]])
def test_a_repeated_pair_is_refused_not_simulated(edges):
    # The kernel sums a vertex's lower-neighbour bits as their OR, which a
    # second edge on one pair breaks: the pair was simulated as a product state.
    with pytest.raises(ValueError, match=r"^row 0: edges\[1\] .*: duplicate or anti-parallel edge on pair \(0, 1\)$"):
        ed_numeric_rows(StateRows(3, np.array(edges), [2], 0.7, 0.0))


def test_row_check_names_the_first_refused_row():
    # One pair in many rows is no repeat; the first row refused is named,
    # whatever a later row refuses.  At 62 qubits the row keys reach R*M^2.
    m = 62
    edges = np.array([[61, 60]] * 5 + [[60, 61], [0, 62]])
    rows = StateRows(m, edges[:5], [1] * 5, 0.7, 0.0)
    assert len(rows) == 5 and rows.edges.tolist() == [[61, 60]] * 5
    with pytest.raises(ValueError, match=r"^row 4: edges\[1\] \[60, 61\]: duplicate or anti-parallel"):
        StateRows(m, edges, [1, 1, 1, 1, 2, 1], 0.7, 0.0)
    with pytest.raises(ValueError, match=r"^row 0: edges\[0\] \[0, 62\]: edge \(0,62\) out of range for 62 vertices$"):
        StateRows(m, edges[[6, 4, 5]], [1, 2], 0.7, 0.0)


def _edge_lists(m):
    """Up to 6 edges on m vertices with endpoints from -1 to m: out of
    range, self-loops, and repeated and anti-parallel pairs all occur."""
    pair = st.lists(st.integers(-1, m), min_size=2, max_size=2)
    return st.tuples(st.just(m), st.lists(pair, max_size=6))


@given(st.integers(1, 4).flatmap(_edge_lists))
@example((3, [[0, 1], [1, 0]]))
@example((3, [[0, 1], [0, 1]]))
@example((3, [[0, 3]]))
def test_a_row_is_refused_exactly_when_its_graph_is(case):
    m, edges = case
    try:
        expected = DirectedGraph(m, edges).edge_array.tolist()
    except ValueError as exc:
        expected = f"row 0: {exc}"
    for form in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2)):
        try:
            found = StateRows(m, form, [len(edges)], 0.7, 0.0).edges.tolist()
        except ValueError as exc:
            found = str(exc)
        assert found == expected


@pytest.mark.parametrize("edges", [[[True, 0]], [[0, False]], [[1, 2], [True, 0]]])
def test_bool_endpoints_are_refused_by_rows_and_graphs(edges):
    # A bool is an int to numpy: [[True, 0]] was simulated as the edge (1, 0).
    with pytest.raises(ValueError, match=r"^edges must be an \(E, 2\) integer array"):
        StateRows(3, edges, [len(edges)], 0.7, 0.0)
    with pytest.raises(ValueError, match=r"edge endpoint (True|False) is not an integer$"):
        DirectedGraph(3, edges)
    with pytest.raises(ValueError, match=r"^edges must be an \(E, 2\) integer array"):
        StateRows(3, np.array([[True, False]]), [1], 0.7, 0.0)


def test_rows_are_checked_as_one_disjoint_union():
    # One pair in several rows, either way round, is no repeat: each row
    # is its own graph.  A bad row after good ones is the one named.
    edges = [[0, 1], [1, 2], [1, 0], [2, 1], [0, 1], [1, 2], [2, 0], [0, 2]]
    rows = StateRows(3, edges[:6], [2, 2, 2], 0.7, 0.0)
    assert len(rows) == 3 and rows.edges.tolist() == edges[:6]
    with pytest.raises(ValueError, match=r"^row 3: edges\[1\] \[0, 2\]: duplicate or anti-parallel edge on pair \(0, 2\)$"):
        StateRows(3, edges, [2, 2, 2, 2], 0.7, 0.0)
    # Endpoint M of row 0 is vertex 0 of row 1 in the union: still refused.
    with pytest.raises(ValueError, match=r"^row 0: edges\[0\] \[2, 3\]: edge \(2,3\) out of range for 3 vertices$"):
        StateRows(3, [[2, 3], [1, 2]], [1, 1], 0.7, 0.0)


def test_rows_keep_their_own_copy_of_the_callers_arrays():
    edges, counts, theta = np.array([[0, 1], [1, 2]]), np.array([2]), np.array([0.7])
    rows = StateRows(3, edges, counts, theta, 0.0)
    state = build_graph_state_rows(rows)
    edges[1], counts[0], theta[0] = [1, 0], 1, math.nan
    assert rows.edges.tolist() == [[0, 1], [1, 2]]
    assert rows.edge_counts.tolist() == [2] and rows.theta.tolist() == [0.7]
    assert not (rows.edges.flags.writeable or rows.edge_counts.flags.writeable or rows.theta.flags.writeable)
    assert np.array_equal(build_graph_state_rows(rows), state)


@pytest.mark.parametrize("field", StateRows._PER_ROW)
def test_a_per_row_field_of_the_wrong_length_is_named(field):
    rows = dict(num_qubits=3, edges=np.array([[0, 1], [1, 2]]), edge_counts=[1, 1], theta=0.7, psi=0.0)
    for value in ([0.5] * 3, [[0.5, 0.5]]):
        shape = np.shape(value)
        with pytest.raises(ValueError, match=rf"^{field} must be one value or one per row of the 2 rows, got shape {re.escape(str(shape))}$"):
            StateRows(**rows | {field: value})
    assert getattr(StateRows(**rows | {field: [0.5]}), field).tolist() == [0.5, 0.5]
