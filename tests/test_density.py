import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphent.density
import graphent.entanglement
import graphent.graphs
from graphent.cli import main as cli_main
from graphent.density import vertex_eigenvalues, vertex_entropy, vertex_hs2
from graphent.entanglement import ed_closed_general, vertex_share
from graphent.statevector import (
    build_graph_state,
    product_state,
)
from graphent.graphs import DirectedGraph, random_graph

from helpers import (
    DensityMatrix,
    angles,
    entropy_at_half_p,
    grid,
    hs_distance,
    maximally_mixed,
    partial_trace,
    probabilities,
    von_neumann_entropy,
)

PAIR = DirectedGraph(2, [(0, 1)])


def pair_state(p, theta, psi=0.0):
    return build_graph_state(PAIR, theta=theta, psi=psi, p=p)


# ----------------------------------------------------------------------
# DensityMatrix validation
# ----------------------------------------------------------------------

def test_density_matrix_accepts_valid():
    rho = DensityMatrix(np.eye(2) / 2)
    assert rho.dimension == 2


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0.5, 0.3], [0.1, 0.5]]),  # not Hermitian
        np.eye(2),  # trace 2
        np.array([[1.1, 0.0], [0.0, -0.1]]),  # negative eigenvalue
        np.ones((2, 3)),  # not square
        np.array([[math.nan, 0.0], [0.0, math.nan]]),  # NaN fails every comparison
        np.array([[math.inf, 0.0], [0.0, -math.inf]]),
    ],
)
def test_density_matrix_rejects_invalid(matrix):
    with pytest.raises(ValueError):
        DensityMatrix(matrix)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[math.inf, 0.0], [0.0, -math.inf]]),
        np.array([[0.5, complex(0.0, math.inf)], [0.0, 0.5]]),
        np.array([[math.nan, 0.0], [0.0, 1.0]]),
    ],
)
def test_density_matrix_refuses_nonfinite_without_a_warning(matrix):
    # The entries are checked before any arithmetic, so inf - inf never runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^density matrix entries must be finite$"):
            DensityMatrix(matrix)


# ----------------------------------------------------------------------
# partial trace
# ----------------------------------------------------------------------

@given(probabilities, angles, angles)
@settings(max_examples=50)
def test_product_state_reduces_to_projector(p, d0, d1):
    state = product_state(3, p=p, delta0=d0, delta1=d1)
    phi = np.array([math.sqrt(1.0 - p) * np.exp(1j * d0), math.sqrt(p) * np.exp(1j * d1)])
    for i in range(3):
        rho = partial_trace(state, [i])
        assert np.allclose(rho.matrix, np.outer(phi, phi.conj()), atol=1e-12)


def test_maximally_entangled_endpoint_is_maximally_mixed():
    state = pair_state(0.5, math.pi / 2)
    for i in range(2):
        rho = partial_trace(state, [i])
        assert np.max(np.abs(rho.matrix - np.eye(2) / 2)) <= 1e-12


def test_keeping_both_endpoints_is_pure():
    rho = partial_trace(pair_state(0.5, 1.2), [0, 1])
    assert rho.dimension == 4
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_bit_order():
    # keep both qubits of a 3-qubit register: kept qubit j -> bit j of the
    # reduced index.  |1>_0 |0>_2 puts weight at reduced index 1 when keeping
    # {0, 2}.
    amps = np.zeros(8)
    amps[1] = 1.0  # |001> = qubit0 set
    rho = partial_trace(amps, [0, 2])
    assert rho.matrix[1, 1] == pytest.approx(1.0)


def test_partial_trace_errors():
    state = pair_state(0.5, 1.0)
    with pytest.raises(ValueError):
        partial_trace(state, [])
    with pytest.raises(ValueError):
        partial_trace(state, [0, 0])
    with pytest.raises(ValueError):
        partial_trace(state, [2])
    # qubit indices are integers: refused, not truncated to qubit 0
    with pytest.raises(ValueError, match="qubit 0.7 is not an integer"):
        partial_trace(state, [0.7])
    with pytest.raises(ValueError, match="qubit True is not an integer"):
        partial_trace(state, [True])


# ----------------------------------------------------------------------
# Hilbert-Schmidt distance
# ----------------------------------------------------------------------

def test_distance_to_self_is_zero():
    rho = partial_trace(pair_state(0.3, 0.8), [0])
    assert hs_distance(rho, rho) == 0.0


def test_pure_qubit_vs_maximally_mixed():
    rho = partial_trace(product_state(2), [0])
    assert hs_distance(rho, maximally_mixed()) == pytest.approx(0.5, abs=1e-12)


def test_distance_symmetric_and_dim_checked():
    a = maximally_mixed(2)
    b = partial_trace(pair_state(0.4, 1.0), [1])
    assert hs_distance(a, b) == pytest.approx(hs_distance(b, a), abs=1e-15)
    with pytest.raises(ValueError):
        hs_distance(a, maximally_mixed(4))


@pytest.mark.parametrize(
    "p, theta, expected",
    [(0.5, math.pi / 2, 0.0), (0.5, 0.0, 0.25), (0.0, 1.234, 0.25), (1.0, 0.3, 0.25)],
)
def test_hs_sq_analytic_values(p, theta, expected):
    assert vertex_hs2(1, p, theta) == pytest.approx(expected, abs=1e-15)


def test_hs_sq_analytic_rejects_bad_p():
    with pytest.raises(ValueError):
        vertex_hs2(1, -0.1, 1.0)


def test_hs_numeric_matches_analytic_on_grid():
    for p in grid(0.0, 1.0, 21):
        for theta in grid(0.0, math.pi, 21):
            rho = partial_trace(pair_state(p, theta), [0])
            numeric = hs_distance(rho, maximally_mixed()) ** 2
            assert abs(numeric - vertex_hs2(1, p, theta)) <= 1e-12


# ----------------------------------------------------------------------
# eigenvalues
# ----------------------------------------------------------------------

def test_reduced_eigenvalues_analytic_values():
    assert vertex_eigenvalues(1, 0.5, math.pi / 2) == pytest.approx((0.5, 0.5))
    assert vertex_eigenvalues(1, 0.3, 0.0) == pytest.approx((0.0, 1.0))
    assert vertex_eigenvalues(0, 0.5, math.pi / 2) == (0.0, 1.0)  # no edge, a pure state


def test_reduced_eigenvalues_sum_to_one():
    for d in range(4):
        for p in grid(0.0, 1.0, 11):
            for theta in grid(0.0, math.pi, 11):
                lo, hi = vertex_eigenvalues(d, p, theta)
                assert lo + hi == pytest.approx(1.0, abs=1e-14)
                assert 0.0 <= lo <= hi <= 1.0


def test_numeric_eigenvalues_match_analytic():
    for p in grid(0.0, 1.0, 21):
        for theta in grid(0.0, math.pi, 21):
            rho = partial_trace(pair_state(p, theta), [1])
            lo, hi = rho.eigenvalues
            alo, ahi = vertex_eigenvalues(1, p, theta)
            assert abs(lo - alo) <= 1e-10 and abs(hi - ahi) <= 1e-10


def test_spectrum_2x2_against_trace_det():
    mat = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    lo, hi = DensityMatrix(mat).eigenvalues
    assert lo < hi  # ascending
    assert lo + hi == pytest.approx(1.0, abs=1e-14)
    assert lo * hi == pytest.approx(np.linalg.det(mat).real, abs=1e-14)


# ----------------------------------------------------------------------
# entropy
# ----------------------------------------------------------------------

def test_entropy_of_pure_state_is_zero():
    rho = partial_trace(product_state(2), [0])
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_maximally_mixed_is_ln2():
    assert von_neumann_entropy(maximally_mixed()) == pytest.approx(math.log(2), abs=1e-15)


def test_entropy_at_half_p_values():
    assert entropy_at_half_p(math.pi / 2) == pytest.approx(math.log(2), abs=1e-15)
    assert entropy_at_half_p(1e-13) == 0.0
    lam = 0.5 + math.sqrt(2) / 4
    expected = -(lam * math.log(lam) + (1 - lam) * math.log(1 - lam))
    assert entropy_at_half_p(math.pi / 4) == pytest.approx(expected, abs=1e-14)


def test_entropy_numeric_matches_closed_form_along_half_p():
    for theta in grid(0.0, math.pi, 21):
        rho = partial_trace(pair_state(0.5, theta), [0])
        assert abs(von_neumann_entropy(rho) - entropy_at_half_p(theta)) <= 1e-10


def test_pair_entropy_analytic_consistent():
    for p in grid(0.0, 1.0, 9):
        for theta in grid(0.0, math.pi, 9):
            rho = partial_trace(pair_state(p, theta), [0])
            assert abs(vertex_entropy(1, p, theta) - von_neumann_entropy(rho)) <= 1e-10
    assert math.isnan(graphent.density._xlogx(math.nan))  # not dropped as a zero eigenvalue
    # A separable pair: lo = 0 adds nothing and hi ln hi = 0.0, so the total
    # is -0.0, which the figure CSV writes as "-0".
    for value in (vertex_entropy(1, 0.0, 0.7), vertex_entropy(1, np.array([0.0, 1.0]), 0.0)):
        assert np.all(value == 0.0) and np.all(np.signbit(value))


def test_every_degree_matches_the_reduced_state():
    # Each vertex's reduced state, by partial trace of the simulated state,
    # at general inputs and phases, against the closed forms of its degree.
    rng = np.random.default_rng(2708)
    worst = 0.0
    for _ in range(40):
        graph = random_graph(int(rng.integers(2, 10)), rng, float(rng.uniform(0.2, 0.8)))
        p, theta = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, math.pi))
        delta0, delta1, psi = (float(x) for x in rng.uniform(-math.pi, math.pi, 3))
        state = build_graph_state(graph, theta=theta, psi=psi, p=p, delta0=delta0, delta1=delta1)
        for i, d in enumerate(graph.degrees.tolist()):
            rho = partial_trace(state, [i])
            worst = max(
                worst,
                *(abs(a - b) for a, b in zip(rho.eigenvalues, vertex_eigenvalues(d, p, theta))),
                abs(von_neumann_entropy(rho) - vertex_entropy(d, p, theta)),
                abs(hs_distance(rho, maximally_mixed()) ** 2 - vertex_hs2(d, p, theta)),
            )
    assert worst <= 1e-10


def test_figure_grids_stay_within_the_physical_range(tmp_path, capsys):
    # A qubit's squared HS distance to I/2 is at most 1/4 and its entropy at
    # most ln 2; Figures 1 and 2 are read on the 101 x 101 grid.
    for quantity, top in (("hs2", 0.25), ("entropy", math.log(2))):
        out = tmp_path / f"{quantity}.csv"
        argv = ["sweep", "--quantity", quantity, "--theta-steps", "101", "--p-steps", "101"]
        assert cli_main(argv + ["--out", str(out)]) == 0
        values = np.loadtxt(out, delimiter=",", skiprows=1, usecols=2)
        assert values.size == 101 * 101
        assert values.min() >= 0.0 and values.max() <= top, quantity
    capsys.readouterr()


# ----------------------------------------------------------------------
# grid evaluation: the bits of the scalar call at every point
# ----------------------------------------------------------------------

GRID_P = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), probabilities)
# A NaN theta is refused (test_closed_forms_refuse_a_bad_theta).
GRID_THETA = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def same_bits(a, b):
    """Equal with the same sign, or both NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and np.signbit(a) == np.signbit(b)


DEGREES = st.integers(0, 12)


def analytic_values(p, theta, degree=1):
    """The three single-vertex closed forms at (p, theta), flattened into one tuple."""
    return (
        vertex_hs2(degree, p, theta),
        *vertex_eigenvalues(degree, p, theta),
        vertex_entropy(degree, p, theta),
    )


@settings(max_examples=60, deadline=None)
@given(DEGREES, st.lists(GRID_P, min_size=1, max_size=7), st.lists(GRID_THETA, min_size=1, max_size=7))
def test_grid_evaluation_has_the_scalar_bits(d, ps, thetas):
    p_row, theta_col = np.array([ps]), np.array(thetas)[:, None]
    grids = analytic_values(p_row, theta_col, d)
    rows = analytic_values(np.array(ps), thetas[0], d)  # p as an array, theta a float
    columns = analytic_values(ps[0], np.array(thetas), d)  # and the other way round
    for i, theta in enumerate(thetas):
        for j, p in enumerate(ps):
            scalar = analytic_values(p, theta, d)
            assert all(type(v) is float for v in scalar)  # a float in gives a float out
            for k, v in enumerate(scalar):
                assert grids[k].shape == (len(thetas), len(ps))
                assert same_bits(grids[k][i, j], v), (k, p, theta)
                if i == 0:
                    assert same_bits(rows[k][j], v), (k, p, theta)
                if j == 0:
                    assert same_bits(columns[k][i], v), (k, p, theta)


@settings(max_examples=60, deadline=None)
@given(DEGREES, st.lists(GRID_P, min_size=1, max_size=7), st.lists(GRID_THETA, min_size=1, max_size=7))
def test_vertex_share_has_the_bits_of_the_general_form(d, ps, thetas):
    # An fsum of one term is that term, so the share is the one-vertex
    # distribution's ED bit for bit, on scalars and on grids alike.
    p_row, theta_col = np.array([ps]), np.array(thetas)[:, None]
    share, general = vertex_share(d, p_row, theta_col), ed_closed_general({d: 1}, p_row, theta_col)
    assert share.shape == general.shape == (len(thetas), len(ps))
    for i, theta in enumerate(thetas):
        for j, p in enumerate(ps):
            scalar = vertex_share(d, p, theta)
            assert type(scalar) is float
            assert same_bits(scalar, ed_closed_general({d: 1}, p, theta)), (d, p, theta)
            assert same_bits(share[i, j], scalar) and same_bits(general[i, j], scalar), (d, p, theta)


@pytest.mark.parametrize("degree", [-1, True, 1.0, 1.5])
def test_vertex_share_refuses_a_degree_that_is_no_count(degree):
    for fn in (vertex_share, vertex_hs2, vertex_eigenvalues, vertex_entropy):
        with pytest.raises(ValueError, match="degree"):
            fn(degree, 0.3, 1.0)


def test_grid_evaluation_calls_no_numpy_transcendental(monkeypatch):
    # numpy's log, sin, cos and power can differ from libm in the last bit on
    # one machine and agree on another, so a check of values alone would not
    # see them everywhere: the closed forms must not reach them at all.
    forbidden = {"log", "log1p", "exp", "sin", "cos", "power", "float_power", "square"}

    class NumpyWithoutTranscendentals:
        def __getattr__(self, name):
            assert name not in forbidden, f"np.{name} in a closed form"
            return getattr(np, name)

    for module in (graphent.density, graphent.entanglement, graphent.graphs):
        monkeypatch.setattr(module, "np", NumpyWithoutTranscendentals())
    p, theta = np.array([[0.0, 0.3, 1.0]]), np.array([[0.0], [2.0]])
    analytic_values(p, theta)
    counts = {1: 2, 2: 9, 3: 16, 4: 28}
    graphent.entanglement.ed_closed_general(counts, p, theta)
    graphent.entanglement.ed_closed_form(counts, theta)
    graphent.entanglement.ed_young_fibonacci_limit(theta)
    graphent.entanglement.ed_binary_tree_limit(theta)


@pytest.mark.parametrize(
    "ps, bad", [([0.5, -0.1, 0.2], "-0.1"), ([1.5], "1.5"), ([0.2, math.nan], "nan"), ([True], "True")]
)
def test_grid_evaluation_refuses_each_bad_p(ps, bad):
    for fn in (vertex_hs2, vertex_eigenvalues, vertex_entropy):
        with pytest.raises(ValueError, match=rf"^p must be in \[0, 1\], got {bad}$"):
            fn(1, np.array([ps]), np.array([[0.3]]))
