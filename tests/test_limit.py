"""Limit equation: Stieltjes flow between epochs and jump-map replacements."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from bvode import (
    BVFunction,
    F_n,
    JumpMeasure,
    LimitPath,
    Schedule,
    ScalarField,
    SigmaG,
    get_profile,
    measure_from_sigma,
    phi_explicit_ramp,
    ramp_z,
    solve_grid,
    solve_limit,
)
from test_acceptance import BOUND_CORPUS
from test_drivers import assert_cuts_match, continuous_part, piecewise_cubics


def mixed_driver():
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)))


class TestLimitPath:
    def path(self):
        return LimitPath([0.0, 0.5, 1.0], [1.0, 2.0, 4.0], [1.0, 3.0, 4.0],
                         [False, True, False], domain=(0.0, 1.0))

    def test_right_continuous_at_jump(self):
        p = self.path()
        assert p.eval(0.5) == 3.0
        assert p.x_left[1] == 2.0

    def test_linear_between_grid_points(self):
        p = self.path()
        assert p.eval(0.25) == pytest.approx(1.5)
        assert p.eval(0.75) == pytest.approx(3.5)

    def test_endpoints(self):
        p = self.path()
        assert p.eval(0.0) == 1.0
        assert p.eval(1.0) == 4.0
        assert p.x_left[0] == 1.0

    def test_vectorized(self):
        p = self.path()
        np.testing.assert_allclose(p.eval([0.0, 0.5, 1.0]), [1.0, 3.0, 4.0])

    def test_domain_checked(self):
        p = self.path()
        with pytest.raises(ValueError, match="must lie in"):
            p.eval(1.2)
        with pytest.raises(ValueError, match="must lie in"):
            p.eval(-0.1)
        # a hair outside is treated as the endpoint
        assert p.eval(1.0 + 5e-13) == 4.0

    def test_l1_norm_piecewise_linear(self):
        # 0.5 * (1 + 2) / 2 + 0.5 * (3 + 4) / 2
        assert self.path().l1_norm() == pytest.approx(2.5)

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LimitPath([0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [False, False], domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            LimitPath([], [], [], [], domain=(0.0, 1.0))

    def test_edit_raises(self):
        """The columns, the doubled grid read from them and its cell widths and
        rises are read-only, also in a pickled copy: an in-place edit raises
        instead of leaving eval, l1_norm and the L1 score stale."""
        built = LimitPath([0.0, 0.5, 1.0], [1.0] * 3, [1.0] * 3, [False] * 3, (0.0, 1.0))
        names = ("t", "x_left", "x", "is_jump", "_t_dbl", "_x_dbl", "_widths", "_rises")
        for p in (built, pickle.loads(pickle.dumps(built))):
            assert {k for k, v in vars(p).items() if isinstance(v, np.ndarray)} == set(names)
            for name in names:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(p, name)[:] = 5.0
            assert p.eval(0.75) == 1.0 and p.l1_norm() == 1.0

    def test_pickled_solved_path(self):
        """A solved path survives pickling with its cell widths and rises and
        reads the same, and the copy has no driver, like a built path."""
        L = mixed_driver()
        q = solve_limit(ScalarField.linear_x(), L, JumpMeasure.lebesgue(), 1.0)
        copied = pickle.loads(pickle.dumps(q))
        assert q._driver() is L and copied._driver is None
        for name in ("_widths", "_rises", "_t_dbl", "_x_dbl"):
            assert getattr(copied, name).tobytes() == getattr(q, name).tobytes()
        ts = np.linspace(0.0, 1.0, 101)
        assert copied.eval(ts).tobytes() == q.eval(ts).tobytes()

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="one entry per time"):
            LimitPath([0.0, 1.0], [1.0, 2.0], [1.0], [False, False], domain=(0.0, 1.0))

    def test_hand_built_path_counts_no_cell(self):
        assert self.path().cells_over_v_max == 0


class TestStieltjesIntegrate:
    """The oracle's trapezoid integral, the reference of test_integral_residual."""

    def test_unit_integrand_telescopes(self):
        Lc = continuous_part(mixed_driver())
        got = oracle.stieltjes_integrate(lambda s: np.ones_like(s), Lc, 0.0, 0.8, 1e-3)
        assert got == pytest.approx(Lc(0.8) - Lc(0.0), abs=1e-12)

    def test_constant_integrator_vanishes(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[2.0]])
        assert oracle.stieltjes_integrate(lambda s: s ** 3, Lc, 0.0, 1.0, 1e-3) == 0.0

    def test_quadratic_against_closed_form(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        got = oracle.stieltjes_integrate(lambda s: s ** 2, Lc, 0.0, 1.0, 1e-3)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_decreasing_integrator_flips_sign(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[0.0, -1.0]])
        got = oracle.stieltjes_integrate(lambda s: s, Lc, 0.0, 1.0, 1e-3)
        assert got == pytest.approx(-0.5, abs=1e-9)

    def test_scalar_integrand_accepted(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        got = oracle.stieltjes_integrate(lambda s: float(s) ** 2, Lc, 0.0, 1.0, 1e-2)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-4)


class TestSolveLimit:
    def test_smooth_exponential(self):
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        path = solve_limit(ScalarField.linear_x(), L, JumpMeasure.lebesgue(), 1.0)
        assert path.eval(1.0) == pytest.approx(np.e, abs=1e-6)

    def test_pure_jump_flow_measure(self):
        """Lebesgue measure runs the full flow across the jump: x -> x e."""
        L = BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        path = solve_limit(ScalarField.linear_x(), L, JumpMeasure.lebesgue(), 1.0)
        assert path.eval(0.4) == 1.0
        assert path.x_left[path.t == 0.5].tolist() == [1.0]
        assert path.eval(0.5) == pytest.approx(np.e, abs=1e-11)
        assert path.eval(1.0) == pytest.approx(np.e, abs=1e-11)

    def test_pure_jump_ito_measure(self):
        """The atom at zero applies one explicit increment: x -> x + dL f."""
        L = BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        path = solve_limit(ScalarField.linear_x(), L, JumpMeasure.dirac(0.0), 1.0)
        assert path.eval(0.5) == 2.0
        assert path.eval(1.0) == 2.0

    def test_jump_rows_flagged(self):
        L = mixed_driver()
        path = solve_limit(ScalarField.bounded_tanh(1.0, 1.0), L,
                           JumpMeasure.lebesgue(), 0.5)
        jt = path.t[path.is_jump]
        np.testing.assert_allclose(jt, [0.25, 0.75])
        k = int(np.flatnonzero(path.is_jump)[0])
        assert path.x_left[k] != path.x[k]

    def test_measure_ignored_without_jumps(self):
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0, 1.0]])
        f = ScalarField.bounded_sin(0.8, 1.5, freq_t=0.3)
        p1 = solve_limit(f, L, JumpMeasure.lebesgue(), 0.3)
        p2 = solve_limit(f, L, JumpMeasure.dirac(0.25), 0.3)
        np.testing.assert_array_equal(p1.x, p2.x)

    def test_sample_times_join_grid(self):
        L = mixed_driver()
        pts = [0.1234, 0.5, 0.8118]
        path = solve_limit(ScalarField.constant(1.0), L,
                           JumpMeasure.lebesgue(), 0.0, sample_times=pts)
        for s in pts:
            assert np.any(path.t == s)
        with pytest.raises(ValueError, match="sample times"):
            solve_limit(ScalarField.constant(1.0), L, JumpMeasure.lebesgue(),
                        0.0, sample_times=[1.5])

    def test_nan_sample_time_rejected(self):
        # a NaN sample time used to pass the range check and be dropped
        with pytest.raises(ValueError, match="sample times"):
            solve_limit(ScalarField.constant(1.0), mixed_driver(), JumpMeasure.lebesgue(),
                        0.0, sample_times=[0.5, np.nan])

    def test_cells_over_v_max_counted(self):
        """Slope 1e12 over about nine floats: no grid of floats keeps every cell
        within v_max = 1e-5, and the path counts the cells that move more."""
        L = BVFunction([0.6095693498571635, 0.6095693498571645], [[-1e12, 1e12]])
        path = solve_limit(ScalarField.linear_x(), L, JumpMeasure.lebesgue(), 1.0, v_max=1e-5)
        moved = np.abs(np.diff(L.continuous_value(path.t)))
        assert path.cells_over_v_max == np.count_nonzero(moved > 1e-5) >= 1
        assert moved.max() > 10 * 1e-5

    @pytest.mark.parametrize("v_max", [None, 1e-4], ids=["default", "1e-4"])
    @pytest.mark.parametrize("di", range(len(BOUND_CORPUS)))
    def test_corpus_keeps_v_max(self, di, v_max):
        """Every criterion-8 corpus driver keeps each cell within v_max, with
        and without report points."""
        L = BOUND_CORPUS[di]
        for sample_times in (None, [0.1, 0.6]):
            path = solve_limit(ScalarField.bounded_tanh(1.0, 1.0, offset=0.2), L,
                               JumpMeasure.lebesgue(), 0.4, sample_times=sample_times,
                               v_max=v_max)
            assert path.cells_over_v_max == 0

    def test_constant_driver_keeps_state(self):
        L = BVFunction.from_segments([0.0, 2.0], [[4.0]])
        path = solve_limit(ScalarField.bounded_sin(1.0, 1.0), L,
                           JumpMeasure.lebesgue(), 0.7)
        np.testing.assert_array_equal(path.x, np.full(path.x.size, 0.7))

    def test_v_max_validated(self):
        with pytest.raises(ValueError, match="v_max"):
            solve_limit(ScalarField.constant(1.0), mixed_driver(),
                        JumpMeasure.lebesgue(), 0.0, v_max=-1.0)

    def test_nan_v_max_rejected(self):
        # a NaN budget used to pass the check and cut no cells: 5 samples
        with pytest.raises(ValueError, match="v_max must be positive"):
            solve_limit(ScalarField.bounded_tanh(1.0, 1.0, 0.2), mixed_driver(),
                        JumpMeasure.lebesgue(), 0.3, v_max=np.nan)

    @pytest.mark.parametrize("x0", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, x0):
        with pytest.raises(ValueError, match="initial states must be finite"):
            solve_limit(ScalarField.constant(1.0), mixed_driver(),
                        JumpMeasure.lebesgue(), x0)

    def test_overflowed_state_crosses_jump_unchanged(self):
        # dx = 1000 x dL overflows before the jump at 0.5; the jump map
        # (which rejects a non-finite start) is skipped and the state stays inf
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 20.0]], jumps=((0.5, 1.0),))
        with np.errstate(over="ignore", invalid="ignore"):
            path = solve_limit(ScalarField.affine(0.0, 1000.0), L, JumpMeasure.lebesgue(), 1.0)
        k = int(np.flatnonzero(path.is_jump)[0])
        assert path.x_left[k] == path.x[k] == np.inf

    @pytest.mark.parametrize("mu_name,mu", [
        ("flow", JumpMeasure.lebesgue()),
        ("ito", JumpMeasure.dirac(0.0)),
    ])
    def test_integral_residual(self, mu_name, mu):
        """The path satisfies its own equation up to the grid tolerance."""
        L = mixed_driver()
        f = ScalarField.bounded_tanh(1.2, 0.9, offset=0.3)
        v_max = 1e-3
        path = solve_limit(f, L, mu, 0.4, v_max=v_max)
        integral = oracle.stieltjes_integrate(lambda s: f(s, path.eval(s)),
                                              continuous_part(L), 0.0, 1.0, v_max)
        jumps = float(np.sum(path.x[path.is_jump] - path.x_left[path.is_jump]))
        resid = path.eval(1.0) - 0.4 - integral - jumps
        assert abs(resid) <= 5.0 * v_max * (1.0 + np.max(np.abs(path.x)))


ORACLE_FIELDS = [
    ScalarField.constant(0.7),
    ScalarField.affine(0.3, -1.2),
    ScalarField.linear_x(),
    ScalarField.ramp(0.2, 0.5),
    ScalarField.bounded_sin(1.1, 2.0, freq_t=0.7, phase=0.3, offset=-0.2),
    ScalarField.bounded_tanh(0.8, 2.5, offset=0.1),
]
ORACLE_MEASURES = {
    "lebesgue": JumpMeasure.lebesgue(),
    "dirac": JumpMeasure.dirac(0.0),
    "staircase": measure_from_sigma(SigmaG([(0.2, 0.5)])),
}


# The grid's cuts are found by bracketed Newton, the oracle's by 60 rounds
# of bisection, so the two paths agree to rounding.  The measured worst case
# for states, relative to 1 + |x|, is 1.6e-14 over the corpus and 5,000
# random drivers.
PATH_RTOL = 1e-13


def assert_path_close(L, path, want):
    """The oracle's rows and jump rows (is_jump and their times) bit for bit,
    times within assert_cuts_match's bound in driver value, and states within
    PATH_RTOL (1 + |x|).  Times are not bounded as times: near a stationary
    point every time within the square root of the cut floor meets the goal."""
    np.testing.assert_array_equal(path.is_jump, want["is_jump"])
    np.testing.assert_array_equal(path.t[path.is_jump], want["t"][want["is_jump"]])
    assert_cuts_match(L, path.t, want["t"])
    assert_cuts_match(L, path._t_dbl, want["_t_dbl"])
    for name in ("x_left", "x", "_x_dbl"):
        got, ref = getattr(path, name), want[name]
        gap = np.abs(got - ref) / (1.0 + np.abs(ref))
        assert np.all(gap <= PATH_RTOL), (name, float(gap.max()))


@pytest.mark.parametrize("mu_name", list(ORACLE_MEASURES))
@pytest.mark.parametrize("fi", range(len(ORACLE_FIELDS)),
                         ids=["const", "affine", "linear", "ramp", "sin", "tanh"])
@pytest.mark.parametrize("di", range(len(BOUND_CORPUS)))
def test_solve_limit_matches_row_oracle(di, fi, mu_name):
    """Criterion 8's drivers give the per-point row builder's path to within
    assert_path_close, with the default grid and with report points and a
    coarse budget."""
    L, f, mu = BOUND_CORPUS[di], ORACLE_FIELDS[fi], ORACLE_MEASURES[mu_name]
    a, b = L.domain
    samples = np.linspace(a, b, 7)[1:-1]
    for kwargs in ({}, {"sample_times": samples, "v_max": 0.02}):
        path = solve_limit(f, L, mu, 0.4, **kwargs)
        want = oracle.limit_columns(oracle.limit_rows(f, L, mu, 0.4, **kwargs))
        assert_path_close(L, path, want)
        for name in ("t", "x_left", "x", "is_jump", "_t_dbl", "_x_dbl"):
            assert getattr(path, name).dtype == want[name].dtype


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_random_drivers_match_row_oracle(data):
    """Random piecewise cubics with jumps (at breakpoints and at the right
    end too) and report points (at epochs and the ends too) give the row
    builder's path to within assert_path_close."""
    Lc = data.draw(piecewise_cubics())
    a, b = Lc.domain
    times = st.floats(a, b) | st.sampled_from([*Lc.seg_breaks[1:].tolist(), b])
    size = st.floats(-2.0, 2.0).filter(lambda x: x != 0.0)
    jumps = [(t, data.draw(size)) for t in data.draw(st.lists(times, max_size=4))
             if t > a]
    L = BVFunction(Lc.seg_breaks, Lc.seg_coefs, jumps)
    samples = data.draw(st.lists(times | st.sampled_from([a, *L.jump_epochs.tolist()]),
                                 max_size=6))
    v_max = max(Lc.total_variation(), 1e-3) * data.draw(st.floats(5e-3, 2.0))
    f = data.draw(st.sampled_from(ORACLE_FIELDS))
    mu = data.draw(st.sampled_from(list(ORACLE_MEASURES.values())))
    path = solve_limit(f, L, mu, 0.4, sample_times=samples, v_max=v_max)
    want = oracle.limit_columns(oracle.limit_rows(f, L, mu, 0.4, sample_times=samples,
                                                  v_max=v_max))
    assert_path_close(L, path, want)


EXACT_FIELDS = {
    "tanh": ScalarField.bounded_tanh(1.0, 1.0, offset=0.2),
    "linear": ScalarField.linear_x(),
    "sin": ScalarField.bounded_sin(0.8, 1.3, phase=0.4, offset=0.1),
    "ramp": ScalarField.ramp(0.3, 0.8, 1.2),
    "affine": ScalarField.affine(0.5, -0.7),
    "const": ScalarField.constant(-0.6),
    "tanh-steep": ScalarField.bounded_tanh(1.5, 2.0, offset=-0.3),
}
EXACT_MEASURES = {"lebesgue": JumpMeasure.lebesgue(), "dirac": JumpMeasure.dirac(0.0)}


@pytest.mark.parametrize("di", range(len(BOUND_CORPUS)))
def test_solve_limit_matches_exact_flow(di):
    """Every grid point of a default solve lies within 1e-5 (1 + |x|) of the
    exact path of oracle.exact_limit, for each field, measure and start."""
    L = BOUND_CORPUS[di]
    for f in EXACT_FIELDS.values():
        for mu in EXACT_MEASURES.values():
            for x0 in (-0.7, 0.3, 1.1):
                path = solve_limit(f, L, mu, x0)
                exact = oracle.exact_limit(f, L, mu, x0, path.t)
                assert np.all(np.abs(path.x - exact) <= 1e-5 * (1.0 + np.abs(exact))), \
                    (f.name, mu, x0)


@st.composite
def bounded_drivers(draw):
    """A random piecewise cubic scaled to continuous variation at most 2,
    with 0 to 3 jumps (on breakpoints and at the right end too)."""
    Lc = draw(piecewise_cubics())
    a, b = Lc.domain
    tv = Lc.total_variation()
    scale = draw(st.floats(0.0, 2.0)) / tv if tv > 0.0 else 1.0
    times = st.floats(a, b) | st.sampled_from([*Lc.seg_breaks[1:].tolist(), b])
    size = st.floats(-2.0, 2.0).filter(lambda x: x != 0.0)
    jumps = [(t, draw(size)) for t in draw(st.lists(times, max_size=3, unique=True)) if t > a]
    return BVFunction(Lc.seg_breaks, scale * Lc.seg_coefs, jumps)


@given(L=bounded_drivers(), f=st.sampled_from(list(EXACT_FIELDS.values())),
       mu=st.sampled_from(list(EXACT_MEASURES.values())), x0=st.floats(-1.5, 1.5))
@settings(max_examples=100, deadline=None)
def test_random_drivers_match_exact_flow(L, f, mu, x0):
    """Random drivers: every grid point of a default solve lies within
    1e-5 (1 + |x|) of the exact path of oracle.exact_limit."""
    path = solve_limit(f, L, mu, x0)
    exact = oracle.exact_limit(f, L, mu, x0, path.t)
    assert np.all(np.abs(path.x - exact) <= 1e-5 * (1.0 + np.abs(exact)))


def test_default_budget_under_tiny_variation():
    """A continuous variation whose thousandth underflows to 0 takes the
    budget of a driver without variation, not a zero v_max."""
    L = BVFunction([0.0, 1.0], [[0.0, 2e-321]])
    path = solve_limit(ScalarField.linear_x(), L, JumpMeasure.lebesgue(), 1.0)
    np.testing.assert_array_equal(path.x, 1.0)


@pytest.mark.parametrize("mu_name", list(EXACT_MEASURES))
@pytest.mark.parametrize("fname", ["tanh", "linear", "sin", "affine", "tanh-steep"])
@pytest.mark.parametrize("di", range(1, len(BOUND_CORPUS)))
def test_solve_limit_error_is_second_order(di, fname, mu_name):
    """Halving v_max from twice the default divides the largest error
    against the exact path by at least 3.5: the Heun steps are second
    order in the variation per cell (drivers with continuous variation,
    smooth fields)."""
    L, f, mu = BOUND_CORPUS[di], EXACT_FIELDS[fname], EXACT_MEASURES[mu_name]
    tv = continuous_part(L).total_variation()
    errs = []
    for v_max in (2e-3 * tv, 1e-3 * tv):
        path = solve_limit(f, L, mu, 0.3, v_max=v_max)
        errs.append(np.max(np.abs(path.x - oracle.exact_limit(f, L, mu, 0.3, path.t))))
    assert errs[0] >= 3.5 * errs[1], errs


NAN = float("nan")
LINEAR_PATH = solve_limit(ScalarField.linear_x(), BVFunction([0.0, 1.0], [[0.0, 1.0]]),
                          JumpMeasure.lebesgue(), 1.0)


@pytest.mark.parametrize("call", [
    lambda: LINEAR_PATH.eval(NAN),
    lambda: solve_grid(ScalarField.linear_x(), mixed_driver(), get_profile("uniform"),
                       8, 0.125, 1.0, n_offsets=2).eval(0, NAN),
    lambda: solve_grid(ScalarField.linear_x(), mixed_driver(), get_profile("uniform"),
                       8, 0.125, 1.0, n_offsets=2).eval(0, np.array([0.5, np.inf])),
    lambda: mixed_driver().total_variation(NAN, 1.0),
    lambda: mixed_driver().total_variation(0.0, NAN),
    lambda: mixed_driver().jump_at(NAN),
    lambda: F_n(get_profile("uniform"), 8, NAN),
    lambda: F_n(get_profile("bump"), 8, np.array([0.01, NAN])),
    lambda: SigmaG([(0.2, 0.5)])(np.array([0.1, NAN])),
    lambda: measure_from_sigma(SigmaG([(0.2, 0.5)])).mass_closed(NAN, 1.0),
    lambda: JumpMeasure.lebesgue().lebesgue_mass(NAN, 0.5),
    lambda: JumpMeasure.lebesgue().lebesgue_mass(0.2, NAN),
    lambda: ramp_z(0.5, NAN, 0.0),
    lambda: phi_explicit_ramp(SigmaG(), 0.5, NAN, 0.0, 0.7),
    lambda: Schedule.power(NAN),
    lambda: LimitPath([0.0, NAN, 1.0], [1.0] * 3, [1.0] * 3, [False] * 3, (0.0, 1.0)),
    lambda: LimitPath([NAN], [1.0], [1.0], [False], (0.0, 1.0)),
], ids=["LimitPath.eval", "GridPath.eval", "GridPath.eval-inf",
        "total_variation-u", "total_variation-v", "jump_at", "F_n", "F_n-array",
        "SigmaG", "mass_closed", "lebesgue_mass-lo", "lebesgue_mass-hi",
        "ramp_z", "phi_explicit_ramp", "Schedule.power", "LimitPath-times",
        "LimitPath-one-time"])
def test_nan_argument_raises(call):
    """A NaN time, window end, probe or parameter (or an infinite lattice
    time) fails the range check instead of reading a clamped value or an
    index past the end."""
    with pytest.raises(ValueError):
        call()
