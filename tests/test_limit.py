"""Limit equation: Stieltjes flow between epochs and jump-map replacements."""

import numpy as np
import pytest

import oracle
from bvode import (
    BVFunction,
    JumpMeasure,
    LimitPath,
    ScalarField,
    SigmaG,
    measure_from_sigma,
    solve_limit,
    stieltjes_integrate,
)
from test_acceptance import BOUND_CORPUS


def mixed_driver():
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)))


class TestLimitPath:
    def path(self):
        rows = [(0.0, 1.0, 1.0, False), (0.5, 2.0, 3.0, True),
                (1.0, 4.0, 4.0, False)]
        return LimitPath(rows, domain=(0.0, 1.0))

    def test_right_continuous_at_jump(self):
        p = self.path()
        assert p.eval(0.5) == 3.0
        assert p.eval_left(0.5) == 2.0

    def test_linear_between_grid_points(self):
        p = self.path()
        assert p.eval(0.25) == pytest.approx(1.5)
        assert p.eval(0.75) == pytest.approx(3.5)
        assert p.eval_left(0.25) == p.eval(0.25)

    def test_endpoints(self):
        p = self.path()
        assert p.eval(0.0) == 1.0
        assert p.eval(1.0) == 4.0
        assert p.eval_left(0.0) == 1.0

    def test_vectorized(self):
        p = self.path()
        np.testing.assert_allclose(p.eval([0.0, 0.5, 1.0]), [1.0, 3.0, 4.0])

    def test_domain_checked(self):
        p = self.path()
        with pytest.raises(ValueError, match="must lie in"):
            p.eval(1.2)
        with pytest.raises(ValueError, match="must lie in"):
            p.eval_left(-0.1)
        # a hair outside is treated as the endpoint
        assert p.eval(1.0 + 5e-13) == 4.0

    def test_l1_norm_piecewise_linear(self):
        # 0.5 * (1 + 2) / 2 + 0.5 * (3 + 4) / 2
        assert self.path().l1_norm() == pytest.approx(2.5)

    def test_times_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LimitPath([(0.0, 1.0, 1.0, False), (0.0, 1.0, 1.0, False)],
                      domain=(0.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            LimitPath([], domain=(0.0, 1.0))

    def test_rows_roundtrip(self):
        rows = list(self.path().rows())
        assert rows[1] == (0.5, 2.0, 3.0, 1)
        assert rows[0][3] == 0


class TestStieltjesIntegrate:
    def test_unit_integrand_telescopes(self):
        Lc = mixed_driver().continuous_part()
        got = stieltjes_integrate(lambda s: np.ones_like(s), Lc, 0.0, 0.8, 1e-3)
        assert got == pytest.approx(Lc(0.8) - Lc(0.0), abs=1e-12)

    def test_constant_integrator_vanishes(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[2.0]])
        assert stieltjes_integrate(lambda s: s ** 3, Lc, 0.0, 1.0, 1e-3) == 0.0

    def test_quadratic_against_closed_form(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        got = stieltjes_integrate(lambda s: s ** 2, Lc, 0.0, 1.0, 1e-3)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_decreasing_integrator_flips_sign(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[0.0, -1.0]])
        got = stieltjes_integrate(lambda s: s, Lc, 0.0, 1.0, 1e-3)
        assert got == pytest.approx(-0.5, abs=1e-9)

    def test_scalar_integrand_accepted(self):
        Lc = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        got = stieltjes_integrate(lambda s: float(s) ** 2, Lc, 0.0, 1.0, 1e-2)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_validation(self):
        Lc = mixed_driver().continuous_part()
        with pytest.raises(ValueError, match="jump-free"):
            stieltjes_integrate(lambda s: s, mixed_driver(), 0.0, 1.0, 1e-3)
        with pytest.raises(ValueError, match="v_max"):
            stieltjes_integrate(lambda s: s, Lc, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="a <= t"):
            stieltjes_integrate(lambda s: s, Lc, 0.5, 0.2, 1e-3)
        assert stieltjes_integrate(lambda s: s, Lc, 0.3, 0.3, 1e-3) == 0.0


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
        assert path.eval_left(0.5) == 1.0
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

    def test_constant_driver_keeps_state(self):
        L = BVFunction.from_segments([0.0, 2.0], [[4.0]])
        path = solve_limit(ScalarField.bounded_sin(1.0, 1.0), L,
                           JumpMeasure.lebesgue(), 0.7)
        np.testing.assert_array_equal(path.x, np.full(path.x.size, 0.7))

    def test_v_max_validated(self):
        with pytest.raises(ValueError, match="v_max"):
            solve_limit(ScalarField.constant(1.0), mixed_driver(),
                        JumpMeasure.lebesgue(), 0.0, v_max=-1.0)

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
        Lc = L.continuous_part()
        integral = stieltjes_integrate(lambda s: f(s, path.eval(s)),
                                       Lc, 0.0, 1.0, v_max)
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


@pytest.mark.parametrize("mu_name", list(ORACLE_MEASURES))
@pytest.mark.parametrize("fi", range(len(ORACLE_FIELDS)),
                         ids=["const", "affine", "linear", "ramp", "sin", "tanh"])
@pytest.mark.parametrize("di", range(len(BOUND_CORPUS)))
def test_solve_limit_matches_row_oracle(di, fi, mu_name):
    """Criterion 8's drivers give the per-point row builder's path bit for
    bit, with the default grid and with report points and a coarse budget."""
    L, f, mu = BOUND_CORPUS[di], ORACLE_FIELDS[fi], ORACLE_MEASURES[mu_name]
    a, b = L.domain
    samples = np.linspace(a, b, 7)[1:-1]
    for kwargs in ({}, {"sample_times": samples, "v_max": 0.02}):
        path = solve_limit(f, L, mu, 0.4, **kwargs)
        want = oracle.limit_columns(oracle.limit_rows(f, L, mu, 0.4, **kwargs))
        for name in ("t", "x_left", "x", "is_jump", "_t_dbl", "_x_dbl"):
            np.testing.assert_array_equal(getattr(path, name), want[name], err_msg=name)
            assert getattr(path, name).dtype == want[name].dtype
        got_rows = list(path.rows())
        assert got_rows == want["rows"]
        assert [type(v) for v in got_rows[0]] == [float, float, float, int]
