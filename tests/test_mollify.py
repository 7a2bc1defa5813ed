"""Mollifier profiles, tail transforms, driver smoothing, and regime probes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracle
from bvode import (
    BVFunction,
    F_n,
    F_n_inv,
    ScalarField,
    Schedule,
    SigmaG,
    classify_regime,
    fit_sigma_from_probes,
    get_profile,
    mollify_L,
    mollify_f,
    sigma_delta_limit,
)
from bvode.mollify import DEFAULT_DELTAS, DEFAULT_U_PROBES

PROFILE_NAMES = ("uniform", "triangular", "bump")


def tri_tail(y):
    y = np.clip(y, 0.0, 1.0)
    return np.where(y <= 0.5, 1.0 - 2.0 * y ** 2, 2.0 * (1.0 - y) ** 2)


class TestProfiles:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown profile"):
            get_profile("gaussian")

    def test_shared_instance(self):
        assert get_profile("uniform") is get_profile("UNIFORM")

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_density_nonnegative_and_supported(self, name):
        p = get_profile(name)
        s = np.linspace(-0.5, 1.5, 401)
        r = p.rho(s)
        assert np.all(r >= 0.0)
        assert np.all(r[(s < 0.0) | (s > 1.0)] == 0.0)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_unit_mass(self, name):
        p = get_profile(name)
        mass, err = quad(p.rho, 0.0, 1.0, points=list(p.kinks), limit=200)
        assert abs(mass - 1.0) < 1e-9

    def test_uniform_closed_form(self):
        p = get_profile("uniform")
        assert p.rho(0.3) == 1.0
        np.testing.assert_allclose(p.tail([0.0, 0.25, 1.0]), [1.0, 0.75, 0.0])
        np.testing.assert_allclose(p.tail_inv(0.75), 0.25, atol=1e-14)

    def test_triangular_closed_form(self):
        p = get_profile("triangular")
        s = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(p.rho(s), np.where(s <= 0.5, 4 * s, 4 * (1 - s)),
                                   atol=1e-14)
        y = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(p.tail(y), tri_tail(y), atol=1e-12)

    def test_bump_density_formula(self):
        p = get_profile("bump")
        s = np.array([0.1, 0.35, 0.5, 0.8])
        np.testing.assert_allclose(p.rho(s), p.cnorm * np.exp(-1.0 / (s * (1 - s))),
                                   rtol=1e-13)
        # symmetric about 1/2
        np.testing.assert_allclose(p.rho(0.2), p.rho(0.8), rtol=1e-13)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_tail_matches_quadrature(self, name):
        p = get_profile(name)
        for y in (0.05, 0.3, 0.5, 0.62, 0.9):
            ref, _ = quad(p.rho, y, 1.0, points=[k for k in p.kinks if k > y],
                          limit=200)
            assert abs(p.tail(y) - ref) < 1e-8

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_tail_boundary_and_clipping(self, name):
        p = get_profile(name)
        np.testing.assert_allclose(p.tail([-0.3, 0.0]), [1.0, 1.0])
        np.testing.assert_allclose(p.tail([1.0, 1.7]), [0.0, 0.0])
        y = np.linspace(0.0, 1.0, 200)
        assert np.all(np.diff(p.tail(y)) <= 1e-15)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_tail_inverse_roundtrip(self, name):
        p = get_profile(name)
        tol = 1e-10 if p.analytic else 5e-8
        u = np.linspace(0.002, 1.0, 97)
        np.testing.assert_allclose(p.tail(p.tail_inv(u)), u, atol=tol)
        assert p.tail_inv(1.0) == 0.0
        assert p.tail_inv(0.0) == np.inf
        assert p.tail(p.tail_inv(0.0)) == 0.0

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_incomplete_moments_match_quadrature(self, name):
        p = get_profile(name)
        tol = 1e-14 if p.analytic else 1e-9
        for y in (0.05, 0.3, 0.5, 0.62, 0.9, 1.0):
            for m in range(4):
                ref, _ = quad(lambda s: p.rho(s) * s ** m, 0.0, y,
                              points=[k for k in p.kinks if k < y] or None,
                              limit=200, epsabs=1e-14, epsrel=1e-12)
                assert abs(p.moments(y)[m] - ref) < tol
        np.testing.assert_array_equal(p.moments([-0.5, 0.0]), np.zeros((2, 4)))
        np.testing.assert_array_equal(p.moments(1.5), p.moments(1.0))
        # I_0 and the tail split the unit mass
        y = np.linspace(0.0, 1.0, 57)
        np.testing.assert_allclose(p.moments(y)[:, 0] + p.tail(y), 1.0, atol=1e-13)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_first_moment_is_half(self, name):
        # uniform trivially, triangular and bump by symmetry about 1/2
        assert abs(get_profile(name).moment(1) - 0.5) < 1e-9


class TestConvolutionRule:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    @pytest.mark.parametrize("n", [1, 4, 37])
    def test_convex_average_on_window(self, name, n):
        p = get_profile(name)
        s, w = p.convolution_rule(n)
        assert np.all((s >= 0.0) & (s <= 1.0 / n))
        assert abs(w.sum() - 1.0) < 1e-13
        assert np.all(w >= 0.0)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_rule_reproduces_first_moment(self, name):
        p = get_profile(name)
        s, w = p.convolution_rule(8)
        assert abs(np.dot(w, s) - p.moment(1) / 8.0) < 1e-9


class TestScaledTail:
    def test_F_n_rescales_argument(self):
        p = get_profile("uniform")
        np.testing.assert_allclose(F_n(p, 4, [0.0, 0.1, 0.25]), [1.0, 0.6, 0.0])

    def test_F_n_inv_rescales_value(self):
        p = get_profile("uniform")
        assert F_n_inv(p, 4, 0.6) == pytest.approx(0.1, abs=1e-14)
        assert F_n_inv(p, 4, 0.0) == np.inf

    @pytest.mark.parametrize("bad", [0, -3])
    def test_positive_n_required(self, bad):
        p = get_profile("uniform")
        with pytest.raises(ValueError):
            F_n(p, bad, 0.1)
        with pytest.raises(ValueError):
            F_n_inv(p, bad, 0.5)


class TestMollifyDriver:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_linear_driver_shifts_by_mean(self, name):
        """L(t) = t smooths to t + m1/n away from the right edge."""
        p = get_profile(name)
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        n = 8
        t = np.linspace(0.0, 1.0 - 1.0 / n, 23)
        np.testing.assert_allclose(mollify_L(L, p, n, t), t + p.moment(1) / n,
                                   atol=1e-9)

    def test_constant_driver_unchanged(self):
        L = BVFunction.from_segments([0.0, 2.0], [[3.5]])
        p = get_profile("triangular")
        t = np.linspace(-0.5, 2.5, 13)
        np.testing.assert_allclose(mollify_L(L, p, 4, t), 3.5, atol=1e-13)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_pure_jump_gives_scaled_tail(self, name):
        p = get_profile(name)
        L = BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.3, 2.0),))
        n = 8
        t = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(mollify_L(L, p, n, t),
                                   2.0 * F_n(p, n, 0.3 - t), atol=1e-9)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_against_direct_quadrature(self, name):
        """Window integral of rho_n(s) L(t+s) computed blindly with quad."""
        p = get_profile(name)
        L = BVFunction.from_segments(
            [0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
            jumps=((0.25, 1.5), (0.75, -0.5)))
        n = 8
        for t in (-0.1, 0.05, 0.21, 0.5, 0.71, 0.94, 1.0):
            special = sorted({0.25 - t, 0.75 - t, 0.5 - t, 1.0 - t}
                             | {k / n for k in p.kinks})
            pts = [s for s in special if 0.0 < s < 1.0 / n]
            ref, _ = quad(lambda s: n * p.rho(n * s) * L(t + s), 0.0, 1.0 / n,
                          points=pts, limit=200)
            assert abs(mollify_L(L, p, n, t) - ref) < 1e-8

    def test_error_shrinks_linearly_for_smooth_driver(self):
        p = get_profile("bump")
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 0.0, 1.0, -0.5]])
        t = np.linspace(0.0, 0.5, 11)
        errs = [np.max(np.abs(mollify_L(L, p, n, t) - L(t))) for n in (8, 16, 32)]
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]


class TestMollifyField:
    def test_constant_field_fixed(self):
        f = ScalarField.constant(2.5)
        assert mollify_f(f, get_profile("bump"), 5, 0.3, -1.0) == pytest.approx(2.5)

    def test_linear_field_shifts_by_mean(self):
        f = ScalarField.linear_x()
        val = mollify_f(f, get_profile("uniform"), 8, 0.0, 1.0)
        assert val == pytest.approx(1.0 + 0.5 / 8, abs=1e-12)

    @pytest.mark.parametrize("f", [
        ScalarField.bounded_sin(1.3, 2.0, freq_t=1.0),
        ScalarField.bounded_tanh(2.0, 1.5),
        ScalarField.ramp(0.2, 0.5),
        ScalarField.affine(1.0, -0.7),
    ])
    def test_window_average_stays_lipschitz_close(self, f, rng):
        p = get_profile("triangular")
        n = 16
        t = rng.uniform(-1.0, 1.0, size=20)
        x = rng.uniform(-2.0, 2.0, size=20)
        err = np.abs(mollify_f(f, p, n, t, x) - f(t, x))
        assert np.all(err <= 2.0 * f.lipschitz_const / n + 1e-12)


class TestSchedule:
    def test_power_rule(self):
        s = Schedule.power(2.0, coef=0.5, meshes=(4, 8, 16))
        assert s.h(8) == pytest.approx(0.5 / 64)
        assert s.meshes == (4, 8, 16)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            Schedule.power(0.0)
        with pytest.raises(ValueError):
            Schedule.power(1.0, coef=-1.0)

    def test_meshes_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Schedule.power(1.0, meshes=(8, 8, 16))
        with pytest.raises(ValueError, match="strictly increasing"):
            Schedule.power(1.0, meshes=())

    def test_rule_must_shrink(self):
        with pytest.raises(ValueError, match="shrink"):
            Schedule((2, 4), lambda n: float(n))

    def test_table_schedule(self):
        s = Schedule.from_table({16: 0.01, 4: 0.1})
        assert s.meshes == (4, 16)
        assert s.h(4) == 0.1
        with pytest.raises(ValueError, match="no entry"):
            s.h(5)


class TestSigmaDeltaLimit:
    def test_argument_validation(self):
        p = get_profile("uniform")
        sched = Schedule.power(2.0)
        with pytest.raises(ValueError, match="delta"):
            sigma_delta_limit(p, sched, 0.0, 0.5)
        with pytest.raises(ValueError, match="u must"):
            sigma_delta_limit(p, sched, 0.5, 1.5)

    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(0.01, 0.99), u=st.floats(0.001, 1.0))
    def test_uniform_closed_form(self, delta, u):
        """Shift probe for the flat kernel is min(u + delta*n*h(n), 1)."""
        p = get_profile("uniform")
        sched = Schedule.power(1.0, coef=0.5, meshes=(4, 16, 64))
        probe = sigma_delta_limit(p, sched, delta, u)
        expect = [min(u + delta * n * sched.h(n), 1.0) for n in sched.meshes]
        np.testing.assert_allclose(probe.values, expect, atol=1e-12)

    def test_probe_at_zero_stays_zero(self):
        probe = sigma_delta_limit(get_profile("bump"), Schedule.power(1.0),
                                  0.5, 0.0)
        assert np.all(probe.values == 0.0)
        assert probe.limit == 0.0

    def test_fast_steps_recover_identity(self):
        probe = sigma_delta_limit(get_profile("uniform"), Schedule.power(2.0),
                                  0.5, 0.37)
        assert probe.converged
        assert probe.limit == pytest.approx(0.37, abs=1e-3)

    def test_slow_steps_saturate(self):
        probe = sigma_delta_limit(get_profile("triangular"), Schedule.power(0.5),
                                  0.25, 0.37)
        assert probe.converged
        assert probe.limit == pytest.approx(1.0, abs=1e-6)

    def test_critical_rate_keeps_delta(self):
        probe = sigma_delta_limit(get_profile("uniform"), Schedule.power(1.0),
                                  0.25, 0.37)
        assert probe.converged
        assert probe.limit == pytest.approx(0.62, abs=1e-12)


class TestBroadcastProbe:
    """The broadcast probe is bitwise equal to the per-probe oracle loop."""

    FIELDS = ("delta", "u", "n_values", "limit", "tail_estimate", "converged")

    @staticmethod
    def assert_same(new, old):
        assert new.n_values == old.n_values
        assert new.values.shape == old.values.shape
        assert np.array_equal(new.values, old.values)
        assert np.array_equal(new.limit, old.limit)
        assert np.array_equal(new.tail_estimate, old.tail_estimate, equal_nan=True)
        assert np.array_equal(new.converged, old.converged)

    @pytest.mark.parametrize("alpha", (2.0, 1.0, 0.5))
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_default_grid(self, name, alpha):
        p, sched = get_profile(name), Schedule.power(alpha)
        d = np.asarray(DEFAULT_DELTAS)[:, None]
        u = np.asarray(DEFAULT_U_PROBES)[None, :]
        new = sigma_delta_limit(p, sched, d, u)
        assert new.values.shape == (len(DEFAULT_DELTAS), len(DEFAULT_U_PROBES),
                                    len(sched.meshes))
        self.assert_same(new, oracle.sigma_delta_limit(p, sched, d, u))

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_edge_u_probes(self, name):
        # u = 0 goes through tail_inv = inf
        p, sched = get_profile(name), Schedule.power(1.0)
        d = np.array([[0.1], [0.5], [0.9]])
        u = np.array([0.0, 1e-12, 0.5, 1.0])
        new = sigma_delta_limit(p, sched, d, u)
        self.assert_same(new, oracle.sigma_delta_limit(p, sched, d, u))
        assert np.all(new.values[:, 0] == 0.0)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_table_schedule(self, name):
        p = get_profile(name)
        sched = Schedule.from_table({16: 0.02, 64: 0.004, 256: 3e-4, 1024: 1e-5})
        d = np.asarray(DEFAULT_DELTAS)[:, None]
        u = np.asarray(DEFAULT_U_PROBES)
        self.assert_same(sigma_delta_limit(p, sched, d, u),
                         oracle.sigma_delta_limit(p, sched, d, u))

    @pytest.mark.parametrize("meshes", [(16, 64, 256), (16, 32)])
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_scalar_arguments_keep_scalar_probe(self, name, meshes):
        p, sched = get_profile(name), Schedule.power(1.5, meshes=meshes)
        for delta, u in [(0.5, 0.0), (0.25, 0.37), (0.9, 1.0), (np.float64(0.1), 1e-12)]:
            new = sigma_delta_limit(p, sched, delta, u)
            old = oracle.scalar_probe(p, sched, delta, u)
            for f in self.FIELDS:
                a, b = getattr(new, f), getattr(old, f)
                assert type(a) is type(b), f
                assert a == b or (np.isnan(a) and np.isnan(b)), f
            assert new.values.dtype == old.values.dtype
            assert np.array_equal(new.values, old.values)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_classify_evidence_matches_probe_loop(self, name):
        p, sched = get_profile(name), Schedule.power(1.0)
        us = np.array([0.0, 1e-12, 0.3, 0.5, 1.0])
        rep = classify_regime(p, sched, u_probes=us)
        old = oracle.probe_grid(p, sched, DEFAULT_DELTAS, us)
        assert rep.evidence == oracle.evidence(old)
        assert np.array_equal(rep.limits, [[q.limit for q in row] for row in old])
        assert np.array_equal(rep.converged, [[q.converged for q in row] for row in old])

    def test_default_u_grid(self):
        assert DEFAULT_U_PROBES == tuple(np.linspace(0.0, 1.0, 21))
        rep = classify_regime(get_profile("uniform"), Schedule.power(2.0))
        assert np.array_equal(rep.u_probes, DEFAULT_U_PROBES)

    @pytest.mark.parametrize("delta", [0.0, 1.0, np.nan])
    def test_bad_delta_in_array(self, delta):
        p, sched = get_profile("uniform"), Schedule.power(2.0)
        deltas = np.array([0.25, delta, 0.75])
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            sigma_delta_limit(p, sched, deltas[:, None], np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            classify_regime(p, sched, deltas=deltas)

    @pytest.mark.parametrize("u", [-0.1, 1.5, np.nan])
    def test_bad_u_in_array(self, u):
        p, sched = get_profile("bump"), Schedule.power(2.0)
        us = np.array([0.0, 0.5, u, 1.0])
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
            sigma_delta_limit(p, sched, np.array([[0.5]]), us)
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
            classify_regime(p, sched, u_probes=us)

    @pytest.mark.parametrize("meshes", [(16,), (16, 32)])
    def test_short_schedules_never_converge(self, meshes):
        p, sched = get_profile("triangular"), Schedule.power(2.0, meshes=meshes)
        probe = sigma_delta_limit(p, sched, np.array([[0.25], [0.5]]), np.array([0.0, 0.5]))
        assert probe.converged.shape == (2, 2) and not probe.converged.any()
        assert np.all(np.isnan(probe.tail_estimate))
        rep = classify_regime(p, sched)
        assert rep.verdict == "NoLimit"
        assert not rep.converged.any()


class TestClassifyRegime:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_fast_schedule_is_flow(self, name):
        rep = classify_regime(get_profile(name), Schedule.power(2.0))
        assert rep.verdict == "Flow"
        assert rep.max_spread <= 5e-3

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_slow_schedule_is_ito(self, name):
        rep = classify_regime(get_profile(name), Schedule.power(0.5))
        assert rep.verdict == "Ito"

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_critical_schedule_depends_on_delta(self, name):
        rep = classify_regime(get_profile(name), Schedule.power(1.0))
        assert rep.verdict == "DeltaDependent"
        assert rep.max_spread > 5e-3

    def test_shallow_meshes_cannot_settle(self):
        rep = classify_regime(get_profile("uniform"),
                              Schedule.power(2.0, meshes=(4, 8, 16)))
        assert rep.verdict == "NoLimit"
        assert "not contracting" in rep.detail

    def test_evidence_grid_is_complete(self):
        sched = Schedule.power(2.0, meshes=(16, 32, 64, 128))
        us = np.linspace(0.0, 1.0, 5)
        rep = classify_regime(get_profile("uniform"), sched, u_probes=us)
        assert len(rep.evidence) == len(rep.deltas) * us.size * 4
        d, u, n, v = rep.evidence[0]
        assert (d, u, n) == (rep.deltas[0], 0.0, 16)
        assert v == 0.0


class TestFitSigma:
    def test_roundtrip_staircase(self):
        sigma = SigmaG([(0.2, 0.5), (0.6, 0.9)])
        u = np.linspace(0.0, 1.0, 21)
        fitted = fit_sigma_from_probes(u, np.asarray(sigma(u)))
        np.testing.assert_allclose(fitted(u), sigma(u), atol=1e-9)
        # plateau values are exact; left endpoints only to grid resolution
        ab = np.asarray(fitted.intervals)
        np.testing.assert_allclose(ab[:, 1], [0.5, 0.9], atol=1e-9)
        np.testing.assert_allclose(ab[:, 0], [0.2, 0.6], atol=0.051)

    def test_identity_fits_empty(self):
        u = np.linspace(0.0, 1.0, 21)
        assert len(fit_sigma_from_probes(u, u).intervals) == 0

    def test_single_interval_touching_one(self):
        sigma = SigmaG([(0.4, 1.0)])
        u = np.linspace(0.0, 1.0, 41)
        fitted = fit_sigma_from_probes(u, np.asarray(sigma(u)))
        np.testing.assert_allclose(fitted(u), sigma(u), atol=1e-9)
