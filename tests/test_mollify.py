"""Mollifier profiles, tail transforms, driver smoothing, and regime probes."""

import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracle
from bvode import (
    BVFunction,
    F_n,
    ScalarField,
    Schedule,
    SigmaG,
    StepLimitError,
    classify_regime,
    fit_sigma_from_probes,
    get_profile,
    mollify,
    mollify_L,
    mollify_f,
    sigma_delta_limit,
)
from bvode.mollify import DEFAULT_DELTAS, DEFAULT_U_PROBES, MollifierProfile

PROFILE_NAMES = ("uniform", "triangular", "bump")


def first_moment(p):
    """First moment of the base density, by adaptive quadrature."""
    return quad(lambda s: s * p.rho(s), 0.0, 1.0, points=list(p.kinks) or None,
                limit=200, epsabs=1e-14)[0]


def same_bits(got, want):
    """The same type and shape, and the same bits (signed zeros included)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def tri_tail(y):
    y = np.clip(y, 0.0, 1.0)
    return np.where(y <= 0.5, 1.0 - 2.0 * y ** 2, 2.0 * (1.0 - y) ** 2)


class TestProfiles:
    def test_unknown_name(self):
        """get_profile and the constructor refuse it with one message, and
        no instance is kept for it."""
        msg = r"unknown profile 'Gaussian'; choose from \['bump', 'triangular', 'uniform'\]"
        for build in (get_profile, MollifierProfile):
            with pytest.raises(ValueError, match=msg):
                build("Gaussian")
        assert sorted(mollify._PROFILES) == ["bump", "triangular", "uniform"]

    def test_shared_instance(self):
        assert get_profile("uniform") is get_profile("UNIFORM")

    def test_built_by_name_only(self):
        """A profile takes its name alone; only the bump carries cnorm and tables."""
        with pytest.raises(TypeError):
            MollifierProfile("uniform", 0)
        for name in ("uniform", "triangular"):
            p = get_profile(name)
            assert not any(hasattr(p, a) for a in ("cnorm", "table_x", "table_tail",
                                                   "table_moments"))
        assert MollifierProfile("Triangular").kinks.tolist() == [0.5]

    def test_bump_tables_match_builder(self):
        """The bump's cnorm and tables keep the bits of its builder's."""
        p = get_profile("bump")
        cnorm, xs, tail, moments = oracle.bump_tables()
        same_bits(p.cnorm, cnorm)
        for got, want in ((p.table_x, xs), (p.table_tail, tail), (p.table_moments, moments)):
            same_bits(got, want)
            assert got.flags.c_contiguous

    def test_bump_build_peak(self):
        """The tables' Gauss sums run in passes of 2,048 cells: a build peaks
        under 10 MB, where the (8, 65,536) node arrays of one pass took 19.6 MB."""
        tracemalloc.start()
        try:
            MollifierProfile("bump")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_name_keyed_methods_match_code_keyed(self, data):
        """rho, tail, moments, tail_inv and the rule, dispatching on the name,
        give the bits and types of the code-keyed methods they replaced, on
        scalars and arrays inside and outside [0, 1]."""
        name = data.draw(st.sampled_from(PROFILE_NAMES))
        p, ref = get_profile(name), oracle.CodeProfile(name)
        # every draw also holds the ends, the kink, both zeros, both infinities and
        # subnormals, where the bump's -1 / (s (1 - s)) overflows
        ys = [0.0, -0.0, 0.5, 1.0, -np.inf, np.inf, 5e-324, 1.0 - 2.0 ** -53, 2.2e-313]
        ys += data.draw(st.lists(st.floats(-0.5, 1.5)))
        for y in (np.array(ys), np.array(ys).reshape(-1, 1), data.draw(st.sampled_from(ys))):
            for method in ("rho", "tail", "moments"):
                same_bits(getattr(p, method)(y), getattr(ref, method)(y))
        us = [0.0, 0.5, 1.0] + data.draw(st.lists(st.floats(0.0, 1.0)))
        same_bits(p.tail_inv(np.array(us)), ref.tail_inv(np.array(us)))
        u = data.draw(st.sampled_from(us))
        same_bits(p.tail_inv(u), ref.tail_inv(u))
        n = data.draw(st.integers(1, 4096))
        for got, want in zip(p.convolution_rule(n), ref.convolution_rule(n)):
            same_bits(got, want)

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_density_nonnegative_and_supported(self, name):
        p = get_profile(name)
        s = np.linspace(-0.5, 1.5, 401)
        r = p.rho(s)
        assert np.all(r >= 0.0)
        assert np.all(r[(s < 0.0) | (s > 1.0)] == 0.0)

    @pytest.mark.parametrize("method", ["rho", "tail", "moments"])
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_nan_argument_raises(self, name, method):
        """A NaN is refused, not read as a density of 0, a tail of NaN or 1
        (triangular) or four NaN moments."""
        fn = getattr(get_profile(name), method)
        for y in (np.nan, np.array([0.3, np.nan]), np.array([[np.inf], [np.nan]])):
            with pytest.raises(ValueError, match=f"{method} argument must not be NaN"):
                fn(y)
        assert np.all(np.isfinite(fn(np.array([-np.inf, 0.5, np.inf]))))

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
        # to the bit: rho scales the one bump definition by cnorm
        np.testing.assert_array_equal(p.rho(s), p.cnorm * np.exp(-1.0 / (s * (1 - s))))
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
        tol = 5e-8 if name == "bump" else 1e-10
        u = np.linspace(0.002, 1.0, 97)
        np.testing.assert_allclose(p.tail(p.tail_inv(u)), u, atol=tol)
        assert p.tail_inv(1.0) == 0.0
        assert p.tail_inv(0.0) == np.inf
        assert p.tail(p.tail_inv(0.0)) == 0.0

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_incomplete_moments_match_quadrature(self, name):
        p = get_profile(name)
        tol = 1e-9 if name == "bump" else 1e-14
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
        assert abs(first_moment(get_profile(name)) - 0.5) < 1e-9

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_tail_inv_matches_oracle(self, name):
        """The shared bisection gives the inline table bisection's bits."""
        p = get_profile(name)
        u = np.concatenate((np.linspace(0.0, 1.0, 1001), [1e-300, 1e-12, 1.0 - 1e-16]))
        np.testing.assert_array_equal(p.tail_inv(u), oracle.tail_inv(p, u))
        assert p.tail_inv(0.3) == oracle.tail_inv(p, 0.3)


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
        assert abs(np.dot(w, s) - first_moment(p) / 8.0) < 1e-9

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    @pytest.mark.parametrize("n", [1, 8, 64])
    @pytest.mark.parametrize("points", [4, 16, 32])
    def test_rule_matches_oracle(self, name, n, points):
        """The shared panel rule gives the panel-by-panel rule's bits at any
        point count; the profile's rule is its 16-point case."""
        p = get_profile(name)
        want = oracle.convolution_rule(p, n, points)
        y, w = mollify._gauss_panels(np.concatenate(([0.0], p.kinks, [1.0])), points)
        w = (w * p.rho(y)).ravel()
        for got, ref in zip((y.ravel() / n, w / w.sum()), want):
            np.testing.assert_array_equal(got, ref)
        if points == 16:
            for got, ref in zip(p.convolution_rule(n), want):
                np.testing.assert_array_equal(got, ref)


class TestScaledTail:
    def test_F_n_rescales_argument(self):
        p = get_profile("uniform")
        np.testing.assert_allclose(F_n(p, 4, [0.0, 0.1, 0.25]), [1.0, 0.6, 0.0])

    def test_F_n_inv_rescales_value(self):
        """F_n^-1(u) = tail_inv(u) / n."""
        p = get_profile("uniform")
        assert p.tail_inv(0.6) / 4 == pytest.approx(0.1, abs=1e-14)
        assert p.tail_inv(0.0) / 4 == np.inf

    @pytest.mark.parametrize("name", ["uniform", "triangular", "bump"])
    def test_F_n_inv_rejects_nan(self, name):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            get_profile(name).tail_inv(np.nan)

    @pytest.mark.parametrize("bad", [0, -1, -3])
    def test_positive_n_required(self, bad):
        """mollify_L and mollify_f refuse such n too, and the shared profile
        caches no quadrature rule for it."""
        p = get_profile("uniform")
        rules = dict(p._rules)
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]], jumps=((0.5, 1.0),))
        for call in (lambda: F_n(p, bad, 0.1), lambda: mollify_L(L, p, bad, 0.4),
                     lambda: p.convolution_rule(bad),
                     lambda: mollify_f(ScalarField.linear_x(), p, bad, 0.3, 0.2)):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                call()
        assert p._rules.keys() == rules.keys()
        assert all(p._rules[k] is rules[k] for k in rules)


class TestMollifyDriver:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_linear_driver_shifts_by_mean(self, name):
        """L(t) = t smooths to t + m1/n away from the right edge."""
        p = get_profile(name)
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
        n = 8
        t = np.linspace(0.0, 1.0 - 1.0 / n, 23)
        np.testing.assert_allclose(mollify_L(L, p, n, t), t + first_moment(p) / n,
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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, [0.2, np.nan], [np.inf, 0.5]],
                             ids=["nan", "inf", "-inf", "array-nan", "array-inf"])
    def test_non_finite_times_rejected(self, t):
        """A NaN or infinite time is a named error, not a silent NaN or a
        RuntimeWarning from inf * 0 inside the window."""
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]], jumps=((0.5, 1.0),))
        with pytest.raises(ValueError, match="times must be finite"):
            mollify_L(L, get_profile("uniform"), 8, t)

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

    @pytest.mark.parametrize("t,x", [(np.nan, 0.0), (0.3, np.nan), (np.inf, 0.0),
                                     (0.3, -np.inf), ([0.1, np.nan], 0.0), (0.3, [0.0, np.inf])])
    def test_non_finite_arguments_raise(self, t, x):
        """A NaN time once averaged to a finite value, and a NaN state to NaN."""
        with pytest.raises(ValueError, match="times and states must be finite"):
            mollify_f(ScalarField.bounded_tanh(1.0, 1.0), get_profile("uniform"), 8, t, x)


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
            Schedule.from_table({2: 0.1, 4: 0.2})

    def test_table_schedule(self):
        s = Schedule.from_table({16: 0.01, 4: 0.1})
        assert s.meshes == (4, 16)
        assert s.table == (0.1, 0.01) and s.alpha is None
        assert s.h(4) == 0.1
        with pytest.raises(ValueError, match="no entry"):
            s.h(5)

    @pytest.mark.parametrize("kw,message", [
        (dict(alpha=2.0, table=(0.1, 0.01)), "either alpha and coef or table"),
        (dict(coef=0.5, table=(0.1, 0.01)), "either alpha and coef or table"),
        (dict(table=(0.1, 0.01, 0.001)), "one step per mesh, got 3 for 2"),
        (dict(table=(0.1,)), "one step per mesh, got 1 for 2"),
        (dict(), "power rule needs alpha > 0"),
    ], ids=["alpha-and-table", "coef-and-table", "table-too-long", "table-too-short", "no-rule"])
    def test_fields_must_fit_together(self, kw, message):
        """A rule given twice, or a table with a step no mesh has or a mesh
        with no step, is refused, not ignored, kept or left to an IndexError."""
        with pytest.raises(ValueError, match=message):
            Schedule((16, 32), **kw)

    def test_value_semantics(self):
        """Schedules are data: equal ones compare and hash equal, and survive pickling."""
        for make in (lambda: Schedule.power(2.0, coef=0.5, meshes=(4, 8, 16)),
                     lambda: Schedule.from_table([(16, 0.01), (4, 0.1)])):
            a, b = make(), make()
            assert a == b and hash(a) == hash(b)
            assert pickle.loads(pickle.dumps(a)) == a
        assert Schedule.power(2.0) != Schedule.power(2.0, coef=0.5)
        assert Schedule.power(2.0, meshes=(4, 8)) != Schedule.from_table({4: 1 / 16, 8: 1 / 64})

    @pytest.mark.parametrize("build,message", [
        (lambda: Schedule.power(2.0, meshes=(16, 32.7)), "non-integer mesh 32.7"),
        (lambda: Schedule.power(2.0, meshes=(16, 10 ** 400)), "too large for a float"),
        (lambda: Schedule.from_table({16.5: 0.01, 32: 0.001}), "non-integer mesh 16.5"),
        (lambda: Schedule.from_table({math.inf: 0.01}), "non-integer mesh inf"),
        (lambda: Schedule.from_table({math.nan: 0.01}), "non-integer mesh nan"),
        (lambda: Schedule.from_table({10 ** 400: 0.01}), "too large for a float"),
        (lambda: Schedule.from_table([(16, 0.1), (16, 0.05), (32, 0.01)]), "repeated mesh 16"),
        (lambda: Schedule.from_table([(16, 0.1), (16.0, 0.05)]), "repeated mesh 16"),
    ])
    def test_meshes_are_integers_given_once(self, build, message):
        """A fraction, an infinity, an int beyond float range and a repeated table
        mesh are refused, not truncated, overflowed or overwritten."""
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


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

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_table_of_power_steps(self, name):
        """A table holding a power rule's steps probes bitwise as that rule does."""
        p = get_profile(name)
        power = Schedule.power(2.0, meshes=(16, 32, 64, 128))
        table = Schedule.from_table({n: power.h(n) for n in power.meshes})
        d = np.asarray(DEFAULT_DELTAS)[:, None]
        u = np.asarray(DEFAULT_U_PROBES)
        new = sigma_delta_limit(p, table, d, u)
        self.assert_same(new, oracle.sigma_delta_limit(p, table, d, u))
        self.assert_same(new, oracle.sigma_delta_limit(p, power, d, u))
        self.assert_same(sigma_delta_limit(p, power, d, u), new)

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
        assert list(oracle.probe_rows(rep.probe)) == oracle.evidence(old)
        assert np.array_equal(rep.probe.limit, [[q.limit for q in row] for row in old])
        assert np.array_equal(rep.probe.converged, [[q.converged for q in row] for row in old])

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
        assert not rep.probe.converged.any()


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

    @pytest.mark.parametrize("lists", [{"deltas": ()}, {"u_probes": []}])
    def test_empty_probe_list_named(self, lists):
        (key,) = lists
        with pytest.raises(ValueError, match=f"at least one entry in {key}"):
            classify_regime(get_profile("uniform"), Schedule.power(2.0), **lists)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        """A NaN tol once gave GeneralSigma with an empty staircase, and
        tol = -1 DeltaDependent (0 > -1); the fit refuses such a tol too."""
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            classify_regime(get_profile("uniform"), Schedule.power(0.5), tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            fit_sigma_from_probes([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], tol=tol)

    def test_evidence_grid_is_complete(self):
        sched = Schedule.power(2.0, meshes=(16, 32, 64, 128))
        us = np.linspace(0.0, 1.0, 5)
        rep = classify_regime(get_profile("uniform"), sched, u_probes=us)
        probe = rep.probe
        assert probe.values.shape == (len(rep.deltas), us.size, 4)
        assert (probe.delta[0, 0], probe.u[0, 0], probe.n_values[0]) == (rep.deltas[0], 0.0, 16)
        assert probe.values[0, 0, 0] == 0.0


# today's verdict at the default meshes (16 to 8192), the same for all three
# profiles: away from alpha in {0.5, 1, 2} the probes converge to the closed
# form too slowly for the 1e-3 contraction test, which reports NoLimit
POWER_VERDICTS = {0.5: "Ito", 0.8: "NoLimit", 0.9: "NoLimit", 0.95: "NoLimit",
                  1.0: "DeltaDependent", 1.05: "NoLimit", 1.1: "NoLimit", 1.2: "NoLimit",
                  1.5: "NoLimit", 2.0: "Flow"}


class TestPowerSchedules:
    @pytest.mark.parametrize("name", PROFILE_NAMES)
    @pytest.mark.parametrize("alpha", sorted(POWER_VERDICTS))
    def test_verdict_beside_closed_form(self, name, alpha):
        """Every power schedule has a closed-form limit, and its probes
        approach it along the meshes; the verdict is pinned as it stands."""
        p = get_profile(name)
        rep = classify_regime(p, Schedule.power(alpha))
        assert rep.verdict == POWER_VERDICTS[alpha]
        closed_form = "Flow" if alpha > 1.0 else "DeltaDependent" if alpha == 1.0 else "Ito"
        assert rep.verdict in (closed_form, "NoLimit")
        d, u = np.asarray(rep.deltas)[:, None], rep.u_probes
        limit = np.broadcast_to(oracle.power_limit(p, alpha, 1.0, d, u), rep.probe.limit.shape)
        err = np.abs(rep.probe.values - limit[..., None])
        assert np.all(np.diff(err, axis=-1) <= 1e-15)
        if alpha == 1.0:  # n h(n) = c at every mesh
            assert err.max() <= 1e-15


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
