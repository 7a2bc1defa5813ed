"""Mollified finite-difference scheme: lattices, offset fans, jump crossings."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import oracle
from bvode import (
    BVFunction,
    ScalarField,
    StepLimitError,
    backend,
    discrete_jump_map,
    get_profile,
    mollify_L,
    phi_recursion,
    solve_grid,
    solve_offset,
    xi_grid_for_offset,
)
from bvode.scheme import _step_count


def mixed_driver():
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)))


class TestSolveOffset:
    def test_zero_field_stays_put(self):
        x = solve_offset(ScalarField.constant(0.0), mixed_driver(),
                         get_profile("uniform"), 8, 0.01, 0.0, 3.7)
        np.testing.assert_array_equal(x, np.full(x.size, 3.7))

    def test_unit_field_telescopes(self):
        """f = 1 turns the recursion into x0 + L_n(t_k) - L_n(t_0)."""
        L = mixed_driver()
        prof = get_profile("triangular")
        n, h, tau = 16, 0.015, 0.004
        x = solve_offset(ScalarField.constant(1.0), L, prof, n, h, tau, 2.0)
        tk = tau + h * np.arange(x.size)
        Ln = mollify_L(L, prof, n, tk)
        np.testing.assert_allclose(x, 2.0 + Ln - Ln[0], atol=1e-12)

    def test_lattice_covers_domain(self):
        L = mixed_driver()
        x = solve_offset(ScalarField.constant(0.0), L, get_profile("uniform"),
                         8, 0.25, 0.1, 0.0)
        # last point at or beyond b, previous strictly before
        assert 0.1 + (x.size - 1) * 0.25 >= 1.0
        assert 0.1 + (x.size - 2) * 0.25 < 1.0

    def test_validation(self):
        L = mixed_driver()
        f = ScalarField.constant(0.0)
        prof = get_profile("uniform")
        with pytest.raises(ValueError):
            solve_offset(f, L, prof, 8, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_offset(f, L, prof, 8, 0.1, 0.2, 1.0)   # tau >= a + h
        with pytest.raises(ValueError):
            solve_offset(f, L, prof, 8, 0.1, -0.05, 1.0)
        with pytest.raises(ValueError):
            solve_offset(f, L, prof, 0, 0.1, 0.0, 1.0)

    def test_step_cap(self):
        with pytest.raises(StepLimitError):
            solve_offset(ScalarField.constant(0.0), mixed_driver(),
                         get_profile("uniform"), 8, 1e-6, 0.0, 1.0,
                         step_cap=1000)

    def test_step_cap_boundary(self):
        # the lattice 0, 0.1, .., 1.0 takes exactly 10 steps
        args = (ScalarField.constant(0.0), BVFunction.constant((0.0, 1.0)),
                get_profile("uniform"), 8, 0.1, 0.0, 1.0)
        assert solve_offset(*args, step_cap=10).size == 11
        with pytest.raises(StepLimitError, match="needs 10 steps"):
            solve_offset(*args, step_cap=9)

    @pytest.mark.parametrize("h", [1e-30, 1e-320])
    def test_tiny_step_raises_before_counting(self, h):
        # 1e-30 used to hang in the rounding loop, 1e-320 to overflow
        with pytest.raises(StepLimitError):
            solve_offset(ScalarField.constant(0.0), mixed_driver(),
                         get_profile("uniform"), 8, h, 0.0, 1.0)

    def test_deterministic(self):
        f = ScalarField.bounded_sin(0.9, 2.0, freq_t=0.5)
        a = solve_offset(f, mixed_driver(), get_profile("bump"), 32, 0.003,
                         0.001, 0.2)
        b = solve_offset(f, mixed_driver(), get_profile("bump"), 32, 0.003,
                         0.001, 0.2)
        np.testing.assert_array_equal(a, b)

    def test_consistency_order_on_smooth_drive(self):
        """Jump-free cubic driver: error at b decays at first order."""
        L = BVFunction.from_segments([0.0, 1.0], [[0.1, 1.0, 1.0, -1.0]])
        f = ScalarField.bounded_tanh(1.0, 1.0, offset=0.2)
        dL = lambda t: 1.0 + 2.0 * t - 3.0 * t ** 2
        ref = solve_ivp(lambda t, y: f(t, y[0]) * dL(t), (0.0, 1.0), [0.5],
                        rtol=1e-11, atol=1e-12).y[0, -1]
        errs = []
        for k in (6, 7, 8, 9):
            n = 2 ** k
            x = solve_offset(f, L, get_profile("triangular"), n, 1.0 / n,
                             0.0, 0.5)
            errs.append(abs(x[-1] - ref))
        slope = np.polyfit(np.log([2.0 ** -k for k in (6, 7, 8, 9)]),
                           np.log(errs), 1)[0]
        assert slope >= 0.8

    def test_mollified_coefficient_toggle(self):
        L = mixed_driver()
        f = ScalarField.bounded_sin(1.0, 2.0)
        base = solve_offset(f, L, get_profile("triangular"), 16, 0.01, 0.0, 1.0)
        soft = solve_offset(f, L, get_profile("triangular"), 16, 0.01, 0.0, 1.0,
                            mollify_coefficient=True)
        assert base.shape == soft.shape
        assert np.max(np.abs(base - soft)) > 0.0
        # window-averaged coefficient deviates by O(1/n)
        assert np.max(np.abs(base - soft)) < 10.0 * f.lipschitz_const / 16


class TestGridPath:
    def test_offsets_fan(self):
        gp = solve_grid(ScalarField.constant(0.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.02, 1.0, n_offsets=5)
        np.testing.assert_allclose(gp.offsets, 0.02 / 5 * np.arange(5))
        assert gp.values.shape[0] == 5

    def test_single_offset_matches_solve_offset(self):
        f = ScalarField.bounded_tanh(1.0, 1.5)
        L = mixed_driver()
        gp = solve_grid(f, L, get_profile("bump"), 16, 0.01, 0.3, n_offsets=1)
        x = solve_offset(f, L, get_profile("bump"), 16, 0.01, 0.0, 0.3)
        np.testing.assert_array_equal(gp.values[0, :x.size], x)

    def test_callable_initial_state(self):
        gp = solve_grid(ScalarField.constant(0.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.02, lambda tau: tau,
                        n_offsets=4)
        np.testing.assert_array_equal(gp.final_values(), gp.offsets)

    def test_eval_piecewise_constant(self):
        gp = solve_grid(ScalarField.constant(1.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.25, 0.0, n_offsets=1)
        ts, xs = gp.path(0)
        # inside [t_k, t_{k+1}) the read-out is x_k
        np.testing.assert_array_equal(gp.eval(0, ts + 0.1), xs)
        assert gp.eval(0, np.array([5.0])) == xs[-1]
        assert gp.eval(0, np.array([-5.0])) == xs[0]

    def test_eval_nearest_snaps_to_offset(self):
        """With f = 0 and x0(tau) = tau the read-out is the snapped offset."""
        h, J = 0.1, 5
        gp = solve_grid(ScalarField.constant(0.0), mixed_driver(),
                        get_profile("uniform"), 8, h, lambda tau: tau,
                        n_offsets=J)
        for m in (0, 3, 7):
            for j in (0, 2, 4):
                t = m * h + j * h / J + 0.2 * h / J
                assert gp.eval_nearest(t) == gp.offsets[j]
        # past the midpoint between offsets the snap wraps to the next run
        assert gp.eval_nearest(0.3 + 4.6 * h / J) == gp.offsets[0]
        assert gp.eval_nearest(np.array([0.02]))[0] == gp.offsets[1]

    def test_rows_layout(self):
        gp = solve_grid(ScalarField.constant(0.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.4, 2.0, n_offsets=2)
        rows = list(gp.rows())
        js = {r[0] for r in rows}
        assert js == {0, 1}
        j, tau, k, t, x = rows[0]
        assert (j, k, x) == (0, 0, 2.0)
        assert t == tau


FAN_FIELDS = [
    ScalarField.constant(0.7),
    ScalarField.affine(0.3, -1.2),
    ScalarField.ramp(0.2, 0.5),
    ScalarField.bounded_sin(1.1, 2.0, freq_t=0.7, phase=0.3, offset=-0.2),
    ScalarField.bounded_tanh(0.8, 2.5, offset=0.1),
]


def serial_offset(f, L, prof, n, h, tau, x0, mollify_coefficient):
    """One offset's run, stepped one offset at a time: the exact recursion as
    solve_offset ran it before the fan routine, the mollified one by the
    serial oracle."""
    K = _step_count(L.domain[1], tau, h)
    ts = tau + h * np.arange(K + 1, dtype=np.float64)
    dLn = np.diff(backend.driver_lattice_values(ts, n, prof, L))
    if mollify_coefficient:
        s, w = prof.convolution_rule(n)
        return oracle.euler_mollified(f.kind, oracle.pack(f), tau, h, dLn, x0, s, w)
    return oracle.euler_exact_offset(f, tau, h, dLn, x0)


class TestFanOracle:
    @pytest.mark.parametrize("mollify", [False, True], ids=["exact", "mollified"])
    @pytest.mark.parametrize("name", ["uniform", "triangular", "bump"])
    @pytest.mark.parametrize("f", FAN_FIELDS, ids=lambda f: f.name)
    def test_matches_serial_runs(self, f, name, mollify):
        # h = 0.03 leaves K_j = 34 for the first offsets and 33 for the rest
        L, prof, n, h = mixed_driver(), get_profile(name), 8, 0.03
        x0 = lambda tau: 0.4 - 3.0 * tau
        gp = solve_grid(f, L, prof, n, h, x0, n_offsets=5, mollify_coefficient=mollify)
        assert len(set(gp.lengths.tolist())) == 2
        for j, tau in enumerate(gp.offsets):
            want = serial_offset(f, L, prof, n, h, float(tau), x0(float(tau)), mollify)
            assert gp.lengths[j] == want.size
            got = gp.values[j, :want.size]
            if mollify:
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
            else:
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(gp.values[j, want.size:], got[-1])

    @pytest.mark.parametrize("mollify", [False, True], ids=["exact", "mollified"])
    def test_single_offset_fan(self, mollify):
        f, L, prof = FAN_FIELDS[3], mixed_driver(), get_profile("triangular")
        gp = solve_grid(f, L, prof, 16, 0.01, 0.3, n_offsets=1, mollify_coefficient=mollify)
        want = serial_offset(f, L, prof, 16, 0.01, 0.0, 0.3, mollify)
        assert gp.values.shape == (1, want.size)
        assert np.all(np.abs(gp.values[0] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError, match="initial states must be finite"):
            solve_grid(FAN_FIELDS[4], mixed_driver(), get_profile("uniform"), 8, 0.05,
                       lambda tau: np.nan if tau > 0.0 else 1.0, n_offsets=3)


class TestXiGrid:
    @pytest.mark.parametrize("name", ["uniform", "triangular", "bump"])
    def test_endpoints_exact(self, name, rng):
        prof = get_profile(name)
        for _ in range(25):
            n = int(rng.integers(4, 200))
            h = float(rng.uniform(0.2, 2.0)) / n
            tau = float(rng.uniform(0.0, h))
            zeta = float(rng.uniform(tau + 1.2 / n, tau + 1.0 / n + 1.0))
            grid = xi_grid_for_offset(prof, n, h, tau, zeta)
            assert grid.values[0] == 0.0
            assert grid.values[-1] == 1.0
            assert np.all(np.diff(grid.values) >= 0.0)

    def test_resolution_index(self):
        n, h = 10, 0.02
        grid = xi_grid_for_offset(get_profile("uniform"), n, h, 0.0, 0.5)
        assert grid.p == int(np.floor(1.0 / (n * h) + 1e-9))

    def test_fractions_match_tail(self):
        """Interior values are the tail masses at lattice distances."""
        from bvode import F_n

        n, h, tau, zeta = 8, 0.03, 0.01, 0.7
        grid = xi_grid_for_offset(get_profile("triangular"), n, h, tau, zeta)
        j = 0
        while tau + (j + 1) * h < zeta - 1.0 / n:
            j += 1
        ks = np.arange(1, grid.p + 2)
        np.testing.assert_allclose(grid.values[1:-1],
                                   F_n(get_profile("triangular"), n,
                                       zeta - (tau + (j + ks) * h)),
                                   atol=1e-12)

    @pytest.mark.parametrize("h", [1e-30, 1e-320])
    def test_tiny_step_raises(self, h):
        with pytest.raises(StepLimitError):
            xi_grid_for_offset(get_profile("uniform"), 4, h, 0.0, 0.5)

    def test_oversized_crossing_grid_raises(self):
        # the epoch sits 5e7 steps in, but one crossing needs 1e12 fractions
        with pytest.raises(StepLimitError, match="crossing grid"):
            xi_grid_for_offset(get_profile("uniform"), 1, 1e-12, 0.0, 1.00005)

    def test_epoch_too_close_rejected(self):
        with pytest.raises(ValueError, match="smoothing width"):
            xi_grid_for_offset(get_profile("uniform"), 4, 0.01, 0.3, 0.4)


class TestDiscreteJumpMap:
    def test_zero_field_fixed_point(self):
        got = discrete_jump_map(ScalarField.constant(0.0), mixed_driver(),
                                0.25, get_profile("uniform"), 16, 0.01,
                                0.002, 0.9)
        assert got == 0.9

    def test_equals_recursion_over_fractions(self):
        L = mixed_driver()
        f = ScalarField.bounded_tanh(1.1, 0.8, offset=0.2)
        n, h, tau, zeta = 32, 0.01, 0.003, 0.75
        z = f.scaled_frozen(zeta, L.jump_at(zeta))
        grid = xi_grid_for_offset(get_profile("bump"), n, h, tau, zeta)
        want = phi_recursion(z, 0.4, grid)[-1]
        got = discrete_jump_map(f, L, zeta, get_profile("bump"), n, h, tau, 0.4)
        assert got == want

    def test_requires_jump_at_epoch(self):
        with pytest.raises(ValueError, match="no jump"):
            discrete_jump_map(ScalarField.constant(1.0), mixed_driver(),
                              0.4, get_profile("uniform"), 16, 0.01, 0.0, 0.0)

    def test_additive_for_constant_field(self):
        """f = c crosses the whole smoothed jump: increment c * dL."""
        L = mixed_driver()
        got = discrete_jump_map(ScalarField.constant(2.0), L, 0.25,
                                get_profile("triangular"), 64, 0.001,
                                0.0004, 1.0)
        assert got == pytest.approx(1.0 + 2.0 * 1.5, abs=1e-12)
