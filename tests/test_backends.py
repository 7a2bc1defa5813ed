"""Cross-checks of the hot kernels against their references.

The backend entry points must match the serial kernels of :mod:`oracle`
(bit for bit where they run the same arithmetic) and explicit recurrences.
The quadrature lattice of :mod:`oracle` is the reference for the exact
incomplete-moment lattice.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import oracle
from bvode import BVFunction, ScalarField, XiGrid, backend, get_profile, phi_recursion
from test_scheme import fan_of_one

FIELDS = [
    ScalarField.constant(0.7),
    ScalarField.affine(0.3, -1.2),
    ScalarField.linear_x(),
    ScalarField.ramp(0.2, 0.5),
    ScalarField.bounded_sin(1.1, 2.0, freq_t=0.7, phase=0.3, offset=-0.2),
    ScalarField.bounded_tanh(0.8, 2.5, offset=0.1),
]


def mixed_driver():
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)))


def cubic_driver():
    """Continuous cubic segments, three breakpoints and two jumps in [0.3, 0.4]."""
    breaks = [0.0, 0.3, 0.35, 0.4, 1.0]
    shapes = [[1.0, -2.0, 3.0], [0.7, 0.5, -1.0], [-1.0, 2.0, 4.0], [0.5, 1.0, -1.5]]
    c0, rows = 0.5, []
    for (lo, hi), (c1, c2, c3) in zip(zip(breaks[:-1], breaks[1:]), shapes):
        rows.append([c0, c1, c2, c3])
        u = hi - lo
        c0 = ((c3 * u + c2) * u + c1) * u + c0
    return BVFunction.from_segments(breaks, rows,
                                    jumps=((0.32, 1.0), (0.35, -2.0), (0.9, 0.5)))


def lattice_args(ts, n, profile, driver):
    a, b = driver.domain
    cp = oracle.CodeProfile(profile.name)
    return (ts, n, cp.code, cp.cnorm, cp.kinks, cp.table_x, cp.table_tail,
            a, b, driver.seg_breaks, driver.seg_coefs,
            driver.jump_epochs, driver.jump_sizes, oracle.GL_NODES, oracle.GL_WEIGHTS)


def lattice_points(driver, n):
    """Points inside and outside the domain, on every breakpoint and jump
    epoch, and one window width before each of them."""
    marks = np.concatenate((driver.seg_breaks, driver.jump_epochs))
    return np.concatenate((np.linspace(-0.4, 1.4, 181), marks, marks - 1.0 / n))


# the quadrature oracle is exact for the polynomial integrands of the
# piecewise-linear profiles; the bump moments come from a table
ORACLE_TOL = {"uniform": 1e-13, "triangular": 1e-13, "bump": 1e-9}


class TestDriverLattice:
    @pytest.mark.parametrize("name", ["uniform", "triangular", "bump"])
    def test_plain_matches_blocks(self, name):
        prof = get_profile(name)
        tol = ORACLE_TOL[name]
        for drv in (mixed_driver(), cubic_driver()):
            for n in (3, 8, 64):
                ts = lattice_points(drv, n)
                ref = oracle.driver_lattice(*lattice_args(ts, n, prof, drv))
                got = backend.driver_lattice_values(ts, n, prof, drv)
                np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)

    def test_active_dispatch_agrees(self):
        drv = mixed_driver()
        ts = np.linspace(0.0, 1.0, 33)
        prof = get_profile("triangular")
        got = backend.driver_lattice_values(ts, 16, prof, drv)
        ref = oracle.driver_lattice(*lattice_args(ts, 16, prof, drv))
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_chunked_equals_unchunked(self, monkeypatch):
        drv = cubic_driver()
        ts = lattice_points(drv, 4)
        prof = get_profile("bump")
        whole = backend.driver_lattice_values(ts, 4, prof, drv)
        assert ts.size > 64 and ts.size <= backend.LATTICE_CHUNK
        monkeypatch.setattr(backend, "LATTICE_CHUNK", 64)
        np.testing.assert_array_equal(backend.driver_lattice_values(ts, 4, prof, drv), whole)


def euler_one(f, tau, h, dLn, x0):
    """backend.euler_exact on a fan of one offset."""
    return backend.euler_exact(f, [tau], h, np.asarray(dLn)[None], [x0])[0]


class TestEulerExact:
    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_lanes_agree(self, f, rng):
        dLn = rng.normal(0.0, 0.3, size=200)
        ref = oracle.euler_exact(f.kind, oracle.pack(f), 0.1, 0.01, dLn, 0.8)
        act = euler_one(f, 0.1, 0.01, dLn, 0.8)
        np.testing.assert_allclose(act, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_matches_recurrence(self, f, rng):
        dLn = rng.normal(0.0, 0.2, size=50)
        tau, h, x = 0.3, 0.02, -0.5
        xs = [x]
        for k, d in enumerate(dLn):
            x = x + f(tau + k * h, x) * d
            xs.append(x)
        np.testing.assert_allclose(euler_one(f, tau, h, dLn, -0.5),
                                   xs, rtol=1e-12, atol=1e-14)

    def test_affine_scan_handles_sign_flips(self, rng):
        # steps large enough that 1 + slope*dL changes sign
        f = ScalarField.affine(0.5, -3.0)
        dLn = rng.uniform(-0.8, 0.8, size=120)
        ref = oracle.euler_exact(f.kind, oracle.pack(f), 0.0, 0.1, dLn, 1.0)
        vec = euler_one(f, 0.0, 0.1, dLn, 1.0)
        np.testing.assert_allclose(vec, ref, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_fan_of_one_matches_serial_kernel(self, f, rng):
        """A one-offset fan is bit for bit the serial kernel, directly and
        through the jump map's recursion over crossing fractions."""
        for size in (0, 1, 1024):
            dLn = rng.normal(0.0, 0.3, size=size)
            np.testing.assert_array_equal(euler_one(f, 0.1, 0.01, dLn, 0.8),
                                          oracle.euler_exact_offset(f, 0.1, 0.01, dLn, 0.8))
            z = f.scaled_frozen(0.4, -1.3)
            xi = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, size)), [1.0]))
            np.testing.assert_array_equal(phi_recursion(z, 0.8, XiGrid(xi)),
                                          oracle.euler_exact_offset(z, 0.0, 0.0, np.diff(xi), 0.8))

    def test_empty_step_list(self):
        f = ScalarField.linear_x()
        out = backend.euler_exact(f, [0.0, 0.05], 0.1, np.empty((2, 0)), [2.0, -1.0])
        np.testing.assert_array_equal(out, [[2.0], [-1.0]])

    def test_degenerate_scan_rows_step_the_fan(self, rng):
        # 1 + slope * dL = 0 exactly in row 1: that row leaves the scan and is
        # stepped like a generic field, the others keep the closed form
        f = ScalarField.affine(0.5, -2.0)
        dLn = rng.uniform(-0.2, 0.2, size=(3, 20))
        dLn[1, 7] = 0.5
        taus, x0s = np.array([0.0, 0.01, 0.02]), np.array([1.0, -0.5, 0.3])
        got = backend.euler_exact(f, taus, 0.05, dLn, x0s)
        for j in range(3):
            want = oracle.euler_exact_offset(f, taus[j], 0.05, dLn[j], x0s[j])
            np.testing.assert_array_equal(got[j], want)


class TestEulerMollified:
    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_matches_windowed_recurrence(self, f, rng):
        from bvode import mollify_f

        prof = get_profile("triangular")
        n = 8
        s, w = prof.convolution_rule(n)
        dLn = rng.normal(0.0, 0.2, size=30)
        tau, h, x = 0.1, 0.05, 0.4
        xs = [x]
        for k, d in enumerate(dLn):
            x = x + mollify_f(f, prof, n, tau + k * h, x) * d
            xs.append(x)
        got = backend.euler_mollified(f, [tau], h, dLn[None], [0.4], s, w)[0]
        np.testing.assert_allclose(got, xs, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_fan_matches_serial_oracle(self, f, rng):
        s, w = get_profile("bump").convolution_rule(8)
        taus = np.array([0.1, 0.12, 0.14])
        x0s = np.array([0.4, -0.3, 1.1])
        dLn = rng.normal(0.0, 0.2, size=(3, 30))
        dLn[2, 25:] = 0.0   # a shorter run, padded with zero increments
        got = backend.euler_mollified(f, taus, 0.05, dLn, x0s, s, w)
        for j in range(3):
            ref = oracle.euler_mollified(f.kind, oracle.pack(f), taus[j], 0.05, dLn[j], x0s[j], s, w)
            np.testing.assert_allclose(got[j], ref, rtol=1e-11, atol=1e-13)
        np.testing.assert_array_equal(got[2, 26:], got[2, 25])


class TestFlowMass:
    def test_constant_field_closed_form(self):
        f = ScalarField.constant(2.0)
        assert backend.flow_mass(f, 1.0, 0.3, 1e-3) == pytest.approx(1.6, abs=1e-12)

    def test_affine_field_closed_form(self):
        f = ScalarField.affine(1.0, -0.5)
        x, m = 0.3, 0.8
        exact = (x - 2.0) * np.exp(-0.5 * m) + 2.0
        assert backend.flow_mass(f, x, m, 1e-3) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("f", [
        ScalarField.bounded_tanh(1.5, 2.0, offset=0.2),
        ScalarField.bounded_sin(0.9, 3.0, phase=0.5),
        ScalarField.ramp(0.5, 0.4, height=1.2),
    ], ids=lambda f: f.name)
    def test_against_adaptive_integrator(self, f):
        sol = solve_ivp(lambda m, y: f(0.0, y[0]), (0.0, 0.7), [0.25],
                        rtol=1e-11, atol=1e-12, dense_output=True)
        got = backend.flow_mass(f, 0.25, 0.7, 1e-3)
        assert got == pytest.approx(sol.y[0, -1], abs=5e-9)

    def test_zero_mass_is_identity(self):
        f = ScalarField.bounded_sin(1.0, 1.0)
        assert backend.flow_mass(f, 0.37, 0.0, 1e-3) == 0.37


class TestHeunPath:
    def test_matches_reference_steps(self, rng):
        f = ScalarField.bounded_sin(0.8, 1.5, freq_t=0.4)
        s = np.sort(rng.uniform(0.0, 1.0, size=40))
        s[0], s[-1] = 0.0, 1.0
        Lg = np.cumsum(np.abs(rng.normal(0.0, 0.05, size=40)))
        x = 0.6
        xs = [x]
        for k in range(s.size - 1):
            dL = Lg[k + 1] - Lg[k]
            pred = x + f(s[k], x) * dL
            x = x + 0.5 * (f(s[k], x) + f(s[k + 1], pred)) * dL
            xs.append(x)
        got = backend.heun_path(f, s, Lg, 0.6)
        np.testing.assert_allclose(got, xs, rtol=1e-12, atol=1e-14)

    def test_second_order_on_smooth_drive(self):
        f = ScalarField.linear_x()
        errs = []
        for m in (50, 100, 200):
            s = np.linspace(0.0, 1.0, m + 1)
            xs = backend.heun_path(f, s, s, 1.0)
            errs.append(abs(xs[-1] - np.e))
        assert errs[1] < 0.3 * errs[0]
        assert errs[2] < 0.3 * errs[1]


class TestLaneSelection:
    def test_import_is_silent(self):
        subprocess.run([sys.executable, "-W", "error", "-c", "import bvode"], check=True)

    def test_plain_kernels_match_active(self):
        """A full scheme solve equals the serial oracle recursion over its lattice."""
        L = mixed_driver()
        f = ScalarField.bounded_tanh(0.8, 2.5, offset=0.1)
        prof, n, h = get_profile("triangular"), 64, 1.0 / 4096
        got = fan_of_one(f, L, prof, n, h, 0.0, 1.0)
        ts = h * np.arange(got.size, dtype=np.float64)
        dLn = np.diff(backend.driver_lattice_values(ts, n, prof, L))
        np.testing.assert_array_equal(
            got, oracle.euler_exact(f.kind, oracle.pack(f), 0.0, h, dLn, 1.0))


# every field kind, with bounded parameters
FIELD_KINDS = st.one_of(
    st.builds(ScalarField.constant, st.floats(-2.0, 2.0)),
    st.builds(ScalarField.affine, st.floats(-1.0, 1.0), st.floats(-1.5, 1.5)),
    st.builds(ScalarField.ramp, st.floats(-1.0, 1.0), st.floats(0.1, 2.0), st.floats(-2.0, 2.0)),
    st.builds(ScalarField.bounded_sin, st.floats(-1.5, 1.5), st.floats(-3.0, 3.0),
              st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)),
    st.builds(ScalarField.bounded_tanh, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0),
              st.floats(-1.0, 1.0)),
)


def rk4_tolerance(mass, substep, value):
    """Error bound of the RK4 oracle flow: each of its ceil(mass / substep)
    substeps rounds the state once, by at most half an ulp of |value| + 1
    (stage roundings included); at substep 1e-4 the h^4 truncation error
    of these bounded fields stays below 1e-15."""
    return (math.ceil(mass / substep) + 1) * 2.0 ** -52 * (1.0 + abs(value))


class TestOracleProperties:
    """The package kernels match the serial oracle on every field kind: the
    Heun steps and the Euler fan bitwise, the exact flow within RK4's error."""

    @settings(max_examples=100, deadline=None)
    @given(f=FIELD_KINDS, x=st.floats(-3.0, 3.0), mass=st.floats(0.0, 1.0))
    def test_flow_mass(self, f, x, mass):
        want = oracle.flow_mass(f.kind, oracle.pack(f), x, mass, 1e-4, oracle.kinks(f))
        got = backend.flow_mass(f, x, mass)
        assert abs(got - want) <= rk4_tolerance(mass, 1e-4, want)

    @settings(max_examples=100, deadline=None)
    @given(f=FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 60),
           x0=st.floats(-3.0, 3.0))
    def test_heun_path(self, f, seed, size, x0):
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(0.0, 1.0, size))
        Lg = np.cumsum(rng.normal(0.0, 0.1, size))
        want = oracle.heun_path(f.kind, oracle.pack(f), s, Lg, x0)
        np.testing.assert_array_equal(backend.heun_path(f, s, Lg, x0), want)

    @settings(max_examples=150, deadline=None)
    @given(f=FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), size=st.integers(0, 60),
           x0=st.floats(-3.0, 3.0), scale=st.sampled_from([1e-3, 0.1, 10.0, 1e155]))
    def test_heun_path_keeps_numpy_scalar_bits(self, f, seed, size, x0, scale):
        """Steps on Python floats give the bits of the steps whose tanh or sin
        state was a numpy scalar: signed zeros, and at the largest scale the
        overflowed and NaN states, included."""
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(0.0, 1.0, size))
        Lg = np.cumsum(rng.normal(0.0, scale, size))
        with np.errstate(all="ignore"):  # a huge scale overflows alike on both sides
            want = oracle.heun_steps(f, s, Lg, x0)
            got = backend.heun_path(f, s, Lg, x0)
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("J", [1, 3, 17])
    @settings(max_examples=60, deadline=None)
    @given(f=FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), kmax=st.integers(0, 40),
           mix=st.booleans())
    def test_euler_exact_fan(self, J, f, seed, kmax, mix):
        """Ragged runs: row j has K_j steps, then zero increments up to kmax.
        With ``mix`` the field is affine with a power-of-two slope and rows
        are made degenerate at random, so healthy rows share a fan with
        rows where b dL = -1 exactly, 1 + b dL = 2^-45 or |P| passes 1e290."""
        rng = np.random.default_rng(seed)
        h = 0.05
        taus = rng.uniform(0.0, h, J)
        x0s = rng.uniform(-2.0, 2.0, J)
        Ks = rng.integers(0, kmax + 1, J)
        dLn = rng.normal(0.0, 0.3, (J, kmax))
        if mix:
            b = float(rng.choice([-2.0, -0.5, -0.125, 0.25, 1.0, 2.0]))
            f = ScalarField.affine(rng.uniform(-1.0, 1.0), b)
            for j in np.flatnonzero((Ks > 0) & (rng.random(J) < 0.5)):
                k, kind = rng.integers(Ks[j]), rng.integers(3)
                if kind == 0:
                    dLn[j, k] = -1.0 / b  # a zero factor
                elif kind == 1:
                    dLn[j, k] = (2.0 ** -45 - 1.0) / b  # a factor below 1e-12
                else:
                    dLn[j] = 0.0
                    dLn[j, k] = 1e295 / b  # one factor past 1e290
        dLn[np.arange(kmax) >= Ks[:, None]] = 0.0
        got = backend.euler_exact(f, taus, h, dLn, x0s)
        assert got.shape == (J, kmax + 1)
        for j, K in enumerate(Ks):
            want = oracle.euler_exact_offset(f, taus[j], h, dLn[j, :K], x0s[j])
            np.testing.assert_array_equal(got[j, :K + 1], want)
            np.testing.assert_array_equal(got[j, K + 1:], want[-1])


class TestExactFlow:
    """Laws of the exact flow, and parameters at the edges of each closed form."""

    @settings(max_examples=200, deadline=None)
    @given(f=FIELD_KINDS, x=st.floats(-3.0, 3.0), m1=st.floats(0.0, 1.0),
           m2=st.floats(0.0, 1.0))
    def test_semigroup(self, f, x, m1, m2):
        whole = backend.flow_mass(f, x, m1 + m2)
        split = backend.flow_mass(f, backend.flow_mass(f, x, m1), m2)
        assert abs(whole - split) <= 1e-14 * (1.0 + abs(whole))

    @settings(max_examples=100, deadline=None)
    @given(f=FIELD_KINDS, x=st.floats(-3.0, 3.0))
    def test_monotone_toward_fixed_point(self, f, x):
        """The path moves the way z(x) points and stops short of any zero of z."""
        sign = np.sign(f(0.0, x))
        path = np.array([backend.flow_mass(f, x, m) for m in np.linspace(0.0, 4.0, 41)])
        ulps = 4.0 * np.spacing(np.abs(path))
        assert np.all(sign * np.diff(path) >= -ulps[1:])
        assert np.all(sign * f(0.0, path) >= -f.lipschitz_const * ulps)

    @pytest.mark.parametrize("f, x, fixed", [
        (ScalarField.affine(1.0, -0.5), -3.0, 2.0),
        (ScalarField.ramp(0.2, 0.5, 1.5), -1.0, 0.7),
        (ScalarField.bounded_tanh(-1.5, 2.0, 0.3), -2.0, np.arctanh(0.2) / 2.0),
        (ScalarField.bounded_sin(1.2, 2.0, phase=0.3, offset=0.4), 0.0,
         (np.pi + np.arcsin(0.4 / 1.2) - 0.3) / 2.0),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_settles_on_fixed_point(self, f, x, fixed):
        assert backend.flow_mass(f, x, 100.0) == pytest.approx(fixed, abs=1e-14)

    @pytest.mark.parametrize("f, x", [
        (ScalarField.constant(0.0), 0.3),
        (ScalarField.affine(0.5, -0.25), 2.0),
        (ScalarField.ramp(0.2, 0.5, 1.0), 0.75),
        (ScalarField.ramp(0.2, 0.5, -1.0), 1.5),
        (ScalarField.bounded_sin(1.0, 2.0, phase=0.0), 0.0),
        (ScalarField.bounded_tanh(1.0, 2.0, 0.0), 0.0),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_zero_field_keeps_state(self, f, x):
        assert f(0.0, x) == 0.0
        assert backend.flow_mass(f, x, 0.8) == x

    @pytest.mark.parametrize("f, x, m, want", [
        # subnormal and tiny freq_x: z is constant at amp sin(phase) + offset
        (ScalarField.bounded_sin(1.2, 8.6e-173, phase=0.4, offset=0.3), 0.7, 0.9,
         0.7 + 0.9 * (1.2 * np.sin(0.4) + 0.3)),
        (ScalarField.bounded_sin(1.2, -2.2e-311, phase=0.4, offset=0.3), 0.7, 0.9,
         0.7 + 0.9 * (1.2 * np.sin(0.4) + 0.3)),
        (ScalarField.bounded_sin(0.5, -2.2e-320, phase=0.4, offset=1.3), 0.7, 0.9,
         0.7 + 0.9 * (0.5 * np.sin(0.4) + 1.3)),
        # subnormal and tiny slope: z is the offset
        (ScalarField.bounded_tanh(1.3, 5e-324, 0.2), 0.7, 0.9, 0.7 + 0.9 * 0.2),
        (ScalarField.bounded_tanh(1.3, 1e-300, 0.2), 0.7, 0.9, 0.7 + 0.9 * 0.2),
        # amp = 0: z is the offset
        (ScalarField.bounded_tanh(0.0, 1.0, 0.5), 1.0, 2.0, 2.0),
        # H = 0 and subnormal H
        (ScalarField.ramp(0.2, 0.5, 0.0), 0.1, 0.9, 0.1),
        (ScalarField.ramp(0.2, 0.5, 5e-324), 0.3, 0.9, 0.3),
        # b = 0 and subnormal b
        (ScalarField.affine(0.3, 0.0), 0.1, 0.9, 0.1 + 0.3 * 0.9),
        (ScalarField.affine(0.3, 5e-324), 0.1, 0.9, 0.1 + 0.3 * 0.9),
        # |s x| > 350, saturated at z = 1.5 and z = -0.5
        (ScalarField.bounded_tanh(1.0, 1000.0, 0.5), 0.5, 0.3, 0.5 + 0.3 * 1.5),
        (ScalarField.bounded_tanh(1.0, -1000.0, 0.5), 0.5, 0.5, 0.5 - 0.5 * 0.5),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_degenerate_parameters(self, f, x, m, want):
        assert backend.flow_mass(f, x, m) == pytest.approx(want, rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("f, x, m", [
        # ramp: plateau then slope; falling off the slope; falling on the plateau
        (ScalarField.ramp(0.2, 0.5, 1.5), -0.5, 0.9),
        (ScalarField.ramp(0.2, 0.5, -1.5), 0.3, 0.9),
        (ScalarField.ramp(0.2, 0.5, -1.5), 0.1, 0.9),
        # sin: winding up and down, settling (freq_x < 0), |offset| = |amp|
        (ScalarField.bounded_sin(0.5, 3.0, phase=0.3, offset=1.0), 0.7, 5.0),
        (ScalarField.bounded_sin(-0.5, -3.0, phase=0.3, offset=-1.0), 0.7, 5.0),
        (ScalarField.bounded_sin(1.2, -2.0, phase=0.3, offset=0.4), 0.7, 2.0),
        (ScalarField.bounded_sin(1.0, 2.0, phase=0.4, offset=1.0), 0.7, 2.0),
        (ScalarField.bounded_sin(1.0, 2.0, phase=0.4, offset=-1.0), 0.7, 2.0),
        # tanh: toward a fixed point, and offset = +-amp, where z tends to 0
        # at one end and a form with 1/(offset -+ amp) fails
        (ScalarField.bounded_tanh(-1.5, 2.0, 0.3), -2.0, 0.9),
        (ScalarField.bounded_tanh(1.3, 2.0, 1.3), -0.7, 0.9),
        (ScalarField.bounded_tanh(1.3, 2.0, -1.3), 0.4, 0.9),
        (ScalarField.bounded_tanh(-1.3, 2.0, 1.3), -0.7, 0.9),
        (ScalarField.bounded_tanh(1.3, -2.0, -1.3), 0.4, 0.9),
        (ScalarField.bounded_tanh(1.0, 1.0, 1.0000000000000002), -0.7, 0.9),
        (ScalarField.bounded_tanh(1.0000000000000002, 1.0, 1.0), -0.7, 0.9),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_branches_against_oracle(self, f, x, m):
        want = oracle.flow_mass(f.kind, oracle.pack(f), x, m, 1e-4, oracle.kinks(f))
        assert abs(backend.flow_mass(f, x, m) - want) <= rk4_tolerance(m, 1e-4, want)

    @pytest.mark.parametrize("amp, off", [(0.5, 1.0), (-0.5, 1.0), (1.2, -1.3)])
    @pytest.mark.parametrize("w", [3.0, -2.0])
    def test_sin_period(self, amp, off, w):
        """theta gains 2 pi per period 2 pi / (|w| sqrt(off^2 - amp^2))."""
        f = ScalarField.bounded_sin(amp, w, phase=0.3, offset=off)
        period = 2.0 * np.pi / (abs(w) * np.sqrt(off * off - amp * amp))
        step = 2.0 * np.pi / abs(w) * np.sign(off)
        for k in (1, 3):
            assert backend.flow_mass(f, 0.7, k * period) == pytest.approx(0.7 + k * step, abs=1e-13)

    @pytest.mark.parametrize("x", [1e-9, 1e-104])
    def test_tanh_near_unstable_fixed_point(self, x):
        """z(y) = tanh(y) ~ y near 0, so the state grows like x e^m; P e + Q
        (here 1 - exp(-2x)) would lose the digits of z(x)."""
        f = ScalarField.bounded_tanh(1.0, 1.0, 0.0)
        assert backend.flow_mass(f, x, 1.0) == pytest.approx(x * np.e, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", [0.5, 2.0, 4.0])
    def test_tanh_near_stable_fixed_point(self, m):
        """z(y) = 1e-15 - tanh(y) ~ 1e-15 - y: the state settles like
        1e-15 (1 - e^-m), though the two terms of 1 + P g are near 5e14."""
        f = ScalarField.bounded_tanh(1.0, -1.0, 1e-15)
        want = 1e-15 * -np.expm1(-m)
        assert backend.flow_mass(f, 0.0, m) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x, m, want", [
        # x e^(1000 m) through its log: finite though expm1(1000 m) overflows
        (1e-300, 0.75, 1e-300 * np.exp(60.0) * np.exp(690.0)),
        (-1e-300, 0.75, -1e-300 * np.exp(60.0) * np.exp(690.0)),
        # past overflow the flow is inf, which callers report as non-finite
        (1.0, 1.0, np.inf),
        (-1.0, 1.0, -np.inf),
    ])
    def test_affine_steep_growth(self, x, m, want):
        got = backend.flow_mass(ScalarField.affine(0.0, 1000.0), x, m)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("amp, slope, off, x, m", [
        (-1.0, 1000.0, 1.5, -0.5, 0.5),   # crosses from z = 2.5 to z = 0.5
        (-1.0, 1000.0, 0.5, -0.5, 0.5),   # settles at atanh(0.5) / 1000
        (2.0, -400.0, 0.5, 1.0, 0.8),     # exp(2 s x) underflows
        # started at the centre, where the linearized guess's exponent
        # A s (1 - tanh^2) m is far past expm1's overflow
        (1.0, 1000.0, 0.5, 0.0, 1.0),
        (1.0, 1000.0, 0.5, -1e-4, 1.0),
        (-1.0, 1000.0, -0.5, 0.0, 1.0),
    ])
    def test_tanh_steep_against_adaptive_integrator(self, amp, slope, off, x, m):
        f = ScalarField.bounded_tanh(amp, slope, off)
        sol = solve_ivp(lambda t, y: f(0.0, y[0]), (0.0, m), [x], method="DOP853",
                        rtol=1e-13, atol=1e-15)
        assert backend.flow_mass(f, x, m) == pytest.approx(sol.y[0, -1], abs=1e-12)
