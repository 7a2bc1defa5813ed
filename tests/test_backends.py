"""Cross-checks of the hot kernels against their references.

The backend entry points must match the serial kernels of :mod:`oracle`
(bit for bit where they run the same arithmetic) and explicit recurrences.
The quadrature lattice of :mod:`oracle` is the reference for the exact
incomplete-moment lattice.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

import oracle
from bvode import BVFunction, ScalarField, backend, get_profile, solve_offset

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
    return (ts, n, profile.code, profile.cnorm, profile.kinks,
            profile.table_x, profile.table_tail,
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
        got = solve_offset(f, L, prof, n, h, 0.0, 1.0)
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


class TestOracleProperties:
    """The package kernels are bitwise equal to the serial oracle on every field kind."""

    @settings(max_examples=150, deadline=None)
    @given(f=FIELD_KINDS, x=st.floats(-3.0, 3.0), mass=st.floats(0.0, 1.0),
           substep=st.sampled_from((1e-3, 1e-2, 0.1)))
    def test_flow_mass(self, f, x, mass, substep):
        want = oracle.flow_mass(f.kind, oracle.pack(f), x, mass, substep,
                                np.asarray(f.x_kinks(), dtype=np.float64))
        assert backend.flow_mass(f, x, mass, substep) == want

    @settings(max_examples=100, deadline=None)
    @given(f=FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 60),
           x0=st.floats(-3.0, 3.0))
    def test_heun_path(self, f, seed, size, x0):
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(0.0, 1.0, size))
        Lg = np.cumsum(rng.normal(0.0, 0.1, size))
        want = oracle.heun_path(f.kind, oracle.pack(f), s, Lg, x0)
        np.testing.assert_array_equal(backend.heun_path(f, s, Lg, x0), want)

    @pytest.mark.parametrize("J", [1, 3, 17])
    @settings(max_examples=40, deadline=None)
    @given(f=FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), kmax=st.integers(0, 40))
    def test_euler_exact_fan(self, J, f, seed, kmax):
        # ragged runs: row j has K_j steps, then zero increments up to kmax
        rng = np.random.default_rng(seed)
        h = 0.05
        taus = rng.uniform(0.0, h, J)
        x0s = rng.uniform(-2.0, 2.0, J)
        Ks = rng.integers(0, kmax + 1, J)
        dLn = rng.normal(0.0, 0.3, (J, kmax))
        dLn[np.arange(kmax) >= Ks[:, None]] = 0.0
        got = backend.euler_exact(f, taus, h, dLn, x0s)
        assert got.shape == (J, kmax + 1)
        for j, K in enumerate(Ks):
            want = oracle.euler_exact_offset(f, taus[j], h, dLn[j, :K], x0s[j])
            np.testing.assert_array_equal(got[j, :K + 1], want)
            np.testing.assert_array_equal(got[j, K + 1:], want[-1])
