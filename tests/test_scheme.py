"""Mollified finite-difference scheme: lattices, offset fans, jump crossings."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import oracle
from bvode import (
    BVFunction,
    ScalarField,
    Schedule,
    SigmaG,
    StepLimitError,
    analysis,
    backend,
    cli,
    discrete_jump_map,
    get_profile,
    mollify_L,
    phi_recursion,
    scheme,
    sigma_n_check,
    solve_grid,
    xi_grid_for_offset,
)
from bvode.scheme import _crossing_fractions, _fan, _offset_fan, _step_count
from test_drivers import piecewise_cubics

PROFILES = ("uniform", "triangular", "bump")


def mixed_driver():
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)))


def fan_of_one(f, L, prof, n, h, tau, x0, mollify_coefficient=False):
    """States x_0 .. x_K of the one lattice with offset tau: a fan of one."""
    return _fan(f, L, prof, n, h, tau, 1, x0, mollify_coefficient)[1][0]


class TestSolveOffset:
    def test_zero_field_stays_put(self):
        x = fan_of_one(ScalarField.constant(0.0), mixed_driver(),
                       get_profile("uniform"), 8, 0.01, 0.0, 3.7)
        np.testing.assert_array_equal(x, np.full(x.size, 3.7))

    def test_unit_field_telescopes(self):
        """f = 1 turns the recursion into x0 + L_n(t_k) - L_n(t_0)."""
        L = mixed_driver()
        prof = get_profile("triangular")
        n, h, tau = 16, 0.015, 0.004
        x = fan_of_one(ScalarField.constant(1.0), L, prof, n, h, tau, 2.0)
        tk = tau + h * np.arange(x.size)
        Ln = mollify_L(L, prof, n, tk)
        np.testing.assert_allclose(x, 2.0 + Ln - Ln[0], atol=1e-12)

    def test_lattice_covers_domain(self):
        L = mixed_driver()
        x = fan_of_one(ScalarField.constant(0.0), L, get_profile("uniform"),
                       8, 0.25, 0.1, 0.0)
        # last point at or beyond b, previous strictly before
        assert 0.1 + (x.size - 1) * 0.25 >= 1.0
        assert 0.1 + (x.size - 2) * 0.25 < 1.0

    def test_validation(self):
        L = mixed_driver()
        f = ScalarField.constant(0.0)
        prof = get_profile("uniform")
        with pytest.raises(ValueError):
            fan_of_one(f, L, prof, 8, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            fan_of_one(f, L, prof, 8, 0.1, 0.2, 1.0)   # tau >= a + h
        with pytest.raises(ValueError):
            fan_of_one(f, L, prof, 8, 0.1, -0.05, 1.0)
        with pytest.raises(ValueError):
            fan_of_one(f, L, prof, 0, 0.1, 0.0, 1.0)

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(scheme, "STEP_CAP", 1000)
        with pytest.raises(StepLimitError, match="cap is 1000"):
            fan_of_one(ScalarField.constant(0.0), mixed_driver(),
                       get_profile("uniform"), 8, 1e-6, 0.0, 1.0)

    def test_step_cap_boundary(self, monkeypatch):
        # the lattice 0, 0.1, .., 1.0 takes exactly 10 steps
        args = (ScalarField.constant(0.0), BVFunction([0.0, 1.0], [[0.0]]),
                get_profile("uniform"), 8, 0.1, 0.0, 1.0)
        monkeypatch.setattr(scheme, "STEP_CAP", 10)
        assert fan_of_one(*args).size == 11
        monkeypatch.setattr(scheme, "STEP_CAP", 9)
        with pytest.raises(StepLimitError, match="needs 10 steps"):
            fan_of_one(*args)

    def test_fan_cap_counts_every_offset(self, monkeypatch):
        # 4 offsets of 10 steps each: the fan needs 40 steps in all, a fan of one 10
        f, L = ScalarField.constant(0.0), BVFunction([0.0, 1.0], [[0.0]])
        prof = get_profile("uniform")
        monkeypatch.setattr(scheme, "STEP_CAP", 40)
        assert solve_grid(f, L, prof, 8, 0.1, 1.0, n_offsets=4).values.shape == (4, 11)
        monkeypatch.setattr(scheme, "STEP_CAP", 39)
        with pytest.raises(StepLimitError, match="lattice fan needs 40 steps, cap is 39"):
            solve_grid(f, L, prof, 8, 0.1, 1.0, n_offsets=4)
        monkeypatch.setattr(scheme, "STEP_CAP", 10)
        assert fan_of_one(f, L, prof, 8, 0.1, 0.0, 1.0).size == 11

    def test_offset_count_capped_before_the_fan_is_built(self, monkeypatch):
        """An offset count over STEP_CAP is refused before its offsets are
        allocated, so before any lattice or crossing call."""
        calls = []
        for mod, name in ((backend, "driver_lattice_values"), (analysis, "_crossing_fractions")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        f, L, prof = ScalarField.constant(0.0), BVFunction([0.0, 1.0], [[0.0]]), get_profile("uniform")
        monkeypatch.setattr(scheme, "STEP_CAP", 4)
        with pytest.raises(StepLimitError, match="offset fan needs 5 offsets, cap is 4"):
            solve_grid(f, L, prof, 8, 1.0, 1.0, n_offsets=5)
        with pytest.raises(StepLimitError, match="offset fan needs 5 offsets, cap is 4"):
            sigma_n_check(prof, Schedule.power(2.0, meshes=(4,)), 0.5, SigmaG(), n_offsets=5)
        assert calls == []
        # a count at the cap is built: 4 offsets of one step each
        assert solve_grid(f, L, prof, 8, 1.0, 1.0, n_offsets=4).values.shape == (4, 2)
        assert len(calls) == 1

    def test_fan_capped_before_its_offsets_are_made(self):
        """2e6 offsets of 100 steps each: the fan is refused on its first
        offset, which takes the most steps, before the offsets (16 MB alone)
        are allocated."""
        f, prof = ScalarField.linear_x(), get_profile("uniform")
        L = BVFunction([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        tracemalloc.start()
        try:
            with pytest.raises(StepLimitError, match=r"lattice fan needs 2e\+08 steps"):
                solve_grid(f, L, prof, 8, 1.0 / 100, 1.0, n_offsets=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_offset_count_past_the_float_range(self):
        """An int count too large for a float is refused, not converted."""
        f, L, prof = ScalarField.constant(0.0), BVFunction([0.0, 1.0], [[0.0]]), get_profile("uniform")
        with pytest.raises(StepLimitError, match=r"offset fan needs 2\^1328 or more offsets"):
            solve_grid(f, L, prof, 8, 1.0, 1.0, n_offsets=10 ** 400)

    @pytest.mark.parametrize("h", [1e-30, 1e-320])
    def test_tiny_step_raises_before_counting(self, h):
        # 1e-30 used to hang in the rounding loop, 1e-320 to overflow
        with pytest.raises(StepLimitError):
            fan_of_one(ScalarField.constant(0.0), mixed_driver(),
                       get_profile("uniform"), 8, h, 0.0, 1.0)

    def test_deterministic(self):
        f = ScalarField.bounded_sin(0.9, 2.0, freq_t=0.5)
        a = fan_of_one(f, mixed_driver(), get_profile("bump"), 32, 0.003,
                       0.001, 0.2)
        b = fan_of_one(f, mixed_driver(), get_profile("bump"), 32, 0.003,
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
            x = fan_of_one(f, L, get_profile("triangular"), n, 1.0 / n,
                           0.0, 0.5)
            errs.append(abs(x[-1] - ref))
        slope = np.polyfit(np.log([2.0 ** -k for k in (6, 7, 8, 9)]),
                           np.log(errs), 1)[0]
        assert slope >= 0.8

    def test_mollified_coefficient_toggle(self):
        L = mixed_driver()
        f = ScalarField.bounded_sin(1.0, 2.0)
        base = fan_of_one(f, L, get_profile("triangular"), 16, 0.01, 0.0, 1.0)
        soft = fan_of_one(f, L, get_profile("triangular"), 16, 0.01, 0.0, 1.0,
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

    def test_eval_piecewise_constant(self):
        gp = solve_grid(ScalarField.constant(1.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.25, 0.0, n_offsets=1)
        ts, xs = gp.path(0)
        # inside [t_k, t_{k+1}) the read-out is x_k
        np.testing.assert_array_equal(gp.eval(0, ts + 0.1), xs)
        assert gp.eval(0, np.array([5.0])) == xs[-1]
        assert gp.eval(0, np.array([-5.0])) == xs[0]

    def test_eval_clamps_times_past_int64(self):
        """Step indices past the int64 range clamp too, without a cast warning."""
        gp = solve_grid(ScalarField.constant(1.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.25, 0.0, n_offsets=1)
        _, xs = gp.path(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gp.eval(0, 1e300) == xs[-1]
            assert gp.eval(0, -1e300) == xs[0]
            np.testing.assert_array_equal(gp.eval(0, np.array([1e300, -1e300])), [xs[-1], xs[0]])

    def test_rows_layout(self):
        gp = solve_grid(ScalarField.constant(0.0), mixed_driver(),
                        get_profile("uniform"), 8, 0.4, 2.0, n_offsets=2)
        text = "".join(line % values for prefix, columns in cli._grid_table(gp)
                       for line, values in cli._blocks(prefix, columns))
        rows = [row.split(",") for row in text.splitlines()]
        assert len(rows) == int(gp.lengths.sum())
        assert {r[0] for r in rows} == {"0", "1"}
        j, tau, k, t, x = rows[0]
        assert (j, k, float(x)) == ("0", "0", 2.0)
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
    a single offset was run before the fan routine, the mollified one by the
    serial oracle."""
    K = oracle.step_count(L.domain[1], tau, h)
    ts = tau + h * np.arange(K + 1, dtype=np.float64)
    dLn = np.diff(backend.driver_lattice_values(ts, n, prof, L))
    if mollify_coefficient:
        s, w = prof.convolution_rule(n)
        return oracle.euler_mollified(f.kind, oracle.pack(f), tau, h, dLn, x0, s, w)
    return oracle.euler_exact_offset(f, tau, h, dLn, x0)


class TestStepCounts:
    """A fan's step counts (offset 0's count stepped down per offset) and the
    scalar count, against the scalar oracle, one offset at a time."""

    @staticmethod
    def outcome(count):
        try:
            return count()
        except StepLimitError as exc:
            return str(exc)

    @given(a=st.floats(-10.0, 10.0) | st.floats(-1e9, 1e9), length=st.floats(1e-3, 10.0),
           log_h=st.floats(-7.0, 0.0), steps=st.integers(1, 10 ** 6) | st.none(),
           ulps=st.integers(-4, 4), spacings=st.floats(1.0, 8.0) | st.none(),
           J=st.integers(1, 64), cap_shift=st.integers(-3, 3))
    @example(a=0.0, length=7.767054460308638, log_h=0.0, steps=362851, ulps=0, spacings=None,
             J=3, cap_shift=0)  # ceil((b - a) / h) steps fall short of b
    @example(a=386319582.25, length=0.3, log_h=0.0, steps=234, ulps=0, spacings=3.75, J=17,
             cap_shift=0)  # counts 71 down to 69: the down pass moves twice
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_oracle(self, a, length, log_h, steps, ulps, spacings, J, cap_shift):
        if spacings is not None:
            # h a few float spacings at a, where offsets and lattice points round to
            # that spacing: an offset's count can sit more than one step under offset 0's
            h = spacings * float(np.spacing(abs(a)))
            b = a + length * (steps or 1000) * h
        elif steps is None:
            h, b = 10.0 ** log_h, a + length
        else:
            # h a few ulps off length / steps lands lattices on b up to rounding,
            # where the corrections act
            h, b = max(length / steps * (1.0 + ulps * 2.0 ** -53), 1e-7), a + length
        taus = a + (h / J) * np.arange(J, dtype=np.float64)
        # caps on both sides of the largest count, offset 0's
        cap = oracle.step_count(b, a, h, step_cap=10 ** 9) + cap_shift
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "STEP_CAP", cap)
            want = self.outcome(lambda: [oracle.step_count(b, float(t), h, cap) for t in taus])
            fan = self.outcome(lambda: _offset_fan(a, h, J, b, _step_count(b, a, h)))
            if isinstance(fan, str):
                assert fan == want
            else:
                np.testing.assert_array_equal(fan[0].view(np.uint64), taus.view(np.uint64))
                assert fan[1].tolist() == want
            assert self.outcome(lambda: [_step_count(b, float(t), h) for t in taus]) == want

    @pytest.mark.parametrize("h", [1e-30, 1e-320])
    def test_estimate_checked_first(self, h):
        want = self.outcome(lambda: oracle.step_count(1.0, 0.0, h))
        assert self.outcome(lambda: _step_count(1.0, 0.0, h)) == want
        assert want.startswith("run needs ")

    @given(tau=st.floats(-1e9, 1e9), b_off=st.floats(-1e9, 1e9) | st.none(),
           log_ratio=st.floats(-3.0, 3.0), spacings=st.integers(-20, 60),
           steps=st.floats(-3.0, 3.0))
    @example(tau=-579741723.7608995, b_off=None, log_ratio=-3.0, spacings=1, steps=0.0)
    @settings(max_examples=300, deadline=None)
    def test_search_matches_unit_steps(self, tau, b_off, log_ratio, spacings, steps):
        """Steps from 1e-3 to 1e3 float spacings at tau, to ends a few spacings
        and steps away or at another magnitude: the count sits up to ~1e5
        steps off its estimate, and the gallop and bisection give the unit
        steps' count or their error."""
        sp = float(np.spacing(abs(tau)))
        h = sp * 10.0 ** log_ratio
        assume(h > 0.0)  # a subnormal spacing times 1e-3 rounds to 0
        b = tau + (spacings * sp + steps * h) if b_off is None else b_off

        def outcome(count):
            try:
                return count()
            except (StepLimitError, OverflowError) as exc:  # est = -inf has no ceil
                return type(exc).__name__, str(exc)

        want = outcome(lambda: oracle.step_count(b, tau, h))
        assert outcome(lambda: _step_count(b, tau, h)) == want

    def test_step_far_below_float_spacing_counted_fast(self):
        """h = 1.2e-15 at tau = -5.8e8, whose float spacing is 1.2e-7: the
        epoch's count sits ~5e7 steps under its estimate, which unit steps
        took seconds to reach, before the crossing grid's cap refuses it."""
        start = time.perf_counter()
        with pytest.raises(StepLimitError,
                           match=r"^crossing grid needs 6\.00153e\+12 points, cap is 100000000$"):
            xi_grid_for_offset(get_profile("bump"), 137, 1.216235386998668e-15,
                               -579741723.7608995, -579741723.7536001)
        assert time.perf_counter() - start < 1.0

    def test_step_below_float_spacing_named(self):
        # at a = 1e10 the float spacing is 1.9e-6: [a, a + h) holds no offset
        L = BVFunction([1e10, 1e10 + 1.0], [[0.0]])
        with pytest.raises(ValueError, match=r"step h=5\.96\S* is below the float "
                                             r"spacing at a=10000000000\.0"):
            solve_grid(ScalarField.constant(0.0), L, get_profile("uniform"), 4096,
                       4096.0 ** -2, 1.0)

    def test_mollified_window_capped_before_the_fan_is_built(self, monkeypatch):
        """Each mollified step averages f over a (J, Q, Q) window: 8 offsets of
        Q = 16 nodes are 2048 points, refused before any lattice call under a
        lower STEP_CAP, while the fan's 8 x 8 steps pass it."""
        calls = []
        real = backend.driver_lattice_values
        monkeypatch.setattr(backend, "driver_lattice_values",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        args = (ScalarField.bounded_tanh(1.0, 2.0), BVFunction([0.0, 1.0], [[0.0, 1.0]]),
                get_profile("uniform"), 8, 0.125, 1.0)
        monkeypatch.setattr(scheme, "STEP_CAP", 2047)
        with pytest.raises(StepLimitError, match="mollified window needs 2048 points, cap is 2047"):
            solve_grid(*args, n_offsets=8, mollify_coefficient=True)
        assert calls == []
        assert solve_grid(*args, n_offsets=8).values.shape == (8, 9)
        monkeypatch.setattr(scheme, "STEP_CAP", 2048)
        assert solve_grid(*args, n_offsets=8, mollify_coefficient=True).values.shape == (8, 9)

    def test_last_offset_rounding_onto_a_plus_h_refused(self):
        """At a = 1 with h = 2^-51, two float spacings, the last of 4 offsets
        a + 3 h / 4 rounds onto a + h; 2 and 3 offsets stay inside."""
        args = (ScalarField.constant(0.0), BVFunction([1.0, 1.0 + 2.0 ** -40], [[0.0]]),
                get_profile("uniform"), 8, 2.0 ** -51, 1.0)
        for J in (2, 3):
            assert solve_grid(*args, n_offsets=J).values.shape == (J, 2 ** 11 + 1)
        with pytest.raises(ValueError, match=r"offset tau=1\.0000000000000004 must lie in "
                                             r"\[1\.0, 1\.0000000000000004\)"):
            solve_grid(*args, n_offsets=4)


class TestFanOracle:
    @pytest.mark.parametrize("mollify", [False, True], ids=["exact", "mollified"])
    @pytest.mark.parametrize("name", ["uniform", "triangular", "bump"])
    @pytest.mark.parametrize("f", FAN_FIELDS, ids=lambda f: f.name)
    def test_matches_serial_runs(self, f, name, mollify):
        # h = 0.03 leaves K_j = 34 for the first offsets and 33 for the rest;
        # per-offset start states are covered by the backend tests
        L, prof, n, h = mixed_driver(), get_profile(name), 8, 0.03
        taus, values, lengths = _fan(f, L, prof, n, h, 0.0, 5, 0.4, mollify_coefficient=mollify)
        assert len(set(lengths.tolist())) == 2
        for j, tau in enumerate(taus):
            want = serial_offset(f, L, prof, n, h, float(tau), 0.4, mollify)
            assert lengths[j] == want.size
            got = values[j, :want.size]
            if mollify:
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
            else:
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(values[j, want.size:], got[-1])

    @pytest.mark.parametrize("mollify", [False, True], ids=["exact", "mollified"])
    def test_single_offset_fan(self, mollify):
        f, L, prof = FAN_FIELDS[3], mixed_driver(), get_profile("triangular")
        gp = solve_grid(f, L, prof, 16, 0.01, 0.3, n_offsets=1, mollify_coefficient=mollify)
        want = serial_offset(f, L, prof, 16, 0.01, 0.0, 0.3, mollify)
        assert gp.values.shape == (1, want.size)
        assert np.all(np.abs(gp.values[0] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    def test_non_finite_start_rejected(self):
        for x0 in (np.nan, np.inf):
            with pytest.raises(ValueError, match="initial states must be finite"):
                solve_grid(FAN_FIELDS[4], mixed_driver(), get_profile("uniform"), 8, 0.05,
                           x0, n_offsets=3)


@st.composite
def jump_drivers(draw):
    """A random continuous piecewise cubic plus up to four jumps, some at b or just before it."""
    L = draw(piecewise_cubics())
    a, b = L.domain
    near_b = st.sampled_from([b, float(np.nextafter(b, a)), b - 1e-9 * (b - a), b - 1e-3 * (b - a)])
    inside = st.floats(1e-3, 1.0).map(lambda r: a + r * (b - a))
    epochs = draw(st.lists(st.one_of(near_b, inside), max_size=4))
    sizes = draw(st.lists(st.floats(0.05, 2.0) | st.floats(-2.0, -0.05),
                          min_size=len(epochs), max_size=len(epochs)))
    return BVFunction(L.seg_breaks, L.seg_coefs, jumps=tuple(zip(epochs, sizes)))


class TestFanLattice:
    """One padded lattice call per fan against one call per offset."""

    @given(L=jump_drivers(), name=st.sampled_from(PROFILES), n=st.integers(1, 400),
           steps=st.floats(2.0, 300.0), J=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_increments_match_per_offset_oracle(self, L, name, n, steps, J):
        a, b = L.domain
        h = (b - a) / steps
        taus = a + (h / J) * np.arange(J, dtype=np.float64)
        prof = get_profile(name)
        with pytest.MonkeyPatch.context() as mp:
            # hand the increments back in place of the recursion's states
            mp.setattr(backend, "euler_exact", lambda f, taus, h, dLn, x0s: dLn)
            _, got, _ = _fan(ScalarField.constant(0.0), L, prof, n, h, a, J, 0.0)
        want = oracle.fan_increments(L, prof, n, h, taus)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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
        assert grid.values.size - 3 == int(np.floor(1.0 / (n * h) + 1e-9))

    def test_fractions_match_tail(self):
        """Interior values are the tail masses at lattice distances."""
        from bvode import F_n

        n, h, tau, zeta = 8, 0.03, 0.01, 0.7
        grid = xi_grid_for_offset(get_profile("triangular"), n, h, tau, zeta)
        j = 0
        while tau + (j + 1) * h < zeta - 1.0 / n:
            j += 1
        ks = np.arange(1, grid.values.size - 1)
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

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_non_finite_step_rejected(self, h):
        with pytest.raises(ValueError, match="step size h must be positive and finite"):
            xi_grid_for_offset(get_profile("uniform"), 4, h, 0.0, 0.5)

    @pytest.mark.parametrize("tau, zeta", [(np.nan, 0.5), (np.inf, 0.5), (0.0, np.inf),
                                           (0.0, np.nan), (0.0, -np.inf)])
    def test_non_finite_offset_or_epoch_rejected(self, tau, zeta):
        with pytest.raises(ValueError, match="offset tau and epoch zeta must be finite"):
            xi_grid_for_offset(get_profile("uniform"), 4, 0.01, tau, zeta)

    def test_epoch_too_close_rejected(self):
        with pytest.raises(ValueError, match="smoothing width"):
            xi_grid_for_offset(get_profile("uniform"), 4, 0.01, 0.3, 0.4)

    def test_clamp_repairs_noise(self, monkeypatch):
        """Tail masses off by rounding are clipped, made monotone and pinned."""
        noisy = np.array([[-1e-9, 0.2, 0.15, 0.8, 1.0 + 1e-9],
                          [1e-9, 0.2, 0.15, 0.8, 1.0 - 1e-9]])
        monkeypatch.setattr(scheme, "F_n", lambda profile, n, x: noisy + 0.0 * x)
        # n h = 0.4, so p = 2 and every row holds p + 3 = 5 fractions
        xi = _crossing_fractions(get_profile("uniform"), 4, 0.1, 0.0, 2, 0.5)
        np.testing.assert_array_equal(xi, [[0.0, 0.2, 0.2, 0.8, 1.0]] * 2)

    def test_fan_cap_counts_every_row(self):
        # n h = 1: p + 3 = 4 fractions per offset, so 30 offsets fit a cap of 120
        prof = get_profile("uniform")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "STEP_CAP", 120)
            assert _crossing_fractions(prof, 4, 0.25, 0.0, 30, 0.5).shape == (30, 4)
            with pytest.raises(StepLimitError, match="crossing grid needs 124 points, cap is 120"):
                _crossing_fractions(prof, 4, 0.25, 0.0, 31, 0.5)

    @given(name=st.sampled_from(PROFILES), n=st.integers(1, 300), ratio=st.floats(0.01, 3.0),
           J=st.integers(1, 20), gap=st.floats(0.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_offset_oracle(self, name, n, ratio, J, gap):
        h = ratio / n
        taus = (h / J) * np.arange(J, dtype=np.float64)
        zeta = h + (1.0 + gap) / n + 1e-9
        prof = get_profile(name)
        xi = _crossing_fractions(prof, n, h, 0.0, J, zeta)
        for j in range(J):
            want = oracle.crossing_grid(prof, n, h, float(taus[j]), zeta).values
            np.testing.assert_array_equal(xi[j].view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(xi_grid_for_offset(prof, n, h, float(taus[-1]), zeta).values,
                                      xi[-1])

    @pytest.mark.parametrize("name", PROFILES)
    @pytest.mark.parametrize("n, h, J", [(512, 512.0 ** -2, 1), (512, 512.0 ** -2, 7),
                                         (512, 512.0 ** -2, 256), (512, 512.0 ** -2, 300),
                                         (2, 2.0 ** -16, 3)])
    def test_row_blocks_match_one_expression(self, name, n, h, J):
        """Rows filled in blocks of LATTICE_CHUNK // (p + 3) give the bits of the
        whole fan made in one expression: 31 rows at p + 3 = 515, so the fans of
        256 and 300 offsets end their last block part-way, and one row per block
        at p + 3 = 32,771."""
        prof = get_profile(name)
        got = _crossing_fractions(prof, n, h, 0.0, J, 0.75)
        want = oracle.crossing_fractions(prof, n, h, 0.0, J, 0.75)
        assert got.shape == want.shape == (J, 32771 if n == 2 else 515)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_row_blocks_bound_the_transients(self):
        """256 offsets of 515 fractions hold the 1.05 MB result and one block's
        temporaries, not the whole fan's (4.2 MB in one expression)."""
        prof = get_profile("uniform")
        args = (prof, 512, 512.0 ** -2, 0.0, 256, 0.5)
        _crossing_fractions(*args)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _crossing_fractions(*args)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


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

    def test_non_finite_offset_rejected(self):
        with pytest.raises(ValueError, match="offset tau and epoch zeta must be finite"):
            discrete_jump_map(ScalarField.constant(1.0), mixed_driver(),
                              0.25, get_profile("uniform"), 16, 0.01, np.nan, 0.0)

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
