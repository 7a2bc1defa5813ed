"""Flat stretches of a driver: the lattice reads flat pieces without their
Taylor rows and the affine scan skips the columns where no offset moves,
both bitwise equal to the references that expand and scan everything
(``oracle.lattice_expanded``, ``oracle.euler_full_scan``)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from bvode import BVFunction, ScalarField, backend, get_profile, mollify_L, solve_grid
from bvode.drivers import _poly_eval
from test_gathers import PROFILES, assert_bitwise, seeded


def signed_zeros(rng, size):
    return np.where(rng.random(size) < 0.5, 0.0, -0.0)


@st.composite
def flat_and_sloped_drivers(draw):
    """Segments flat (zeros of either sign) or sloped, flat neighbours with
    equal c0 and with c0 moved within the continuity tolerance, c0 of -0.0,
    and jumps, some cancelling back to a cumulative sum of 0."""
    rng = seeded(draw)
    S = draw(st.integers(1, 6))
    a = draw(st.sampled_from([0.0, -0.0, -1.5, 2.0]))
    breaks = a + np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.6, S))))
    c0 = draw(st.sampled_from([0.0, -0.0, 1.25, -3.0]))
    rows = []
    for width in np.diff(breaks):
        if draw(st.booleans()):
            row = [c0, *signed_zeros(rng, 3)]
        else:
            row = [c0, *(rng.normal(0.0, 2.0, 3) * (rng.random(3) < 0.7))]
        rows.append(row)
        end = float(_poly_eval(row, width))
        c0 = draw(st.sampled_from([end, end, end + 1e-11 * max(1.0, abs(end)),
                                   -0.0 if end == 0.0 else end]))
    b = float(breaks[-1])
    epochs = rng.uniform(a, b, draw(st.integers(0, 3))).tolist()
    epochs += draw(st.lists(st.sampled_from(breaks[1:].tolist()), max_size=2))
    sizes = rng.choice([1.5, -0.75, 1.0], len(epochs)).tolist()
    jumps = list(zip(epochs, sizes))
    if epochs and draw(st.booleans()):  # the sum returns to 0 past the last epoch
        jumps.append((b, -math.fsum(sizes)) if b not in epochs else (b, 1.0))
    jumps = [(e, s) for e, s in jumps if a < e <= b and s != 0.0]
    return BVFunction(breaks, rows, jumps=jumps)


class TestLattice:
    @given(L=flat_and_sloped_drivers(), name=st.sampled_from(PROFILES),
           n=st.sampled_from([1, 2, 3, 7, 64, 1000]), chunk=st.sampled_from([16384, 5, 37]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_expanded_lattice(self, L, name, n, chunk, data):
        """Times inside and outside [a, b], on breakpoints and epochs and one
        window before them, in chunks that mix flat and sloped windows."""
        rng = seeded(data.draw)
        a, b = L.domain
        marks = np.concatenate((L.seg_breaks, L.jump_epochs))
        ts = np.concatenate((rng.uniform(a - 1.0, b + 1.0, 300), marks, marks - 1.0 / n,
                             np.nextafter(marks, -np.inf), [a - 50.0, b + 50.0]))
        if data.draw(st.booleans()):
            ts.sort()
        prof = get_profile(name)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backend, "LATTICE_CHUNK", chunk)
            got = backend.driver_lattice_values(ts, n, prof, L)
            want = oracle.lattice_expanded(ts, n, prof, L)
        assert_bitwise(got, want)

    def test_pure_jump_fan_matches(self):
        """The unit-jump fan of the dichotomy gate: every window on a flat piece."""
        L = BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        h = 64.0 ** -2
        ts = (h / 16 * np.arange(16)[:, None] + h * np.arange(4098)).ravel()
        for name in PROFILES:
            prof = get_profile(name)
            assert_bitwise(backend.driver_lattice_values(ts, 64, prof, L),
                           oracle.lattice_expanded(ts, 64, prof, L))

    @given(L=flat_and_sloped_drivers(), name=st.sampled_from(PROFILES),
           n=st.sampled_from([1, 4, 64]))
    @settings(max_examples=60, deadline=None)
    def test_far_times_keep_their_bits(self, L, name, n):
        """mollify_L clips times to [a - 1, b]: every time where the expanded
        lattice is finite keeps that lattice's bits."""
        a, b = L.domain
        ts = np.array([-1.7e308, -1e308, -1e300, a - 50.0, a - 1.0 / n, b, b + 50.0,
                       1e300, 1e308, 1.7e308])
        prof = get_profile(name)
        with np.errstate(all="ignore"):
            want = oracle.lattice_expanded(ts, n, prof, L)
        assert np.isfinite(want).all()
        assert_bitwise(mollify_L(L, prof, n, ts), want)

    def test_far_times_read_the_constant_extension(self):
        """Where t - origin overflows, the expanded lattice gives NaN; mollify_L
        gives the value left of a or from b on, with no overflow warning (an
        error under this suite), and the expansion's bits where those are
        finite.  Each call is one chunk; a sloped driver's chunk holds a time
        on its slope, so the chunk is expanded, not read flat."""
        prof = get_profile("uniform")
        L = BVFunction.from_segments([1e308, 1.5e308], [[2.0]])
        assert mollify_L(L, prof, 4, -1e308) == 2.0
        for L, ts, overflows in (
                (BVFunction.from_segments([1e308, 1.5e308], [[2.0]], jumps=((1.2e308, 1.0),)),
                 [-1e308, 1.1e308, 1.7e308], True),
                (BVFunction.from_segments([1e308, 1.5e308], [[2.0, 1.0]]),
                 [-1e308, -1.7e308, 1.7e308, 1.2e308], True),
                (BVFunction.from_segments([-1.5e308, -1e308], [[-1.0, 1e-300]]),
                 [1e308, 1.7e308, -1.7e308, -1.2e308], True),
                # t - a overflows while every t - origin of the expansion is finite
                (BVFunction.from_segments([-1e308, 0.5e308], [[2.0]]), [1e308, 0.0], False)):
            ts = np.array(ts)
            a, b = L.domain
            with np.errstate(all="ignore"):
                want = oracle.lattice_expanded(ts, 4, prof, L)
            got = mollify_L(L, prof, 4, ts)
            finite = np.isfinite(want)
            assert finite.all() != overflows
            assert_bitwise(got[finite], want[finite])
            left, right = mollify_L(L, prof, 4, [a - 1.0, b])
            np.testing.assert_array_equal(got[~finite], np.where(ts[~finite] < a, left, right))
            assert np.isfinite(got).all()


@st.composite
def affine_fans(draw):
    """Affine and constant fields (scaled, at times, to an infinite a or b),
    zeros of either sign among offsets, slopes and states, factors 1 + b dL
    that are negative or exactly 0, products that overflow, and fans with
    no, some or only zero columns."""
    rng = seeded(draw)
    J, K = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    a = draw(st.sampled_from([0.0, -0.0, 0.7, -1.3, 1e300]))
    b = draw(st.sampled_from([0.0, -0.0, 1.0, -2.5, 40.0, 1e300]))
    field = ScalarField.affine(a, b) if draw(st.booleans()) else ScalarField.constant(a)
    if draw(st.integers(0, 4)) == 0:  # a jump field's scaling may overflow a or b to inf
        field = field.scaled_frozen(0.0, 1e10)
    dLn = rng.normal(0.0, draw(st.sampled_from([0.01, 0.5, 3.0])), (J, K))
    zero_cols = draw(st.sampled_from(["none", "some", "all"]))
    if zero_cols != "none":
        cols = rng.random(K) < (0.7 if zero_cols == "some" else 1.1)
        dLn[:, cols] = signed_zeros(rng, (J, int(cols.sum())))
    live = dLn != 0.0
    dLn[live & (rng.random((J, K)) < 0.2)] = 0.0  # an offset at rest in a live column
    dLn[live & (rng.random((J, K)) < 0.05)] = 0.4  # 1 - 2.5 * 0.4 = 0 exactly
    x0 = rng.choice([0.0, -0.0, 1.5, -0.3], J)
    if draw(st.booleans()):
        x0 = rng.normal(0.0, 1.0, J)
    return field, rng.uniform(0.0, 0.1, J), dLn, x0


class TestAffineScan:
    @given(fan=affine_fans(), chunk=st.sampled_from([16384, 7, 64]))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan(self, fan, chunk):
        field, taus, dLn, x0 = fan
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            mp.setattr(backend, "LATTICE_CHUNK", chunk)
            got = backend.euler_exact(field, taus, 0.01, dLn, x0)
            want = oracle.euler_full_scan(field, taus, 0.01, dLn, x0)
        assert_bitwise(got, want)

    def test_zero_increment_after_overflow(self):
        """A stepped row adds rate * 0: a state that overflowed to inf has an
        infinite rate and turns NaN.  A sin field at an infinite state does
        the same.  The closed-form scan keeps an infinite state."""
        with np.errstate(all="ignore"):
            stepped = backend.euler_exact(ScalarField.affine(0.0, 1e300), [0.0], 0.1,
                                          [[1e10, 0.0, 0.0, 1.0]], [1.0])
            sin = backend.euler_exact(ScalarField.bounded_sin(1.0, 2.0), [0.0], 0.1,
                                      [[0.0, 0.0]], [np.inf])
            scanned = backend.euler_exact(ScalarField.constant(1e300), [0.0], 0.1,
                                          [[1e10, 0.0, 0.0]], [1.0])
        assert stepped[0, 0] == 1.0 and stepped[0, 1] == np.inf
        assert np.isnan(stepped[0, 2:]).all()
        assert np.isnan(sin[0, 1:]).all()
        np.testing.assert_array_equal(scanned, [[1.0, np.inf, np.inf, np.inf]])

    def test_pure_jump_fan_makes_no_fan_sized_copy(self):
        """256 offsets of 4,096 steps, three live columns: the scan's peak
        stays within a quarter of its (J, K + 1) result above the result."""
        J, K = 256, 4096
        dLn = np.zeros((J, K))
        dLn[:, [100, 2000, 2001]] = np.linspace(0.1, 0.9, J)[:, None]
        taus, x0 = np.zeros(J), np.full(J, 1.5)
        f = ScalarField.linear_x()
        tracemalloc.start()
        try:
            x = backend.euler_exact(f, taus, 0.01, dLn, x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes + x.nbytes // 4
        assert_bitwise(x, oracle.euler_full_scan(f, taus, 0.01, dLn, x0))

    def test_one_recursion_call_per_fan(self, monkeypatch):
        """solve_grid hands each fan's full (J, Kmax) increments to one
        euler_exact call, which makes no further call through the module."""
        calls = []
        inner = backend.euler_exact

        def counted(f, taus, h, dLn, x0s):
            calls.append(np.shape(dLn))
            return inner(f, taus, h, dLn, x0s)

        monkeypatch.setattr(backend, "euler_exact", counted)
        L = BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        gp = solve_grid(ScalarField.linear_x(), L, get_profile("uniform"), 16, 16.0 ** -2, 1.0)
        assert calls == [(16, gp.values.shape[1] - 1)]
