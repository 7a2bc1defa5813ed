"""The gate path's table reads: one contiguous gather per table, bitwise
equal to the fancy-index reads they replaced (kept in ``oracle``), and the
sort-and-mask unique that keeps ``numpy.ma`` out of the process."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
import bvode
from bvode import (
    BVFunction,
    GridPath,
    JumpMeasure,
    LimitPath,
    ScalarField,
    backend,
    get_profile,
    l1_distance,
    solve_grid,
    solve_limit,
)
from bvode.drivers import _sorted_unique
from test_scheme import jump_drivers

PROFILES = ("uniform", "triangular", "bump")


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))


def seeded(draw):
    return np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


class TestPieceTable:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_taylor_matches_fancy_index(self, data):
        """Random piece tables (zeros of both signs among the coefficients),
        piece indices and times: the coefficient-major gather gives the
        fancy-index read's bits, and a C-contiguous (T, 4) array."""
        rng = seeded(data.draw)
        S = data.draw(st.integers(0, 30))
        pc = rng.normal(0.0, 3.0, (S + 2, 4)) * (rng.random((S + 2, 4)) < 0.8)
        pc[rng.random((S + 2, 4)) < 0.1] = -0.0
        origin = np.sort(rng.uniform(-2.0, 2.0, S + 2))
        T = data.draw(st.integers(0, 3000))
        p = rng.integers(0, S + 2, T)
        t = origin[p] + rng.uniform(0.0, 0.5, T)
        n = float(data.draw(st.sampled_from([1, 3, 64, 4096, 2 ** 20])))
        got = backend._taylor(np.ascontiguousarray(pc.T), origin, p, t, n)
        assert got.flags.c_contiguous
        assert_bitwise(got, oracle.taylor(pc, origin, p, t, n))

    @given(L=jump_drivers(), name=st.sampled_from(PROFILES), n=st.integers(1, 400),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_lattice_matches_fancy_index(self, L, name, n, data):
        """The whole lattice, on times at breakpoints, epochs and one window
        before them, is bitwise what the fancy-index Taylor read gives."""
        rng = seeded(data.draw)
        a, b = L.domain
        marks = np.concatenate((L.seg_breaks, L.jump_epochs))
        ts = np.concatenate((rng.uniform(a - 0.3, b + 0.3, 400), marks, marks - 1.0 / n))
        prof = get_profile(name)
        got = backend.driver_lattice_values(ts, n, prof, L)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backend, "_taylor",
                       lambda pc, origin, p, t, n: oracle.taylor(pc.T, origin, p, t, n))
            want = backend.driver_lattice_values(ts, n, prof, L)
        assert_bitwise(got, want)

    @given(L=jump_drivers(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_continuous_value_matches_fancy_index(self, L, data):
        rng = seeded(data.draw)
        a, b = L.domain
        ts = np.concatenate((rng.uniform(a - 0.5, b + 0.5, 200), L.seg_breaks,
                             [-np.inf, np.inf, -0.0, 0.0]))
        assert_bitwise(L.continuous_value(ts), oracle.continuous_value(L, ts))
        block = ts[:200].reshape(-1, 2)
        assert_bitwise(L.continuous_value(block), oracle.continuous_value(L, block))
        for t in ts[-6:]:
            got = L.continuous_value(t)
            assert type(got) is float
            assert_bitwise(got, oracle.continuous_value(L, t))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bump_moments_match_fancy_index(self, data):
        rng = seeded(data.draw)
        prof = get_profile("bump")
        x = prof.table_x
        y = np.concatenate((rng.uniform(-0.1, 1.1, 500), x[rng.integers(0, x.size, 50)],
                            [0.0, 1.0, -0.0]))
        assert_bitwise(prof.moments(y), oracle.table_moments(prof, y))
        assert_bitwise(prof.moments(y.reshape(-1, 1)), oracle.table_moments(prof, y.reshape(-1, 1)))
        assert_bitwise(prof.moments(0.3), oracle.table_moments(prof, 0.3))


@st.composite
def ragged_fans(draw):
    """A GridPath of 1 to 20 offsets with ragged lengths, and times drawn
    around the domain, on lattice points and beyond both ends."""
    rng = seeded(draw)
    J = draw(st.integers(1, 20))
    W = draw(st.integers(1, 300))
    h = draw(st.floats(1e-3, 0.5))
    taus = np.sort(rng.uniform(0.0, h, J))
    lengths = rng.integers(1, W + 1, J)
    values = rng.normal(0.0, 1.0, (J, W))
    values[rng.random((J, W)) < 0.05] = -0.0
    gp = GridPath(offsets=taus, values=values, lengths=lengths, n=8, h=h,
                  profile_name="uniform", domain=(0.0, h * W))
    on_lattice = taus[rng.integers(0, J, 40)] + h * rng.integers(0, W + 2, 40)
    M = draw(st.integers(1, 200))
    t = np.concatenate((rng.uniform(-h, h * (W + 1), M), on_lattice, [-1e300, 1e300]))
    return gp, t


class TestGridRead:
    @given(pair=ragged_fans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_2d_index(self, pair, data):
        gp, t = pair
        J = gp.offsets.size
        j = data.draw(st.integers(-J, J - 1))
        assert_bitwise(gp.eval(j, t), oracle.grid_eval(gp, j, t))
        assert_bitwise(gp.eval(j, t[0]), oracle.grid_eval(gp, j, t[0]))
        rows = np.asarray(data.draw(st.lists(st.integers(-J, J - 1), min_size=1, max_size=8)))
        block = np.resize(t, (rows.size, t.size))
        assert_bitwise(gp.eval(rows, block), oracle.grid_eval(gp, rows, block))


@st.composite
def limit_paths(draw):
    """A LimitPath of 1 to 500 times, with or without jumps (a jump may
    sit on the first or last time), and times in its domain that land on
    grid times, on jump times and at both ends."""
    rng = seeded(draw)
    a = draw(st.floats(-1.0, 1.0))
    b = a + draw(st.floats(0.1, 2.0))
    M = draw(st.integers(1, 500))
    t = np.unique(np.concatenate(([a, b], rng.uniform(a, b, M))))[:M] if M > 1 else np.array([a])
    is_jump = rng.random(t.size) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    x = rng.normal(0.0, 1.0, t.size)
    x_left = np.where(is_jump, x + rng.normal(0.0, 1.0, t.size), x)
    q = LimitPath(t, x_left, x, is_jump, domain=(a, b))
    ts = np.concatenate((rng.uniform(a, b, 300), t, t[is_jump], [a, b]))
    return q, ts


class TestLimitRead:
    @given(pair=limit_paths())
    @settings(max_examples=150, deadline=None)
    def test_matches_interp(self, pair):
        q, ts = pair
        assert_bitwise(q.eval(ts), oracle.limit_interp(q, ts))
        assert_bitwise(q.eval(ts.reshape(-1, 1)), oracle.limit_interp(q, ts.reshape(-1, 1)))
        assert_bitwise(q._interp(*q._locate(ts)), oracle.limit_interp(q, ts))
        got = q.eval(ts[-1])
        assert type(got) is float
        assert_bitwise(got, oracle.limit_interp(q, ts[-1]))

    def test_out_of_domain_still_rejected(self):
        q = LimitPath([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [False, False], (0.0, 1.0))
        assert q.eval(1.0 + 1e-13) == 1.0  # within the tolerance, clipped
        for t in (1.0 + 1e-11, -1e-11, np.inf, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="times must lie in"):
                q.eval(t)


class TestL1ReadOuts:
    def test_solved_fans_bitwise_with_fancy_index_reads(self):
        """l1_distance on solved fans (flow and Ito limits, meshes 16 to
        4096, blocks of many rows and of one) gives the bits of the one-stage
        blocked score whose read-outs are the 2-D grid index and the
        range-checked limit read, on the first scoring and on a kept plan."""
        L = BVFunction.from_segments([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
                                     jumps=((0.25, 1.5), (0.75, -0.5)))
        f = ScalarField.linear_x()
        for mu in (JumpMeasure.lebesgue(), JumpMeasure.dirac(0.0)):
            q = solve_limit(f, L, mu, 1.0)
            for n, alpha in ((16, 2.0), (64, 2.0), (1024, 0.5), (4096, 0.5)):
                gp = solve_grid(f, L, get_profile("uniform"), n, n ** -alpha, 1.0)
                want = oracle.l1_blocked(gp, q)
                assert_bitwise(l1_distance(gp, q), want)
                assert_bitwise(l1_distance(gp, q), want)


class TestSortedUnique:
    @given(xs=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300])
                       | st.floats(allow_nan=False), max_size=300), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_np_unique(self, xs, data):
        """Finite arrays with repeats and zeros of both signs: same values,
        same order and the same sign on each zero."""
        rng = seeded(data.draw)
        x = np.array(xs, dtype=np.float64)
        x = np.concatenate((x, rng.choice(x, x.size) if x.size else x))
        assert_bitwise(_sorted_unique(x), np.unique(x))

    def test_bvode_runs_without_numpy_ma(self):
        """Importing bvode and its CLI, building every profile, a fan and a
        limit solve with report points import no numpy.ma (16 ms of set-up)."""
        code = """
import sys
import bvode, bvode.cli
for name in ("uniform", "triangular", "bump"):
    bvode.get_profile(name)
L = bvode.BVFunction.from_segments([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
                                   jumps=((0.25, 1.5), (0.75, -0.5)))
f = bvode.ScalarField.linear_x()
bvode.solve_grid(f, L, bvode.get_profile("bump"), 8, 1 / 64, 1.0)
bvode.solve_limit(f, L, bvode.JumpMeasure.lebesgue(), 1.0, sample_times=[0.1, 0.25, 0.6])
print("numpy.ma" in sys.modules)
"""
        src = str(Path(bvode.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "False"
