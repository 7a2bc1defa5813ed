"""Right-continuous BV drivers: evaluation, jumps, variation."""

import itertools
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvode
import oracle
from bvode import BVFunction, StepLimitError, drivers


def make_mixed():
    # quadratic hump plus two opposing jumps
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0],
        [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)),
    )


def continuous_part(L):
    """The jump-free driver on L's segments."""
    return BVFunction(L.seg_breaks, L.seg_coefs)


def variation_steps(L, u, v, v_max):
    """L's variation grid over the one window [u, v]."""
    return L._variation_grid(np.array([u, v], dtype=np.float64), v_max)


class TestEval:
    def test_pure_jump_before_after(self):
        L = BVFunction([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        assert L(0.25) == 0.0
        assert L(0.5) == 1.0  # right-continuous at the epoch
        assert L(0.75) == 1.0

    def test_extension_clamps(self):
        L = BVFunction([0.0, 1.0], [[0.0, 1.0]])
        assert L(2.0) == 1.0
        assert L(-3.0) == 0.0

    def test_polynomial_matches_polyval(self, rng):
        coefs = (0.3, -1.2, 0.8, 2.0)
        # the same cubic in powers of t + 1
        L = BVFunction([-1.0, 2.0], [[0.3, 3.2, -5.2, 2.0]])
        ts = rng.uniform(-1.0, 2.0, 300)
        want = np.polyval(coefs[::-1], ts)
        np.testing.assert_allclose(L(ts), want, rtol=0, atol=1e-12)

    def test_vectorized_matches_scalar(self, rng):
        L = make_mixed()
        ts = rng.uniform(-0.2, 1.2, 50)
        vec = L(ts)
        assert vec.shape == ts.shape
        for t, v in zip(ts, vec):
            assert L(float(t)) == v


def pickled_with_a_kept_fan():
    """A pickled copy of a driver that keeps a fan: it is rebuilt with
    read-only tables and an empty memo."""
    L = make_mixed()
    bvode.solve_grid(bvode.ScalarField.linear_x(), L, bvode.get_profile("uniform"), 8,
                     1.0 / 64, 1.0)
    copied = pickle.loads(pickle.dumps(L))
    assert len(L._memo) == 1 and not copied._memo and copied._memo_bytes == 0
    return copied


class TestReadOnlyTables:
    def test_edit_raises(self):
        """The driver's arrays and the tables derived from them are read-only:
        an in-place edit raises instead of leaving the derived tables (and the
        results the driver keeps) stale.  A pickled copy holds the same bits,
        read-only again."""
        built = make_mixed()
        before = built(np.linspace(0.0, 1.0, 9))
        names = ("seg_breaks", "seg_coefs", "jump_epochs", "jump_sizes", "_ext_coefs",
                 "_ext_origin", "_jump_cum", "_piece_seg", "_piece_ends")
        for L in (built, pickled_with_a_kept_fan()):
            assert {k for k, v in vars(L).items() if isinstance(v, np.ndarray)} == set(names)
            for name in names:
                assert getattr(L, name).tobytes() == getattr(built, name).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    getattr(L, name)[...] = 7
            np.testing.assert_array_equal(L(np.linspace(0.0, 1.0, 9)), before)


class TestNonFiniteTimes:
    def test_nan_rejected(self):
        L = make_mixed()
        for t in (np.nan, np.array([0.2, np.nan])):
            with pytest.raises(ValueError, match="times must not be NaN"):
                L(t)
            with pytest.raises(ValueError, match="times must not be NaN"):
                L.continuous_value(t)

    def test_infinities_extend_as_constants(self):
        """+-inf reads the constant extension: L(a) left of the domain, L(b) right of it."""
        L = make_mixed()
        assert L(-np.inf) == L(0.0) == 0.0
        assert L(np.inf) == L(1.0)
        assert L.continuous_value(-np.inf) == L.continuous_value(0.0)
        assert L.continuous_value(np.inf) == L.continuous_value(1.0)
        np.testing.assert_array_equal(L(np.array([-np.inf, 0.5, np.inf])),
                                      [L(0.0), L(0.5), L(1.0)])


class TestJumps:
    def test_jump_at(self):
        L = BVFunction([0.0, 1.0], [[0.0]], jumps=((0.3, 2.0), (0.5, -1.0)))
        assert L.jump_at(0.5) == -1.0
        assert L.jump_at(0.4999) == 0.0
        assert L.jump_at(0.3) == 2.0

    def test_right_continuity_probe(self):
        L = make_mixed()
        for s in L.jump_epochs:
            gap_right = abs(L(s + 1e-9) - L(s))
            gap_left = abs(L(s) - L(s - 1e-9))
            assert gap_right < 1e-7
            assert gap_left > 0.4  # the jump itself

    def test_coincident_jumps_merge(self):
        L = BVFunction([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0), (0.5, 2.0)))
        assert L.jump_epochs.size == 1
        assert L.jump_at(0.5) == 3.0

    def test_merged_to_zero_drops(self):
        L = BVFunction([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0), (0.5, -1.0)))
        assert L.jump_epochs.size == 0


class TestValidation:
    def test_zero_jump_rejected(self):
        with pytest.raises(ValueError):
            BVFunction([0.0, 1.0], [[0.0]], jumps=((0.5, 0.0),))

    def test_epoch_at_left_endpoint_rejected(self):
        with pytest.raises(ValueError):
            BVFunction([0.0, 1.0], [[0.0]], jumps=((0.0, 1.0),))

    def test_epoch_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            BVFunction([0.0, 1.0], [[0.0]], jumps=((1.5, 1.0),))

    def test_discontinuous_segments_rejected(self):
        with pytest.raises(ValueError):
            BVFunction.from_segments([0.0, 0.5, 1.0], [[0.0, 1.0], [9.0]])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            BVFunction([0.0, 1.0], [[0.0, 0.0, 0.0, 0.0, 1.0]])

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            BVFunction.from_segments([0.0, 0.0, 1.0], [[1.0], [1.0]])
        with pytest.raises(ValueError, match="at least two breakpoints"):
            BVFunction([0.0], [])

    @pytest.mark.parametrize("breaks,coefs,jumps,needle", [
        ([0.0, 1.0], [[0.0, 1.0]], ((0.5, np.nan),), "jump size"),
        ([0.0, 1.0], [[0.0, 1.0]], ((0.5, np.inf),), "jump size"),
        ([0.0, 1.0], [[0.0, np.nan]], (), "coefficients must be finite"),
        ([0.0, np.inf], [[0.0, 1.0]], (), "breakpoints must be finite"),
        ([-1e308, 1e308], [[2.0]], ((1.0, 1.0),), "span a width too large for a float"),
        ([-1e308, 0.0, 1e308], [[2.0], [2.0]], (), "span a width too large for a float"),
    ], ids=["nan-jump", "inf-jump", "nan-coefficient", "inf-breakpoint", "inf-segment-width",
            "inf-domain-width"])
    def test_non_finite_input_rejected(self, breaks, coefs, jumps, needle):
        with pytest.raises(ValueError, match=needle):
            BVFunction(breaks, coefs, jumps=jumps)


class TestVariation:
    def test_linear(self):
        L = BVFunction([0.0, 1.0], [[0.0, 1.0]])
        assert L.total_variation(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_pure_jumps(self):
        L = BVFunction([0.0, 1.0], [[0.0]], jumps=((0.3, 2.0), (0.5, -1.0)))
        assert L.total_variation(0.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_point_window(self):
        assert make_mixed().total_variation(0.4, 0.4) == 0.0

    def test_cubic_with_extrema(self):
        # t^3 - t on [-1.5, 1.5], in powers of t + 1.5: extrema at +-1/sqrt(3)
        L = BVFunction([-1.5, 1.5], [[-1.875, 5.75, -4.5, 1.0]])
        c = 1.0 / np.sqrt(3.0)
        f = lambda t: t ** 3 - t
        want = (f(-c) - f(-1.5)) + (f(-c) - f(c)) + (f(1.5) - f(c))
        assert L.total_variation() == pytest.approx(want, abs=1e-12)

    def test_against_partition_supremum(self):
        L = make_mixed()
        ts = np.linspace(0.0, 1.0, 20001)
        cont = np.abs(np.diff(continuous_part(L)(ts))).sum()
        brute = cont + np.abs(L.jump_sizes).sum()
        assert L.total_variation() >= brute - 1e-6
        assert L.total_variation() == pytest.approx(brute, abs=1e-4)

    def test_order_error(self):
        with pytest.raises(ValueError):
            make_mixed().total_variation(0.8, 0.2)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_additivity(self, p, q, r):
        u, v, w = sorted((p, q, r))
        L = make_mixed()
        lhs = L.total_variation(u, w)
        rhs = L.total_variation(u, v) + L.total_variation(v, w)
        assert abs(lhs - rhs) <= 1e-12


class TestContinuousPart:
    def test_jump_free_identity(self, rng):
        L = BVFunction([0.0, 1.0], [[0.1, 0.5, -0.2]])
        Lc = continuous_part(L)
        ts = rng.uniform(0.0, 1.0, 100)
        np.testing.assert_array_equal(L(ts), Lc(ts))

    def test_subtracts_jump(self):
        L = BVFunction([0.0, 1.0], [[0.0, 1.0]], jumps=((0.5, 1.0),))
        assert continuous_part(L)(0.75) == pytest.approx(0.75, abs=1e-14)

    def test_pure_jump_gives_base(self):
        L = BVFunction([0.0, 1.0], [[2.5]], jumps=((0.5, 1.0),))
        Lc = continuous_part(L)
        assert Lc(0.9) == 2.5
        assert Lc.jump_epochs.size == 0

    def test_reconstruction(self, rng):
        L = make_mixed()
        Lc = continuous_part(L)
        ts = rng.uniform(0.0, 1.0, 1000)
        jump_part = np.array(
            [L.jump_sizes[L.jump_epochs <= t].sum() for t in ts])
        np.testing.assert_allclose(L(ts), Lc(ts) + jump_part, rtol=0, atol=1e-12)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_freshly_built_driver(self, data):
        """Dropping the jumps gives the pieces, sums and grids of a jump-free
        driver built and checked from scratch."""
        Lc = data.draw(piecewise_cubics())
        a, b = Lc.domain
        jumps = [(t, 1.0 + t * t) for t in data.draw(st.lists(st.floats(a, b), max_size=3))
                 if t > a]
        got, want = continuous_part(BVFunction(Lc.seg_breaks, Lc.seg_coefs, jumps)), Lc
        for name in ("seg_breaks", "seg_coefs", "_piece_seg", "_piece_ends",
                     "jump_epochs", "jump_sizes", "_jump_cum"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert got.domain == want.domain
        u, v = window_edges(data.draw, Lc, max_size=2)
        assert got.total_variation(u, v) == want.total_variation(u, v)
        assert got.total_variation() == want.total_variation()
        v_max = max(want.total_variation(), 1e-3) * data.draw(st.floats(1e-2, 2.0))
        np.testing.assert_array_equal(variation_steps(got, u, v, v_max),
                                      variation_steps(want, u, v, v_max))

    def test_cannot_alter_the_parent(self):
        """Each driver owns copies of its inputs: the continuous part shares no
        array with the parent (and its arrays are read-only), and changing the
        caller's arrays leaves the driver unchanged."""
        breaks, coefs = np.array([0.0, 0.5, 1.0]), np.array([[0.0, 2.0], [1.0, 0.0]])
        L = BVFunction(breaks, coefs, jumps=((0.25, 1.5),))
        Lc = continuous_part(L)
        for name in ("seg_breaks", "seg_coefs", "_piece_seg", "_piece_ends"):
            assert not np.shares_memory(getattr(Lc, name), getattr(L, name))
            with pytest.raises(ValueError, match="read-only"):
                getattr(Lc, name)[...] = 7
        breaks[1], coefs[0, 1] = 0.4, 9.0
        np.testing.assert_array_equal(L.seg_breaks, [0.0, 0.5, 1.0])
        assert L(0.5) == 2.5 and L.jump_at(0.25) == 1.5 and Lc.jump_at(0.25) == 0.0
        assert L.total_variation() == 2.5


class TestVariationSteps:
    @pytest.mark.parametrize("v_max", [0.5, 0.1, 0.013])
    def test_cells_respect_budget(self, v_max):
        L = make_mixed()
        grid = variation_steps(L, 0.0, 1.0, v_max)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        Lc = continuous_part(L)
        for u, v in zip(grid[:-1], grid[1:]):
            assert Lc.total_variation(u, v) <= v_max + 1e-12

    def test_includes_breakpoints(self):
        L = make_mixed()
        grid = variation_steps(L, 0.0, 1.0, 0.05)
        assert 0.5 in grid

    def test_zero_variation_span(self):
        L = BVFunction([0.0, 1.0], [[3.0]])
        grid = variation_steps(L, 0.2, 0.8, 0.1)
        assert grid[0] == 0.2 and grid[-1] == 0.8

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_segment_walk_oracle(self, data):
        """The monotone-piece walk gives the oracle's grids to within the cut
        floor (assert_cuts_match), and its variation within 4 ulp (the sum is
        associated piece by piece)."""
        L = data.draw(piecewise_cubics())
        a, b = L.domain
        p, q = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        u, v = a + p * (b - a), a + q * (b - a)
        v_frac = data.draw(st.floats(1e-3, 2.0))
        want = oracle.total_variation(L, u, v)
        got = L.total_variation(u, v)
        assert abs(got - want) <= 4 * 2.0 ** -52 * want
        v_max = max(want, 1.0) * v_frac
        assert_cuts_match(L, variation_steps(L, u, v, v_max),
                          oracle.variation_steps(L, u, v, v_max))


def assert_cuts_match(L, got, want):
    """got has want's point count, and each point of got lies within

        2^-48 (|c0| + |c1| h + |c2| h^2 + |c3| h^3) + |L_c'(t)| spacing(t)

    of its partner t in want in driver value, where c is the segment holding
    t and h its width: twice the floor at which a cut is frozen
    (drivers._rising_roots), as both grids miss their goals by up to a floor,
    plus one float spacing of the time, to which each cut rounds when its
    segment's origin is added."""
    assert got.size == want.size
    seg = np.clip(np.searchsorted(L.seg_breaks, want, side="right") - 1, 0,
                  L.seg_coefs.shape[0] - 1)
    coef = L.seg_coefs[seg].T
    h = np.diff(L.seg_breaks)[seg]
    u = np.clip(want, L.seg_breaks[0], L.seg_breaks[-1]) - L.seg_breaks[seg]
    slope = np.abs((3.0 * coef[3] * u + 2.0 * coef[2]) * u + coef[1])
    bound = drivers._poly_eval(np.abs(coef), h) * 2.0 ** -48 + slope * np.spacing(np.abs(want))
    gap = np.abs(L.continuous_value(got) - L.continuous_value(want))
    assert np.all(gap <= bound), float(np.max(gap / bound))


def window_edges(draw, L, max_size=6):
    """Sorted window edges over L's domain and a little beyond it: random
    points, breakpoints, stationary points and their float neighbours, with
    repeats."""
    a, b = L.domain
    special = list(L.seg_breaks)
    for coef, origin, h in zip(L.seg_coefs, L.seg_breaks, np.diff(L.seg_breaks)):
        special += [origin + r for r in drivers._stationary_points(coef, 0.0, h)]
    special += [np.nextafter(x, s) for x in special for s in (-np.inf, np.inf)]
    point = st.floats(a - 0.1, b + 0.1) | st.sampled_from(special)
    return sorted(float(x) for x in draw(st.lists(point, min_size=2, max_size=max_size)))


def union_of_oracle_grids(L, edges, v_max):
    return np.unique(np.concatenate([oracle.variation_steps(L, u, v, v_max)
                                     for u, v in itertools.pairwise(edges)]))


class TestPieceTable:
    """The monotone pieces are tabulated once per driver and clipped to each
    window; every sum is the per-window walk's bit for bit, and every grid
    is its union of grids to within the cut floor (assert_cuts_match)."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_total_variation_matches_piece_walk(self, data):
        L = data.draw(piecewise_cubics())
        u, v = window_edges(data.draw, L, max_size=2)
        assert L.total_variation(u, v) == oracle.piece_total_variation(L, u, v)
        assert L.total_variation() == oracle.piece_total_variation(L)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_windows_match_union_of_oracle_grids(self, data):
        L = data.draw(piecewise_cubics())
        edges = window_edges(data.draw, L)
        v_max = max(oracle.total_variation(L), 1.0) * data.draw(st.floats(1e-3, 2.0))
        got = L._variation_grid(np.array(edges), v_max)
        assert_cuts_match(L, got, union_of_oracle_grids(L, edges, v_max))

    # windows whose local edges round: u - origin up to the segment's width
    # (the piece ending the segment still starts the window), u and v onto
    # one stationary point (the piece starting there covers the window), and
    # v onto one (no piece starts at v)
    R = 1.0 + 2.0 ** -52

    @pytest.mark.parametrize("L,edges,v_max", [
        (BVFunction([-1.0, 2.0 ** -52], [[0.0, 1.0]]), [1.5 * 2.0 ** -53, 1.0], 1.0),
        (BVFunction([-1.0, 1.0], [[0.0, -2.0 * R, 1.0]]),
         [1.5 * 2.0 ** -53, 2.5 * 2.0 ** -53], 1.0),
        (BVFunction([-1.0, 1.0], [[0.0, -2.0 * R, 1.0]]), [-0.5, 1.25 * 2.0 ** -52], 1.0),
    ])
    def test_rounded_window_edges(self, L, edges, v_max):
        assert_cuts_match(L, L._variation_grid(np.array(edges), v_max),
                          union_of_oracle_grids(L, edges, v_max))
        assert L.total_variation(*edges) == oracle.piece_total_variation(L, *edges)

    def test_many_pieces_sum_left_to_right(self):
        # 16 segments, seed 3: numpy's pairwise sum of the pieces differs
        rng = np.random.default_rng(3)
        breaks = np.linspace(0.0, 1.0, 17)
        rows, start = [], 0.0
        for w in np.diff(breaks):
            rows.append([start, *rng.uniform(-3.0, 3.0, 3)])
            start = ((rows[-1][3] * w + rows[-1][2]) * w + rows[-1][1]) * w + rows[-1][0]
        L = BVFunction(breaks, rows)
        pieces = [abs(float(drivers._poly_eval(c, e1) - drivers._poly_eval(c, e0)))
                  for c, _, e0, e1 in oracle.monotone_pieces(L, 0.0, 1.0)]
        assert float(np.sum(pieces)) != oracle.piece_total_variation(L)
        assert L.total_variation() == oracle.piece_total_variation(L)

    def test_chunk_size_leaves_grid_unchanged(self, monkeypatch):
        L = continuous_part(make_mixed())
        edges = np.array([-0.1, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0, 1.2])
        want = L._variation_grid(edges, 0.013)
        assert want.size > 100
        monkeypatch.setattr(drivers, "_CHUNK", 7)
        got = L._variation_grid(edges, 0.013)
        np.testing.assert_array_equal(got, want)
        assert_cuts_match(L, got, union_of_oracle_grids(L, edges, 0.013))


class RootSpy:
    """Wraps drivers._rising_roots and keeps each call's (c, goal, lo, hi, roots)."""

    def __init__(self, mp):
        self.calls, self._roots = [], drivers._rising_roots
        mp.setattr(drivers, "_rising_roots", self)

    def __call__(self, c, goal, lo, hi, t):
        args = (c.copy(), goal.copy(), lo.copy(), hi.copy())
        out = self._roots(c, goal, lo, hi, t)
        self.calls.append((*args, out.copy()))
        return out

    def check(self, frozen=True):
        """Every root lies in its bracket and within the floor 2^-49 (|c0| +
        |c1| r + |c2| r^2 + |c3| r^3), r = max(|lo|, |hi|), of its goal; with
        frozen=False, every root lies in its bracket and misses the floor."""
        for c, goal, lo, hi, t in self.calls:
            assert np.all((lo <= t) & (t <= hi))
            r = np.maximum(np.abs(lo), np.abs(hi))
            floor = drivers._poly_eval(np.abs(c), r) * 2.0 ** -49
            residual = np.abs(drivers._poly_eval(c, t) - goal)
            assert np.all(residual <= floor) if frozen else np.all(residual > floor)


class TestCutTermination:
    """Bracketed Newton freezes every cut at the floor or stops after 60
    iterations; it needs no slope at the ends and no bracket wider than a float."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_cut_meets_its_floor(self, data):
        L = data.draw(piecewise_cubics())
        edges = window_edges(data.draw, L)
        v_max = max(oracle.total_variation(L), 1.0) * data.draw(st.floats(1e-3, 0.2))
        with pytest.MonkeyPatch.context() as mp:
            spy = RootSpy(mp)
            L._variation_grid(np.array(edges), v_max)
        spy.check()

    @pytest.mark.parametrize("breaks,row", [
        ([-1.0, 1.0], [0.0, 0.0, 0.0, 1.0]),   # t^3: both pieces flat at 0
        ([0.0, 1.0], [0.0, -1.0, 1.0]),        # t^2 - t: flat at its minimum
        ([0.0, 1.0], [0.0, 0.0, 3.0, -2.0]),   # 3 t^2 - 2 t^3: flat at both ends
    ])
    def test_stationary_piece_ends(self, breaks, row, monkeypatch):
        L = BVFunction(breaks, [row])
        spy = RootSpy(monkeypatch)
        got = L._variation_grid(np.array(L.domain), 1e-4)
        assert spy.calls
        spy.check()
        assert_cuts_match(L, got, oracle.variation_steps(L, *L.domain, 1e-4))

    def test_cuts_denser_than_floats(self, monkeypatch):
        # slope 1e12 over a window of about nine floats: 114 cuts 8.5e-18
        # apart.  The bisection's last midpoint of two neighbouring floats
        # rounds to the even one, so it keeps 4 of the points; each cut here
        # keeps the float its chord or Newton step met, 6 of them.
        L = BVFunction([-1.0, 1.0], [[-1e12, 1e12]])
        edges = [0.6095693498571635, 0.6095693498571645]
        spy = RootSpy(monkeypatch)
        got = L._variation_grid(np.array(edges), 1e-5)
        assert spy.calls[0][0].shape[1] == 114
        spy.check()
        assert got[0] == edges[0] and got[-1] == edges[-1] and np.all(np.diff(got) > 0.0)
        assert np.isin(union_of_oracle_grids(L, edges, 1e-5), got).all()
        assert L.total_variation(*edges) == oracle.piece_total_variation(L, *edges)

    def test_subnormal_width_window(self, monkeypatch):
        # 58 cuts in [0, 5e-324]: no float meets the floor, so each cut stops
        # after 60 iterations, on one of the two ends
        L = BVFunction([0.0, 1.0], [[0.0, 1e300]])
        spy = RootSpy(monkeypatch)
        got = L._variation_grid(np.array([0.0, 5e-324]), 1e-25)
        spy.check(frozen=False)
        assert spy.calls[0][0].shape[1] == 58
        np.testing.assert_array_equal(got, [0.0, 5e-324])
        np.testing.assert_array_equal(got, oracle.variation_steps(L, 0.0, 5e-324, 1e-25))


class TestStationaryPoints:
    """Roots of p' from the cancellation-free form of the quadratic formula."""

    def test_small_cubic_coefficient_keeps_the_root(self):
        # p = -t + t^2 + 1e-14 t^3: p' vanishes at 0.5 - 3.75e-15, where p = -0.25 + 1.25e-15
        L = BVFunction([0.0, 1.0], [[0.0, -1.0, 1.0, 1e-14]])
        (root,) = drivers._stationary_points(L.seg_coefs[0], 0.0, 1.0)
        assert root == pytest.approx(0.5 - 3.75e-15, rel=1e-15)
        assert L.total_variation() == pytest.approx(0.5 + 7.5e-15, rel=1e-15)

    def test_subnormal_cubic_coefficient(self):
        L = BVFunction([0.0, 1.0], [[0.0, -1.0, 1.0, 5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert drivers._stationary_points(L.seg_coefs[0], 0.0, 1.0) == [0.5]
            assert L.total_variation() == 0.5

    @pytest.mark.parametrize("row,want", [
        ([0.0, -1e200, 1e200, 1e-100], 5e199),    # unscaled, disc overflows to inf
        ([0.0, -1e-200, 1e-200, 1e-300], 5e-201),  # unscaled, disc underflows to 0
    ])
    def test_extreme_scales_keep_the_root(self, row, want):
        # p ~ s (t^2 - t): the minimum -s / 4 sits at t = 0.5
        L = BVFunction([0.0, 1.0], [row])
        assert L.total_variation() == pytest.approx(want, rel=1e-15, abs=0.0)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_scaling_keeps_every_bit(self, data):
        """Where no product overflows or underflows, the scaled roots are the
        unscaled ones bit for bit."""
        coef = st.one_of(st.just(0.0), st.builds(
            lambda m, e: m * 2.0 ** e,
            st.floats(0.5, 1.0) | st.floats(-1.0, -0.5), st.integers(-150, 150)))
        row = [0.0] + [data.draw(coef) for _ in range(3)]
        assert (drivers._stationary_points(row, -np.inf, np.inf)
                == oracle.unscaled_stationary_points(row, -np.inf, np.inf))

    def test_double_root_at_zero(self):
        # p' = 3 t^2 has its double root at the origin of the segment
        assert drivers._stationary_points([0.0, 0.0, 0.0, 1.0], -1.0, 1.0) == [0.0]
        assert drivers._stationary_points([0.0, 0.0, 0.0, 1.0], 0.0, 1.0) == []

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_variation_matches_textbook_roots(self, data):
        """Where the textbook formula is well conditioned (cubic coefficient
        bounded away from 0), the variation moves by at most 1e-12 relative."""
        breaks = np.cumsum([0.0] + data.draw(st.lists(st.floats(0.05, 1.0), min_size=1,
                                                       max_size=3)))
        coef = st.floats(-3.0, 3.0)
        rows, start = [], data.draw(coef)
        for w in np.diff(breaks):
            c3 = data.draw(st.floats(0.01, 3.0)) * data.draw(st.sampled_from([-1.0, 1.0]))
            row = [start, data.draw(coef), data.draw(coef), c3]
            rows.append(row)
            start = ((row[3] * w + row[2]) * w + row[1]) * w + row[0]
        L = BVFunction(breaks, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_stationary_points", oracle.stationary_points)
            want = oracle.total_variation(L)
        assert L.total_variation() == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestVariationStepCap:
    """The cuts are counted before any grid is allocated."""

    def test_tiny_budget_raises(self):
        L = BVFunction([0.0, 1.0], [[0.0, 1.0]])
        with pytest.raises(StepLimitError, match="variation grid needs 1.17647e\\+13 cuts"):
            variation_steps(L, 0.0, 1.0, 1e-13)
        assert bvode.StepLimitError is drivers.StepLimitError

    def test_cap_boundary(self, monkeypatch):
        # variation 1 in cells of 0.85 v_max = 1 / 10.5: 10 cuts
        L = BVFunction([0.0, 1.0], [[0.0, 1.0]])
        v_max = 1.0 / 10.5 / 0.85
        monkeypatch.setattr(drivers, "STEP_CAP", 10)
        assert variation_steps(L, 0.0, 1.0, v_max).size == 12
        monkeypatch.setattr(drivers, "STEP_CAP", 9)
        with pytest.raises(StepLimitError, match="needs 10 cuts, cap is 9"):
            variation_steps(L, 0.0, 1.0, v_max)


@st.composite
def piecewise_cubics(draw):
    """Continuous piecewise cubic with one to four segments."""
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    breaks = draw(st.floats(-1.0, 1.0)) + np.concatenate(([0.0], np.cumsum(widths)))
    coef = st.floats(-3.0, 3.0)
    rows, start = [], draw(coef)
    for w in np.diff(breaks):
        row = [start] + draw(st.lists(coef, min_size=3, max_size=3))
        rows.append(row)
        start = ((row[3] * w + row[2]) * w + row[1]) * w + row[0]
    return BVFunction(breaks, rows)

