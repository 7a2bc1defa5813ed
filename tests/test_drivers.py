"""Right-continuous BV drivers: evaluation, jumps, variation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvode
import oracle
from bvode import BVFunction, StepLimitError, drivers, stieltjes_integrate


def make_mixed():
    # quadratic hump plus two opposing jumps
    return BVFunction.from_segments(
        [0.0, 0.5, 1.0],
        [[0.0, 2.0], [1.0, 0.0, -4.0]],
        jumps=((0.25, 1.5), (0.75, -0.5)),
    )


class TestEval:
    def test_pure_jump_before_after(self):
        L = BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.5, 1.0),))
        assert L(0.25) == 0.0
        assert L(0.5) == 1.0  # right-continuous at the epoch
        assert L(0.75) == 1.0

    def test_extension_clamps(self):
        L = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0))
        assert L(2.0) == 1.0
        assert L(-3.0) == 0.0

    def test_polynomial_matches_polyval(self, rng):
        coefs = (0.3, -1.2, 0.8, 2.0)
        L = BVFunction.from_poly((-1.0, 2.0), coefs)
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


class TestJumps:
    def test_jump_at(self):
        L = BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.3, 2.0), (0.5, -1.0)))
        assert L.jump_at(0.5) == -1.0
        assert L.jump_at(0.4999) == 0.0
        assert L.jump_at(0.3) == 2.0

    def test_left_limit(self):
        L = BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.3, 2.0), (0.5, -1.0)))
        assert L.left_limit(0.5) == 2.0
        assert L.left_limit(0.3) == 0.0

    def test_left_limit_rejects_left_endpoint(self):
        L = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0))
        assert L.left_limit(0.7) == pytest.approx(0.7)
        with pytest.raises(ValueError):
            L.left_limit(0.0)

    def test_right_continuity_probe(self):
        L = make_mixed()
        for s in L.jump_epochs:
            gap_right = abs(L(s + 1e-9) - L(s))
            gap_left = abs(L(s) - L(s - 1e-9))
            assert gap_right < 1e-7
            assert gap_left > 0.4  # the jump itself

    def test_coincident_jumps_merge(self):
        L = BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.5, 1.0), (0.5, 2.0)))
        assert L.jump_epochs.size == 1
        assert L.jump_at(0.5) == 3.0

    def test_merged_to_zero_drops(self):
        L = BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.5, 1.0), (0.5, -1.0)))
        assert L.jump_epochs.size == 0


class TestValidation:
    def test_zero_jump_rejected(self):
        with pytest.raises(ValueError):
            BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.5, 0.0),))

    def test_epoch_at_left_endpoint_rejected(self):
        with pytest.raises(ValueError):
            BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.0, 1.0),))

    def test_epoch_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            BVFunction.constant((0.0, 1.0), 0.0, jumps=((1.5, 1.0),))

    def test_discontinuous_segments_rejected(self):
        with pytest.raises(ValueError):
            BVFunction.from_segments([0.0, 0.5, 1.0], [[0.0, 1.0], [9.0]])

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            BVFunction.from_poly((0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            BVFunction.from_segments([0.0, 0.0, 1.0], [[1.0], [1.0]])

    @pytest.mark.parametrize("breaks,coefs,jumps,needle", [
        ([0.0, 1.0], [[0.0, 1.0]], ((0.5, np.nan),), "jump size"),
        ([0.0, 1.0], [[0.0, 1.0]], ((0.5, np.inf),), "jump size"),
        ([0.0, 1.0], [[0.0, np.nan]], (), "coefficients must be finite"),
        ([0.0, np.inf], [[0.0, 1.0]], (), "breakpoints must be finite"),
    ], ids=["nan-jump", "inf-jump", "nan-coefficient", "inf-breakpoint"])
    def test_non_finite_input_rejected(self, breaks, coefs, jumps, needle):
        with pytest.raises(ValueError, match=needle):
            BVFunction(breaks, coefs, jumps=jumps)


class TestVariation:
    def test_linear(self):
        L = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0))
        assert L.total_variation(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_pure_jumps(self):
        L = BVFunction.constant((0.0, 1.0), 0.0, jumps=((0.3, 2.0), (0.5, -1.0)))
        assert L.total_variation(0.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_point_window(self):
        assert make_mixed().total_variation(0.4, 0.4) == 0.0

    def test_cubic_with_extrema(self):
        # t^3 - t on [-1.5, 1.5]: extrema at +-1/sqrt(3)
        L = BVFunction.from_poly((-1.5, 1.5), (0.0, -1.0, 0.0, 1.0))
        c = 1.0 / np.sqrt(3.0)
        f = lambda t: t ** 3 - t
        want = (f(-c) - f(-1.5)) + (f(-c) - f(c)) + (f(1.5) - f(c))
        assert L.total_variation() == pytest.approx(want, abs=1e-12)

    def test_against_partition_supremum(self):
        L = make_mixed()
        ts = np.linspace(0.0, 1.0, 20001)
        cont = np.abs(np.diff(L.continuous_part()(ts))).sum()
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
        L = BVFunction.from_poly((0.0, 1.0), (0.1, 0.5, -0.2))
        Lc = L.continuous_part()
        ts = rng.uniform(0.0, 1.0, 100)
        np.testing.assert_array_equal(L(ts), Lc(ts))

    def test_subtracts_jump(self):
        L = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0), jumps=((0.5, 1.0),))
        assert L.continuous_part()(0.75) == pytest.approx(0.75, abs=1e-14)

    def test_pure_jump_gives_base(self):
        L = BVFunction.constant((0.0, 1.0), 2.5, jumps=((0.5, 1.0),))
        Lc = L.continuous_part()
        assert Lc(0.9) == 2.5
        assert Lc.jump_epochs.size == 0

    def test_reconstruction(self, rng):
        L = make_mixed()
        Lc = L.continuous_part()
        ts = rng.uniform(0.0, 1.0, 1000)
        jump_part = np.array(
            [L.jump_sizes[L.jump_epochs <= t].sum() for t in ts])
        np.testing.assert_allclose(L(ts), Lc(ts) + jump_part, rtol=0, atol=1e-12)


class TestVariationSteps:
    @pytest.mark.parametrize("v_max", [0.5, 0.1, 0.013])
    def test_cells_respect_budget(self, v_max):
        L = make_mixed()
        grid = L.variation_steps(0.0, 1.0, v_max)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        Lc = L.continuous_part()
        for u, v in zip(grid[:-1], grid[1:]):
            assert Lc.total_variation(u, v) <= v_max + 1e-12

    def test_includes_breakpoints(self):
        L = make_mixed()
        grid = L.variation_steps(0.0, 1.0, 0.05)
        assert 0.5 in grid

    def test_zero_variation_span(self):
        L = BVFunction.constant((0.0, 1.0), 3.0)
        grid = L.variation_steps(0.2, 0.8, 0.1)
        assert grid[0] == 0.2 and grid[-1] == 0.8

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_segment_walk_oracle(self, data):
        """The monotone-piece walk gives the oracle's grids bit for bit, and
        its variation within 4 ulp (the sum is associated piece by piece)."""
        L = data.draw(piecewise_cubics())
        a, b = L.domain
        p, q = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
        u, v = a + p * (b - a), a + q * (b - a)
        v_frac = data.draw(st.floats(1e-3, 2.0))
        # a cubic coefficient near zero puts one root of p' past the float
        # range (+-inf, outside every piece), and numpy warns on that overflow
        with np.errstate(over="ignore"):
            want = oracle.total_variation(L, u, v)
            got = L.total_variation(u, v)
            assert abs(got - want) <= 4 * 2.0 ** -52 * want
            v_max = max(want, 1.0) * v_frac
            np.testing.assert_array_equal(L.variation_steps(u, v, v_max),
                                          oracle.variation_steps(L, u, v, v_max))


class TestVariationStepCap:
    """The cuts are counted before any grid is allocated."""

    def test_tiny_budget_raises(self):
        L = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(StepLimitError, match="variation grid needs 1.17647e\\+13 cuts"):
            L.variation_steps(0.0, 1.0, 1e-13)
        with pytest.raises(StepLimitError):
            stieltjes_integrate(lambda s: s, L, 0.0, 1.0, 1e-13)
        assert bvode.StepLimitError is drivers.StepLimitError

    def test_cap_boundary(self, monkeypatch):
        # variation 1 in cells of 0.85 v_max = 1 / 10.5: 10 cuts
        L = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0))
        v_max = 1.0 / 10.5 / 0.85
        monkeypatch.setattr(drivers, "STEP_CAP", 10)
        assert L.variation_steps(0.0, 1.0, v_max).size == 12
        monkeypatch.setattr(drivers, "STEP_CAP", 9)
        with pytest.raises(StepLimitError, match="needs 10 cuts, cap is 9"):
            L.variation_steps(0.0, 1.0, v_max)


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


def test_step_function_constructor():
    L = BVFunction.step_function((0.0, 2.0), ((0.5, 1.0), (1.5, -2.0)), base_value=1.0)
    assert L(0.0) == 1.0
    assert L(0.5) == 2.0
    assert L(2.0) == 0.0
    assert L.continuous_part()(1.7) == 1.0
