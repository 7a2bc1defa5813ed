"""Staircase maps, their measures, and the jump-map machinery."""

import pickle
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from bvode import (
    JumpMeasure,
    ScalarField,
    SigmaG,
    XiGrid,
    measure_from_sigma,
    phi_explicit_ramp,
    phi_recursion,
    phi_solve,
    ramp_z,
)


@st.composite
def staircases(draw):
    """A SigmaG on up to six intervals: consecutive pairs of sorted distinct ends."""
    ends = sorted(draw(st.sets(st.floats(0.0, 1.0), max_size=12)))
    return SigmaG(list(zip(ends[0::2], ends[1::2])))


def pickle_copy(obj):
    return pickle.loads(pickle.dumps(obj))


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestSigmaGFloats:
    """A float argument is bisected in plain Python; it gives the bits and the
    errors of the numpy read (oracle.sigma_value)."""

    @settings(max_examples=200, deadline=None)
    @given(sigma=staircases(), us=st.lists(st.floats(0.0, 1.0), max_size=8),
           numpy_scalar=st.booleans())
    def test_matches_numpy_read(self, sigma, us, numpy_scalar):
        ends = [e for iv in sigma.intervals for e in iv]
        near = [np.nextafter(e, d) for e in ends for d in (0.0, 1.0)]
        for u in [0.0, -0.0, 1.0, *ends, *near, *us]:
            u = np.float64(u) if numpy_scalar else float(u)
            got, want = sigma(u), oracle.sigma_value(sigma, u)
            assert type(got) is float and type(want) is float
            assert bits(got) == bits(want), u

    @pytest.mark.parametrize("sigma", [SigmaG(), SigmaG([(0.0, 0.5)]), SigmaG([(0.2, 1.0)])])
    @pytest.mark.parametrize("u", [np.nan, -np.inf, -5e-324, np.nextafter(1.0, 2.0), np.inf])
    @pytest.mark.parametrize("numpy_scalar", [False, True])
    def test_nan_and_out_of_range_raise(self, sigma, u, numpy_scalar):
        u = np.float64(u) if numpy_scalar else float(u)
        for read in (sigma, lambda v: oracle.sigma_value(sigma, v)):
            with pytest.raises(ValueError, match=r"sigma argument must lie in \[0, 1\]"):
                read(u)


class TestSigmaG:
    def test_identity_when_empty(self):
        s = SigmaG()
        u = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(s(u), u)

    def test_plateau_values(self):
        s = SigmaG([(0.2, 0.5), (0.6, 0.9)])
        assert s(0.1) == 0.1
        assert s(0.2) == 0.2          # left endpoint excluded
        assert s(0.30001) == 0.5
        assert s(0.5) == 0.5
        assert s(0.55) == 0.55
        assert s(0.75) == 0.9
        assert s(1.0) == 1.0

    def test_idempotent(self):
        s = SigmaG([(0.2, 0.5), (0.6, 0.9)])
        u = np.linspace(0.0, 1.0, 101)
        np.testing.assert_array_equal(s(s(u)), s(u))

    def test_validation(self):
        with pytest.raises(ValueError, match="must satisfy"):
            SigmaG([(0.5, 0.5)])
        with pytest.raises(ValueError, match="must satisfy"):
            SigmaG([(-0.1, 0.5)])
        with pytest.raises(ValueError, match="disjoint"):
            SigmaG([(0.1, 0.5), (0.4, 0.8)])
        with pytest.raises(ValueError, match="0, 1"):
            SigmaG()(1.5)

    @pytest.mark.parametrize("copy", [lambda s: s, pickle_copy], ids=["original", "pickled"])
    def test_ends_are_read_only(self, copy):
        """The float path and the array path read one set of ends, held as
        tuples: an edit of them raises, on a pickled copy too."""
        s = copy(SigmaG([(0.2, 0.5)]))
        for ends in (s._a, s._b):
            with pytest.raises(TypeError):
                ends[0] = 0.9
        assert s(0.3) == 0.5 and s(np.array([0.3])).tolist() == [0.5]

    def test_touching_intervals_allowed(self):
        s = SigmaG([(0.0, 0.5), (0.5, 1.0)])
        assert s(0.25) == 0.5
        assert s(0.5) == 0.5
        assert s(0.75) == 1.0


class TestJumpMeasure:
    def test_lebesgue(self):
        mu = JumpMeasure.lebesgue()
        assert mu.mass_closed(0.0, 1.0) == 1.0
        assert mu.atoms == ()
        assert mu.lebesgue_mass(0.25, 0.75) == pytest.approx(0.5)

    def test_dirac(self):
        mu = JumpMeasure.dirac(0.5)
        assert mu.mass_closed(0.0, 1.0) == 1.0
        assert mu.segments == ()
        assert mu.mass_closed(0.5, 0.5) == 1.0
        assert mu.mass_closed(0.0, 0.49) == 0.0

    def test_mixed_window_masses(self):
        mu = measure_from_sigma(SigmaG([(0.2, 0.5), (0.6, 0.9)]))
        assert mu.mass_closed(0.0, 1.0) == pytest.approx(1.0)
        assert mu.lebesgue_mass(0.1, 0.55) == pytest.approx(0.15)
        assert mu.mass_closed(0.2, 0.6) == pytest.approx(0.7)
        assert mu.mass_closed(0.21, 0.59) == pytest.approx(0.09)

    def test_window_order_checked(self):
        with pytest.raises(ValueError, match="u <= v"):
            JumpMeasure.lebesgue().mass_closed(0.6, 0.4)

    def test_validation(self):
        with pytest.raises(ValueError, match="total mass"):
            JumpMeasure(segments=((0.0, 0.5),))
        with pytest.raises(ValueError, match="duplicate atom"):
            JumpMeasure(atoms=((0.3, 0.5), (0.3, 0.5)))
        with pytest.raises(ValueError, match="nonpositive mass"):
            JumpMeasure(atoms=((0.3, 0.0), (0.5, 1.0)))
        with pytest.raises(ValueError, match="outside"):
            JumpMeasure(atoms=((1.2, 1.0),))
        with pytest.raises(ValueError, match="overlap"):
            JumpMeasure(segments=((0.0, 0.6), (0.4, 0.8)))
        with pytest.raises(ValueError, match="must satisfy 0 <= lo < hi <= 1"):
            JumpMeasure(segments=[(0.5, 0.2)])

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError, match="nonpositive mass"):
            JumpMeasure(atoms=((0.0, np.nan),))


class TestMeasureFromSigma:
    def test_identity_gives_lebesgue(self):
        mu = measure_from_sigma(SigmaG())
        assert mu.atoms == ()
        assert mu.segments == ((0.0, 1.0),)

    def test_full_interval_gives_dirac(self):
        mu = measure_from_sigma(SigmaG([(0.0, 1.0)]))
        assert mu.atoms == ((0.0, 1.0),)
        assert mu.segments == ()

    def test_mixed(self):
        mu = measure_from_sigma(SigmaG([(0.2, 0.5), (0.6, 0.9)]))
        np.testing.assert_allclose(mu.atoms, [(0.2, 0.3), (0.6, 0.3)])
        np.testing.assert_allclose(mu.segments,
                                   [(0.0, 0.2), (0.5, 0.6), (0.9, 1.0)])


class TestXiGrid:
    def test_basic(self):
        g = XiGrid([0.0, 0.25, 0.5, 1.0])
        assert g.values.dtype == np.float64
        np.testing.assert_array_equal(g.values, [0.0, 0.25, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="two values"):
            XiGrid([0.0])
        with pytest.raises(ValueError, match="endpoints"):
            XiGrid([0.0, 0.5, 0.9])
        with pytest.raises(ValueError, match="non-decreasing"):
            XiGrid([0.0, 0.6, 0.4, 1.0])

    def test_nan_value_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            XiGrid([0.0, np.nan, 1.0])


class TestPhiSolve:
    def test_zero_mass_returns_state(self):
        z = ScalarField.bounded_tanh(1.0, 1.0)
        assert phi_solve(z, 0.7, 0.0, JumpMeasure.lebesgue()) == 0.7

    def test_atom_applies_single_increment(self):
        z = ScalarField.bounded_tanh(2.0, 1.0)
        mu = JumpMeasure.dirac(0.0)
        x = 0.4
        expect = x + 2.0 * np.tanh(0.4)
        assert phi_solve(z, x, 1.0, mu) == pytest.approx(expect, abs=1e-14)

    def test_atom_at_u_excluded(self):
        z = ScalarField.constant(1.0)
        mu = JumpMeasure.dirac(0.5)
        assert phi_solve(z, 0.0, 0.5, mu) == 0.0
        assert phi_solve(z, 0.0, 0.500001, mu) == pytest.approx(1.0)

    def test_lebesgue_linear_flow(self):
        z = ScalarField.affine(0.0, 0.8)
        mu = JumpMeasure.lebesgue()
        for u in (0.3, 0.7, 1.0):
            assert phi_solve(z, 1.5, u, mu) == pytest.approx(
                1.5 * np.exp(0.8 * u), abs=1e-11)

    def test_constant_field_accumulates_mass(self):
        z = ScalarField.constant(2.0)
        mu = measure_from_sigma(SigmaG([(0.2, 0.5)]))
        # mass of [0, u) for u = 0.8: lebesgue 0.2 + atom 0.3 + lebesgue 0.3
        assert phi_solve(z, 0.0, 0.8, mu) == pytest.approx(1.6, abs=1e-12)

    def test_mixed_measure_piecewise(self):
        z = ScalarField.affine(0.0, 1.0)
        mu = measure_from_sigma(SigmaG([(0.2, 0.5)]))
        x = 1.0
        at_plateau = phi_solve(z, x, 0.2, mu)
        assert at_plateau == pytest.approx(np.exp(0.2), abs=1e-11)
        after_atom = phi_solve(z, x, 0.35, mu)
        assert after_atom == pytest.approx(np.exp(0.2) * 1.3, abs=1e-11)
        end = phi_solve(z, x, 1.0, mu)
        assert end == pytest.approx(np.exp(0.2) * 1.3 * np.exp(0.5), abs=1e-10)

    def test_rejects_time_dependence(self):
        z = ScalarField.bounded_sin(1.0, 1.0, freq_t=2.0)
        with pytest.raises(ValueError, match="freeze the time argument"):
            phi_solve(z, 0.0, 1.0, JumpMeasure.lebesgue())

    def test_rejects_bad_mass_argument(self):
        z = ScalarField.constant(1.0)
        with pytest.raises(ValueError, match="0, 1"):
            phi_solve(z, 0.0, 1.2, JumpMeasure.lebesgue())

    @pytest.mark.parametrize("x", [np.nan, -np.inf])
    def test_rejects_non_finite_start(self, x):
        with pytest.raises(ValueError, match="initial states must be finite"):
            phi_solve(ScalarField.constant(1.0), x, 1.0, JumpMeasure.lebesgue())


WALK_FIELDS = (ScalarField.constant(0.7), ScalarField.affine(0.3, -1.1), ScalarField.ramp(0.4, 0.3),
               ScalarField.bounded_sin(1.2, 2.0), ScalarField.bounded_tanh(1.5, 0.8, offset=0.2))


@st.composite
def walk_cases(draw):
    """A measure with its probe points: the measure of a staircase of 0 to 50
    intervals (the first may start at 0, neighbours may share an end), or
    atoms of random mass laid over random segments, some of them inside one."""
    k = draw(st.integers(0, 50))
    ends = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k, unique=True)))
    if ends and draw(st.booleans()):
        ends[0] = 0.0
    pairs = list(zip(ends[::2], ends[1::2]))
    if draw(st.booleans()):  # each interval ends where the next one starts
        pairs = [(a, nxt[0]) for (a, _), nxt in zip(pairs, pairs[1:])] + pairs[-1:]
    if draw(st.booleans()) or not pairs:
        mu = measure_from_sigma(SigmaG(pairs))
    else:
        segs = [(a, b) for a, b in pairs if a < b][: draw(st.integers(0, len(pairs)))]
        locs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20, unique=True))
        weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(locs), max_size=len(locs)))
        rest = 1.0 - sum(b - a for a, b in segs)
        assume(rest > 1e-9)
        mu = JumpMeasure(atoms=[(v, rest * w / sum(weights)) for v, w in zip(locs, weights)],
                         segments=segs)
    us = [0.0, 1.0, *(v for v, _ in mu.atoms), *(e for seg in mu.segments for e in seg),
          *draw(st.lists(st.floats(0.0, 1.0), max_size=5))]
    return mu, us


class TestPhiSolveWalk:
    """The one forward pass over the segments gives the bits of the walk
    that summed every stretch's mass over all segments (oracle.phi_solve)."""

    @given(walk_cases(), st.sampled_from(WALK_FIELDS), st.floats(-2.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_bitwise(self, case, z, x):
        mu, us = case
        for u in us:
            assert phi_solve(z, x, u, mu).hex() == oracle.phi_solve(z, x, u, mu).hex()

    def test_long_staircase_is_linear(self):
        # 4,000 intervals: oracle.phi_solve, quadratic in the intervals, takes about 10 s
        mu = measure_from_sigma(SigmaG([((2 * i + 1) / 8000, (2 * i + 2) / 8000)
                                        for i in range(4000)]))
        z = ScalarField.bounded_tanh(1.0, 1.0, offset=0.5)
        start = time.perf_counter()
        phi_solve(z, 0.3, 1.0, mu)
        assert time.perf_counter() - start < 1.0


class TestPhiRecursion:
    def test_equals_atomized_solve(self, rng):
        """The recursion is the jump map of the increment measure."""
        z = ScalarField.bounded_tanh(1.2, 0.9, offset=0.3)
        vals = np.unique(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, 6))))
        grid = XiGrid(vals)
        atoms = [(float(v), float(d)) for v, d in zip(vals[:-1], np.diff(vals))]
        mu = JumpMeasure(atoms=atoms)
        seq = phi_recursion(z, 0.5, grid)
        assert seq.shape == grid.values.shape
        assert seq[-1] == pytest.approx(phi_solve(z, 0.5, 1.0, mu), abs=1e-13)

    def test_rejects_time_dependence(self):
        z = ScalarField.bounded_sin(1.0, 1.0, freq_t=1.0)
        with pytest.raises(ValueError, match="freeze"):
            phi_recursion(z, 0.0, XiGrid([0.0, 1.0]))


class TestRampOracle:
    def test_ramp_z_shape(self):
        z = ramp_z(0.25, 0.25, 1.5)
        assert z(0.0, 1.5) == 1.0
        assert z(0.0, 1.75) == 1.0
        assert z(0.0, 1.875) == pytest.approx(0.5)
        assert z(0.0, 2.0) == 0.0
        with pytest.raises(ValueError):
            ramp_z(0.3, 0.0, 1.5)

    def test_before_engagement_adds_sigma(self):
        sigma = SigmaG([(0.1, 0.3)])
        assert phi_explicit_ramp(sigma, 0.5, 0.2, 2.0, 0.05) == pytest.approx(2.05)
        assert phi_explicit_ramp(sigma, 0.5, 0.2, 2.0, 0.2) == pytest.approx(2.3)

    def test_identity_sigma_exponential_head(self):
        q, eps, x = 0.3, 0.25, -1.0
        for t in (0.4, 0.7, 1.0):
            expect = x + q + eps - eps * np.exp(-(t - q) / eps)
            assert phi_explicit_ramp(SigmaG(), q, eps, x, t) == pytest.approx(
                expect, abs=1e-14)

    def test_time_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="t must lie in"):
            phi_explicit_ramp(SigmaG(), 0.1, 0.2, 0.0, 1.5)

    def test_requires_identity_at_engagement(self):
        sigma = SigmaG([(0.1, 0.4)])
        with pytest.raises(ValueError, match="sigma"):
            phi_explicit_ramp(sigma, 0.2, 0.3, 0.0, 0.9)

    def test_matches_phi_solve(self):
        for sigma, q, eps in [
            (SigmaG(), 0.35, 0.3),
            (SigmaG([(0.4, 0.6)]), 0.2, 0.5),
            (SigmaG([(0.1, 0.25), (0.5, 0.7)]), 0.3, 0.4),
        ]:
            mu = measure_from_sigma(sigma)
            for t in (0.1, 0.45, 0.8, 1.0):
                z = ramp_z(q, eps, 0.75)
                got = phi_solve(z, 0.75, t, mu)
                want = phi_explicit_ramp(sigma, q, eps, 0.75, t)
                assert got == pytest.approx(want, abs=1e-8), (sigma, t)

    def test_exact_flow_on_criterion_4_grid(self):
        """The exact ramp flow meets the explicit formula to rounding on
        acceptance criterion 4's grid, whose own bound is 1e-8."""
        configs = [
            (SigmaG(), (0.0, 0.15, 0.35, 0.6, 0.85)),
            (SigmaG([(0.0, 1.0)]), (0.0, 1.0)),
            (SigmaG([(0.2, 0.5)]), (0.0, 0.1, 0.2, 0.55, 0.8)),
        ]
        worst = 0.0
        for sigma, qs in configs:
            mu = measure_from_sigma(sigma)
            for q in qs:
                for eps in (0.1, 0.2, 0.35, 0.5):
                    z = ramp_z(q, eps, 0.75)
                    for t in np.linspace(0.0, 1.0, 9):
                        want = phi_explicit_ramp(sigma, q, eps, 0.75, float(t))
                        worst = max(worst, abs(phi_solve(z, 0.75, float(t), mu) - want))
        assert worst <= 1e-13

    def test_large_atom_freezes_state(self):
        sigma = SigmaG([(0.3, 0.9)])
        q, eps = 0.1, 0.5
        frozen = phi_explicit_ramp(sigma, q, eps, 0.0, 0.95)
        assert phi_explicit_ramp(sigma, q, eps, 0.0, 1.0) == frozen
        mu = measure_from_sigma(sigma)
        got = phi_solve(ramp_z(q, eps, 0.0), 0.0, 1.0, mu)
        assert got == pytest.approx(frozen, abs=1e-8)
