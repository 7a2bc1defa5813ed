"""Scheme-vs-limit distance, mesh sweeps, and the staircase gap check."""

import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from bvode import (
    BVFunction,
    GridPath,
    JumpMeasure,
    LimitPath,
    ScalarField,
    Schedule,
    SigmaG,
    analysis,
    backend,
    convergence_study,
    drivers,
    get_profile,
    l1_distance,
    sigma_n_check,
    solve_grid,
    solve_limit,
)
from test_scheme import jump_drivers


def unit_jump_driver():
    return BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))


def line_driver(a=0.0, b=1.0):
    return BVFunction.from_segments([a, b], [[0.0, 1.0]])


class TestL1Distance:
    def test_identical_constants(self):
        L = BVFunction.from_segments([0.0, 1.0], [[2.0]])
        gp = solve_grid(ScalarField.constant(0.0), L, get_profile("uniform"),
                        8, 0.05, 0.7, n_offsets=4)
        q = solve_limit(ScalarField.constant(0.0), L, JumpMeasure.lebesgue(), 0.7)
        assert l1_distance(gp, q) == 0.0

    def test_unit_separation(self):
        L = line_driver()
        gp = solve_grid(ScalarField.constant(0.0), L, get_profile("uniform"),
                        8, 0.05, 0.0, n_offsets=4)
        q = solve_limit(ScalarField.constant(0.0), L, JumpMeasure.lebesgue(), 1.0)
        assert l1_distance(gp, q) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_area(self):
        """p = 0 against q(t) = t integrates to one half."""
        L = line_driver()
        gp = solve_grid(ScalarField.constant(0.0), L, get_profile("uniform"),
                        8, 0.05, 0.0, n_offsets=4)
        q = solve_limit(ScalarField.constant(1.0), L, JumpMeasure.lebesgue(), 0.0)
        assert l1_distance(gp, q) == pytest.approx(0.5, abs=1e-10)

    def test_domain_mismatch_rejected(self):
        gp = solve_grid(ScalarField.constant(0.0), line_driver(0.0, 1.0),
                        get_profile("uniform"), 8, 0.05, 0.0, n_offsets=2)
        q = solve_limit(ScalarField.constant(0.0), line_driver(0.0, 2.0),
                        JumpMeasure.lebesgue(), 0.0)
        with pytest.raises(ValueError, match="domain mismatch"):
            l1_distance(gp, q)


@st.composite
def fans_and_limits(draw):
    """A GridPath of 1 to 40 offsets with ragged lengths, and a LimitPath of
    2 to 2,000 times (with or without jumps) on the same domain; some of
    its times sit on lattice points, so edges repeat.  Short and long
    lattices make blocks of many rows and of one row."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = draw(st.floats(-1.0, 1.0))
    b = a + draw(st.floats(0.5, 2.0))
    J = draw(st.integers(1, 40))
    steps = draw(st.integers(1, 300) | st.integers(7500, 8500))
    h = (b - a) / steps * draw(st.floats(0.5, 1.5))
    taus = a + h * np.sort(rng.uniform(0.0, 1.0, J))
    lengths = rng.integers(1, steps + 2, J)
    values = rng.normal(0.0, 1.0, (J, steps + 1))
    M = draw(st.integers(2, 200) | st.integers(200, 2000))
    t = np.unique(np.concatenate(([a, b], rng.uniform(a, b, M - 2),
                                  taus[0] + h * rng.integers(0, steps, 5))))
    t = t[(t >= a) & (t <= b)]
    is_jump = rng.random(t.size) < (0.05 if draw(st.booleans()) else 0.0)
    is_jump[0] = False
    x = rng.normal(0.0, 1.0, t.size)
    x_left = np.where(is_jump, x + rng.normal(0.0, 1.0, t.size), x)
    gp = GridPath(offsets=taus, values=values, lengths=lengths, n=8, h=h,
                  profile_name="uniform", domain=(a, b))
    return gp, LimitPath(t, x_left, x, is_jump, domain=(a, b))


def rel_gap(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


class TestL1Blocks:
    """The blocked L1 score against the per-offset loop it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(pair=fans_and_limits())
    def test_matches_per_offset_oracle(self, pair):
        gp, q = pair
        assert rel_gap(l1_distance(gp, q), oracle.l1_distance(gp, q)) <= 1e-14

    def test_solved_fans_match_per_offset_oracle(self):
        L = BVFunction.from_segments([0.0, 1.0], [[0.0, 0.3]], jumps=((0.5, 1.0),))
        f = ScalarField.linear_x()
        for mu in (JumpMeasure.lebesgue(), JumpMeasure.dirac(0.0)):
            q = solve_limit(f, L, mu, 1.0)
            for n in (16, 64, 1024):
                gp = solve_grid(f, L, get_profile("uniform"), n, n ** -0.5, 1.0)
                assert rel_gap(l1_distance(gp, q), oracle.l1_distance(gp, q)) <= 1e-14

    @pytest.mark.parametrize("chunk", [1, 2 ** 30])
    def test_block_size_invariance(self, monkeypatch, chunk):
        """One row per block and the whole fan in one block: the affine scan
        is bitwise unchanged and the L1 score moves at rounding level."""
        rng = np.random.default_rng(5)
        f = ScalarField.affine(0.4, -0.5)
        J, K = 37, 300
        taus = rng.uniform(0.0, 0.01, J)
        dLn = rng.normal(0.0, 0.2, (J, K))
        dLn[3, 10] = 2.0     # b dL = -1: a zero factor
        dLn[7, 0] = -1e295   # a product past 1e290
        x0s = rng.uniform(-1.0, 1.0, J)
        gp = GridPath(offsets=taus, values=rng.normal(0.0, 1.0, (J, 400)),
                      lengths=rng.integers(1, 401, J), n=8, h=0.0025,
                      profile_name="uniform", domain=(0.0, 1.0))
        q = solve_limit(ScalarField.linear_x(), line_driver(), JumpMeasure.lebesgue(), 1.0)
        x_before = backend.euler_exact(f, taus, 0.01, dLn, x0s)
        l1_before = l1_distance(gp, q)
        monkeypatch.setattr(backend, "LATTICE_CHUNK", chunk)
        x_after = backend.euler_exact(f, taus, 0.01, dLn, x0s)
        np.testing.assert_array_equal(x_after.view(np.uint64), x_before.view(np.uint64))
        assert rel_gap(l1_distance(gp, q), l1_before) <= 1e-14

    def test_non_finite_states(self):
        """A row that overflowed scores inf and a NaN state scores nan,
        with no warning: zero-width cells are masked before multiplying.
        Row 2 has 31 points; from column 20 on, its last state is bad too,
        and its zero-width padded cells read that state.  From column 35
        on, no read-out reaches the bad states."""
        J, K, h = 4, 40, 1.0 / 32
        lengths = np.array([K, K - 5, K - 9, 12])
        q = LimitPath(np.linspace(0.0, 1.0, 11), np.zeros(11), np.zeros(11),
                      np.zeros(11, dtype=bool), domain=(0.0, 1.0))
        for bad, start, check in ((np.inf, 20, np.isposinf), (np.nan, 20, np.isnan),
                                  (np.inf, 35, np.isfinite)):
            values = np.tile(np.linspace(0.0, 1.0, K), (J, 1))
            values[2, start:] = bad
            gp = GridPath(offsets=h * np.arange(J) / J, values=values, lengths=lengths, n=8,
                          h=h, profile_name="uniform", domain=(0.0, 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert check(l1_distance(gp, q))


# one field of each kind, with a time-dependent sin among them
PLAN_FIELDS = (ScalarField.constant(0.7), ScalarField.affine(0.3, -1.2), ScalarField.ramp(0.2, 0.5),
               ScalarField.bounded_sin(1.1, 2.0, freq_t=0.7, phase=0.3, offset=-0.2),
               ScalarField.bounded_tanh(0.8, 2.5, offset=0.1))
PLAN_MEASURES = (JumpMeasure.lebesgue(), JumpMeasure.dirac(0.0), JumpMeasure.dirac(1.0),
                 JumpMeasure(atoms=((0.3, 0.5),), segments=((0.3, 0.8),)))


def hexes(values):
    return [float(v).hex() for v in values]


class PlanSpy:
    """Counts the plans l1_distance builds, by the (fan, grid) they were built for."""

    def __init__(self, mp):
        self.built, real = [], analysis._plan

        def spy(p, q, s, rows):
            if s == 0:
                self.built.append((p.h, p.offsets.tobytes(), q._t_dbl.tobytes()))
            return real(p, q, s, rows)

        mp.setattr(analysis, "_plan", spy)


class TestL1Plan:
    """The read-out plan that a limit path's driver keeps, against the one-stage
    blocked score (oracle.l1_blocked)."""

    @given(L=jump_drivers(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scores_match_blocked_oracle_bitwise(self, L, data):
        """Random fans (n, h, 1-64 offsets, all five field kinds) against two or
        three paths solved on one driver, under several measures, with and
        without report points: every score has the oracle's bits, on the first
        scoring and on the repeats that read a kept plan."""
        a, b = L.domain
        f = data.draw(st.sampled_from(PLAN_FIELDS))
        prof = get_profile(data.draw(st.sampled_from(["uniform", "triangular", "bump"])))
        x0 = data.draw(st.floats(-1.5, 1.5))
        report = [a + (b - a) * r for r in data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))]
        runs = data.draw(st.lists(st.tuples(st.sampled_from(PLAN_MEASURES), st.booleans()),
                                  min_size=2, max_size=3))
        J = data.draw(st.integers(1, 64))
        fans = [solve_grid(f, L, prof, data.draw(st.integers(1, 400)),
                           (b - a) / data.draw(st.floats(2.0, 120.0)), x0, J) for _ in range(2)]
        with np.errstate(all="ignore"):
            paths = [solve_limit(f, L, mu, x0, sample_times=report if extra else None)
                     for mu, extra in runs]
            for _ in range(2):
                for gp in fans:
                    for q in paths:
                        assert hexes([l1_distance(gp, q)]) == hexes([oracle.l1_blocked(gp, q)])
            # the studies on the same driver: their fans and paths are kept, and so are their plans
            sched = Schedule.power(1.0, coef=(b - a) / 8.0, meshes=(1, 2, 4))
            for mu, _ in runs:
                got = convergence_study(f, L, prof, sched, mu, x0, n_offsets=J)
                q = solve_limit(f, L, mu, x0)
                want = [oracle.l1_blocked(solve_grid(f, L, prof, n, sched.h(n), x0, J), q)
                        for n in sched.meshes]
                assert hexes(got.l1_errors) == hexes(want)

    def test_one_plan_per_fan_and_grid(self, monkeypatch):
        """Two fans of one lattice (other initial states) and one of another,
        against three paths on two limit grids, each scored twice: one plan is
        built per distinct lattice and grid, 4 of 18 scorings."""
        L, f, prof = unit_jump_driver(), ScalarField.linear_x(), get_profile("uniform")
        spy = PlanSpy(monkeypatch)
        fans = [solve_grid(f, L, prof, 8, h, x0, n_offsets=4)
                for h, x0 in ((1.0 / 64, 1.0), (1.0 / 64, 2.0), (1.0 / 32, 1.0))]
        paths = [solve_limit(f, L, JumpMeasure.lebesgue(), 1.0),
                 solve_limit(f, L, JumpMeasure.dirac(0.0), 1.0),
                 solve_limit(f, L, JumpMeasure.lebesgue(), 1.0, sample_times=[0.3])]
        scores = [l1_distance(gp, q) for _ in range(2) for gp in fans for q in paths]
        assert len(spy.built) == len(set(spy.built)) == 4
        assert scores[:9] == scores[9:]
        assert sum(key[0] == "plan" for key in L._memo) == 4

    def test_plan_over_budget_is_streamed(self):
        """A plan over _MEMO_BYTES (16 offsets of 65,537 points, 34.6 MB) is
        scored block by block, one row of 65,541 cells per block: the score's
        peak stays under ten float arrays of one block (5.2 MB; the one-stage
        score peaked at 6.4 MB), and the driver keeps no plan."""
        L, f = unit_jump_driver(), ScalarField.linear_x()
        gp = solve_grid(f, L, get_profile("uniform"), 256, 256.0 ** -2, 1.0)
        q = solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
        assert gp.values.size * analysis._PLAN_CELL_BYTES > drivers._MEMO_BYTES
        tracemalloc.start()
        try:
            got = l1_distance(gp, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * (gp.values.shape[1] + q.t.size + 1)
        assert not [key for key in L._memo if key[0] == "plan"]
        assert got == oracle.l1_blocked(gp, q)

    @pytest.mark.parametrize("offset, edge", [(np.nan, 1.0), (0.0, 1.5e308)],
                             ids=["nan-offset", "midpoint-overflow"])
    def test_non_finite_midpoints_refused(self, offset, edge):
        """A NaN lattice, or edges whose midpoint overflows, is refused as the
        one-stage score's fan read refused it."""
        q = LimitPath([-edge, 0.0, edge], [0.0] * 3, [0.0] * 3, [False] * 3, (-edge, edge))
        gp = GridPath(offsets=np.array([-edge, offset]), values=np.zeros((2, 3)),
                      lengths=np.array([3, 3]), n=8, h=0.5, profile_name="uniform",
                      domain=(-edge, edge))
        for score in (l1_distance, oracle.l1_blocked):
            with np.errstate(over="ignore"):
                with pytest.raises(ValueError, match="times must be finite"):
                    score(gp, q)

    def test_hand_built_path_keeps_nothing(self, monkeypatch):
        """A LimitPath built by a caller, or unpickled, has no driver: each
        scoring plans afresh and nothing is kept."""
        L, f = unit_jump_driver(), ScalarField.linear_x()
        gp = solve_grid(f, L, get_profile("uniform"), 8, 1.0 / 64, 1.0, n_offsets=4)
        solved = solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
        built = LimitPath(solved.t, solved.x_left, solved.x, solved.is_jump, solved.domain)
        copied = pickle.loads(pickle.dumps(solved))
        assert built._driver is None and copied._driver is None and solved._driver() is L
        kept = list(L._memo)
        spy = PlanSpy(monkeypatch)
        scores = [l1_distance(gp, q) for q in (built, built, copied, copied)]
        assert len(spy.built) == 4 and list(L._memo) == kept
        assert scores == [l1_distance(gp, solved)] * 4
        assert len(spy.built) == 5
        assert [key[0] for key in L._memo] == [key[0] for key in kept] + ["plan"]


class TestConvergenceStudy:
    def jump_setup(self):
        L = BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))
        return ScalarField.linear_x(), L

    def test_flow_schedule_converges(self):
        f, L = self.jump_setup()
        sched = Schedule.power(2.0, meshes=(16, 32, 64))
        res = convergence_study(f, L, get_profile("uniform"), sched,
                                JumpMeasure.lebesgue(), 1.0, n_offsets=4)
        assert res.decreasing
        assert res.l1_errors[-1] < res.l1_errors[0]
        assert res.limit_norm == pytest.approx(0.5 + 0.5 * np.e, rel=1e-3)
        np.testing.assert_allclose(res.rel_errors,
                                   np.asarray(res.l1_errors) / res.limit_norm)

    def test_needs_three_meshes(self):
        f, L = self.jump_setup()
        with pytest.raises(ValueError, match="three meshes"):
            convergence_study(f, L, get_profile("uniform"),
                              Schedule.power(2.0, meshes=(16, 32)),
                              JumpMeasure.lebesgue(), 1.0)

    def test_measure_irrelevant_without_jumps(self):
        L = line_driver()
        f = ScalarField.bounded_tanh(1.0, 1.2, offset=0.1)
        sched = Schedule.power(1.0, meshes=(8, 16, 32))
        kw = dict(n_offsets=4)
        r1 = convergence_study(f, L, get_profile("triangular"), sched,
                               JumpMeasure.lebesgue(), 0.5, **kw)
        r2 = convergence_study(f, L, get_profile("triangular"), sched,
                               JumpMeasure.dirac(0.3), 0.5, **kw)
        assert r1.l1_errors == r2.l1_errors


class TestSigmaNCheck:
    def test_gap_vanishes_at_zero_probe(self):
        res = sigma_n_check(get_profile("uniform"),
                            Schedule.power(2.0, meshes=(16, 32, 64)),
                            0.5, SigmaG(), probes=(0.0, 0.5), n_offsets=8)
        np.testing.assert_array_equal(res.gaps[:, 0], 0.0)

    def test_identity_target_under_fast_steps(self):
        res = sigma_n_check(get_profile("uniform"),
                            Schedule.power(2.0, meshes=(32, 64, 128, 256)),
                            0.5, SigmaG(), n_offsets=16)
        assert res.decreasing
        assert res.gaps[-1].max() < 0.02
        assert res.gaps[-1].max() < res.gaps[0].max()

    def test_indicator_target_under_slow_steps(self):
        res = sigma_n_check(get_profile("triangular"),
                            Schedule.power(0.5, meshes=(64, 256, 1024)),
                            0.5, SigmaG([(0.0, 1.0)]), n_offsets=16)
        assert res.decreasing
        assert res.gaps[-1].max() < 0.05

    def test_wrong_target_stalls(self):
        res = sigma_n_check(get_profile("uniform"),
                            Schedule.power(0.5, meshes=(32, 64, 128, 256)),
                            0.5, SigmaG(), n_offsets=8)
        assert res.gaps[-1].max() > 0.2

    def test_zeta_inside_domain(self):
        with pytest.raises(ValueError, match="zeta"):
            sigma_n_check(get_profile("uniform"), Schedule.power(1.0),
                          0.0, SigmaG())

    @pytest.mark.parametrize("name", ["uniform", "triangular", "bump"])
    @pytest.mark.parametrize("alpha, sigma", [(2.0, SigmaG()), (0.5, SigmaG([(0.0, 1.0)]))],
                             ids=["flow", "ito"])
    def test_criterion_6_gaps_match_per_offset_oracle(self, name, alpha, sigma):
        """Criterion 6's schedules: the crossing array gives the per-offset gaps bit for bit."""
        sched = Schedule.power(alpha, meshes=(64, 128, 256, 512))
        res = sigma_n_check(get_profile(name), sched, 0.5, sigma, n_offsets=256)
        want = oracle.sigma_n_gaps(get_profile(name), sched, 0.5, sigma,
                                   (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), 256)
        np.testing.assert_array_equal(res.gaps.view(np.uint64), want.view(np.uint64))

    def test_single_probe_sums_offsets_in_order(self):
        # one probe and many offsets: a pairwise sum would differ in the last bits
        sched = Schedule.power(1.5, meshes=(16, 64, 256))
        res = sigma_n_check(get_profile("bump"), sched, 0.7, SigmaG(), probes=(0.37,),
                            n_offsets=1000, domain=(-0.5, 1.5))
        want = oracle.sigma_n_gaps(get_profile("bump"), sched, 0.7, SigmaG(), (0.37,), 1000,
                                   domain=(-0.5, 1.5))
        np.testing.assert_array_equal(res.gaps.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n_offsets", [0, -2])
    def test_needs_an_offset(self, n_offsets):
        with pytest.raises(ValueError, match="need at least one offset"):
            sigma_n_check(get_profile("uniform"), Schedule.power(2.0, meshes=(16, 32, 64)),
                          0.5, SigmaG(), n_offsets=n_offsets)

    @pytest.mark.parametrize("probes, match", [((), "need at least one probe"),
                                               ((0.5, float("nan")), r"u must lie in \[0, 1\]")])
    def test_needs_valid_probes(self, probes, match):
        with pytest.raises(ValueError, match=match):
            sigma_n_check(get_profile("uniform"), Schedule.power(2.0, meshes=(16, 32, 64)),
                          0.5, SigmaG(), probes=probes)
