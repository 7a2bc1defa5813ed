"""Scheme-vs-limit distance, mesh sweeps, and the staircase gap check."""

import numpy as np
import pytest

import oracle
from bvode import (
    BVFunction,
    JumpMeasure,
    ScalarField,
    Schedule,
    SigmaG,
    convergence_study,
    get_profile,
    l1_distance,
    sigma_n_check,
    solve_grid,
    solve_limit,
)


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
