"""Acceptance gate: the eight shipping criteria, one visible line each.

Each test prints `criterion N (<label>): PASS/FAIL` with the measured
numbers before asserting, so a full run always ends with eight verdict
lines regardless of capture settings.
"""

import time

import numpy as np
import pytest

from bvode import (
    BVFunction,
    JumpMeasure,
    LimitPath,
    ScalarField,
    Schedule,
    SigmaG,
    classify_regime,
    convergence_study,
    discrete_jump_map,
    get_profile,
    l1_distance,
    measure_from_sigma,
    phi_explicit_ramp,
    phi_solve,
    ramp_z,
    sigma_delta_limit,
    sigma_n_check,
    solve_grid,
    solve_limit,
)


@pytest.fixture
def report(capsys):
    """Verdict printer that bypasses capture so every run shows the line."""

    def _report(num: int, label: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {num} ({label}): {verdict} [{detail}]")

    return _report


def single_jump_driver():
    return BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))


def test_criterion_1_continuous_driver(report):
    """L(t) = t, f = x: limit hits e, scheme tracks e^t in relative L1."""
    t0 = time.monotonic()
    L = BVFunction.from_segments([0.0, 1.0], [[0.0, 1.0]])
    f = ScalarField.linear_x()

    path = solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
    err_limit = abs(path.eval(1.0) - np.e)

    n = 256
    gp = solve_grid(f, L, get_profile("uniform"), n, float(n) ** -2, 1.0)
    ts = np.linspace(0.0, 1.0, 2001)
    exact = LimitPath(ts, np.exp(ts), np.exp(ts), np.zeros(ts.size, dtype=bool),
                      domain=(0.0, 1.0))
    rel = l1_distance(gp, exact) / exact.l1_norm()

    elapsed = time.monotonic() - t0
    ok = err_limit <= 1e-4 and rel <= 0.02 and elapsed < 10.0
    report(1, "continuous driver", ok,
           f"|x(1)-e|={err_limit:.3g}, rel L1={rel:.3g}, {elapsed:.1f}s")
    assert err_limit <= 1e-4
    assert rel <= 0.02
    assert elapsed < 10.0


def test_criterion_2_regime_dichotomy(report):
    """Single unit jump: flow vs Ito schedules land on their own limits."""
    t0 = time.monotonic()
    L = single_jump_driver()
    f = ScalarField.linear_x()
    prof = get_profile("uniform")
    flow_sched = Schedule.power(2.0, meshes=(64, 128, 256, 512))
    ito_sched = Schedule.power(0.5, meshes=(512, 1024, 2048, 4096))
    lebesgue = JumpMeasure.lebesgue()
    dirac = JumpMeasure.dirac(0.0)

    flow = convergence_study(f, L, prof, flow_sched, lebesgue, 1.0)
    flow_path = solve_limit(f, L, lebesgue, 1.0)
    err_e = abs(flow_path.eval(1.0) - np.e)

    ito = convergence_study(f, L, prof, ito_sched, dirac, 1.0)
    ito_path = solve_limit(f, L, dirac, 1.0)
    ito_exact = ito_path.eval(1.0) == 2.0

    cross_a = convergence_study(f, L, prof, flow_sched, dirac, 1.0)
    cross_b = convergence_study(f, L, prof, ito_sched, lebesgue, 1.0)
    stagnates = (min(cross_a.rel_errors) > 0.10
                 and min(cross_b.rel_errors) > 0.10)

    elapsed = time.monotonic() - t0
    ok = (flow.decreasing and flow.rel_errors[-1] <= 0.05 and err_e <= 1e-6
          and ito.rel_errors[-1] <= 0.05 and ito_exact and stagnates
          and elapsed < 60.0)
    report(2, "regime dichotomy", ok,
           f"flow rel={flow.rel_errors[-1]:.3g} |x-e|={err_e:.2g}, "
           f"ito rel={ito.rel_errors[-1]:.3g} x(1)={ito_path.eval(1.0)}, "
           f"cross rel>={min(min(cross_a.rel_errors), min(cross_b.rel_errors)):.3g}, "
           f"{elapsed:.1f}s")
    assert flow.decreasing and flow.rel_errors[-1] <= 0.05
    assert err_e <= 1e-6
    assert ito.rel_errors[-1] <= 0.05
    assert ito_exact
    assert stagnates
    assert elapsed < 60.0


def test_criterion_3_sigma_analytics(report):
    """Uniform-profile shift probes match min(u + delta n h, 1) exactly."""
    t0 = time.monotonic()
    prof = get_profile("uniform")
    rng = np.random.default_rng(3)
    worst = 0.0
    for alpha in (2.0, 1.0, 0.5):
        sched = Schedule.power(alpha)
        for _ in range(40):
            delta = float(rng.uniform(0.01, 0.99))
            u = float(rng.uniform(0.0, 1.0))
            probe = sigma_delta_limit(prof, sched, delta, u)
            if u == 0.0:
                expect = np.zeros(len(sched.meshes))
            else:
                expect = np.minimum(
                    u + delta * np.array([n * sched.h(n) for n in sched.meshes]),
                    1.0)
            worst = max(worst, float(np.max(np.abs(probe.values - expect))))

    verdicts = {alpha: classify_regime(prof, Schedule.power(alpha)).verdict
                for alpha in (2.0, 0.5, 1.0)}
    expected = {2.0: "Flow", 0.5: "Ito", 1.0: "DeltaDependent"}

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and verdicts == expected and elapsed < 5.0
    report(3, "sigma analytics", ok,
           f"closed-form dev={worst:.2g}, verdicts={verdicts}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert verdicts == expected
    assert elapsed < 5.0


def test_criterion_4_jump_map_oracle(report):
    """phi_solve against the explicit ramp formula on three staircases."""
    t0 = time.monotonic()
    eps_grid = (0.1, 0.2, 0.35, 0.5)
    t_grid = np.linspace(0.0, 1.0, 9)
    configs = [
        (SigmaG(), (0.0, 0.15, 0.35, 0.6, 0.85)),
        (SigmaG([(0.0, 1.0)]), (0.0, 1.0)),
        (SigmaG([(0.2, 0.5)]), (0.0, 0.1, 0.2, 0.55, 0.8)),
    ]
    x = 0.75
    count = 0
    worst = 0.0
    for sigma, qs in configs:
        mu = measure_from_sigma(sigma)
        for q in qs:
            for eps in eps_grid:
                z = ramp_z(q, eps, x)
                for t in t_grid:
                    want = phi_explicit_ramp(sigma, q, eps, x, float(t))
                    got = phi_solve(z, x, float(t), mu)
                    worst = max(worst, abs(got - want))
                    count += 1

    elapsed = time.monotonic() - t0
    ok = count >= 100 and worst <= 1e-8 and elapsed < 10.0
    report(4, "jump-map oracle", ok,
           f"{count} combos, max err={worst:.3g}, {elapsed:.1f}s")
    assert count >= 100
    assert worst <= 1e-8
    assert elapsed < 10.0


def random_lipschitz_field(rng) -> ScalarField:
    kind = rng.integers(0, 5)
    if kind == 0:
        return ScalarField.bounded_tanh(rng.uniform(0.3, 2.0),
                                        rng.uniform(0.3, 1.5),
                                        offset=rng.uniform(-0.5, 0.5))
    if kind == 1:
        return ScalarField.bounded_sin(rng.uniform(0.3, 1.5),
                                       rng.uniform(0.3, 2.0),
                                       phase=rng.uniform(0.0, 6.28),
                                       offset=rng.uniform(-0.5, 0.5))
    if kind == 2:
        return ScalarField.ramp(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0),
                                height=rng.uniform(0.2, 1.5))
    if kind == 3:
        return ScalarField.affine(rng.uniform(-1.0, 1.0),
                                  rng.uniform(-1.5, 1.5))
    return ScalarField.constant(rng.uniform(-2.0, 2.0))


def test_criterion_5_growth_inequalities(report):
    """Five a-priori jump-map bounds over 1000 randomized trials."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20260817)
    measures = (
        JumpMeasure.lebesgue(),
        JumpMeasure.dirac(0.0),
        JumpMeasure.dirac(0.3),
        measure_from_sigma(SigmaG([(0.2, 0.5)])),
        measure_from_sigma(SigmaG([(0.1, 0.3), (0.6, 0.95)])),
    )
    budget = 1e-9
    violations = 0
    for _ in range(1000):
        z = random_lipschitz_field(rng)
        K1, K2 = z.lipschitz_const, z.growth_const
        mu = measures[rng.integers(0, len(measures))]
        x, y = rng.uniform(-3.0, 3.0, size=2)
        u, v = np.sort(rng.uniform(0.0, 1.0, size=2))
        if u == v:
            continue
        px_u = phi_solve(z, x, float(u), mu)
        py_u = phi_solve(z, y, float(u), mu)
        px_v = phi_solve(z, x, float(v), mu)
        eK1, eK2 = np.exp(K1), np.exp(K2)
        checks = (
            abs(px_u - py_u) <= abs(x - y) * eK1 + budget,
            abs(px_u) <= (abs(x) + K2) * eK2 + budget,
            abs(px_u - x) <= K2 * (abs(x) + 1.0) * eK2 + budget,
            abs(px_u - x - py_u + y) <= abs(x - y) * K1 * eK1 + budget,
            abs(px_u - px_v)
            <= K2 * (1.0 + (abs(x) + K2) * eK2) * mu.mass_closed(u, v) + budget,
        )
        violations += sum(not c for c in checks)

    elapsed = time.monotonic() - t0
    ok = violations == 0
    report(5, "growth inequalities", ok,
           f"1000 trials, {violations} violations, {elapsed:.1f}s")
    assert violations == 0


def test_criterion_6_staircase_gap(report):
    """Crossing staircases approach their targets on both schedules."""
    t0 = time.monotonic()
    meshes = (64, 128, 256, 512)
    flow = sigma_n_check(get_profile("uniform"),
                         Schedule.power(2.0, meshes=meshes), 0.5, SigmaG(),
                         n_offsets=256)
    ito = sigma_n_check(get_profile("uniform"),
                        Schedule.power(0.5, meshes=meshes), 0.5,
                        SigmaG([(0.0, 1.0)]), n_offsets=256)

    elapsed = time.monotonic() - t0
    ok = (flow.decreasing and float(flow.gaps[-1].max()) <= 0.05
          and ito.decreasing and float(ito.gaps[-1].max()) <= 0.05)
    report(6, "staircase gap", ok,
           f"flow final={float(flow.gaps[-1].max()):.4g} "
           f"ito final={float(ito.gaps[-1].max()):.4g}, {elapsed:.1f}s")
    assert flow.decreasing
    assert float(flow.gaps[-1].max()) <= 0.05
    assert ito.decreasing
    assert float(ito.gaps[-1].max()) <= 0.05


def test_criterion_7_discrete_jump_map(report):
    """Crossing recursion converges to the jump map on both schedules."""
    t0 = time.monotonic()
    L = single_jump_driver()
    f = ScalarField.linear_x()
    prof = get_profile("uniform")
    x = 1.0
    z = f.scaled_frozen(0.5, L.jump_at(0.5))

    errs = {}
    for label, n, h, mu in (
        ("flow", 512, 512.0 ** -2, JumpMeasure.lebesgue()),
        ("ito", 4096, 4096.0 ** -0.5, JumpMeasure.dirac(0.0)),
    ):
        target = phi_solve(z, x, 1.0, mu)
        got = discrete_jump_map(f, L, 0.5, prof, n, h, 0.37 * h, x)
        errs[label] = abs(got - target)

    elapsed = time.monotonic() - t0
    ok = all(e <= 1e-2 for e in errs.values())
    report(7, "discrete jump map", ok,
           f"flow err={errs['flow']:.3g}, ito err={errs['ito']:.3g}, "
           f"{elapsed:.1f}s")
    assert errs["flow"] <= 1e-2
    assert errs["ito"] <= 1e-2


BOUND_CORPUS = [
    BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),)),
    BVFunction.from_segments([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]],
                             jumps=((0.25, 1.5), (0.75, -0.5))),
    BVFunction.from_segments([0.0, 2.0], [[0.0, 0.0, 1.5, -0.5]],
                             jumps=((1.2, -0.8),)),
    BVFunction.from_segments([0.0, 0.4, 0.7, 1.0],
                             [[0.0, 1.0], [0.4, -2.0], [-0.2, 3.0]],
                             jumps=((0.2, 0.5), (0.5, -1.0), (0.8, 0.25))),
    BVFunction.from_segments([0.0, 1.5], [[1.0, -0.6]], jumps=((0.7, 2.0),)),
]


def test_criterion_8_gronwall_bounds(report):
    """Boundedness and modulus estimates with C* = exp(K (V + 1))."""
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    fields = (ScalarField.bounded_tanh(1.0, 1.0, offset=0.2),
              ScalarField.linear_x())
    mus = (JumpMeasure.lebesgue(), JumpMeasure.dirac(0.0),
           measure_from_sigma(SigmaG([(0.2, 0.5)])))
    prof = get_profile("triangular")
    x0 = 0.4
    n, worst_ratio = 64, 0.0
    ok = True
    for di, L in enumerate(BOUND_CORPUS):
        a, b = L.domain
        V = L.total_variation()
        h = (b - a) / 512.0
        for f in fields:
            K = max(f.lipschitz_const, f.growth_const)
            cap = np.exp(K * (V + 1.0)) * (1.0 + abs(x0))

            gp = solve_grid(f, L, prof, n, h, x0, n_offsets=2)
            for j in range(gp.offsets.size):
                ts, xs = gp.path(j)
                ok &= bool(np.max(np.abs(xs)) <= cap)
                for _ in range(200):
                    k = int(rng.integers(0, xs.size - 1))
                    l = int(rng.integers(1, xs.size - k))
                    lo = float(np.clip(ts[k], a, b))
                    hi = float(np.clip(ts[k] + l * h + 1.0 / n, a, b))
                    allowed = cap * L.total_variation(lo, hi)
                    diff = abs(xs[k + l] - xs[k])
                    ok &= bool(diff <= allowed + 1e-12)
                    if allowed > 0:
                        worst_ratio = max(worst_ratio, diff / allowed)

            path = solve_limit(f, L, mus[di % len(mus)], x0)
            ok &= bool(max(np.max(np.abs(path.x)),
                           np.max(np.abs(path.x_left))) <= cap)
            for _ in range(300):
                i, j = np.sort(rng.integers(0, path.t.size, size=2))
                if i == j:
                    continue
                allowed = cap * L.total_variation(float(path.t[i]),
                                                  float(path.t[j]))
                diff = abs(path.x[j] - path.x[i])
                ok &= bool(diff <= allowed + 1e-12)
                if allowed > 0:
                    worst_ratio = max(worst_ratio, diff / allowed)

    elapsed = time.monotonic() - t0
    report(8, "a-priori bounds", bool(ok),
           f"5 drivers x 2 fields, worst modulus ratio={worst_ratio:.3g}, "
           f"{elapsed:.1f}s")
    assert ok
