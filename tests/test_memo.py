"""Per-driver memo of offset fans, limit paths, variation grids and L1 plans
(BVFunction._remember)."""

import weakref

import numpy as np
import pytest

from bvode import (
    BVFunction,
    JumpMeasure,
    ScalarField,
    Schedule,
    StepLimitError,
    backend,
    convergence_study,
    drivers,
    get_profile,
    l1_distance,
    scheme,
    solve_grid,
    solve_limit,
    solve_offset,
)
from bvode.drivers import _held_arrays


def unit_jump():
    return BVFunction.from_segments([0.0, 1.0], [[0.0]], jumps=((0.5, 1.0),))


class Spy:
    """Counts the calls of a backend kernel while passing them through."""

    def __init__(self, mp, name):
        self.calls, self._fn = 0, getattr(backend, name)
        mp.setattr(backend, name, self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._fn(*args, **kwargs)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def memo_bytes(L):
    """Bytes of the arrays the driver's kept results hold, counted afresh."""
    return sum(a.nbytes for result, _ in L._memo.values() for a in _held_arrays(result))


def test_criterion_2_call_list_matches_fresh_drivers(monkeypatch):
    """Criterion 2's calls on one driver give, call by call, the bits a fresh
    driver gives.  The shared driver solves each distinct fan once, except the
    n = 512 flow fan (33.6 MB), which is over the budget and solved twice, and
    each of the two limit paths once."""
    L, f, prof = unit_jump(), ScalarField.linear_x(), get_profile("uniform")
    flow = Schedule.power(2.0, meshes=(64, 128, 256, 512))
    ito = Schedule.power(0.5, meshes=(512, 1024, 2048, 4096))
    leb, dirac = JumpMeasure.lebesgue(), JumpMeasure.dirac(0.0)
    lattice, heun = Spy(monkeypatch, "driver_lattice_values"), Spy(monkeypatch, "heun_path")
    shared_lattice = 0

    def limit(mu):
        got, want = solve_limit(f, L, mu, 1.0), solve_limit(f, unit_jump(), mu, 1.0)
        for name in ("t", "x_left", "x", "is_jump"):
            assert_same_bits(getattr(got, name), getattr(want, name))

    # the studies in the criterion's order, each scored against its limit path;
    # the flow and Ito paths are solved once more after their studies
    for sched, mu, again in ((flow, leb, True), (ito, dirac, True),
                             (flow, dirac, False), (ito, leb, False)):
        limit(mu)
        for n in sched.meshes:
            before = lattice.calls
            got = solve_grid(f, L, prof, n, sched.h(n), 1.0)
            shared_lattice += lattice.calls - before
            want = solve_grid(f, unit_jump(), prof, n, sched.h(n), 1.0)
            assert_same_bits(got.values, want.values)
            assert_same_bits(got.lengths, want.lengths)
            assert_same_bits(got.offsets, want.offsets)
        if again:
            limit(mu)
        assert L._memo_bytes == memo_bytes(L) <= drivers._MEMO_BYTES
    assert shared_lattice == 9
    # 6 limit solves on fresh drivers and 2 on the shared one, 2 stretches each
    assert heun.calls == 2 * (6 + 2)


def test_criterion_2_studies_keep_their_fans(monkeypatch):
    """Criterion 2's four studies on one driver, each fan scored against its
    limit path: the plans the scores keep push out no fan, so the 16 fans
    still make 9 lattice calls (the n = 512 flow fan is over the budget), and
    the kept bytes stay counted and within the budget."""
    L, f, prof = unit_jump(), ScalarField.linear_x(), get_profile("uniform")
    flow = Schedule.power(2.0, meshes=(64, 128, 256, 512))
    ito = Schedule.power(0.5, meshes=(512, 1024, 2048, 4096))
    leb, dirac = JumpMeasure.lebesgue(), JumpMeasure.dirac(0.0)
    lattice = Spy(monkeypatch, "driver_lattice_values")
    for sched, mu in ((flow, leb), (ito, dirac), (flow, dirac), (ito, leb)):
        convergence_study(f, L, prof, sched, mu, 1.0)
        assert L._memo_bytes == memo_bytes(L) <= drivers._MEMO_BYTES
    assert lattice.calls == 9


def test_plans_go_first(monkeypatch):
    """Over the budget the driver drops its L1 plans, least recently used
    first, before any fan, limit path or grid; only then the least recently
    used of those."""
    L, f, prof = unit_jump(), ScalarField.linear_x(), get_profile("uniform")
    path = solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
    for h in (1.0 / 64, 1.0 / 32):
        l1_distance(solve_grid(f, L, prof, 8, h, 1.0, n_offsets=2), path)
    assert [key[0] for key in L._memo] == ["grid", "limit", "fan", "plan", "fan", "plan"]
    first, second = [key for key in L._memo if key[0] == "plan"]
    others = [key for key in L._memo if key[0] != "plan"]

    def fan(x0):  # n_offsets = 2, h = 1/64: 1072 bytes, the first fan's lattice
        solve_grid(f, L, prof, 8, 1.0 / 64, x0, n_offsets=2)
        assert L._memo_bytes == memo_bytes(L) <= drivers._MEMO_BYTES

    # room for one more fan once the older plan has gone
    monkeypatch.setattr(drivers, "_MEMO_BYTES", L._memo_bytes + 1072 - 1)
    fan(2.0)
    assert first not in L._memo and second in L._memo
    assert all(key in L._memo for key in others)
    # room for one more fan only once the other plan and some of the rest have gone
    monkeypatch.setattr(drivers, "_MEMO_BYTES", L._memo_bytes - L._memo[second][1] - 1)
    fan(3.0)
    assert not [key for key in L._memo if key[0] == "plan"]
    gone = [key for key in others if key not in L._memo]
    assert gone and gone == others[:len(gone)]


def test_equal_drivers_share_nothing(monkeypatch):
    f, prof = ScalarField.linear_x(), get_profile("uniform")
    lattice, heun = Spy(monkeypatch, "driver_lattice_values"), Spy(monkeypatch, "heun_path")
    first, second = unit_jump(), unit_jump()
    for L, calls in ((first, 1), (first, 1), (second, 2), (second, 2), (first, 2)):
        solve_grid(f, L, prof, 8, 1.0 / 64, 1.0, n_offsets=2)
        solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
        assert lattice.calls == calls and heun.calls == 2 * calls
    assert first._memo is not second._memo


def test_byte_budget(monkeypatch):
    """Least recently used results go first; a result over the budget is
    returned and not kept; the kept bytes never exceed the budget."""
    # n_offsets = 2, h = 1/64: 2 offsets, 2 x 65 states and 2 lengths, 1072 bytes
    monkeypatch.setattr(drivers, "_MEMO_BYTES", 2500)
    L, f, prof = unit_jump(), ScalarField.linear_x(), get_profile("uniform")
    lattice = Spy(monkeypatch, "driver_lattice_values")

    def fan(x0, h=1.0 / 64):
        solve_grid(f, L, prof, 8, h, x0, n_offsets=2)
        assert L._memo_bytes == memo_bytes(L) <= 2500
        return lattice.calls

    assert [fan(1.0), fan(2.0), fan(1.0)] == [1, 2, 2]
    assert fan(3.0) == 3        # evicts x0 = 2, the least recently used
    assert fan(1.0) == 3 and fan(2.0) == 4
    assert L._memo_bytes == 2 * 1072
    # h = 1/256: 2 x 257 states, 4144 bytes, over the budget
    kept = list(L._memo)
    assert fan(1.0, 1.0 / 256) == 5 and fan(1.0, 1.0 / 256) == 6
    assert list(L._memo) == kept
    # a budget lowered below what is kept evicts on the next miss
    monkeypatch.setattr(drivers, "_MEMO_BYTES", 1500)
    solve_grid(f, L, prof, 8, 1.0 / 64, 4.0, n_offsets=2)
    assert L._memo_bytes == memo_bytes(L) == 1072


def test_lower_step_cap_on_kept_fan_still_raises(monkeypatch):
    f, L, prof = ScalarField.constant(0.0), BVFunction([0.0, 1.0], [[0.0]]), get_profile("uniform")
    monkeypatch.setattr(scheme, "STEP_CAP", 10)
    assert solve_offset(f, L, prof, 8, 0.1, 0.0, 1.0).size == 11
    monkeypatch.setattr(scheme, "STEP_CAP", 9)
    with pytest.raises(StepLimitError, match="run needs 10 steps, cap is 9"):
        solve_offset(f, L, prof, 8, 0.1, 0.0, 1.0)
    # 4 offsets of 10 steps: the fan's 40 steps are counted against the cap
    monkeypatch.setattr(scheme, "STEP_CAP", 40)
    assert solve_grid(f, L, prof, 8, 0.1, 1.0, n_offsets=4).values.shape == (4, 11)
    monkeypatch.setattr(scheme, "STEP_CAP", 39)
    with pytest.raises(StepLimitError, match="lattice fan needs 40 steps, cap is 39"):
        solve_grid(f, L, prof, 8, 0.1, 1.0, n_offsets=4)


def test_checks_run_before_lookup():
    """Every argument check of a kept call still fails as it did."""
    f, L, prof = ScalarField.linear_x(), unit_jump(), get_profile("uniform")
    solve_grid(f, L, prof, 8, 1.0 / 64, 1.0, n_offsets=2)
    solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
    with pytest.raises(ValueError, match="initial states must be finite"):
        solve_grid(f, L, prof, 8, 1.0 / 64, np.nan, n_offsets=2)
    with pytest.raises(ValueError, match="sharpness n"):
        solve_grid(f, L, prof, 0, 1.0 / 64, 1.0, n_offsets=2)
    with pytest.raises(ValueError, match="initial states must be finite"):
        solve_limit(f, L, JumpMeasure.lebesgue(), np.inf)
    with pytest.raises(ValueError, match="v_max must be positive"):
        solve_limit(f, L, JumpMeasure.lebesgue(), 1.0, v_max=-1.0)
    with pytest.raises(ValueError, match="sample times"):
        solve_limit(f, L, JumpMeasure.lebesgue(), 1.0, sample_times=[2.0])


def test_kept_fan_counts_no_steps(monkeypatch):
    """A fan is looked up by its parameters: a repeated solve_grid checks
    offset 0's count against the cap, but makes no offsets and counts no
    other offset's steps; its GridPath holds the kept, read-only offsets."""
    calls = []
    for name in ("_step_count", "_offset_fan"):
        real = getattr(scheme, name)
        monkeypatch.setattr(scheme, name, lambda *a, name=name, real=real: calls.append(name)
                            or real(*a))
    f, L, prof = ScalarField.linear_x(), unit_jump(), get_profile("uniform")
    first = solve_grid(f, L, prof, 64, 1.0 / 64, 1.0)
    assert calls == ["_step_count", "_offset_fan"]
    calls.clear()
    again = solve_grid(f, L, prof, 64, 1.0 / 64, 1.0)
    assert calls == ["_step_count"]
    assert again.values is first.values and again.offsets is first.offsets
    assert_same_bits(again.offsets, 0.0 + (1.0 / 64 / 16) * np.arange(16.0))
    with pytest.raises(ValueError, match="read-only"):
        again.offsets[0] = 1.0


def test_signed_zeros_miss_each_other(monkeypatch):
    f, L, prof = ScalarField.constant(0.0), unit_jump(), get_profile("uniform")
    lattice, heun = Spy(monkeypatch, "driver_lattice_values"), Spy(monkeypatch, "heun_path")
    plus = solve_grid(f, L, prof, 8, 1.0 / 64, 0.0, n_offsets=2)
    minus = solve_grid(f, L, prof, 8, 1.0 / 64, -0.0, n_offsets=2)
    assert lattice.calls == 2
    assert not np.signbit(plus.values[0, 0]) and np.signbit(minus.values[0, 0])
    plus = solve_limit(f, L, JumpMeasure.lebesgue(), 0.0)
    minus = solve_limit(f, L, JumpMeasure.lebesgue(), -0.0)
    assert heun.calls == 4
    assert not np.signbit(plus.x_left[0]) and np.signbit(minus.x_left[0])
    # atoms at 0.0 and -0.0 are different measures to the memo
    solve_limit(f, L, JumpMeasure.dirac(0.0), 1.0)
    solve_limit(f, L, JumpMeasure.dirac(-0.0), 1.0)
    assert heun.calls == 8


def test_fields_match_by_identity(monkeypatch):
    """An equal but separately built field is solved again."""
    L, prof = unit_jump(), get_profile("uniform")
    lattice = Spy(monkeypatch, "driver_lattice_values")
    solve_grid(ScalarField.linear_x(), L, prof, 8, 1.0 / 64, 1.0, n_offsets=2)
    solve_grid(ScalarField.linear_x(), L, prof, 8, 1.0 / 64, 1.0, n_offsets=2)
    assert lattice.calls == 2


def test_results_are_read_only(monkeypatch):
    f, L, prof = ScalarField.linear_x(), unit_jump(), get_profile("uniform")
    gp = solve_grid(f, L, prof, 8, 1.0 / 64, 1.0, n_offsets=2)
    path = solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
    for arr in (gp.values, gp.lengths, solve_offset(f, L, prof, 8, 1.0 / 64, 0.0, 1.0),
                path.t, path.x, path.x_left, path.is_jump):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    # a fan over the budget is returned read-only too, and not kept
    monkeypatch.setattr(drivers, "_MEMO_BYTES", 100)
    gp = solve_grid(f, L, prof, 8, 1.0 / 64, 2.0, n_offsets=2)
    assert not gp.values.flags.writeable and not L._memo


def test_memo_dies_with_its_driver():
    f, L, prof = ScalarField.linear_x(), unit_jump(), get_profile("uniform")
    gp = solve_grid(f, L, prof, 8, 1.0 / 64, 1.0, n_offsets=2)
    path = solve_limit(f, L, JumpMeasure.lebesgue(), 1.0)
    driver, memo = weakref.ref(L), weakref.ref(L._memo)
    del L  # no reference cycle holds it: it goes at once, without a collection
    assert driver() is None and memo() is None
    assert gp.values.shape == (2, 65) and path.x.size > 2


def test_limit_solves_share_the_variation_grid(monkeypatch):
    """The variation grid depends on the driver and v_max alone: solves under
    other fields and measures build it once, and it is kept read-only.  Each
    path keeps the bits a fresh driver gives."""
    spec = ([0.0, 0.5, 1.0], [[0.0, 2.0], [1.0, 0.0, -4.0]], ((0.25, 1.5), (0.75, -0.5)))
    L = BVFunction(*spec)
    grids = []
    real = BVFunction._variation_grid
    monkeypatch.setattr(BVFunction, "_variation_grid",
                        lambda self, *a: grids.append(a) or real(self, *a))
    runs = [(ScalarField.bounded_tanh(1.0, 1.0, offset=0.2), JumpMeasure.lebesgue(), None),
            (ScalarField.linear_x(), JumpMeasure.dirac(0.0), None),
            (ScalarField.bounded_sin(0.9, 1.7), JumpMeasure.lebesgue(), [0.1, 0.6])]
    paths = [solve_limit(f, L, mu, 0.4, sample_times=st) for f, mu, st in runs]
    assert len(grids) == 1
    (kept,) = [result for key, (result, _) in L._memo.items() if key[0] == "grid"]
    assert not kept[0].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kept[0][0] = 0.0
    for path, (f, mu, st) in zip(paths, runs):
        fresh = solve_limit(f, BVFunction(*spec), mu, 0.4, sample_times=st)
        for col in ("t", "x_left", "x", "is_jump"):
            assert_same_bits(getattr(path, col), getattr(fresh, col))
    # another budget is another grid
    built = len(grids)
    solve_limit(runs[0][0], L, runs[0][1], 0.4, v_max=0.01)
    assert len(grids) == built + 1
