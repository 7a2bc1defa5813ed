"""Experiments connecting the lattice scheme to the limit equation.

The basic metric is the offset-averaged L1 distance between a fan of
scheme runs (piecewise constant) and a limit path (piecewise smooth with
jumps).  Studies sweep a mesh schedule and report the error per mesh;
the staircase check probes which limit staircase a schedule produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend, drivers
from .drivers import BVFunction
from .fields import ScalarField
from .jumpmap import JumpMeasure, SigmaG
from .limit import LimitPath, solve_limit
from .mollify import MollifierProfile, Schedule
from .scheme import GridPath, _crossing_fractions, _offset_fan, solve_grid

DEFAULT_PROBES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


_PLAN_CELL_BYTES = 33  # a plan's bytes per cell: two intp indices, two floats and a bool


def l1_distance(p: GridPath, q: LimitPath) -> float:
    """Offset-averaged integral of |p(t) - q(t)| over the common domain.

    Each offset path is read as piecewise constant on its lattice; the
    integration grid is the common refinement of that lattice with the
    breakpoints of q, one midpoint evaluation per cell.  Blocks of offsets
    are scored together: each row's edges are its lattice, padded with its
    last point past its own length, merged with q's times, so repeated
    edges leave cells of zero width, which add nothing.  The row sums are
    added in offset order.

    Each block is scored in two stages: a read-out plan (_plan), which
    depends on the fan's lattices and q's times alone, and a value pass
    (_score) over the states.  When q came from solve_limit, its driver
    keeps the plan (``_remember``), so scoring the same fan against another
    path on the same limit grid runs the value pass alone.  A plan over the
    memo budget, or against a path with no driver, is planned and scored
    block by block and not kept.
    """
    if (abs(p.domain[0] - q.domain[0]) > 1e-9
            or abs(p.domain[1] - q.domain[1]) > 1e-9):
        raise ValueError(f"domain mismatch: {p.domain!r} vs {q.domain!r}")
    J, K = p.values.shape
    cells = K + q.t.size + 1  # per row
    rows = max(1, backend.LATTICE_CHUNK // (cells + 1))
    starts = range(0, J, rows)
    blocks = (_plan(p, q, s, rows) for s in starts)
    driver = q._driver() if q._driver is not None else None
    if driver is not None and J * cells * _PLAN_CELL_BYTES <= drivers._MEMO_BYTES:
        # kept as one flat tuple, five arrays a block, planned whole on a miss
        plan = driver._remember(("plan", float(p.h).hex(), p.offsets.tobytes(), p.lengths.tobytes(),
                                 K, q._t_dbl.tobytes(), rows),
                                lambda: tuple(arr for block in blocks for arr in block))
        blocks = (plan[i:i + 5] for i in range(0, len(plan), 5))
    sums = np.empty(J)
    for s in starts:  # one expression a block: a streamed block does not outlive its scoring
        sums[s:s + rows] = _score(p, q, *next(blocks))
    # cumsum adds the offsets in order, as a running accumulator would
    return float(np.cumsum(sums)[-1] / J)


def _plan(p: GridPath, q: LimitPath, s: int, rows: int):
    """Read-out plan of offsets s .. s + rows - 1 against q: for each merged
    cell, the fan's flat state index, q's lower doubled-grid index and cell
    fraction, the cell width and whether it is 0, one row per offset."""
    a, b = q.domain
    j = np.arange(s, min(s + rows, p.values.shape[0]))
    K = p.values.shape[1]
    edges = np.empty((j.size, K + q.t.size + 2))
    edges[:, 0] = a
    lattice = edges[:, 1:K + 1]
    np.add(p.offsets[j, None], p.h * np.arange(K), out=lattice)
    # past its own length a row repeats its last point: cells of zero width;
    # before that point a rising row (h > 0) already lies below it
    first = max(int(p.lengths[j].min()) - 1, 0) if p.h > 0.0 else 0
    tail = lattice[:, first:]
    np.minimum(tail, lattice[j - s, p.lengths[j] - 1, None], out=tail)
    edges[:, K + 1] = b
    edges[:, K + 2:] = q.t
    np.clip(edges, a, b, out=edges)
    # two sorted runs, the lattice and q's times: a stable sort merges them
    edges.sort(axis=1, kind="stable")
    mids = edges[:, :-1] + edges[:, 1:]
    mids *= 0.5
    # each row of midpoints rises (NaN last), so a non-finite one shows at an end
    if not np.isfinite(mids[:, [0, -1]]).all():
        raise ValueError("times must be finite")
    dt = np.diff(edges, axis=1)
    # the midpoints lie in [a, b], so q is read without eval's range check
    return (p._flat_index(j, mids), *q._locate(mids), dt, dt == 0.0)


def _score(p: GridPath, q: LimitPath, idx, i0, frac, dt, empty) -> np.ndarray:
    """Row sums of |p - q| dt over one plan block."""
    gap = np.take(p.values, idx)
    gap -= q._interp(i0, frac)
    np.abs(gap, out=gap)
    # empty cells are zeroed before multiplying, so an infinite state gives inf, not inf * 0
    np.copyto(gap, 0.0, where=empty)
    gap *= dt
    return np.sum(gap, axis=1)


def _trend_decreasing(errors: np.ndarray) -> bool:
    # last value is the minimum and no step increases by more than 10%
    if errors.size < 2:
        return True
    if errors[-1] > errors.min():
        return False
    return bool(np.all(errors[1:] <= 1.1 * errors[:-1]))


@dataclass(frozen=True)
class StudyResult:
    """Error table of a mesh sweep against one limit path."""

    ns: tuple
    h_values: tuple
    l1_errors: tuple
    rel_errors: tuple
    limit_norm: float
    decreasing: bool


def convergence_study(f: ScalarField, L: BVFunction,
                      profile: MollifierProfile, sched: Schedule,
                      mu_expected: JumpMeasure, x0: float,
                      n_offsets: int = 16, mollify_coefficient: bool = False) -> StudyResult:
    """Sweep the schedule and measure the scheme's L1 distance to the limit.

    The limit path is solved once under ``mu_expected``; each mesh then
    contributes one row, in schedule order.
    """
    if len(sched.meshes) < 3:
        raise ValueError("schedule needs at least three meshes")
    limit = solve_limit(f, L, mu_expected, float(x0))
    norm = limit.l1_norm()
    errs = np.empty(len(sched.meshes), dtype=np.float64)
    for i, n in enumerate(sched.meshes):
        gp = solve_grid(f, L, profile, n, sched.h(n), float(x0), n_offsets, mollify_coefficient)
        errs[i] = l1_distance(gp, limit)
    rels = errs / norm if norm > 0.0 else errs.copy()
    return StudyResult(ns=tuple(sched.meshes),
                       h_values=tuple(sched.h(n) for n in sched.meshes),
                       l1_errors=tuple(float(e) for e in errs),
                       rel_errors=tuple(float(r) for r in rels),
                       limit_norm=float(norm),
                       decreasing=_trend_decreasing(errs))


@dataclass(frozen=True)
class SigmaCheckResult:
    """Offset-averaged staircase gaps, one row per mesh and probe."""

    ns: tuple
    h_values: tuple
    probes: tuple
    gaps: np.ndarray  # shape (len(ns), len(probes))
    zeta: float
    decreasing: bool


def sigma_n_check(profile: MollifierProfile, sched: Schedule, zeta: float,
                  sigma: SigmaG, probes=DEFAULT_PROBES, n_offsets: int = 16,
                  domain=(0.0, 1.0)) -> SigmaCheckResult:
    """Measure how far each mesh's crossing staircase sits from sigma.

    For every mesh n and every lattice offset, the crossing fractions
    around zeta define a staircase sigma^n(., tau); the gap at probe u is
    the offset-quadrature value of the time integral of
    |sigma^n(u, .) - sigma(u)|, i.e. (b - a) times the offset mean.  Each
    mesh builds one (J, p + 3) crossing array for all J offsets.
    """
    a, b = float(domain[0]), float(domain[1])
    if not a < zeta <= b:
        raise ValueError("zeta must lie inside the domain")
    h_values = tuple(sched.h(n) for n in sched.meshes)
    fans = _offset_fan(a, np.array(h_values), n_offsets)
    probes = tuple(float(u) for u in probes)
    us = np.asarray(probes, dtype=np.float64)
    if us.size == 0:
        raise ValueError("need at least one probe")
    if not np.all((us >= 0.0) & (us <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    target = np.asarray(sigma(us), dtype=np.float64).reshape(-1)
    gaps = np.empty((len(sched.meshes), us.size), dtype=np.float64)
    rows = np.arange(n_offsets)
    for i, (n, h, taus) in enumerate(zip(sched.meshes, h_values, fans)):
        xi = _crossing_fractions(profile, n, h, taus, float(zeta))
        acc = np.empty(us.size, dtype=np.float64)
        for k, u in enumerate(us):
            # staircase of every row: its smallest xi with u <= xi (rows are sorted);
            # cumsum adds the offsets in order, as a running accumulator would
            vals = xi[rows, np.count_nonzero(xi < u, axis=1)]
            acc[k] = np.cumsum(np.abs(vals - target[k]))[-1]
        gaps[i] = (b - a) * acc / n_offsets
    worst = gaps.max(axis=1)
    return SigmaCheckResult(ns=tuple(sched.meshes), h_values=h_values, probes=probes, gaps=gaps,
                            zeta=float(zeta), decreasing=_trend_decreasing(worst))
