"""Limit equation: Stieltjes flow between jumps, a jump map across them.

The path solves x(t) = x0 + int_a^t f(s, x(s)) dL^c(s) plus, at every
jump epoch of the driver, the replacement x(s) = phi(dL f(s, .), x(s-), 1)
computed under a chosen unit measure mu.  Between epochs the integral is
advanced with a Heun rule on a grid that equidistributes the continuous
variation of the driver.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import backend
from .drivers import BVFunction, _held_arrays, _Same, _sorted_unique
from .fields import ScalarField
from .jumpmap import JumpMeasure, phi_solve


class LimitPath:
    """Right-continuous path with explicit left limits at its jumps.

    Stores the dense solver grid; values between grid points are linear
    interpolants, with the doubled entries at jump epochs making ``eval``
    right-continuous; ``x_left`` holds the left limit at each grid time.
    """

    def __init__(self, t, x_left, x, is_jump, domain):
        self.t, self.x_left, self.x = (np.array(c, dtype=np.float64) for c in (t, x_left, x))
        self.is_jump = np.array(is_jump, dtype=bool)
        self.domain = (float(domain[0]), float(domain[1]))
        if not self.t.shape == self.x_left.shape == self.x.shape == self.is_jump.shape:
            raise ValueError("path columns must have one entry per time")
        if (self.t.ndim != 1 or self.t.size < 1 or not np.all(np.isfinite(self.t))
                or np.any(np.diff(self.t) <= 0.0)):
            raise ValueError("path times must be finite and strictly increasing")
        jumps = np.flatnonzero(self.is_jump)
        self._t_dbl = np.insert(self.t, jumps, self.t[jumps])
        self._x_dbl = np.insert(self.x, jumps, self.x_left[jumps])
        # read-only, so that no edit leaves the doubled grid stale
        for arr in _held_arrays(self):
            arr.setflags(write=False)

    def eval(self, t):
        """Right-continuous value at t (vectorized)."""
        a, b = self.domain
        arr = np.asarray(t, dtype=np.float64)
        if not np.all((arr >= a - 1e-12) & (arr <= b + 1e-12)):
            raise ValueError(f"times must lie in [{a!r}, {b!r}]")
        out = self._read(np.clip(np.atleast_1d(arr), a, b))
        return float(out[0]) if arr.ndim == 0 else out

    def _read(self, tt):
        """Values at times tt already in [a, b], an array of any shape: linear
        between the doubled grid's entries, each table read one gather."""
        td, xd = self._t_dbl, self._x_dbl
        n = td.size
        i0 = np.searchsorted(td, tt, side="right")
        i0 -= 1
        np.clip(i0, 0, n - 1, out=i0)
        i1 = i0 + 1
        np.minimum(i1, n - 1, out=i1)
        t0 = np.take(td, i0)
        x0 = np.take(xd, i0)
        # x0 + frac (x1 - x0), frac = (tt - t0) / dt where the cell has width, else 0;
        # in place, in the formula's own order of operations
        dt = np.take(td, i1)
        dt -= t0
        frac = np.divide(tt - t0, dt, out=np.zeros(dt.shape), where=dt > 0.0)
        x1 = np.take(xd, i1)
        x1 -= x0
        x1 *= frac
        x1 += x0
        return x1

    def l1_norm(self) -> float:
        """Midpoint-rule integral of |x| over the domain on the stored grid."""
        mids = 0.5 * (self._x_dbl[:-1] + self._x_dbl[1:])
        return float(np.sum(np.abs(mids) * np.diff(self._t_dbl)))


def stieltjes_integrate(g, Lc: BVFunction, a: float, t: float,
                        v_max: float) -> float:
    """Trapezoid value of int_a^t g(s) dLc(s) for a jump-free integrator.

    The grid equidistributes the variation of Lc so that each cell moves
    at most v_max of it; g is a function of time only.
    """
    if Lc.jump_epochs.size:
        raise ValueError("integrator must be jump-free; pass continuous_part()")
    if not v_max > 0.0:
        raise ValueError("v_max must be positive")
    a, t = float(a), float(t)
    if not a <= t:
        raise ValueError("need a <= t")
    if t == a:
        return 0.0
    grid = Lc.variation_steps(a, t, v_max)
    try:
        gv = np.asarray(g(grid), dtype=np.float64)
        if gv.shape != grid.shape:
            raise ValueError
    except (TypeError, ValueError):
        gv = np.array([float(g(float(s))) for s in grid], dtype=np.float64)
    dL = np.diff(Lc(grid))
    return float(np.sum(0.5 * (gv[:-1] + gv[1:]) * dL))


def solve_limit(f: ScalarField, L: BVFunction, mu: JumpMeasure, x0: float,
                sample_times=None, v_max: float | None = None) -> LimitPath:
    """Solve the limit equation for driver L under jump measure mu.

    Between jump epochs the continuous Stieltjes equation is advanced by
    a Heun rule on a variation-equidistributed grid; at each epoch the
    state is replaced by the jump map of the frozen, jump-scaled
    coefficient.  ``sample_times`` adds report points to the grid.  The
    driver keeps the read-only path and the variation grid
    (``L._remember``), so a repeated solve is not run again, and a solve
    under another field or measure reuses the grid.
    """
    a, b = L.domain
    if v_max is None:
        v_max = 1e-3 * L._continuous_variation(a, b)
        if not v_max > 0.0:  # no continuous variation, or one whose thousandth underflows
            v_max = 1.0
    if not v_max > 0.0:
        raise ValueError("v_max must be positive")
    if sample_times is None:
        extra = np.empty(0, dtype=np.float64)
    else:
        extra = np.asarray(sample_times, dtype=np.float64).reshape(-1)
        if extra.size and not (extra.min() >= a and extra.max() <= b):
            raise ValueError(f"sample times must lie in [{a!r}, {b!r}]")
    x_start = float(x0)
    if not np.isfinite(x_start):
        raise ValueError("initial states must be finite")

    def build():
        x_cur = x_start
        # one grid over every stretch between jumps; report points other than the edges join it
        edges = np.concatenate(([a], L.jump_epochs[L.jump_epochs < b], [b]))
        # the grid depends on the driver and v_max alone, so solves under other
        # fields and measures share it
        (grid,) = L._remember(("grid", edges.tobytes(), float(v_max).hex()),
                              lambda: (L._variation_grid(edges, v_max),))
        if extra.size:
            grid = _sorted_unique(np.concatenate((grid, extra[~np.isin(extra, edges)])))
        Lg = L.continuous_value(grid)
        x, xl = np.empty_like(grid), np.full_like(grid, x_cur)
        is_jump = np.zeros(grid.shape, dtype=bool)
        for i0, i1 in itertools.pairwise(np.searchsorted(grid, edges).tolist()):
            # each stretch starts where the last one ended, and x_left keeps that end
            xs = backend.heun_path(f, grid[i0:i1 + 1], Lg[i0:i1 + 1], x_cur)
            x[i0:i1 + 1], xl[i0 + 1:i1 + 1] = xs, xs[1:]
            x_cur = float(xs[-1])
            dL = L.jump_at(grid[i1])
            if dL:
                z = f.scaled_frozen(float(grid[i1]), dL)
                # a state that already overflowed crosses the jump unchanged
                x_cur = phi_solve(z, x_cur, 1.0, mu) if np.isfinite(x_cur) else x_cur
                x[i1], is_jump[i1] = x_cur, True
        return LimitPath(grid, xl, x, is_jump, (a, b))

    # looked up only after every check
    return L._remember(("limit", _Same(f), np.asarray(mu.atoms, dtype=np.float64).tobytes(),
                        np.asarray(mu.segments, dtype=np.float64).tobytes(), x_start.hex(),
                        extra.tobytes(), float(v_max).hex()), build)
