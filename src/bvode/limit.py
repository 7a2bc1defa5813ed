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
from .drivers import BVFunction
from .fields import ScalarField
from .jumpmap import JumpMeasure, phi_solve


class LimitPath:
    """Right-continuous path with explicit left limits at its jumps.

    Stores the dense solver grid; values between grid points are linear
    interpolants, with the doubled entries at jump epochs making ``eval``
    right-continuous and ``eval_left`` the left limit.
    """

    def __init__(self, rows, domain):
        # rows: (t, x_left, x, is_jump) at strictly increasing times
        cols = list(zip(*rows)) or [()] * 4
        self.t, self.x_left, self.x = (np.array(c, dtype=np.float64) for c in cols[:3])
        self.is_jump = np.array(cols[3], dtype=bool)
        self.domain = (float(domain[0]), float(domain[1]))
        if self.t.size < 1 or np.any(np.diff(self.t) <= 0.0):
            raise ValueError("path times must be strictly increasing")
        jumps = np.flatnonzero(self.is_jump)
        self._t_dbl = np.insert(self.t, jumps, self.t[jumps])
        self._x_dbl = np.insert(self.x, jumps, self.x_left[jumps])

    def _interp(self, t, side: str):
        a, b = self.domain
        arr = np.asarray(t, dtype=np.float64)
        shape = arr.shape
        tt = np.atleast_1d(arr).reshape(-1)
        if np.any(tt < a - 1e-12) or np.any(tt > b + 1e-12):
            raise ValueError(f"times must lie in [{a!r}, {b!r}]")
        tt = np.clip(tt, a, b)
        n = self._t_dbl.size
        i0 = np.clip(np.searchsorted(self._t_dbl, tt, side=side) - 1, 0, n - 1)
        i1 = np.minimum(i0 + 1, n - 1)
        dt = self._t_dbl[i1] - self._t_dbl[i0]
        frac = np.where(dt > 0.0, (tt - self._t_dbl[i0]) / np.where(dt > 0.0, dt, 1.0), 0.0)
        out = self._x_dbl[i0] + frac * (self._x_dbl[i1] - self._x_dbl[i0])
        out = out.reshape(shape)
        return float(out) if shape == () else out

    def eval(self, t):
        """Right-continuous value at t (vectorized)."""
        return self._interp(t, "right")

    def eval_left(self, t):
        """Left limit at t; equals eval(t) away from jumps."""
        return self._interp(t, "left")

    def l1_norm(self) -> float:
        """Midpoint-rule integral of |x| over the domain on the stored grid."""
        mids = 0.5 * (self._x_dbl[:-1] + self._x_dbl[1:])
        return float(np.sum(np.abs(mids) * np.diff(self._t_dbl)))

    def rows(self):
        """CSV rows (t, x_left, x, is_jump)."""
        return zip(self.t.tolist(), self.x_left.tolist(), self.x.tolist(),
                   self.is_jump.astype(int).tolist())


def stieltjes_integrate(g, Lc: BVFunction, a: float, t: float,
                        v_max: float) -> float:
    """Trapezoid value of int_a^t g(s) dLc(s) for a jump-free integrator.

    The grid equidistributes the variation of Lc so that each cell moves
    at most v_max of it; g is a function of time only.
    """
    if Lc.jump_epochs.size:
        raise ValueError("integrator must be jump-free; pass continuous_part()")
    if v_max <= 0.0:
        raise ValueError("v_max must be positive")
    a, t = float(a), float(t)
    if t < a:
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
    coefficient.  ``sample_times`` adds report points to the grid.
    """
    a, b = L.domain
    Lc = L.continuous_part()
    if v_max is None:
        tv = Lc.total_variation()
        v_max = 1e-3 * tv if tv > 0.0 else 1.0
    if v_max <= 0.0:
        raise ValueError("v_max must be positive")
    if sample_times is None:
        extra = np.empty(0, dtype=np.float64)
    else:
        extra = np.asarray(sample_times, dtype=np.float64).reshape(-1)
        if extra.size and (extra.min() < a or extra.max() > b):
            raise ValueError(f"sample times must lie in [{a!r}, {b!r}]")
    epochs = {float(e) for e in L.jump_epochs}
    edges = [a] + sorted(epochs) + ([b] if b not in epochs else [])
    rows = []
    x_cur = float(x0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        grid = Lc.variation_steps(lo, hi, v_max)
        sel = extra[(extra > lo) & (extra < hi)]
        if sel.size:
            grid = np.unique(np.concatenate((grid, sel)))
        xs = backend.heun_path(f, grid, Lc(grid), x_cur)
        # each segment after the first starts where the last one ended
        start = 1 if rows else 0
        xl = xs[start:].tolist()
        rows.extend(zip(grid[start:].tolist(), xl, xl, itertools.repeat(False)))
        x_cur = float(xs[-1])
        if hi in epochs:
            dL = L.jump_at(hi)
            z = f.scaled_frozen(hi, dL)
            x_new = phi_solve(z, x_cur, 1.0, mu)
            rows[-1] = (float(hi), x_cur, float(x_new), True)
            x_cur = x_new
    return LimitPath(rows, domain=(a, b))
