"""Limit equation: Stieltjes flow between jumps, a jump map across them.

The path solves x(t) = x0 + int_a^t f(s, x(s)) dL^c(s) plus, at every
jump epoch of the driver, the replacement x(s) = phi(dL f(s, .), x(s-), 1)
computed under a chosen unit measure mu.  Between epochs the integral is
advanced with a Heun rule on a grid that equidistributes the continuous
variation of the driver.
"""

from __future__ import annotations

import itertools
import weakref

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
    ``cells_over_v_max`` counts the grid cells across which the driver's
    continuous part moves more than the solve's ``v_max``: cells too narrow
    for the float spacing of ``t`` to split further (0 for a path built by a
    caller).  A path from :func:`solve_limit` holds a weak reference to its
    driver (``_driver``), where the L1 score keeps its read-out plans; a path
    built by a caller has none.  ``_widths`` and ``_rises`` hold t1 - t0 and
    x1 - x0 of each cell of the doubled grid, 0 at its last entry.
    """

    def __init__(self, t, x_left, x, is_jump, domain, cells_over_v_max=0):
        self.t, self.x_left, self.x = (np.array(c, dtype=np.float64) for c in (t, x_left, x))
        self.is_jump = np.array(is_jump, dtype=bool)
        self.domain = (float(domain[0]), float(domain[1]))
        self.cells_over_v_max = int(cells_over_v_max)
        if not self.t.shape == self.x_left.shape == self.x.shape == self.is_jump.shape:
            raise ValueError("path columns must have one entry per time")
        if (self.t.ndim != 1 or self.t.size < 1 or not np.all(np.isfinite(self.t))
                or np.any(np.diff(self.t) <= 0.0)):
            raise ValueError("path times must be finite and strictly increasing")
        jumps = np.flatnonzero(self.is_jump)
        self._t_dbl = np.insert(self.t, jumps, self.t[jumps])
        self._x_dbl = np.insert(self.x, jumps, self.x_left[jumps])
        self._widths, self._rises = (np.subtract(np.append(d[1:], d[-1]), d)
                                     for d in (self._t_dbl, self._x_dbl))
        self._driver = None
        # read-only, so that no edit leaves the doubled grid or its cells stale
        for arr in _held_arrays(self):
            arr.setflags(write=False)

    def __reduce__(self):
        # rebuilt from its columns, read-only again; a weak reference does not
        # pickle, so a copy has no driver, like a built path
        return type(self), (self.t, self.x_left, self.x, self.is_jump, self.domain,
                            self.cells_over_v_max)

    def eval(self, t):
        """Right-continuous value at t (vectorized)."""
        a, b = self.domain
        arr = np.asarray(t, dtype=np.float64)
        if not np.all((arr >= a - 1e-12) & (arr <= b + 1e-12)):
            raise ValueError(f"times must lie in [{a!r}, {b!r}]")
        out = self._interp(*self._locate(np.clip(np.atleast_1d(arr), a, b)))
        return float(out[0]) if arr.ndim == 0 else out

    def _locate(self, tt):
        """Lower index into the doubled grid, and the fraction of its cell, of
        each time in tt, an array of any shape already in [a, b]:
        frac = (tt - t0) / dt where the cell has width, else 0."""
        td = self._t_dbl
        # the last entry at or before tt, or the first entry when none is
        i0 = np.searchsorted(td[1:], tt, side="right")
        t0 = np.take(td, i0)
        dt = np.take(self._widths, i0)
        np.subtract(tt, t0, out=t0)
        return i0, np.divide(t0, dt, out=np.zeros(dt.shape), where=dt > 0.0)

    def _interp(self, i0, frac):
        """x0 + frac (x1 - x0) at the cells _locate found, in place, in the
        formula's own order of operations."""
        x = np.take(self._rises, i0)
        x *= frac
        x += np.take(self._x_dbl, i0)
        return x

    def l1_norm(self) -> float:
        """Midpoint-rule integral of |x| over the domain on the stored grid."""
        mids = 0.5 * (self._x_dbl[:-1] + self._x_dbl[1:])
        return float(np.sum(np.abs(mids) * np.diff(self._t_dbl)))


def solve_limit(f: ScalarField, L: BVFunction, mu: JumpMeasure, x0: float,
                sample_times=None, v_max: float | None = None) -> LimitPath:
    """Solve the limit equation for driver L under jump measure mu.

    Between jump epochs the continuous Stieltjes equation is advanced by
    a Heun rule on a variation-equidistributed grid; at each epoch the
    state is replaced by the jump map of the frozen, jump-scaled
    coefficient.  ``sample_times`` adds report points to the grid, and the
    path counts the cells that move the driver more than ``v_max``.  The
    driver keeps the read-only path and the variation grid
    (``L._remember``), so a repeated solve is not run again, and a solve
    under another field or measure reuses the grid.  The path links back to
    the driver, which then keeps the L1 score's plans against it too.
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
        path = LimitPath(grid, xl, x, is_jump, (a, b),
                         np.count_nonzero(np.abs(np.diff(Lg)) > v_max))
        path._driver = weakref.ref(L)  # weak: the driver's memo keeps the path
        return path

    # looked up only after every check
    return L._remember(("limit", _Same(f), np.asarray(mu.atoms, dtype=np.float64).tobytes(),
                        np.asarray(mu.segments, dtype=np.float64).tobytes(), x_start.hex(),
                        extra.tobytes(), float(v_max).hex()), build)
