"""Right-continuous bounded-variation driving signals.

A :class:`BVFunction` is a continuous piecewise-polynomial part (degree at
most three per segment) plus finitely many jumps at epochs inside ``(a, b]``.
Evaluation uses the constant extension ``L(t) = L(a)`` for ``t < a`` and
``L(t) = L(b)`` for ``t > b``, so windows that overrun the domain are well
defined.
"""

from __future__ import annotations

import numpy as np

_CONT_TOL = 1e-9
STEP_CAP = 10 ** 8


class StepLimitError(RuntimeError):
    """Raised when a run would need more steps or grid points than the cap allows."""


def _poly_eval(coefs, u):
    return ((coefs[3] * u + coefs[2]) * u + coefs[1]) * u + coefs[0]


def _stationary_points(coefs, lo, hi):
    """Real roots of the local derivative inside (lo, hi)."""
    c1, c2, c3 = coefs[1], 2.0 * coefs[2], 3.0 * coefs[3]
    roots = []
    if c3 == 0.0:
        if c2 != 0.0:
            roots.append(-c1 / c2)
    else:
        disc = c2 * c2 - 4.0 * c3 * c1
        if disc >= 0.0:
            r = np.sqrt(disc)
            roots.append((-c2 - r) / (2.0 * c3))
            roots.append((-c2 + r) / (2.0 * c3))
    return sorted(r for r in roots if lo < r < hi)


class BVFunction:
    """Bounded-variation driver: piecewise-cubic continuous part plus jumps."""

    def __init__(self, breakpoints, coefficients, jumps=()):
        breaks = np.asarray(breakpoints, dtype=np.float64)
        if breaks.ndim != 1 or breaks.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(breaks)):
            raise ValueError("breakpoints must be finite")
        if not np.all(np.diff(breaks) > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        rows = [np.atleast_1d(np.asarray(row, dtype=np.float64)) for row in coefficients]
        if len(rows) != breaks.size - 1 or any(r.ndim != 1 or r.size > 4 or r.size == 0
                                               for r in rows):
            raise ValueError("coefficients must have one row of <= 4 entries per segment")
        coefs = np.zeros((len(rows), 4), dtype=np.float64)
        for i, r in enumerate(rows):
            coefs[i, : r.size] = r
        if not np.all(np.isfinite(coefs)):
            raise ValueError("coefficients must be finite")
        for i in range(coefs.shape[0] - 1):
            end = _poly_eval(coefs[i], breaks[i + 1] - breaks[i])
            nxt = coefs[i + 1, 0]
            if abs(end - nxt) > _CONT_TOL * max(1.0, abs(end), abs(nxt)):
                raise ValueError(
                    f"continuous part breaks at t={breaks[i + 1]!r}: {end!r} vs {nxt!r}"
                )
        self.seg_breaks = breaks
        self.seg_coefs = np.ascontiguousarray(coefs)
        self.domain = (float(breaks[0]), float(breaks[-1]))

        merged: dict[float, float] = {}
        for epoch, size in jumps:
            epoch = float(epoch)
            size = float(size)
            if size == 0.0:
                raise ValueError(f"zero-size jump at t={epoch!r}")
            if not np.isfinite(size):
                raise ValueError(f"jump size {size!r} at t={epoch!r} is not finite")
            if not (self.domain[0] < epoch <= self.domain[1]):
                raise ValueError(f"jump epoch {epoch!r} outside ({self.domain[0]}, {self.domain[1]}]")
            merged[epoch] = merged.get(epoch, 0.0) + size
        epochs = np.array(sorted(e for e, s in merged.items() if s != 0.0), dtype=np.float64)
        self.jump_epochs = epochs
        self.jump_sizes = np.array([merged[e] for e in epochs], dtype=np.float64)
        self._jump_cum = np.concatenate(([0.0], np.cumsum(self.jump_sizes)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_segments(cls, breakpoints, coefficients, jumps=()) -> "BVFunction":
        return cls(breakpoints, coefficients, jumps)

    @classmethod
    def from_poly(cls, domain, poly_coefs, jumps=()) -> "BVFunction":
        """Single global polynomial sum(g_j t^j), degree at most three."""
        a, b = map(float, domain)
        g = np.zeros(4)
        poly_coefs = np.asarray(poly_coefs, dtype=np.float64)
        if poly_coefs.size > 4:
            raise ValueError("polynomial degree above three is not supported")
        g[: poly_coefs.size] = poly_coefs
        local = np.array([
            g[0] + g[1] * a + g[2] * a * a + g[3] * a ** 3,
            g[1] + 2.0 * g[2] * a + 3.0 * g[3] * a * a,
            g[2] + 3.0 * g[3] * a,
            g[3],
        ])
        return cls([a, b], local[None, :], jumps)

    @classmethod
    def constant(cls, domain, value=0.0, jumps=()) -> "BVFunction":
        return cls.from_poly(domain, [float(value)], jumps)

    @classmethod
    def step_function(cls, domain, jumps, base_value=0.0) -> "BVFunction":
        """Pure-jump driver on a constant base."""
        return cls.constant(domain, base_value, jumps)

    # -- basic queries -----------------------------------------------------

    @property
    def base_value(self) -> float:
        """L(a)."""
        return float(self.seg_coefs[0, 0])

    def continuous_value(self, t):
        """Continuous part only, with constant extension outside the domain."""
        t = np.asarray(t, dtype=np.float64)
        tt = np.clip(t, *self.domain)
        idx = np.clip(np.searchsorted(self.seg_breaks, tt, side="right") - 1,
                      0, self.seg_coefs.shape[0] - 1)
        u = tt - self.seg_breaks[idx]
        out = _poly_eval(np.moveaxis(self.seg_coefs[idx], -1, 0), u)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        tt = np.clip(t, *self.domain)
        njump = np.searchsorted(self.jump_epochs, tt, side="right")
        out = self.continuous_value(tt) + self._jump_cum[njump]
        return float(out) if np.ndim(out) == 0 else out

    def jump_at(self, t) -> float:
        """Jump size at t (0 when t is not an epoch)."""
        i = np.searchsorted(self.jump_epochs, float(t))
        if i < self.jump_epochs.size and self.jump_epochs[i] == float(t):
            return float(self.jump_sizes[i])
        return 0.0

    def left_limit(self, t) -> float:
        t = float(t)
        if t <= self.domain[0]:
            raise ValueError(f"left limit undefined at or before the left endpoint ({t!r})")
        return float(self(t)) - self.jump_at(t)

    def continuous_part(self) -> "BVFunction":
        return BVFunction(self.seg_breaks, self.seg_coefs)

    # -- variation ---------------------------------------------------------

    def _monotone_pieces(self, u, v):
        """Yield (coefficients, segment origin, e0, e1) for each monotone
        polynomial piece of the continuous part on [u, v]; e0 and e1 are
        local to the segment and split it at its stationary points."""
        for i in range(self.seg_coefs.shape[0]):
            lo = max(u, self.seg_breaks[i])
            hi = min(v, self.seg_breaks[i + 1])
            if hi <= lo:
                continue
            origin, coef = self.seg_breaks[i], self.seg_coefs[i]
            llo, lhi = lo - origin, hi - origin
            edges = [llo] + _stationary_points(coef, llo, lhi) + [lhi]
            for e0, e1 in zip(edges[:-1], edges[1:]):
                yield coef, origin, e0, e1

    def total_variation(self, u=None, v=None) -> float:
        """Variation over [u, v] (clamped to the domain): continuous
        variation via stationary points plus the absolute jump sizes in (u, v]."""
        a, b = self.domain
        u = a if u is None else float(u)
        v = b if v is None else float(v)
        if u > v:
            raise ValueError(f"total_variation needs u <= v, got {u!r} > {v!r}")
        u, v = max(u, a), min(v, b)
        if v <= u:
            return 0.0
        total = 0.0
        for coef, _, e0, e1 in self._monotone_pieces(u, v):
            total += abs(float(_poly_eval(coef, e1) - _poly_eval(coef, e0)))
        jl = np.searchsorted(self.jump_epochs, u, side="right")
        jr = np.searchsorted(self.jump_epochs, v, side="right")
        return total + float(np.sum(np.abs(self.jump_sizes[jl:jr])))

    def variation_steps(self, u: float, v: float, v_max: float) -> np.ndarray:
        """Grid over [u, v] whose cells each carry continuous variation <= v_max.

        On each monotone polynomial piece the cumulative variation from the left
        edge is |p(t) - p(e0)|, so cut points are located by bisection and every
        cell carries at most 0.85 * v_max exactly.  Raises StepLimitError when
        the cuts would exceed STEP_CAP.
        """
        if v_max <= 0.0:
            raise ValueError("v_max must be positive")
        if v < u:
            raise ValueError("need u <= v")
        pts = [u, v]
        v_eff = 0.85 * v_max
        cut = []
        for coef, origin, e0, e1 in self._monotone_pieces(u, v):
            pts.append(origin + e0)
            p0, p1 = _poly_eval(coef, e0), _poly_eval(coef, e1)
            var = abs(p1 - p0)
            if var > v_eff and e1 > e0:
                cut.append((coef, origin, e0, e1, p0, 1.0 if p1 > p0 else -1.0,
                            np.ceil(var / v_eff) - 1.0))
        n_total = sum(piece[-1] for piece in cut)
        if not n_total <= STEP_CAP:
            raise StepLimitError(f"variation grid needs {n_total:.6g} cuts, cap is {STEP_CAP}")
        for coef, origin, e0, e1, p0, sign, n_cuts in cut:
            goal = p0 + sign * v_eff * np.arange(1, int(n_cuts) + 1)
            t_lo = np.full(goal.size, e0)
            t_hi = np.full(goal.size, e1)
            for _ in range(60):
                mid = 0.5 * (t_lo + t_hi)
                below = sign * (_poly_eval(coef, mid) - goal) < 0.0
                t_lo = np.where(below, mid, t_lo)
                t_hi = np.where(below, t_hi, mid)
            pts.extend(origin + 0.5 * (t_lo + t_hi))
        grid = np.unique(np.asarray(pts, dtype=np.float64))
        return grid[(grid >= u) & (grid <= v)]

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BVFunction(domain={self.domain}, segments={self.seg_coefs.shape[0]}, "
                f"jumps={self.jump_epochs.size})")
