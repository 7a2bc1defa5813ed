"""Right-continuous bounded-variation driving signals.

A :class:`BVFunction` is a continuous piecewise-polynomial part (degree at
most three per segment) plus finitely many jumps at epochs inside ``(a, b]``.
Evaluation uses the constant extension ``L(t) = L(a)`` for ``t < a`` and
``L(t) = L(b)`` for ``t > b``, so windows that overrun the domain are well
defined.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict

import numpy as np

_CONT_TOL = 1e-9
STEP_CAP = 10 ** 8
_CHUNK = 16384  # cuts solved together; bounds the root finder's temporaries
_MEMO_BYTES = 16 * 2 ** 20  # array bytes of the results one driver keeps


class StepLimitError(RuntimeError):
    """Raised when a run would need more steps or grid points than the cap allows."""


def _check_cap(need, cap, what: str, unit: str) -> None:
    """Raise StepLimitError unless need <= cap; a NaN need fails too.  An int
    need too large for a float is named by its power of two, not converted."""
    if not need <= cap:
        big = isinstance(need, int) and need.bit_length() > 1000
        count = f"2^{need.bit_length() - 1} or more" if big else f"{need:.6g}"
        raise StepLimitError(f"{what} needs {count} {unit}, cap is {cap}")


def _rising_roots(c, goal, lo, hi, t):
    """Roots of c(t) = goal for cubics c (one column each) rising on [lo, hi],
    from first guesses t inside the brackets; the roots overwrite t.

    Bracketed Newton (rtsafe, Numerical Recipes 9.4): a Newton step that
    leaves the bracket, or has no finite slope, is replaced by a bisection
    step.  A root is frozen once |c(t) - goal| is at most its rounding floor,
    2^-49 (|c0| + |c1| r + |c2| r^2 + |c3| r^3) with r = max(|lo|, |hi|):
    Horner's rule errs by up to 6 units of 2^-53 of that sum on the bracket,
    and rounding t to a float by up to 3 more.  Bisection alone reaches the
    floor within 60 iterations, the cap, unless the bracket is subnormal.
    Every update is elementwise, so a root does not depend on the other columns.
    """
    r = np.maximum(np.abs(lo), np.abs(hi))
    # rows: the cubic, its derivative (1, 2, 3 times c1..c3), the goal and the floor
    tab = np.vstack((c, c[1:] * [[1.0], [2.0], [3.0]], goal, _poly_eval(np.abs(c), r)))
    tab[8] *= 2.0 ** -49
    out = t
    live = np.arange(t.size)
    for _ in range(60):
        f = _poly_eval(tab[:4], t) - tab[7]
        done = np.abs(f) <= tab[8]
        if done.any():
            out[live[done]] = t[done]
            keep = ~done
            live, tab, t, f, lo, hi = live[keep], tab[:, keep], t[keep], f[keep], lo[keep], hi[keep]
            if not live.size:
                return out
        below = f < 0.0
        lo, hi = np.where(below, t, lo), np.where(below, hi, t)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = t - f / ((tab[6] * t + tab[5]) * t + tab[4])
        t = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    out[live] = t
    return out


class _Same:
    """Part of a memo key that matches only the object it holds, by identity."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other):
        return isinstance(other, _Same) and self.obj is other.obj

    def __hash__(self):
        return id(self.obj)


def _held_arrays(result):
    """The arrays a result holds: a tuple's items, or an object's attributes."""
    parts = result if isinstance(result, tuple) else vars(result).values()
    return [p for p in parts if isinstance(p, np.ndarray)]


def _sorted_unique(x):
    """np.unique of a 1-D float array, which sorts with the same default kind
    and keeps the first of each run of equal values; without its numpy.ma import."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _poly_eval(coefs, u):
    return ((coefs[3] * u + coefs[2]) * u + coefs[1]) * u + coefs[0]


def _stationary_points(coefs, lo, hi):
    """Real roots of the local derivative inside (lo, hi).

    Roots q / c3 and c1 / q, q = -(c2 + sign(c2) sqrt(disc)) / 2, do not
    cancel when c3 is small; Python floats overflow to inf without a warning.
    The coefficients are first divided by the power of two at the largest of
    them: the roots keep every bit (unless a scaled coefficient is subnormal),
    and disc can no longer overflow, or underflow to 0, at extreme scales.
    """
    g1, g2, g3 = float(coefs[1]), float(coefs[2]), float(coefs[3])
    e = math.frexp(max(abs(g1), abs(g2), abs(g3)))[1]
    c1, c2, c3 = math.ldexp(g1, -e), 2.0 * math.ldexp(g2, -e), 3.0 * math.ldexp(g3, -e)
    roots = []
    if c3 == 0.0:
        if c2 != 0.0:
            roots.append(-c1 / c2)
    else:
        disc = c2 * c2 - 4.0 * c3 * c1
        if disc >= 0.0:
            q = -(c2 + math.copysign(math.sqrt(disc), c2)) / 2.0
            roots.extend((q / c3, c1 / q) if q != 0.0 else (0.0,))
    return sorted(r for r in roots if lo < r < hi)


class BVFunction:
    """Bounded-variation driver: piecewise-cubic continuous part plus jumps."""

    def __init__(self, breakpoints, coefficients, jumps=()):
        breaks = np.array(breakpoints, dtype=np.float64)
        if breaks.ndim != 1 or breaks.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(breaks)):
            raise ValueError("breakpoints must be finite")
        with np.errstate(over="ignore"):
            widths = np.diff(breaks)
        if not np.all(widths > 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if not math.isfinite(float(breaks[-1]) - float(breaks[0])):  # bounds every width
            raise ValueError(f"breakpoints {float(breaks[0])!r} to {float(breaks[-1])!r} "
                             "span a width too large for a float")
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
            end = float(_poly_eval(coefs[i], breaks[i + 1] - breaks[i]))
            nxt = float(coefs[i + 1, 0])
            if abs(end - nxt) > _CONT_TOL * max(1.0, abs(end), abs(nxt)):
                raise ValueError(f"continuous part breaks at t={float(breaks[i + 1])!r}: "
                                 f"{end!r} vs {nxt!r}")
        self.seg_breaks, self.seg_coefs = breaks, coefs
        # evaluation pieces, piece p on [breaks[p - 1], breaks[p]) from _ext_origin[p]:
        # the constant L_c(a) left of a, segment i as piece i + 1, the constant L_c(b);
        # stored coefficient-major, (4, S + 2), so each coefficient is one contiguous gather
        right = _poly_eval(coefs[-1], breaks[-1] - breaks[-2])
        self._ext_coefs = np.ascontiguousarray(
            np.vstack(([coefs[0, 0], 0.0, 0.0, 0.0], coefs, [right, 0.0, 0.0, 0.0])).T)
        self._ext_origin = np.concatenate((breaks[:1], breaks[:-1], breaks[-1:]))
        # monotone pieces of the continuous part: segment, local start and end;
        # a segment's last piece ends at +inf, so it reaches every window on it
        table = np.array([
            (i, e0, e1) for i, (coef, h) in enumerate(zip(coefs, np.diff(breaks)))
            for e0, e1 in itertools.pairwise([0.0, *_stationary_points(coef, 0.0, h), np.inf])]).T
        self._piece_seg, self._piece_ends = table[0].astype(np.intp), table[1:]
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
        # read-only, so that no edit leaves the derived tables, or a kept result, stale
        for arr in _held_arrays(self):
            arr.setflags(write=False)
        self._memo: OrderedDict = OrderedDict()  # key -> (result, bytes), least recent first
        self._memo_bytes = 0

    def _remember(self, key, build):
        """build()'s result, kept on this driver so that a call with an equal key
        gets it back instead of building it again.

        The arrays the result holds are made read-only.  The driver keeps the
        most recently used results whose arrays fit in _MEMO_BYTES; a result
        larger than that is returned and not kept.  When the kept bytes pass
        the budget, the L1 score's read-out plans (keys starting "plan") go
        first, least recently used first, and then the other results in the
        same order: a plan costs less to rebuild than a fan.  Keys compare
        floats by their bits, and fields and profiles by identity (_Same).
        """
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key][0]
        result = build()
        size = 0
        for arr in _held_arrays(result):
            arr.setflags(write=False)
            size += arr.nbytes
        if size <= _MEMO_BYTES:
            memo[key] = result, size
            self._memo_bytes += size
        while self._memo_bytes > _MEMO_BYTES:
            victim = next((k for k in memo if k[0] == "plan"), next(iter(memo)))
            self._memo_bytes -= memo.pop(victim)[1]
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_segments(cls, breakpoints, coefficients, jumps=()) -> "BVFunction":
        return cls(breakpoints, coefficients, jumps)

    # -- basic queries -----------------------------------------------------

    def continuous_value(self, t):
        """Continuous part only, with constant extension outside the domain
        (also at +-inf); a NaN time is a ValueError."""
        tt = self._clipped(t)
        # b itself reads the last segment, so L_c(b) keeps its own sign of zero
        p = np.searchsorted(self.seg_breaks[:-1], tt, side="right")
        u = tt - np.take(self._ext_origin, p)
        out = _poly_eval([np.take(c, p) for c in self._ext_coefs], u)
        return float(out) if np.ndim(out) == 0 else out

    def _clipped(self, t):
        """t clipped to the domain, after refusing NaN."""
        t = np.asarray(t, dtype=np.float64)
        if np.isnan(t).any():
            raise ValueError("times must not be NaN")
        return np.clip(t, *self.domain)

    def __call__(self, t):
        """L(t), with constant extension outside the domain (also at +-inf);
        a NaN time is a ValueError."""
        tt = self._clipped(t)
        njump = np.searchsorted(self.jump_epochs, tt, side="right")
        out = self.continuous_value(tt) + np.take(self._jump_cum, njump)
        return float(out) if np.ndim(out) == 0 else out

    def jump_at(self, t) -> float:
        """Jump size at t (0 when t is not an epoch); a NaN time is a ValueError."""
        t = float(t)
        if math.isnan(t):
            raise ValueError("times must not be NaN")
        i = np.searchsorted(self.jump_epochs, t)
        if i < self.jump_epochs.size and self.jump_epochs[i] == t:
            return float(self.jump_sizes[i])
        return 0.0

    def continuous_part(self) -> "BVFunction":
        return BVFunction(self.seg_breaks, self.seg_coefs)

    # -- variation ---------------------------------------------------------

    def _clip_pieces(self, us, vs):
        """(window, segment, ends) of each monotone piece met by a window [us[w], vs[w]];
        ends[0] and ends[1] are local to the segment and clipped to the window."""
        seg, (t0, t1) = self._piece_seg, self._piece_ends
        b0 = self.seg_breaks[seg]
        lo, hi = np.maximum(us[:, None], b0), np.minimum(vs[:, None], self.seg_breaks[seg + 1])
        llo, lhi = lo - b0, hi - b0
        # the piece holding llo starts by it, even where llo rounds up to lhi
        w, k = np.nonzero((hi > lo) & (t1 > llo) & ((t0 <= llo) | (t0 < lhi)))
        return w, seg[k], np.minimum(np.maximum(self._piece_ends[:, k], llo[w, k]), lhi[w, k])

    def total_variation(self, u=None, v=None) -> float:
        """Variation over [u, v] (clamped to the domain): continuous
        variation via stationary points plus the absolute jump sizes in (u, v]."""
        a, b = self.domain
        u = a if u is None else float(u)
        v = b if v is None else float(v)
        if not u <= v:
            raise ValueError(f"total_variation needs u <= v, got u={u!r}, v={v!r}")
        u, v = max(u, a), min(v, b)
        if v <= u:
            return 0.0
        jl = np.searchsorted(self.jump_epochs, u, side="right")
        jr = np.searchsorted(self.jump_epochs, v, side="right")
        return self._continuous_variation(u, v) + float(np.sum(np.abs(self.jump_sizes[jl:jr])))

    def _continuous_variation(self, u, v) -> float:
        """Variation of the continuous part over [u, v], a <= u < v <= b."""
        _, seg, ends = self._clip_pieces(np.array([u]), np.array([v]))
        p0, p1 = _poly_eval(self.seg_coefs[seg].T[:, None], ends)
        return float(np.cumsum(np.abs(p1 - p0))[-1])  # summed left to right

    def variation_steps(self, u: float, v: float, v_max: float) -> np.ndarray:
        """Grid over [u, v] whose cells each carry continuous variation <= v_max.

        On each monotone polynomial piece the cumulative variation from the left
        edge is |p(t) - p(e0)|, so cut m is a root of p(t) = p(e0) +- m * 0.85 *
        v_max (m = 1, 2, ...), found by bracketed Newton to the rounding floor of p,
        and every cell carries 0.85 * v_max up to that floor.  Raises
        StepLimitError when the cuts would exceed STEP_CAP.
        """
        if not v_max > 0.0:
            raise ValueError("v_max must be positive")
        if not u <= v:
            raise ValueError("need u <= v")
        return self._variation_grid(np.array([u, v], dtype=np.float64), v_max)

    def _variation_grid(self, edges, v_max) -> np.ndarray:
        """Sorted union of the variation_steps grids of the windows between
        consecutive ``edges``; the cuts of all windows are solved together,
        _CHUNK at a time, and counted against STEP_CAP before any is made."""
        us, vs = edges[:-1], edges[1:]
        w, seg, ends = self._clip_pieces(us, vs)
        origin, coef = self.seg_breaks[seg], self.seg_coefs[seg].T
        starts = origin + ends[0]
        pts = [us, vs, starts[(starts >= us[w]) & (starts <= vs[w])]]
        p0, p1 = _poly_eval(coef[:, None], ends)
        var, v_eff = np.abs(p1 - p0), 0.85 * v_max
        cut = np.flatnonzero((var > v_eff) & (ends[1] > ends[0]))
        n_cuts = np.ceil(var[cut] / v_eff) - 1.0
        n_total = n_cuts.sum()
        _check_cap(n_total, STEP_CAP, "variation grid", "cuts")
        last = np.cumsum(n_cuts)
        for s in range(0, int(n_total), _CHUNK):
            i = np.arange(s, min(s + _CHUNK, int(n_total)))
            j = np.searchsorted(last, i, side="right")
            k = cut[j]
            # a falling piece is negated, so that every cubic rises through its goal;
            # each cut starts from the root of its piece's chord
            sign, rise = np.sign(p1[k] - p0[k]), v_eff * (i - last[j] + n_cuts[j] + 1.0)
            e0, e1 = ends[0, k], ends[1, k]
            t = _rising_roots(coef[:, k] * sign, p0[k] * sign + rise, e0, e1,
                              e0 + (e1 - e0) * (rise / var[k]))
            t += origin[k]
            pts.append(t[(t >= us[w[k]]) & (t <= vs[w[k]])])
        return _sorted_unique(np.concatenate(pts))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BVFunction(domain={self.domain}, segments={self.seg_coefs.shape[0]}, "
                f"jumps={self.jump_epochs.size})")
