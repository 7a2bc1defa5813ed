"""Mollifier profiles and the step-size regime analysis built on them.

The solver smooths the driver with a one-sided kernel of width 1/n.  A
profile stores the base density rho on [0, 1]; the scaled kernel is
rho_n(s) = n*rho(n*s).  The tail mass function F_n and its generalized
inverse control how a step-h lattice resolves a jump, and probing
F_n(F_n^-1(u) - delta*h(n)) along an (n, h) schedule identifies the
limiting jump interpretation: identity limits mean the jump is traversed
as a continuous flow, indicator limits mean it is applied as a single
increment, and anything else selects a staircase measure in between.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .jumpmap import SigmaG, _scalar

DEFAULT_MESHES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
DEFAULT_DELTAS = (0.1, 0.25, 0.5, 0.75, 0.9)
DEFAULT_U_PROBES = tuple(np.linspace(0.0, 1.0, 21).tolist())

@functools.lru_cache(maxsize=None)
def _gl(points: int):
    return np.polynomial.legendre.leggauss(points)


def _gauss_panels(edges, points: int):
    """Gauss-Legendre nodes and weights on each panel between edges, one row per panel."""
    gx, gw = _gl(points)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return mid + half * gx, half * gw


def _bump(s):
    """Unnormalized bump density exp(-1 / (s (1 - s))) on (0, 1), zero elsewhere."""
    s = np.asarray(s, dtype=np.float64)
    m = (s > 0.0) & (s < 1.0)
    out = np.zeros(s.shape)
    np.multiply(s, 1.0 - s, out=out, where=m)
    with np.errstate(over="ignore"):  # a subnormal s gives -inf, whose exp is the limit 0
        np.divide(-1.0, out, out=out, where=m)
    return np.exp(out, out=out, where=m)


_M1 = np.arange(1.0, 5.0)            # m + 1 for m = 0..3
_M2 = _M1 + 1.0                       # m + 2
_HALF1 = 0.5 ** _M1
_HALF2 = 0.5 ** _M2


def _powers(y, first, last):
    """Stack y**first .. y**last along a new trailing axis."""
    out = np.repeat(y[..., None], last - first + 1, axis=-1)
    out[..., 0] = y ** first
    return np.cumprod(out, axis=-1)


def _not_nan(x, what):
    """x as a float64 array; a NaN anywhere in it is a ValueError naming ``what``."""
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError(f"{what} argument must not be NaN")
    return x


def _sharpness(n) -> int:
    """n as an int, which must be at least 1."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n


def _tolerance(tol) -> float:
    """tol as a float, which must be finite and positive."""
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    return tol


def _bisect(below, lo, hi):
    """60 rounds of vectorized bisection, keeping [mid, hi] where below(mid) holds."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = below(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return lo, hi


class MollifierProfile:
    """One-sided mollifier, built by name: base density rho on [0, 1] with unit mass.

    ``uniform`` and ``triangular`` have closed forms of rho, its tail and
    its incomplete moments; ``bump`` scales the one bump definition by
    ``cnorm`` and carries dense tail-mass and incomplete-moment tables on
    one grid for lookup.  ``kinks`` lists the interior points where rho is
    not smooth (the panels of ``convolution_rule`` split there).
    """

    def __init__(self, name):
        self.name = str(name).lower()
        if self.name not in _PROFILES:
            raise ValueError(f"unknown profile {name!r}; choose from {sorted(_PROFILES)}")
        self.kinks = np.array([0.5] if self.name == "triangular" else [])
        self._rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if self.name == "bump":
            s, w = _gauss_panels(np.linspace(0.0, 1.0, 65), 32)  # the bump's mass
            self.cnorm = 1.0 / float(np.sum(w * _bump(s)))
            # dense tables from per-cell Gauss sums: the mass of each cell,
            # accumulated from the right, is the tail; its moments s^0..s^3,
            # accumulated from the left, are I_0..I_3.  Linear interpolation error
            # is ~1e-9, well under the 1e-8 checks.  The nodes stay one column per
            # cell: _gauss_panels' one row per panel would have numpy add each
            # cell's 8 terms along the contiguous axis, in another order, and move
            # every bump output at rounding level.  The sums run in passes of
            # 2,048 cells, which keeps each cell's bits and the (8, cells) node
            # arrays small; the full-size cumulative sums below are freed
            # when the build ends, which leaves glibc's mmap threshold high
            # enough that the op path's arrays do not fault in fresh pages
            xs = np.linspace(0.0, 1.0, 2 ** 16 + 1)
            gx, gw = _gl(8)
            cells = np.empty((4, xs.size - 1))
            for lo in range(0, xs.size - 1, 2048):
                x = xs[lo:lo + 2049]
                half = 0.5 * np.diff(x)
                mid = 0.5 * (x[:-1] + x[1:])
                nodes = mid + half * gx[:, None]          # one column per cell
                weighted = half * gw[:, None] * self.cnorm * _bump(nodes)
                for m in range(4):
                    cells[m, lo:lo + 2048] = np.sum(weighted, axis=0)
                    weighted *= nodes
            tail = np.concatenate((np.cumsum(cells[0, ::-1])[::-1], [0.0]))
            moments = np.concatenate((np.zeros((4, 1)), np.cumsum(cells, axis=1)), axis=1).T
            # C order from the division itself: a copy after it would add 2 MB to peak RSS
            self.table_moments = np.divide(moments, tail[0], order="C")
            self.table_x, self.table_tail = xs, tail / tail[0]

    def rho(self, s):
        """Base density, zero outside [0, 1]; a NaN argument is a ValueError."""
        s = _not_nan(s, "rho")
        out = np.zeros(s.shape)
        if self.name == "uniform":
            out[(s >= 0.0) & (s <= 1.0)] = 1.0
        elif self.name == "triangular":
            m = (s >= 0.0) & (s <= 0.5)
            out[m] = 4.0 * s[m]
            m = (s > 0.5) & (s <= 1.0)
            out[m] = 4.0 * (1.0 - s[m])
        else:
            out = self.cnorm * _bump(s)
        return _scalar(out)

    def tail(self, y):
        """Tail mass: integral of rho over [y, 1]; 1 below 0, 0 above 1.  A NaN
        argument is a ValueError."""
        y = _not_nan(y, "tail")
        if self.name == "uniform":
            out = np.clip(1.0 - y, 0.0, 1.0)
        elif self.name == "triangular":
            out = np.ones(y.shape)
            m = (y > 0.0) & (y <= 0.5)
            out[m] = 1.0 - 2.0 * y[m] * y[m]
            m = (y > 0.5) & (y < 1.0)
            out[m] = 2.0 * (1.0 - y[m]) ** 2
            out[y >= 1.0] = 0.0
        else:
            out = np.interp(y, self.table_x, self.table_tail)
        return _scalar(out)

    def moments(self, y):
        """Incomplete moments I_m(y) = integral of rho(s) s^m over [0, y], m = 0..3.

        y is clipped to [0, 1]; the result has shape ``y.shape + (4,)``, and a
        NaN argument is a ValueError.  Closed forms for the analytic profiles,
        linear interpolation of the moment table otherwise.
        """
        y = np.clip(_not_nan(y, "moments"), 0.0, 1.0)
        if self.name == "uniform":
            return _powers(y, 1, 4) / _M1
        if self.name == "triangular":
            # 4 s on [0, 1/2] and 4 (1 - s) on [1/2, 1], integrated against s^m
            lo = _powers(np.minimum(y, 0.5), 2, 5)
            hi = _powers(np.maximum(y, 0.5), 1, 5)
            rise = 4.0 * lo / _M2
            fall = 4.0 * ((hi[..., :-1] - _HALF1) / _M1 - (hi[..., 1:] - _HALF2) / _M2)
            return rise + fall
        x = self.table_x
        j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)
        w = ((y - x[j]) / (x[j + 1] - x[j]))[..., None]
        tm = self.table_moments
        return np.take(tm, j, axis=0) * (1.0 - w) + np.take(tm, j + 1, axis=0) * w

    def tail_inv(self, u):
        """Generalized inverse of the tail: sup{y : tail(y) = u}.

        Closed forms where the tail inverts analytically; otherwise
        bisection for the rightmost crossing, so density plateaus resolve
        to the supremum of the level set.  u = 0 maps to +inf because the
        tail vanishes on the whole half-line [1, inf).
        """
        u = np.asarray(u, dtype=np.float64)
        if not np.all((u >= -1e-12) & (u <= 1.0 + 1e-12)):
            raise ValueError("tail_inv argument must lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        if self.name == "uniform":
            out = 1.0 - u
        elif self.name == "triangular":
            out = np.where(u >= 0.5, np.sqrt((1.0 - u) / 2.0),
                           1.0 - np.sqrt(u / 2.0))
        else:
            lo, _ = _bisect(lambda mid: np.interp(mid, self.table_x, self.table_tail) >= u,
                            np.zeros(u.shape), np.ones(u.shape))
            # table entries near y = 0 round to exactly 1, so pin the
            # rightmost-crossing search at the true inverse there
            out = np.where(u == 1.0, 0.0, lo)
        out = np.where(u == 0.0, np.inf, out)
        return _scalar(out)

    def convolution_rule(self, n):
        """Quadrature (nodes, weights) for integrals against rho_n on [0, 1/n].

        16 Gauss-Legendre points on each panel between the kinks.  Nodes
        live in [0, 1/n]; weights carry the density and are normalized to
        total mass one, so the rule is a convex average.
        """
        n = _sharpness(n)
        if n not in self._rules:
            y, w = _gauss_panels(np.concatenate(([0.0], self.kinks, [1.0])), 16)
            y, w = y.ravel(), (w * self.rho(y)).ravel()
            self._rules[n] = (np.ascontiguousarray(y / n), np.ascontiguousarray(w / w.sum()))
        return self._rules[n]

    def __repr__(self) -> str:  # pragma: no cover
        return f"MollifierProfile({self.name!r})"


# the shared instance of each profile name, built on first use
_PROFILES: dict[str, MollifierProfile | None] = dict.fromkeys(("uniform", "triangular", "bump"))


def get_profile(name: str) -> MollifierProfile:
    """Return the shared profile instance for a built-in name."""
    key = str(name).lower()
    if _PROFILES.get(key) is None:
        _PROFILES[key] = MollifierProfile(name)  # refuses an unknown name
    return _PROFILES[key]


def _mesh(n) -> int:
    """n as an int; a fraction, inf, nan or an int too large for a float is a ValueError."""
    try:
        if float(n).is_integer():
            return int(n)
    except OverflowError:
        raise ValueError(f"mesh of {int(n).bit_length()} bits is too large for a float") from None
    raise ValueError(f"non-integer mesh {n!r}")


def _meshes(meshes) -> tuple:
    """meshes as a tuple of ints, which must increase strictly from 1 up."""
    meshes = tuple(map(_mesh, meshes))
    if not meshes or meshes[0] < 1 or any(b <= a for a, b in zip(meshes[:-1], meshes[1:])):
        raise ValueError("meshes must be strictly increasing positive integers")
    return meshes


@dataclass(frozen=True)
class Schedule:
    """Joint (n, h) refinement as data: meshes, steps coef * n**-alpha or table[i] at meshes[i]."""

    meshes: tuple
    alpha: float | None = None
    coef: float = 1.0
    table: tuple | None = None

    def __post_init__(self):
        if self.table is None and not (self.alpha is not None and self.alpha > 0.0
                                       and self.coef > 0.0):
            raise ValueError("power rule needs alpha > 0 and coef > 0")
        if self.table is not None and (self.alpha is not None or self.coef != 1.0):
            raise ValueError("give either alpha and coef or table, not both")
        object.__setattr__(self, "meshes", _meshes(self.meshes))
        if self.table is not None and len(self.table) != len(self.meshes):
            raise ValueError(f"schedule table needs one step per mesh, got {len(self.table)} "
                             f"for {len(self.meshes)}")
        hs = [self.h(n) for n in self.meshes]
        if hs[-1] > hs[0]:
            raise ValueError("step rule must shrink along the mesh sequence")

    def h(self, n) -> float:
        if self.table is not None and n not in self.meshes:
            raise ValueError(f"schedule table has no entry for n={n}")
        v = (self.coef * float(n) ** -self.alpha if self.table is None
             else self.table[self.meshes.index(n)])
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"step rule returned {v!r} at n={n}")
        return v

    @classmethod
    def power(cls, alpha, coef=1.0, meshes=DEFAULT_MESHES) -> "Schedule":
        """h(n) = coef * n**(-alpha)."""
        return cls(tuple(meshes), float(alpha), float(coef))

    @classmethod
    def from_table(cls, table) -> "Schedule":
        """Explicit (n, h) pairs, a mapping or a sequence; meshes are the sorted n."""
        pairs = list(table.items() if hasattr(table, "items") else table)
        ns = [_mesh(n) for n, _ in pairs]
        if rep := [n for i, n in enumerate(ns) if n in ns[:i]]:
            raise ValueError(f"repeated mesh {rep[0]}")
        pairs = sorted(zip(ns, (float(h) for _, h in pairs)))
        return cls(tuple(n for n, _ in pairs), table=tuple(h for _, h in pairs))


def F_n(profile: MollifierProfile, n: int, x):
    """Tail mass of the scaled kernel: integral of rho_n over [x, 1/n]; a NaN x
    is a ValueError (from ``tail``)."""
    n = _sharpness(n)
    return profile.tail(np.asarray(x, dtype=np.float64) * n)


def mollify_L(L, profile: MollifierProfile, n: int, t):
    """Smoothed driver L_n(t): convolution of L with the width-1/n kernel.

    Exact: on each polynomial piece of the continuous part inside the
    window the integral is a combination of the profile's incomplete
    moments (``MollifierProfile.moments``), and each jump contributes
    size * F_n(epoch - t).  Times must be finite; L_n is L(a) where the
    window ends by a and L(b) from b on, so times are clipped to
    [a - 1, b], where no t - origin the lattice forms overflows.
    """
    n = _sharpness(n)
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not np.isfinite(ts).all():
        raise ValueError("times must be finite")
    a, b = L.domain
    out = backend.driver_lattice_values(np.clip(ts, a - 1.0, b), n, profile, L)
    return _scalar(out[0] if np.ndim(t) == 0 else out)


def mollify_f(f, profile: MollifierProfile, n: int, t, x):
    """Smoothed coefficient: tensor-product average of f over the window.

    Both arguments are shifted by quadrature nodes in [0, 1/n]; since the
    rule is a convex average of window values, the result stays within
    lipschitz_const * sqrt(2)/n of f(t, x).  Times and states must be finite.
    """
    s, w = profile.convolution_rule(n)
    t, x = np.broadcast_arrays(np.asarray(t, dtype=np.float64), np.asarray(x, dtype=np.float64))
    if not (np.isfinite(t).all() and np.isfinite(x).all()):
        raise ValueError("times and states must be finite")
    return _scalar(backend.window_mean(f, s, np.outer(w, w).ravel(), t, x))


@dataclass(frozen=True)
class SigmaProbe:
    """Shift-probe trajectories F_n(F_n^-1(u) - delta*h(n)) along a schedule.

    For scalar delta and u, ``values`` has one entry per mesh and the other
    fields are Python scalars.  For array arguments, ``values`` has shape
    ``broadcast(delta, u).shape + (len(n_values),)`` and ``limit``,
    ``tail_estimate`` and ``converged`` are arrays of the broadcast shape.
    """

    delta: object
    u: object
    n_values: tuple
    values: np.ndarray
    limit: object
    tail_estimate: object
    converged: object


def sigma_delta_limit(profile: MollifierProfile, sched: Schedule,
                      delta, u) -> SigmaProbe:
    """Probe the small-scale limit sigma(u) along the schedule.

    delta and u broadcast against each other; the tail inverse is taken
    once per u and the tail once on the whole (delta, u, n) array.  A
    probe's tail counts as contracting when, over the last three meshes,
    the two successive differences do not grow and the final one is below
    1e-3; with fewer than three meshes no probe converges.
    """
    d = np.asarray(delta, dtype=np.float64)
    uu = np.asarray(u, dtype=np.float64)
    if not np.all((0.0 < d) & (d < 1.0)):
        raise ValueError("delta must lie in (0, 1)")
    if not np.all((0.0 <= uu) & (uu <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    n = np.asarray(sched.meshes, dtype=np.float64)
    h = np.array([sched.h(m) for m in sched.meshes])
    y = np.asarray(profile.tail_inv(uu))[..., None]
    values = profile.tail((y / n - d[..., None] * h) * n)
    limit = values[..., -1]
    if n.size >= 3:
        d1 = np.abs(values[..., -2] - values[..., -3])
        tail_estimate = np.abs(limit - values[..., -2])
        converged = (tail_estimate <= d1) & (tail_estimate < 1e-3)
    else:
        tail_estimate = np.full(np.shape(limit), np.nan)
        converged = np.zeros(np.shape(limit), dtype=bool)
    if values.ndim > 1:
        return SigmaProbe(d, uu, sched.meshes, values, limit, tail_estimate, converged)
    return SigmaProbe(float(d), float(uu), sched.meshes, values, float(limit),
                      tail_estimate if n.size >= 3 else float("nan"), bool(converged))


@dataclass(frozen=True)
class RegimeReport:
    """Classifier output over the (delta, u) probe grid.

    verdict is one of Flow, Ito, GeneralSigma, DeltaDependent, NoLimit;
    sigma carries the fitted staircase only for GeneralSigma.  probe is
    the broadcast SigmaProbe over (deltas, u_probes) that the verdict was
    read from; its values hold every raw sample.
    """

    verdict: str
    sigma: object
    deltas: tuple
    u_probes: np.ndarray
    estimates: np.ndarray
    max_spread: float
    probe: SigmaProbe
    detail: str = ""


def classify_regime(profile: MollifierProfile, sched: Schedule,
                    deltas=DEFAULT_DELTAS, u_probes=None,
                    tol=5e-3) -> RegimeReport:
    """Decide which jump interpretation the (profile, schedule) pair selects.

    Precedence: non-contracting probes give NoLimit; limits that vary with
    delta beyond tol give DeltaDependent; otherwise the delta-averaged
    estimates are matched against the identity (Flow), the indicator of
    (0, 1] (Ito), and finally fitted as a staircase (GeneralSigma).
    """
    tol = _tolerance(tol)
    deltas = tuple(float(d) for d in deltas)
    us = np.asarray(DEFAULT_U_PROBES if u_probes is None else u_probes,
                    dtype=np.float64)
    for name, vals in (("deltas", deltas), ("u_probes", us)):
        if np.size(vals) == 0:
            raise ValueError(f"classify_regime needs at least one entry in {name}")
    probe = sigma_delta_limit(profile, sched, np.asarray(deltas)[:, None], us[None, :])
    limits, conv = probe.limit, probe.converged
    estimates = limits.mean(axis=0)
    spread = limits.max(axis=0) - limits.min(axis=0)
    max_spread = float(spread.max())

    def report(verdict, sigma=None, detail=""):
        return RegimeReport(verdict, sigma, deltas, us, estimates, max_spread, probe, detail)

    if not conv.all():
        bad = np.argwhere(~conv)[0]
        return report("NoLimit",
                      detail=f"probe delta={deltas[bad[0]]}, u={us[bad[1]]:g} "
                             f"is not contracting")
    if max_spread > tol:
        return report("DeltaDependent",
                      detail=f"max spread across delta {max_spread:.3g} > {tol:g}")
    if np.max(np.abs(estimates - us)) <= tol:
        return report("Flow", detail="limits match the identity")
    ito_target = np.where(us > 0.0, 1.0, 0.0)
    if np.max(np.abs(estimates - ito_target)) <= tol:
        return report("Ito", detail="limits match the indicator of (0, 1]")
    sigma = fit_sigma_from_probes(us, estimates, tol=tol)
    fit_err = float(np.max(np.abs(np.asarray(sigma(us)) - estimates)))
    return report("GeneralSigma", sigma=sigma,
                  detail=f"staircase fit max error {fit_err:.3g}")


def fit_sigma_from_probes(u, values, tol=1e-6) -> SigmaG:
    """Fit a staircase map to probe pairs (u_j, sigma(u_j)).

    Consecutive probes sharing a value above the identity form one
    plateau with right endpoint at that value; the left endpoint is the
    last probe before the group (or the previous plateau's end).  tol must
    be finite and positive.
    """
    tol = _tolerance(tol)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(u)
    u, v = u[order], v[order]
    intervals = []
    last_b = 0.0
    i = 0
    while i < u.size:
        if v[i] > u[i] + tol:
            j = i
            while (j + 1 < u.size and v[j + 1] > u[j + 1] + tol
                   and abs(v[j + 1] - v[i]) <= tol):
                j += 1
            b = min(1.0, float(np.mean(v[i:j + 1])))
            a = max(float(u[i - 1]) if i > 0 else 0.0, last_b)
            if b > a + 1e-12:
                intervals.append((a, b))
                last_b = b
            i = j + 1
        else:
            i += 1
    return SigmaG(intervals)
