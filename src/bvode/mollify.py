"""Mollifier profiles and the step-size regime analysis built on them.

The solver smooths the driver with a one-sided kernel of width 1/n.  A
profile stores the base density rho on [0, 1]; the scaled kernel is
rho_n(s) = n*rho(n*s).  The tail mass function F_n and its generalized
inverse control how a step-h lattice resolves a jump, and probing
F_n(F_n_inv(u) - delta*h(n)) along an (n, h) schedule identifies the
limiting jump interpretation: identity limits mean the jump is traversed
as a continuous flow, indicator limits mean it is applied as a single
increment, and anything else selects a staircase measure in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .jumpmap import SigmaG

# values of MollifierProfile.code
PROFILE_UNIFORM = 0
PROFILE_TRIANGULAR = 1
PROFILE_TABLE = 2

DEFAULT_MESHES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)
DEFAULT_DELTAS = (0.1, 0.25, 0.5, 0.75, 0.9)
DEFAULT_U_PROBES = tuple(np.linspace(0.0, 1.0, 21).tolist())

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(points: int):
    if points not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(points)
        _GL_CACHE[points] = (x, w)
    return _GL_CACHE[points]


def _composite(fn, lo, hi, panels=64, points=32) -> float:
    """Composite Gauss-Legendre integral of a vectorized fn over [lo, hi]."""
    gx, gw = _gl(points)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    s = mid[:, None] + half[:, None] * gx[None, :]
    return float(np.sum(half[:, None] * gw[None, :] * fn(s)))


_M1 = np.arange(1.0, 5.0)            # m + 1 for m = 0..3
_M2 = _M1 + 1.0                       # m + 2
_HALF1 = 0.5 ** _M1
_HALF2 = 0.5 ** _M2


def _powers(y, first, last):
    """Stack y**first .. y**last along a new trailing axis."""
    out = np.repeat(y[..., None], last - first + 1, axis=-1)
    out[..., 0] = y ** first
    return np.cumprod(out, axis=-1)


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


class MollifierProfile:
    """One-sided mollifier: base density rho on [0, 1] with unit mass.

    ``code`` (one of the ``PROFILE_*`` values) selects the closed forms
    of rho, its tail and its incomplete moments; ``kinks`` lists
    interior points where rho is not smooth (the panels of
    ``convolution_rule`` split there); table profiles carry dense tail-mass and incomplete-moment
    tables on one grid for lookup.
    """

    def __init__(self, name, code, cnorm=1.0, kinks=(), table_x=None,
                 table_tail=None, table_moments=None, analytic=True):
        self.name = str(name)
        self.code = int(code)
        self.cnorm = float(cnorm)
        self.kinks = np.asarray(kinks, dtype=np.float64)
        self.table_x = (np.zeros(0) if table_x is None
                        else np.ascontiguousarray(table_x, dtype=np.float64))
        self.table_tail = (np.zeros(0) if table_tail is None
                           else np.ascontiguousarray(table_tail, dtype=np.float64))
        self.table_moments = (np.zeros((0, 4)) if table_moments is None
                              else np.ascontiguousarray(table_moments, dtype=np.float64))
        self.analytic = bool(analytic)
        self._rules: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        mass = _composite(self.rho, 0.0, 1.0)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"profile {self.name!r} has mass {mass!r}, expected 1")
        if np.any(self.rho(np.linspace(0.0, 1.0, 513)) < -1e-15):
            raise ValueError(f"profile {self.name!r} has negative density")

    def rho(self, s):
        """Base density, zero outside [0, 1]."""
        arr = np.asarray(s, dtype=np.float64)
        shape = arr.shape
        s = np.atleast_1d(arr).reshape(-1)
        out = np.zeros(s.shape)
        if self.code == PROFILE_UNIFORM:
            out[(s >= 0.0) & (s <= 1.0)] = 1.0
        elif self.code == PROFILE_TRIANGULAR:
            m = (s >= 0.0) & (s <= 0.5)
            out[m] = 4.0 * s[m]
            m = (s > 0.5) & (s <= 1.0)
            out[m] = 4.0 * (1.0 - s[m])
        else:
            m = (s > 0.0) & (s < 1.0)
            sm = s[m]
            out[m] = self.cnorm * np.exp(-1.0 / (sm * (1.0 - sm)))
        out = out.reshape(shape)
        return _scalar(out)

    def tail(self, y):
        """Tail mass: integral of rho over [y, 1]; 1 below 0, 0 above 1."""
        arr = np.asarray(y, dtype=np.float64)
        shape = arr.shape
        y = np.atleast_1d(arr).reshape(-1)
        if self.code == PROFILE_UNIFORM:
            out = np.clip(1.0 - y, 0.0, 1.0)
        elif self.code == PROFILE_TRIANGULAR:
            out = np.ones(y.shape)
            m = (y > 0.0) & (y <= 0.5)
            out[m] = 1.0 - 2.0 * y[m] * y[m]
            m = (y > 0.5) & (y < 1.0)
            out[m] = 2.0 * (1.0 - y[m]) ** 2
            out[y >= 1.0] = 0.0
        else:
            out = np.interp(y, self.table_x, self.table_tail)
        out = out.reshape(shape)
        return _scalar(out)

    def moments(self, y):
        """Incomplete moments I_m(y) = integral of rho(s) s^m over [0, y], m = 0..3.

        y is clipped to [0, 1]; the result has shape ``y.shape + (4,)``.
        Closed forms for the analytic profiles, linear interpolation of the
        moment table otherwise.
        """
        y = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
        if self.code == PROFILE_UNIFORM:
            return _powers(y, 1, 4) / _M1
        if self.code == PROFILE_TRIANGULAR:
            # 4 s on [0, 1/2] and 4 (1 - s) on [1/2, 1], integrated against s^m
            lo = _powers(np.minimum(y, 0.5), 2, 5)
            hi = _powers(np.maximum(y, 0.5), 1, 5)
            rise = 4.0 * lo / _M2
            fall = 4.0 * ((hi[..., :-1] - _HALF1) / _M1 - (hi[..., 1:] - _HALF2) / _M2)
            return rise + fall
        x = self.table_x
        j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)
        w = ((y - x[j]) / (x[j + 1] - x[j]))[..., None]
        return self.table_moments[j] * (1.0 - w) + self.table_moments[j + 1] * w

    def tail_inv(self, u):
        """Generalized inverse of the tail: sup{y : tail(y) = u}.

        Closed forms where the tail inverts analytically; otherwise
        bisection for the rightmost crossing, so density plateaus resolve
        to the supremum of the level set.  u = 0 maps to +inf because the
        tail vanishes on the whole half-line [1, inf).
        """
        arr = np.asarray(u, dtype=np.float64)
        shape = arr.shape
        u = np.atleast_1d(arr).reshape(-1)
        if np.any((u < -1e-12) | (u > 1.0 + 1e-12)):
            raise ValueError("tail_inv argument must lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        if self.code == PROFILE_UNIFORM:
            out = 1.0 - u
        elif self.code == PROFILE_TRIANGULAR:
            out = np.where(u >= 0.5, np.sqrt((1.0 - u) / 2.0),
                           1.0 - np.sqrt(u / 2.0))
        else:
            lo = np.zeros(u.shape)
            hi = np.ones_like(lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                ge = np.interp(mid, self.table_x, self.table_tail) >= u
                lo = np.where(ge, mid, lo)
                hi = np.where(ge, hi, mid)
            # table entries near y = 0 round to exactly 1, so pin the
            # rightmost-crossing search at the true inverse there
            out = np.where(u == 1.0, 0.0, lo)
        out = np.where(u == 0.0, np.inf, out)
        out = out.reshape(shape)
        return _scalar(out)

    def moment(self, k=1) -> float:
        """k-th moment of the base density."""
        return _composite(lambda s: s ** k * self.rho(s), 0.0, 1.0)

    def convolution_rule(self, n, points=16):
        """Quadrature (nodes, weights) for integrals against rho_n on [0, 1/n].

        Nodes live in [0, 1/n]; weights carry the density and are
        normalized to total mass one, so the rule is a convex average.
        """
        key = (int(n), int(points))
        if key not in self._rules:
            gx, gw = _gl(int(points))
            edges = np.concatenate(([0.0], np.sort(self.kinks), [1.0]))
            ys, ws = [], []
            for lo, hi in zip(edges[:-1], edges[1:]):
                if hi <= lo:
                    continue
                half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
                y = mid + half * gx
                ys.append(y)
                ws.append(half * gw * self.rho(y))
            y = np.concatenate(ys)
            w = np.concatenate(ws)
            self._rules[key] = (np.ascontiguousarray(y / int(n)),
                                np.ascontiguousarray(w / w.sum()))
        return self._rules[key]

    def __repr__(self) -> str:  # pragma: no cover
        return f"MollifierProfile({self.name!r})"


def _build_uniform() -> MollifierProfile:
    return MollifierProfile("uniform", PROFILE_UNIFORM)


def _build_triangular() -> MollifierProfile:
    return MollifierProfile("triangular", PROFILE_TRIANGULAR, kinks=(0.5,))


def _build_bump() -> MollifierProfile:
    def raw(s):
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros(np.broadcast(s).shape)
        m = (s > 0.0) & (s < 1.0)
        sm = s[m]
        out[m] = np.exp(-1.0 / (sm * (1.0 - sm)))
        return out

    cnorm = 1.0 / _composite(raw, 0.0, 1.0)
    # dense tables from one pass of per-cell Gauss sums: the mass of each
    # cell, accumulated from the right, is the tail; its moments s^0..s^3,
    # accumulated from the left, are I_0..I_3.  Linear interpolation error
    # is ~1e-9, well under the 1e-8 checks
    xs = np.linspace(0.0, 1.0, 2 ** 16 + 1)
    gx, gw = _gl(8)
    half = 0.5 * np.diff(xs)
    mid = 0.5 * (xs[:-1] + xs[1:])
    nodes = mid + half * gx[:, None]          # one column per cell
    weighted = half * gw[:, None] * cnorm * raw(nodes)
    cells = np.empty((4, xs.size - 1))
    for m in range(4):
        cells[m] = np.sum(weighted, axis=0)
        weighted *= nodes
    tail = np.concatenate((np.cumsum(cells[0, ::-1])[::-1], [0.0]))
    moments = np.concatenate((np.zeros((4, 1)), np.cumsum(cells, axis=1)), axis=1).T / tail[0]
    tail /= tail[0]
    return MollifierProfile("bump", PROFILE_TABLE, cnorm=cnorm, table_x=xs,
                            table_tail=tail, table_moments=moments, analytic=False)


_BUILDERS = {"uniform": _build_uniform, "triangular": _build_triangular,
             "bump": _build_bump}
_PROFILES: dict[str, MollifierProfile] = {}


def get_profile(name: str) -> MollifierProfile:
    """Return the shared profile instance for a built-in name."""
    key = str(name).lower()
    if key not in _BUILDERS:
        raise ValueError(f"unknown profile {name!r}; choose from "
                         f"{sorted(_BUILDERS)}")
    if key not in _PROFILES:
        _PROFILES[key] = _BUILDERS[key]()
    return _PROFILES[key]


@dataclass(frozen=True)
class Schedule:
    """Joint (n, h) refinement rule: mesh list plus a step rule h(n)."""

    meshes: tuple
    rule: object
    label: str = "custom"

    def __post_init__(self):
        meshes = tuple(int(n) for n in self.meshes)
        if len(meshes) < 1 or meshes[0] < 1 or any(
                b <= a for a, b in zip(meshes[:-1], meshes[1:])):
            raise ValueError("meshes must be strictly increasing positive integers")
        object.__setattr__(self, "meshes", meshes)
        hs = [self.h(n) for n in meshes]
        if len(hs) > 1 and hs[-1] > hs[0]:
            raise ValueError("step rule must shrink along the mesh sequence")

    def h(self, n) -> float:
        v = float(self.rule(int(n)))
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"step rule returned {v!r} at n={n}")
        return v

    @classmethod
    def power(cls, alpha, coef=1.0, meshes=DEFAULT_MESHES) -> "Schedule":
        """h(n) = coef * n**(-alpha)."""
        alpha, coef = float(alpha), float(coef)
        if alpha <= 0.0 or coef <= 0.0:
            raise ValueError("power rule needs alpha > 0 and coef > 0")
        return cls(tuple(meshes), lambda n: coef * float(n) ** -alpha,
                   label=f"h={coef:g}*n^-{alpha:g}")

    @classmethod
    def from_table(cls, table, label="table") -> "Schedule":
        """Explicit {n: h} pairs; meshes are the sorted keys."""
        tbl = {int(k): float(v) for k, v in dict(table).items()}

        def rule(n):
            if n not in tbl:
                raise ValueError(f"schedule table has no entry for n={n}")
            return tbl[n]

        return cls(tuple(sorted(tbl)), rule, label=label)


def F_n(profile: MollifierProfile, n: int, x):
    """Tail mass of the scaled kernel: integral of rho_n over [x, 1/n]."""
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
    return profile.tail(np.asarray(x, dtype=np.float64) * int(n))


def F_n_inv(profile: MollifierProfile, n: int, u):
    """Generalized inverse of F_n; +inf at u = 0."""
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
    return profile.tail_inv(u) / int(n)


def mollify_L(L, profile: MollifierProfile, n: int, t):
    """Smoothed driver L_n(t): convolution of L with the width-1/n kernel.

    Exact: on each polynomial piece of the continuous part inside the
    window the integral is a combination of the profile's incomplete
    moments (``MollifierProfile.moments``), and each jump contributes
    size * F_n(epoch - t).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = backend.driver_lattice_values(ts, int(n), profile, L)
    return _scalar(out[0] if np.ndim(t) == 0 else out)


def mollify_f(f, profile: MollifierProfile, n: int, t, x, points=16):
    """Smoothed coefficient: tensor-product average of f over the window.

    Both arguments are shifted by quadrature nodes in [0, 1/n]; since the
    rule is a convex average of window values, the result stays within
    lipschitz_const * sqrt(2)/n of f(t, x).
    """
    s, w = profile.convolution_rule(int(n), points)
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    tt = t[..., None, None] + s[:, None]
    xx = x[..., None, None] + s[None, :]
    return _scalar(np.einsum("...ij,i,j->...", f(tt, xx), w, w))


@dataclass(frozen=True)
class SigmaProbe:
    """Shift-probe trajectories F_n(F_n_inv(u) - delta*h(n)) along a schedule.

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

    def rows(self):
        """CSV rows (delta, u, n, value), delta-major, then u, then n."""
        cols = np.broadcast_arrays(np.asarray(self.delta)[..., None],
                                   np.asarray(self.u)[..., None],
                                   np.asarray(self.n_values), self.values)
        return zip(*(c.ravel().tolist() for c in cols))


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
    sigma carries the fitted staircase only for GeneralSigma.  evidence
    holds every raw (delta, u, n, value) sample.
    """

    verdict: str
    sigma: object
    deltas: tuple
    u_probes: np.ndarray
    limits: np.ndarray
    estimates: np.ndarray
    max_spread: float
    converged: np.ndarray
    evidence: list
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
    deltas = tuple(float(d) for d in deltas)
    us = np.asarray(DEFAULT_U_PROBES if u_probes is None else u_probes,
                    dtype=np.float64)
    probe = sigma_delta_limit(profile, sched, np.asarray(deltas)[:, None], us[None, :])
    limits = probe.limit
    conv = probe.converged
    evidence = list(probe.rows())
    estimates = limits.mean(axis=0)
    spread = limits.max(axis=0) - limits.min(axis=0)
    max_spread = float(spread.max())

    def report(verdict, sigma=None, detail=""):
        return RegimeReport(verdict, sigma, deltas, us, limits, estimates,
                            max_spread, conv, evidence, detail)

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
    last probe before the group (or the previous plateau's end).
    """
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
