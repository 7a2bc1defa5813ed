"""Scalar references the tests compare the vectorized package code against.

The serial kernels below (field evaluation by kind over five packed
parameter slots, the per-offset Euler recursion, the kink-aligned RK4 jump
flow and the Heun steps) are the loops the package ran before each field
got its own evaluator and the Euler recursion stepped the whole fan;
:func:`euler_exact_offset` is the per-offset entry point that chose
between the affine scan and the serial recursion.  The RK4 flow, with the
kinks from :func:`kinks`, is also the reference for the exact per-kind
flows of :func:`bvode.backend.flow_mass`.

The package evaluates L_n exactly from incomplete moments
(:func:`bvode.backend.driver_lattice_values`).  This module keeps the scalar
loop it replaced, which convolves the base density with the continuous part
by Gauss-Legendre quadrature and sums tail masses for the jumps.  It also
keeps the serial mollified-coefficient recursion that
:func:`bvode.backend.euler_mollified` replaced, and the per-probe
shift-probe loop that the broadcast :func:`bvode.mollify.sigma_delta_limit`
replaced.

The profile's references are its tail inverse with the table bisection
written out (:func:`tail_inv`) and its panel-by-panel quadrature rule
(:func:`convolution_rule`), both replaced by helpers the package shares,
:class:`CodeProfile`, the methods keyed by a profile code that the
name-keyed :class:`bvode.MollifierProfile` replaced (with the bump's
builder, :func:`bump_tables`, which sums all the table's cells in one pass
where the profile sums them in passes of 2,048), and :func:`power_limit`,
the closed-form probe limit of a power schedule.

The CLI's tables have as reference the value-by-value CSV writer
(:func:`_write_csv`) and the row builders the result classes and handlers
carried before :mod:`bvode.cli` laid every table out from columns:
:func:`grid_rows`, :func:`limit_path_rows`, :func:`probe_rows`,
:func:`study_rows` and :func:`jumpmap_rows`.

The fields' references are the per-kind code that the one ``_KINDS``
table of :mod:`bvode.fields` replaced: the evaluator chain
(:func:`evaluator`), the kind names (:data:`KIND_NAMES`) and the
branch-per-kind :func:`scaled_frozen`.

The jump map's reference is :func:`phi_solve`, the walk that summed
every stretch's Lebesgue mass over all segments, which the one forward
pass of :func:`bvode.phi_solve` replaced; the row builders below run it.
The staircase map's is :func:`sigma_value`, the numpy read that
``SigmaG.__call__`` now keeps for arrays only, a float being bisected in
plain Python.  :func:`heun_steps` is the Heun loop that let a numpy-scalar
field value make the state a numpy scalar, which
:func:`bvode.backend.heun_path` replaced with Python floats.

The limit layer's exact reference is :func:`exact_limit`, the flow
representation of the solution for an autonomous field under the Lebesgue
and dirac(0) jump measures.  Its other references are the
segment-by-segment variation walk (:func:`total_variation`,
:func:`variation_steps`), the monotone-piece walk that followed it
(:func:`monotone_pieces`, with its piece-by-piece sum
:func:`piece_total_variation`), both replaced by the piece table that
:class:`bvode.BVFunction` builds once and clips to every window, and the
per-point row builder of the limit solve with the per-row doubled arrays
of its path (:func:`limit_rows`, :func:`limit_columns`) that the
column-wise :func:`bvode.solve_limit` and :class:`bvode.LimitPath`
replaced.  The walks call the package's stationary points;
:func:`stationary_points` is the textbook quadratic formula those
replaced, which cancels when the cubic coefficient is small.

The offset fan's references are the per-offset step count
(:func:`step_count`) that ``bvode.scheme._offset_fan`` derives from offset
0's count, the per-offset lattice fill (:func:`fan_increments`) that the
one padded lattice call of ``bvode.scheme._fan`` replaced, and the
per-offset crossing grids (:func:`crossing_grid`, clamped value by value)
with the staircase gaps summed one offset at a time (:func:`sigma_n_gaps`)
that the ``(J, p + 3)`` crossing array of :func:`bvode.sigma_n_check`
replaced, that array made in one expression over the whole fan
(:func:`crossing_fractions`), which ``bvode.scheme._crossing_fractions``
now fills in blocks of rows, and the per-offset L1 score on each offset's
own union grid (:func:`l1_distance`) that the blocked
:func:`bvode.l1_distance` replaced.  :func:`l1_blocked` is that blocked score as it was before it
split into a read-out plan, which the driver keeps, and a value pass: each
block merges, reads and masks its cells afresh on every call.  :func:`euler_exact_offset` is also the reference for the
blocked affine scan of :func:`bvode.backend.euler_exact`.  That scan and
the lattice read flat stretches of a driver without arithmetic; their
references are the two as they were before, every column scanned
(:func:`euler_full_scan`) and every window's last piece expanded, every
breakpoint inside a window visited (:func:`lattice_expanded`).

The gate path's table reads have as references the fancy-index reads that
one contiguous ``np.take`` per table replaced: the Taylor read of the
piece-major ``(S + 2, 4)`` piece table (:func:`taylor`) and the
continuous part read from it (:func:`continuous_value`), the bump's
moment-table rows (:func:`table_moments`), the broadcast 2-D
``GridPath`` read (:func:`grid_eval`) and ``LimitPath``'s range-checked
read (:func:`limit_interp`).
"""

import functools
import math
import os

import numpy as np

from bvode import backend
from bvode.drivers import STEP_CAP, StepLimitError, _poly_eval, _stationary_points
from bvode.fields import FIELD_AFFINE, FIELD_CONST, FIELD_RAMP, FIELD_SIN, FIELD_TANH, ScalarField
from bvode.jumpmap import XiGrid, measure_from_sigma, phi_explicit_ramp, ramp_z
from bvode.mollify import (_HALF1, _HALF2, _M1, _M2, F_n, F_n_inv, SigmaProbe, _bisect, _bump,
                           _gauss_panels, _gl, _powers, _scalar)


def pack(field):
    """A field's parameters in the five slots the serial kernels read."""
    buf = np.zeros(5, dtype=np.float64)
    buf[: len(field.params)] = field.params
    return buf


def field_value(kind, p, t, x):
    if kind == FIELD_CONST:
        return p[0]
    if kind == FIELD_AFFINE:
        return p[0] + p[1] * x
    if kind == FIELD_RAMP:
        if x <= p[0]:
            return p[2]
        d = x - p[0]
        if d >= p[1]:
            return 0.0
        return p[2] * (1.0 - d / p[1])
    if kind == FIELD_SIN:
        return p[0] * np.sin(p[1] * x + p[2] * t + p[3]) + p[4]
    return p[0] * np.tanh(p[1] * x) + p[2]


def evaluator(kind, params):
    """f(t, x) of one field kind, on floats or on arrays (t and x not broadcast)."""
    if kind == FIELD_CONST:
        (c,) = params
        return lambda t, x: c
    if kind == FIELD_AFFINE:
        a, b = params
        return lambda t, x: a + b * x
    if kind == FIELD_RAMP:
        top, width, height = params

        def ramp(t, x):
            if isinstance(x, float):
                if x <= top:
                    return height
                d = x - top
                return 0.0 if d >= width else height * (1.0 - d / width)
            d = x - top
            return np.where(d <= 0.0, height,
                            np.where(d >= width, 0.0, height * (1.0 - d / width)))
        return ramp
    if kind == FIELD_SIN:
        amp, wx, wt, phase, off = params
        return lambda t, x: amp * np.sin(wx * x + wt * t + phase) + off
    amp, slope, off = params
    return lambda t, x: amp * np.tanh(slope * x) + off


KIND_NAMES = {
    FIELD_CONST: "constant",
    FIELD_AFFINE: "affine",
    FIELD_RAMP: "ramp",
    FIELD_SIN: "sin",
    FIELD_TANH: "tanh",
}


def scaled_frozen(field, t0, scale):
    """The autonomous field x -> scale * f(t0, x), one branch per kind."""
    t0 = float(t0)
    scale = float(scale)
    p = field.params
    tag = f"{scale:g}*{field.name}@t={t0:g}"
    if field.kind == FIELD_CONST:
        return ScalarField(FIELD_CONST, (scale * p[0],), 0.0, abs(scale) * field.growth_const, tag)
    if field.kind == FIELD_AFFINE:
        return ScalarField(
            FIELD_AFFINE, (scale * p[0], scale * p[1]),
            abs(scale) * field.lipschitz_const, abs(scale) * field.growth_const, tag,
        )
    if field.kind == FIELD_RAMP:
        return ScalarField(
            FIELD_RAMP, (p[0], p[1], scale * p[2]),
            abs(scale) * field.lipschitz_const, abs(scale) * field.growth_const, tag,
        )
    if field.kind == FIELD_SIN:
        return ScalarField(
            FIELD_SIN, (scale * p[0], p[1], 0.0, p[2] * t0 + p[3], scale * p[4]),
            abs(scale * p[0] * p[1]), abs(scale) * field.growth_const, tag,
        )
    return ScalarField(
        FIELD_TANH, (scale * p[0], p[1], scale * p[2]),
        abs(scale) * field.lipschitz_const, abs(scale) * field.growth_const, tag,
    )


def euler_exact(kind, p, tau, h, dLn, x0):
    K = dLn.size
    x = np.empty(K + 1)
    x[0] = x0
    cur = x0
    for k in range(K):
        cur = cur + field_value(kind, p, tau + k * h, cur) * dLn[k]
        x[k + 1] = cur
    return x


def kinks(field):
    """x-values where a field is not smooth, which the RK4 flow steps onto."""
    if field.kind == FIELD_RAMP:
        return np.array([field.params[0], field.params[0] + field.params[1]])
    return np.empty(0)


def _rk4_step(kind, p, x, dm):
    k1 = field_value(kind, p, 0.0, x)
    k2 = field_value(kind, p, 0.0, x + 0.5 * dm * k1)
    k3 = field_value(kind, p, 0.0, x + 0.5 * dm * k2)
    k4 = field_value(kind, p, 0.0, x + dm * k3)
    return x + (dm / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_mass(kind, p, x, mass, substep, kinks):
    """Integrate dphi/dm = z(phi) over Lebesgue mass ``mass``.

    Steps are realigned to land exactly on declared x-kinks of z so that
    the integrator never straddles a derivative discontinuity.
    """
    if mass <= 0.0:
        return x
    cur = x
    rem = mass
    while rem > 1e-15:
        dm = substep if substep < rem else rem
        nxt = _rk4_step(kind, p, cur, dm)
        lo = cur if cur < nxt else nxt
        hi = cur if cur > nxt else nxt
        cross = np.nan
        for kk in range(kinks.size):
            v = kinks[kk]
            if lo < v < hi:
                if cross != cross:
                    cross = v
                elif cur < nxt:
                    if v < cross:
                        cross = v
                else:
                    if v > cross:
                        cross = v
        if cross == cross:
            a = 0.0
            b = dm
            for _ in range(60):
                mid = 0.5 * (a + b)
                xm = _rk4_step(kind, p, cur, mid)
                if (cur < nxt and xm < cross) or (cur > nxt and xm > cross):
                    a = mid
                else:
                    b = mid
            cur = cross
            rem -= 0.5 * (a + b)
        else:
            cur = nxt
            rem -= dm
    return cur


def heun_path(kind, p, sg, Lg, x0):
    """Predictor-corrector path for dx = f(s, x) dL along grid sg."""
    npts = sg.size
    x = np.empty(npts)
    x[0] = x0
    cur = x0
    for i in range(npts - 1):
        dL = Lg[i + 1] - Lg[i]
        f0 = field_value(kind, p, sg[i], cur)
        pred = cur + f0 * dL
        f1 = field_value(kind, p, sg[i + 1], pred)
        cur = cur + 0.5 * (f0 + f1) * dL
        x[i + 1] = cur
    return x


def heun_steps(field, s_grid, L_grid, x0):
    """Heun steps through the field's reference evaluator, indexing both
    grids as Python lists; a tanh or sin field keeps the state a numpy scalar."""
    f = evaluator(field.kind, field.params)
    s = np.asarray(s_grid, dtype=np.float64).tolist()
    L = np.asarray(L_grid, dtype=np.float64).tolist()
    cur = float(x0)
    x = [cur]
    for i in range(len(s) - 1):
        dL = L[i + 1] - L[i]
        f0 = f(s[i], cur)
        pred = cur + f0 * dL
        cur = cur + 0.5 * (f0 + f(s[i + 1], pred)) * dL
        x.append(cur)
    return np.array(x, dtype=np.float64)


def euler_exact_offset(field, tau, h, dLn, x0):
    """One offset's exact recursion as the package ran it before the fan form:
    closed-form scan for fields affine in x, the serial kernel otherwise."""
    dLn = np.ascontiguousarray(dLn, dtype=np.float64)
    kind, p = field.kind, pack(field)
    K = dLn.size
    if kind == FIELD_CONST:
        x = np.empty(K + 1)
        x[0] = x0
        np.cumsum(p[0] * dLn, out=x[1:])
        x[1:] += x0
        return x
    if kind == FIELD_AFFINE:
        A = 1.0 + p[1] * dLn
        if K == 0:
            return np.full(1, float(x0))
        if np.min(np.abs(A)) > 1e-12:
            P = np.cumprod(A)
            if np.all(np.isfinite(P)) and np.min(np.abs(P)) > 1e-290 and np.max(np.abs(P)) < 1e290:
                S = np.cumsum(p[0] * dLn / P)
                x = np.empty(K + 1)
                x[0] = x0
                x[1:] = P * (x0 + S)
                return x
    return euler_exact(kind, p, tau, h, dLn, x0)


# MollifierProfile.code of each profile name, from when a profile was built from a code
PROFILE_UNIFORM, PROFILE_TRIANGULAR, PROFILE_TABLE = 0, 1, 2
PROFILE_CODES = {"uniform": PROFILE_UNIFORM, "triangular": PROFILE_TRIANGULAR,
                 "bump": PROFILE_TABLE}


@functools.lru_cache(maxsize=None)
def bump_tables():
    """The bump's cnorm, grid, tail table and moment table, as its builder made them."""
    s, w = _gauss_panels(np.linspace(0.0, 1.0, 65), 32)
    cnorm = 1.0 / float(np.sum(w * _bump(s)))
    xs = np.linspace(0.0, 1.0, 2 ** 16 + 1)
    gx, gw = _gl(8)
    half = 0.5 * np.diff(xs)
    mid = 0.5 * (xs[:-1] + xs[1:])
    nodes = mid + half * gx[:, None]
    weighted = half * gw[:, None] * cnorm * _bump(nodes)
    cells = np.empty((4, xs.size - 1))
    for m in range(4):
        cells[m] = np.sum(weighted, axis=0)
        weighted *= nodes
    tail = np.concatenate((np.cumsum(cells[0, ::-1])[::-1], [0.0]))
    moments = np.concatenate((np.zeros((4, 1)), np.cumsum(cells, axis=1)), axis=1).T / tail[0]
    tail /= tail[0]
    return cnorm, xs, tail, np.ascontiguousarray(moments)


class CodeProfile:
    """The MollifierProfile methods keyed by ``code``, as they were when a
    caller could build a profile from a code, kinks and tables.

    Built from a profile name: its code, its kinks, and for the bump the
    ``cnorm`` and tables of :func:`bump_tables` (1 and empty tables for the
    others, the defaults the constructor had).
    """

    def __init__(self, name):
        self.code = PROFILE_CODES[name]
        self.kinks = np.asarray((0.5,) if self.code == PROFILE_TRIANGULAR else (), dtype=np.float64)
        self.cnorm, self.table_x, self.table_tail = 1.0, np.zeros(0), np.zeros(0)
        self.table_moments = np.zeros((0, 4))
        if self.code == PROFILE_TABLE:
            self.cnorm, self.table_x, self.table_tail, self.table_moments = bump_tables()

    def rho(self, s):
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros(s.shape)
        if self.code == PROFILE_UNIFORM:
            out[(s >= 0.0) & (s <= 1.0)] = 1.0
        elif self.code == PROFILE_TRIANGULAR:
            m = (s >= 0.0) & (s <= 0.5)
            out[m] = 4.0 * s[m]
            m = (s > 0.5) & (s <= 1.0)
            out[m] = 4.0 * (1.0 - s[m])
        else:
            out = self.cnorm * _bump(s)
        return _scalar(out)

    def tail(self, y):
        y = np.asarray(y, dtype=np.float64)
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
        return _scalar(out)

    def moments(self, y):
        y = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
        if self.code == PROFILE_UNIFORM:
            return _powers(y, 1, 4) / _M1
        if self.code == PROFILE_TRIANGULAR:
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
        u = np.asarray(u, dtype=np.float64)
        if not np.all((u >= -1e-12) & (u <= 1.0 + 1e-12)):
            raise ValueError("tail_inv argument must lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        if self.code == PROFILE_UNIFORM:
            out = 1.0 - u
        elif self.code == PROFILE_TRIANGULAR:
            out = np.where(u >= 0.5, np.sqrt((1.0 - u) / 2.0), 1.0 - np.sqrt(u / 2.0))
        else:
            lo, _ = _bisect(lambda mid: np.interp(mid, self.table_x, self.table_tail) >= u,
                            np.zeros(u.shape), np.ones(u.shape))
            out = np.where(u == 1.0, 0.0, lo)
        out = np.where(u == 0.0, np.inf, out)
        return _scalar(out)

    def convolution_rule(self, n, points=16):
        edges = np.concatenate(([0.0], np.sort(self.kinks), [1.0]))
        wide = np.diff(edges) > 0.0
        y, w = (a[wide] for a in _gauss_panels(edges, points))
        y, w = y.ravel(), (w * self.rho(y)).ravel()
        return np.ascontiguousarray(y / int(n)), np.ascontiguousarray(w / w.sum())


GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
GL_NODES = np.ascontiguousarray(GL_NODES)
GL_WEIGHTS = np.ascontiguousarray(GL_WEIGHTS)


def rho_base(code, cnorm, s):
    # base mollifier density on [0, 1]
    if code == PROFILE_UNIFORM:
        if 0.0 <= s <= 1.0:
            return 1.0
        return 0.0
    if code == PROFILE_TRIANGULAR:
        if s < 0.0 or s > 1.0:
            return 0.0
        if s <= 0.5:
            return 4.0 * s
        return 4.0 * (1.0 - s)
    if s <= 0.0 or s >= 1.0:
        return 0.0
    return cnorm * np.exp(-1.0 / (s * (1.0 - s)))


def tail_base(code, cnorm, tbl_x, tbl_tail, y):
    # tail mass of the base profile: integral of rho over [y, 1]
    if y <= 0.0:
        return 1.0
    if y >= 1.0:
        return 0.0
    if code == PROFILE_UNIFORM:
        return 1.0 - y
    if code == PROFILE_TRIANGULAR:
        if y <= 0.5:
            return 1.0 - 2.0 * y * y
        w = 1.0 - y
        return 2.0 * w * w
    # dense table, linear interpolation
    lo = 0
    hi = tbl_x.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tbl_x[mid] <= y:
            lo = mid
        else:
            hi = mid
    w = (y - tbl_x[lo]) / (tbl_x[hi] - tbl_x[lo])
    return tbl_tail[lo] * (1.0 - w) + tbl_tail[hi] * w


def tail_inv(profile, u):
    """MollifierProfile.tail_inv with its table bisection written out, as it
    was before the profile and the variation grid shared one bisection."""
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u >= -1e-12) & (u <= 1.0 + 1e-12)):
        raise ValueError("tail_inv argument must lie in [0, 1]")
    u = np.clip(u, 0.0, 1.0)
    if profile.name == "uniform":
        out = 1.0 - u
    elif profile.name == "triangular":
        out = np.where(u >= 0.5, np.sqrt((1.0 - u) / 2.0), 1.0 - np.sqrt(u / 2.0))
    else:
        lo = np.zeros(u.shape)
        hi = np.ones_like(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            ge = np.interp(mid, profile.table_x, profile.table_tail) >= u
            lo = np.where(ge, mid, lo)
            hi = np.where(ge, hi, mid)
        out = np.where(u == 1.0, 0.0, lo)
    return np.where(u == 0.0, np.inf, out)


def convolution_rule(profile, n, points=16):
    """MollifierProfile.convolution_rule built panel by panel, as it was
    before the profile and the mass check shared one panel rule."""
    gx, gw = np.polynomial.legendre.leggauss(int(points))
    edges = np.concatenate(([0.0], np.sort(profile.kinks), [1.0]))
    ys, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        y = mid + half * gx
        ys.append(y)
        ws.append(half * gw * profile.rho(y))
    y = np.concatenate(ys)
    w = np.concatenate(ws)
    return y / int(n), w / w.sum()


def power_limit(profile, alpha, c, delta, u):
    """Closed-form limit of the probe F_n(F_n_inv(u) - delta h(n)) under
    h(n) = c n^-alpha (``Schedule.power(alpha, c)``).

    The probe is tail(tail_inv(u) - delta c n^(1 - alpha)): the shift
    vanishes for alpha > 1 (the identity, Flow), stays delta c for
    alpha = 1 (DeltaDependent) and grows without bound for alpha < 1 (the
    indicator of (0, 1], Ito).
    """
    u = np.asarray(u, dtype=np.float64)
    if alpha > 1.0:
        return u
    if alpha == 1.0:
        return profile.tail(profile.tail_inv(u) - delta * c)
    return np.where(u > 0.0, 1.0, 0.0)


def _seg_index(breaks, t):
    hi = breaks.size - 1
    if t <= breaks[0]:
        return 0
    if t >= breaks[hi]:
        return hi - 1
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if breaks[mid] <= t:
            lo = mid
        else:
            hi = mid
    return lo


def lc_value(dom_a, dom_b, breaks, coefs, t):
    # continuous part with constant extension beyond the domain
    tt = t
    if tt < dom_a:
        tt = dom_a
    if tt > dom_b:
        tt = dom_b
    i = _seg_index(breaks, tt)
    u = tt - breaks[i]
    return ((coefs[i, 3] * u + coefs[i, 2]) * u + coefs[i, 1]) * u + coefs[i, 0]


def driver_lattice(ts, n, code, cnorm, kinks, tbl_x, tbl_tail,
                   dom_a, dom_b, breaks, coefs, jpos, jsize, gl_x, gl_w):
    """Mollified driver values L_n(t) for every t in ts, by quadrature.

    Reference oracle for the exact kernel
    :func:`bvode.backend.driver_lattice_values`.  Jump part is a finite tail-mass sum; the
    continuous part is a Gauss-Legendre convolution split at profile
    kinks and driver breakpoints falling inside the window [t, t + 1/n].
    """
    inv = 1.0 / n
    m = breaks.size
    nk = kinks.size
    out = np.empty(ts.size)
    sp = np.empty(2 + nk + m)
    for i in range(ts.size):
        t = ts[i]
        acc = 0.0
        for j in range(jpos.size):
            acc += jsize[j] * tail_base(code, cnorm, tbl_x, tbl_tail, (jpos[j] - t) * n)
        cnt = 0
        sp[cnt] = 0.0
        cnt += 1
        for k in range(nk):
            sp[cnt] = kinks[k] * inv
            cnt += 1
        for k in range(m):
            s = breaks[k] - t
            if 0.0 < s < inv:
                sp[cnt] = s
                cnt += 1
        sp[cnt] = inv
        cnt += 1
        for a in range(1, cnt):
            key = sp[a]
            b = a - 1
            while b >= 0 and sp[b] > key:
                sp[b + 1] = sp[b]
                b -= 1
            sp[b + 1] = key
        conv = 0.0
        for a in range(cnt - 1):
            lo = sp[a]
            hi = sp[a + 1]
            if hi - lo <= 0.0:
                continue
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            for q in range(gl_x.size):
                s = mid + half * gl_x[q]
                conv += (gl_w[q] * half * (n * rho_base(code, cnorm, s * n))
                         * lc_value(dom_a, dom_b, breaks, coefs, t + s))
        out[i] = acc + conv
    return out


def euler_mollified(kind, p, tau, h, dLn, x0, conv_s, conv_w):
    # conv_s/conv_w: quadrature rule for the window [0, 1/n] with the
    # mollifier density folded into the weights (sum of conv_w is 1).
    K = dLn.size
    Q = conv_s.size
    x = np.empty(K + 1)
    x[0] = x0
    cur = x0
    for k in range(K):
        t = tau + k * h
        fn = 0.0
        for a in range(Q):
            wa = conv_w[a]
            sa = conv_s[a]
            for b in range(Q):
                fn += wa * conv_w[b] * field_value(kind, p, t + sa, cur + conv_s[b])
        cur = cur + fn * dLn[k]
        x[k + 1] = cur
    return x


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(out_dir: str, filename: str, header, rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    tmp = f"{path}.tmp.{os.getpid()}"
    count = 0
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
            count += 1
    os.replace(tmp, path)
    return path


def grid_rows(gp):
    """CSV rows (offset_index, tau, k, t, x) of a GridPath, value by value."""
    for j in range(gp.offsets.size):
        tau = float(gp.offsets[j])
        for k in range(int(gp.lengths[j])):
            yield j, tau, k, tau + k * gp.h, float(gp.values[j, k])


def limit_path_rows(lp):
    """CSV rows (t, x_left, x, is_jump) of a LimitPath."""
    return zip(lp.t.tolist(), lp.x_left.tolist(), lp.x.tolist(),
               lp.is_jump.astype(int).tolist())


def probe_rows(probe):
    """CSV rows (delta, u, n, value) of a SigmaProbe, delta-major, then u, then n."""
    cols = np.broadcast_arrays(np.asarray(probe.delta)[..., None],
                               np.asarray(probe.u)[..., None],
                               np.asarray(probe.n_values), probe.values)
    return zip(*(c.ravel().tolist() for c in cols))


def study_rows(result):
    """CSV rows (n, h_n, metric, value) of a StudyResult."""
    for n, h, e, r in zip(result.ns, result.h_values, result.l1_errors,
                          result.rel_errors):
        yield n, h, "l1", e
        yield n, h, "l1_rel", r


def jumpmap_rows(cfg, seed):
    """CSV rows (q, eps, t, phi, oracle, abs_err) of ``bvode jumpmap`` on a
    loaded config, with the command's random draws from ``seed``."""
    sigma = cfg.sigma
    mu = measure_from_sigma(sigma)
    rng = np.random.default_rng(seed)
    qs = cfg.jump_q if cfg.jump_q is not None else tuple(rng.uniform(0.0, 1.0, 6))
    eps_list = cfg.jump_eps if cfg.jump_eps is not None else tuple(rng.uniform(0.05, 0.6, 4))
    ts = cfg.jump_t if cfg.jump_t is not None else tuple(rng.uniform(0.0, 1.0, 5))
    rows = []
    for q in qs:
        for eps in eps_list:
            z = ramp_z(q, eps, cfg.x0)
            for t in ts:
                try:
                    want = phi_explicit_ramp(sigma, q, eps, cfg.x0, t)
                except ValueError:
                    continue
                phi = phi_solve(z, cfg.x0, t, mu)
                rows.append((q, eps, t, phi, want, abs(phi - want)))
    return rows


def scalar_probe(profile, sched, delta, u):
    """One shift-probe trajectory F_n(F_n_inv(u) - delta*h(n)), mesh by mesh."""
    delta = float(delta)
    u = float(u)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    values = np.array([float(F_n(profile, n, F_n_inv(profile, n, u) - delta * sched.h(n)))
                       for n in sched.meshes])
    if values.size >= 3:
        d1 = abs(values[-2] - values[-3])
        d2 = abs(values[-1] - values[-2])
        converged = bool(d2 <= d1 and d2 < 1e-3)
        tail_estimate = d2
    else:
        converged = False
        tail_estimate = float("nan")
    return SigmaProbe(delta, u, tuple(sched.meshes), values,
                      float(values[-1]), tail_estimate, converged)


def probe_grid(profile, sched, deltas, us):
    """The classifier's probe loop: one scalar probe per (delta, u)."""
    return [[scalar_probe(profile, sched, d, u) for u in us] for d in deltas]


def evidence(probes):
    """(delta, u, n, value) samples of a probe grid, in the classifier's order."""
    return [(p.delta, p.u, n, v)
            for row in probes for p in row
            for n, v in zip(p.n_values, p.values)]


def sigma_delta_limit(profile, sched, delta, u):
    """Broadcast signature of the package probe, computed one scalar probe at a time."""
    d, u = np.broadcast_arrays(np.asarray(delta, dtype=np.float64),
                               np.asarray(u, dtype=np.float64))
    if d.ndim == 0:
        return scalar_probe(profile, sched, d, u)
    probes = [scalar_probe(profile, sched, a, b) for a, b in zip(d.ravel(), u.ravel())]

    def field(name):
        return np.array([getattr(p, name) for p in probes]).reshape(d.shape)

    values = np.array([p.values for p in probes]).reshape(d.shape + (len(sched.meshes),))
    return SigmaProbe(d, u, tuple(sched.meshes), values, field("limit"),
                      field("tail_estimate"), field("converged"))


def _segment_variation(L, u, v):
    total = 0.0
    for i in range(L.seg_coefs.shape[0]):
        lo = max(u, L.seg_breaks[i])
        hi = min(v, L.seg_breaks[i + 1])
        if hi <= lo:
            continue
        llo, lhi = lo - L.seg_breaks[i], hi - L.seg_breaks[i]
        pts = [llo] + _stationary_points(L.seg_coefs[i], llo, lhi) + [lhi]
        vals = [_poly_eval(L.seg_coefs[i], p) for p in pts]
        total += float(np.sum(np.abs(np.diff(vals))))
    return total


def total_variation(L, u=None, v=None, continuous=_segment_variation):
    """Variation of driver L over [u, v]: the continuous part summed
    segment by segment (or by ``continuous``) plus the jumps in (u, v]."""
    a, b = L.domain
    u = a if u is None else float(u)
    v = b if v is None else float(v)
    if u > v:
        raise ValueError(f"total_variation needs u <= v, got {u!r} > {v!r}")
    u, v = max(u, a), min(v, b)
    if v <= u:
        return 0.0
    jl = np.searchsorted(L.jump_epochs, u, side="right")
    jr = np.searchsorted(L.jump_epochs, v, side="right")
    return continuous(L, u, v) + float(np.sum(np.abs(L.jump_sizes[jl:jr])))


def monotone_pieces(L, u, v):
    """Yield (coefficients, segment origin, e0, e1) for each monotone
    polynomial piece of L's continuous part on [u, v]; e0 and e1 are local
    to the segment and split it at its stationary points."""
    for i in range(L.seg_coefs.shape[0]):
        lo = max(u, L.seg_breaks[i])
        hi = min(v, L.seg_breaks[i + 1])
        if hi <= lo:
            continue
        origin, coef = L.seg_breaks[i], L.seg_coefs[i]
        llo, lhi = lo - origin, hi - origin
        edges = [llo] + _stationary_points(coef, llo, lhi) + [lhi]
        for e0, e1 in zip(edges[:-1], edges[1:]):
            yield coef, origin, e0, e1


def _piece_variation(L, u, v):
    total = 0.0
    for coef, _, e0, e1 in monotone_pieces(L, u, v):
        total += abs(float(_poly_eval(coef, e1) - _poly_eval(coef, e0)))
    return total


def piece_total_variation(L, u=None, v=None):
    """Variation of driver L over [u, v], summed one monotone piece at a time."""
    return total_variation(L, u, v, continuous=_piece_variation)


def variation_steps(L, u, v, v_max):
    """Variation-equidistributed grid of L over [u, v], one segment at a time,
    each cut bisected for 60 rounds: the reference for the Newton cuts."""
    if v_max <= 0.0:
        raise ValueError("v_max must be positive")
    if v < u:
        raise ValueError("need u <= v")
    pts = [u, v]
    v_eff = 0.85 * v_max
    for i in range(L.seg_coefs.shape[0]):
        lo = max(u, L.seg_breaks[i])
        hi = min(v, L.seg_breaks[i + 1])
        if hi <= lo:
            continue
        llo, lhi = lo - L.seg_breaks[i], hi - L.seg_breaks[i]
        edges = [llo] + _stationary_points(L.seg_coefs[i], llo, lhi) + [lhi]
        coef = L.seg_coefs[i]
        for e0, e1 in zip(edges[:-1], edges[1:]):
            pts.append(L.seg_breaks[i] + e0)
            p0 = _poly_eval(coef, e0)
            var = abs(_poly_eval(coef, e1) - p0)
            if var <= v_eff or e1 <= e0:
                continue
            n_cuts = int(np.ceil(var / v_eff)) - 1
            sign = 1.0 if _poly_eval(coef, e1) > p0 else -1.0
            goal = p0 + sign * v_eff * np.arange(1, n_cuts + 1)
            t_lo = np.full(n_cuts, e0)
            t_hi = np.full(n_cuts, e1)
            for _ in range(60):
                mid = 0.5 * (t_lo + t_hi)
                below = sign * (_poly_eval(coef, mid) - goal) < 0.0
                t_lo = np.where(below, mid, t_lo)
                t_hi = np.where(below, t_hi, mid)
            pts.extend(L.seg_breaks[i] + 0.5 * (t_lo + t_hi))
    grid = np.unique(np.asarray(pts, dtype=np.float64))
    return grid[(grid >= u) & (grid <= v)]


def sigma_value(sigma, u):
    """Staircase map sigma(u) by one ``searchsorted`` on the left ends, for
    floats and arrays alike."""
    lefts = np.array([a for a, _ in sigma.intervals], dtype=np.float64)
    rights = np.array([b for _, b in sigma.intervals], dtype=np.float64)
    uu = np.asarray(u, dtype=np.float64)
    if not np.all((uu >= 0.0) & (uu <= 1.0)):
        raise ValueError("sigma argument must lie in [0, 1]")
    out = uu.copy()
    if lefts.size:
        idx = np.searchsorted(lefts, uu, side="left") - 1
        safe = np.clip(idx, 0, lefts.size - 1)
        hit = (idx >= 0) & (uu <= rights[safe])
        out[hit] = rights[safe][hit]
    return float(out) if np.ndim(out) == 0 else out


def phi_solve(z, x, u, mu):
    """Jump map phi(z, x, u), one stretch between atoms at a time, each
    stretch's Lebesgue mass summed over every segment by
    ``JumpMeasure.lebesgue_mass``: O(k^2) for a k-interval staircase."""
    if not z.is_autonomous:
        raise ValueError("z must not depend on t; freeze the time argument first")
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    phi = float(x)
    if not math.isfinite(phi):
        raise ValueError("initial states must be finite")
    if u == 0.0:
        return phi
    amass = dict(mu.atoms)
    edges = [0.0] + [v for v, _ in mu.atoms if 0.0 < v < u] + [u]
    for p0, p1 in zip(edges[:-1], edges[1:]):
        if p0 in amass:
            phi = phi + float(z._eval(0.0, phi)) * amass[p0]
        leb = mu.lebesgue_mass(p0, p1)
        if leb > 0.0:
            phi = backend.flow_mass(z, phi, leb)
    return phi


def limit_rows(f, L, mu, x0, sample_times=None, v_max=None):
    """(t, x_left, x, is_jump) rows of the limit solve, built point by point."""
    a, b = L.domain
    Lc = L.continuous_part()
    if v_max is None:
        tv = total_variation(Lc)
        v_max = 1e-3 * tv if tv > 0.0 else 1.0
    if sample_times is None:
        extra = np.empty(0, dtype=np.float64)
    else:
        extra = np.asarray(sample_times, dtype=np.float64).reshape(-1)
    epochs = {float(e) for e in L.jump_epochs}
    edges = [a] + sorted(epochs) + ([b] if b not in epochs else [])
    rows = []
    x_cur = float(x0)
    first = True
    for lo, hi in zip(edges[:-1], edges[1:]):
        grid = variation_steps(Lc, lo, hi, v_max)
        sel = extra[(extra > lo) & (extra < hi)]
        if sel.size:
            grid = np.unique(np.concatenate((grid, sel)))
        xs = backend.heun_path(f, grid, Lc(grid), x_cur)
        start = 0 if first else 1
        for k in range(start, grid.size):
            rows.append((float(grid[k]), float(xs[k]), float(xs[k]), False))
        first = False
        x_cur = float(xs[-1])
        if hi in epochs:
            z = f.scaled_frozen(hi, L.jump_at(hi))
            x_new = phi_solve(z, x_cur, 1.0, mu)
            rows[-1] = (float(hi), x_cur, float(x_new), True)
            x_cur = x_new
    return rows


def limit_columns(rows):
    """Arrays of a LimitPath built from rows one row at a time: t, x_left,
    x, is_jump and the doubled t_dbl/x_dbl."""
    t = np.array([r[0] for r in rows], dtype=np.float64)
    x_left = np.array([r[1] for r in rows], dtype=np.float64)
    x = np.array([r[2] for r in rows], dtype=np.float64)
    is_jump = np.array([r[3] for r in rows], dtype=bool)
    td, xd = [], []
    for k in range(t.size):
        if is_jump[k]:
            td.append(t[k])
            xd.append(x_left[k])
        td.append(t[k])
        xd.append(x[k])
    return {"t": t, "x_left": x_left, "x": x, "is_jump": is_jump,
            "_t_dbl": np.asarray(td, dtype=np.float64),
            "_x_dbl": np.asarray(xd, dtype=np.float64)}


def exact_limit(f, L, mu, x0, ts):
    """Right-continuous solution of the limit equation at the times ts, exact
    up to rounding, for an autonomous f under Lebesgue or dirac(0).

    With Phi_f(m, x) the flow of dx/dm = f(x) over mass m (a negative mass
    flows f.scaled_frozen(0, -1)), the path is x(t) = Phi_f(L(t) - L(a), x0)
    under Lebesgue, the jumps being flowed through (Doss 1977, Sussmann
    1978).  Under dirac(0) it flows the continuous increments between
    epochs and applies x += dL f(x) at each jump.
    """
    if not f.is_autonomous:
        raise ValueError("exact_limit needs an autonomous field")
    back = f.scaled_frozen(0.0, -1.0)

    def flow(x, m):
        return backend.flow_mass(f, x, m) if m >= 0.0 else backend.flow_mass(back, x, -m)

    ts = np.asarray(ts, dtype=np.float64)
    a = L.domain[0]
    if mu.segments == ((0.0, 1.0),):
        return np.array([flow(float(x0), m) for m in (L(ts) - L(a)).tolist()])
    if mu.atoms != ((0.0, 1.0),):
        raise ValueError("exact_limit knows the Lebesgue and dirac(0) measures only")
    # the state right after each epoch, the domain's start counting as one
    Lc = L.continuous_value
    starts, states = [a], [float(x0)]
    for e, dL in zip(L.jump_epochs.tolist(), L.jump_sizes.tolist()):
        x = flow(states[-1], Lc(e) - Lc(starts[-1]))
        starts.append(e)
        states.append(x + dL * float(f._eval(0.0, x)))
    k = np.searchsorted(starts, ts, side="right") - 1
    masses = Lc(ts) - Lc(np.array(starts)[k])
    return np.array([flow(states[j], m) for j, m in zip(k.tolist(), masses.tolist())])


def unscaled_stationary_points(coefs, lo, hi):
    """Real roots of the local derivative inside (lo, hi), cancellation-free
    form without the power-of-two scaling (disc overflows past about 1e154)."""
    c1, c2, c3 = float(coefs[1]), 2.0 * float(coefs[2]), 3.0 * float(coefs[3])
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


def stationary_points(coefs, lo, hi):
    """Real roots of the local derivative inside (lo, hi), textbook formula."""
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


def step_count(b, tau, h, step_cap=STEP_CAP):
    """Smallest K >= 0 with tau + K h >= b, robust to rounding, one offset at a time.

    Raises StepLimitError when K would exceed ``step_cap``.  The float
    estimate is checked before the rounding loops, which could not advance
    an index too large for k h to change with k.  The loops move k one step
    at a time, where ``bvode.scheme._step_count`` gallops and bisects.  Like
    it, they start at ``max(ceil(est), 0)``: every k <= 0 counts as 0, and
    with b far below tau and a step far below the float spacing at b, the
    first k with tau + k h >= b can sit ~1e14 steps above the estimate.
    """
    est = (b - tau) / h
    if not est <= step_cap + 1:
        raise StepLimitError(f"run needs {est:.6g} steps, cap is {step_cap}")
    k = max(int(math.ceil(est)), 0)
    while tau + k * h < b:
        k += 1
    while k >= 1 and tau + (k - 1) * h >= b:
        k -= 1
    if k > step_cap:
        raise StepLimitError(f"run needs {k} steps, cap is {step_cap}")
    return k


def fan_increments(L, profile, n, h, taus, step_cap=STEP_CAP):
    """(J, Kmax) lattice increments of a fan, one lattice call per offset."""
    b = L.domain[1]
    Ks = [step_count(b, float(tau), h, step_cap) for tau in taus]
    dLn = np.zeros((taus.size, max(Ks)))
    for j, K in enumerate(Ks):
        ts = taus[j] + h * np.arange(K + 1, dtype=np.float64)
        dLn[j, :K] = np.diff(backend.driver_lattice_values(ts, n, profile, L))
    return dLn


def crossing_grid(profile, n, h, tau, zeta):
    """Crossing fractions of one lattice around zeta, clamped into an XiGrid."""
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    if n < 1:
        raise ValueError("sharpness n must be a positive integer")
    width = 1.0 / n
    if zeta - width <= tau:
        raise ValueError("epoch must sit at least one smoothing width past tau")
    j = step_count(zeta - width, tau, h) - 1
    est = 1.0 / (n * h) + 1e-9
    if not est < STEP_CAP - 2:  # p + 3 > STEP_CAP
        raise StepLimitError(f"crossing grid needs {est + 3:.6g} points, cap is {STEP_CAP}")
    p = int(math.floor(est))
    ks = np.arange(p + 3, dtype=np.float64)
    v = np.maximum.accumulate(np.clip(F_n(profile, n, zeta - (tau + (j + ks) * h)), 0.0, 1.0))
    v[0] = 0.0
    v[-1] = 1.0
    return XiGrid(v)


def crossing_fractions(profile, n, h, tau0, J, zeta):
    """The (J, p + 3) crossing fractions of the fan tau0 + j h / J around zeta,
    made in one expression over the whole fan (no row blocks), for inputs
    that bvode.scheme._crossing_fractions accepts."""
    start = zeta - 1.0 / n
    taus = tau0 + (h / J) * np.arange(J, dtype=np.float64)
    counts = np.array([step_count(start, float(tau), h) for tau in taus], dtype=np.int64)
    p = np.floor(1.0 / (n * h) + 1e-9)
    ks = np.arange(p + 3.0)
    xi = F_n(profile, n, zeta - (taus[:, None] + ((counts[:, None] - 1.0) + ks) * h))
    xi = np.maximum.accumulate(np.clip(xi, 0.0, 1.0), axis=1)
    xi[:, 0] = 0.0
    xi[:, -1] = 1.0
    return xi


def sigma_n_gaps(profile, sched, zeta, sigma, probes, n_offsets, domain=(0.0, 1.0)):
    """Staircase gaps per mesh and probe, one crossing grid per offset."""
    a, b = float(domain[0]), float(domain[1])
    us = np.asarray(probes, dtype=np.float64)
    target = np.asarray(sigma(us), dtype=np.float64).reshape(-1)
    gaps = np.empty((len(sched.meshes), us.size), dtype=np.float64)
    for i, n in enumerate(sched.meshes):
        h = sched.h(n)
        taus = a + (h / n_offsets) * np.arange(n_offsets, dtype=np.float64)
        acc = np.zeros(us.size, dtype=np.float64)
        for tau in taus:
            grid = crossing_grid(profile, n, h, float(tau), float(zeta))
            # the staircase read-out: the smallest xi_k with u <= xi_k
            vals = grid.values[np.searchsorted(grid.values, us, side="left")]
            acc += np.abs(vals - target)
        gaps[i] = (b - a) * acc / n_offsets
    return gaps


def l1_distance(p, q):
    """Offset-averaged L1 distance, one offset at a time: each offset's
    lattice and q's times are merged by ``np.unique`` and scored by midpoints."""
    a, b = q.domain
    total = 0.0
    for j in range(p.offsets.size):
        lattice, _ = p.path(j)
        edges = np.concatenate((np.asarray([a, b]), lattice, q.t))
        edges = np.unique(np.clip(edges, a, b))
        mids = 0.5 * (edges[:-1] + edges[1:])
        dt = np.diff(edges)
        total += float(np.sum(np.abs(p.eval(j, mids) - q.eval(mids)) * dt))
    return total / p.offsets.size


def l1_blocked(p, q):
    """``bvode.l1_distance`` in one stage: each block of offsets merges its
    edges with q's times, reads both paths at the midpoints (the fan by
    :func:`grid_eval`, q by :func:`limit_interp`), masks the cells of zero
    width with ``np.where`` and sums each row; the row sums are added in
    offset order."""
    a, b = q.domain
    J, K = p.values.shape
    rows = max(1, backend.LATTICE_CHUNK // (K + q.t.size + 2))
    sums = np.empty(J)
    for s in range(0, J, rows):
        j = np.arange(s, min(s + rows, J))
        edges = np.empty((j.size, K + q.t.size + 2))
        edges[:, 0] = a
        lattice = edges[:, 1:K + 1]
        np.add(p.offsets[j, None], p.h * np.arange(K), out=lattice)
        np.minimum(lattice, lattice[j - s, p.lengths[j] - 1, None], out=lattice)
        edges[:, K + 1] = b
        edges[:, K + 2:] = q.t
        np.clip(edges, a, b, out=edges)
        edges.sort(axis=1, kind="stable")
        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        dt = np.diff(edges, axis=1)
        gap = np.where(dt > 0.0, np.abs(grid_eval(p, j, mids) - limit_interp(q, mids)), 0.0)
        sums[s:s + j.size] = np.sum(gap * dt, axis=1)
    return float(np.cumsum(sums)[-1] / J)


def taylor(pc, origin, p, t, n):
    """``backend._taylor`` on the piece-major ``(S + 2, 4)`` table, read by fancy indexing."""
    c = pc[p]
    u = t - origin[p]
    c1, c2, c3 = c[:, 1], c[:, 2], c[:, 3]
    out = np.empty((t.size, 4))
    out[:, 0] = _poly_eval(c.T, u)
    out[:, 1] = ((3.0 * c3 * u + 2.0 * c2) * u + c1) / n
    out[:, 2] = (3.0 * c3 * u + c2) / (n * n)
    out[:, 3] = c3 / (n * n * n)
    return out


def continuous_value(L, t):
    """``BVFunction.continuous_value`` read by fancy indexing from the piece-major table."""
    pc = L._ext_coefs.T
    tt = np.clip(np.asarray(t, dtype=np.float64), *L.domain)
    p = np.searchsorted(L.seg_breaks[:-1], tt, side="right")
    out = _poly_eval(np.moveaxis(pc[p], -1, 0), tt - L._ext_origin[p])
    return float(out) if out.ndim == 0 else out


def table_moments(profile, y):
    """A table profile's incomplete moments, the table rows read by fancy indexing."""
    y = np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)
    x = profile.table_x
    j = np.clip(np.searchsorted(x, y, side="right") - 1, 0, x.size - 2)
    w = ((y - x[j]) / (x[j + 1] - x[j]))[..., None]
    return profile.table_moments[j] * (1.0 - w) + profile.table_moments[j + 1] * w


def grid_eval(gp, j, t):
    """``GridPath.eval`` with the broadcast 2-D index into ``values``."""
    t = np.asarray(t, dtype=np.float64)
    if not np.isfinite(t).all():
        raise ValueError("times must be finite")
    j = np.asarray(j)[..., None] if np.ndim(j) else j
    k = np.clip(np.floor((t - gp.offsets[j]) / gp.h), 0, gp.lengths[j] - 1)
    return gp.values[j, k.astype(np.int64)]


def limit_interp(q, t):
    """``LimitPath.eval`` as one function: range check, clip, flatten, search
    and five fancy-index reads of the doubled grid."""
    a, b = q.domain
    arr = np.asarray(t, dtype=np.float64)
    shape = arr.shape
    tt = np.atleast_1d(arr).reshape(-1)
    if not np.all((tt >= a - 1e-12) & (tt <= b + 1e-12)):
        raise ValueError(f"times must lie in [{a!r}, {b!r}]")
    tt = np.clip(tt, a, b)
    n = q._t_dbl.size
    i0 = np.clip(np.searchsorted(q._t_dbl, tt, side="right") - 1, 0, n - 1)
    i1 = np.minimum(i0 + 1, n - 1)
    dt = q._t_dbl[i1] - q._t_dbl[i0]
    frac = np.where(dt > 0.0, (tt - q._t_dbl[i0]) / np.where(dt > 0.0, dt, 1.0), 0.0)
    out = q._x_dbl[i0] + frac * (q._x_dbl[i1] - q._x_dbl[i0])
    out = out.reshape(shape)
    return float(out) if shape == () else out


def lattice_expanded(ts, n, profile, driver):
    """``backend.driver_lattice_values`` with every window's last piece read
    through its Taylor row (:func:`taylor`) and the full moments, and every
    breakpoint inside a window visited, flat pieces included."""
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    n = float(int(n))
    inv = 1.0 / n
    breaks, pc, origin = driver.seg_breaks, driver._ext_coefs.T, driver._ext_origin
    full = profile.moments(1.0)
    jpos, jsize, jcum = driver.jump_epochs, driver.jump_sizes, driver._jump_cum
    out = np.empty(ts.size)
    for start in range(0, ts.size, backend.LATTICE_CHUNK):
        t = ts[start:start + backend.LATTICE_CHUNK]
        end = t + inv
        first = np.searchsorted(breaks, t, side="right")
        last = np.searchsorted(breaks, end, side="left")
        k0 = np.searchsorted(jpos, t, side="right")
        k1 = np.searchsorted(jpos, end, side="left")
        val = taylor(pc, origin, last, t, n) @ full + jcum[k0]
        inside = last - first
        for r in range(int(np.max(inside, initial=0))):
            i = np.flatnonzero(inside > r)
            p = first[i] + r
            ti = t[i]
            step = taylor(pc, origin, p, ti, n) - taylor(pc, origin, p + 1, ti, n)
            val[i] += np.sum(step * profile.moments((breaks[p] - ti) * n), axis=-1)
        inside = k1 - k0
        for r in range(int(np.max(inside, initial=0))):
            i = np.flatnonzero(inside > r)
            k = k0[i] + r
            val[i] += jsize[k] * profile.tail((jpos[k] - t[i]) * n)
        out[start:start + backend.LATTICE_CHUNK] = val
    return out


def euler_full_scan(field, tau, h, dLn, x0):
    """``backend.euler_exact`` with the affine scan over every column of the fan,
    and the degenerate rows and other fields stepped by a loop over steps."""
    tau = np.asarray(tau, dtype=np.float64)
    dLn = np.asarray(dLn, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    J, K = dLn.shape

    def step(rows):
        x = np.empty((rows.size, K + 1))
        x[:, 0] = x0[rows]
        for k in range(K):
            cur = x[:, k]
            x[:, k + 1] = cur + field._eval(tau[rows] + k * h, cur) * dLn[rows, k]
        return x

    if field.kind not in (FIELD_CONST, FIELD_AFFINE) or K == 0:
        return step(np.arange(J))
    a, b = field.params if field.kind == FIELD_AFFINE else (field.params[0], 0.0)
    x = np.empty((J, K + 1))
    x[:, 0] = x0
    ok = np.empty(J, dtype=bool)
    rows = max(1, backend.LATTICE_CHUNK // K)
    with np.errstate(all="ignore"):
        for s in range(0, J, rows):
            dL = dLn[s:s + rows]
            A = 1.0 + b * dL
            P = np.cumprod(A, axis=1)
            absP = np.abs(P)
            ok[s:s + rows] = ((np.min(np.abs(A), axis=1) > 1e-12)
                              & (np.min(absP, axis=1) > 1e-290)
                              & (np.max(absP, axis=1) < 1e290))
            x[s:s + rows, 1:] = P * (x0[s:s + rows, None] + np.cumsum(a * dL / P, axis=1))
    rest = np.flatnonzero(~ok)
    if rest.size:
        x[rest] = step(rest)
    return x
