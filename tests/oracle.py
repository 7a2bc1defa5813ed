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
:func:`bvode.backend.euler_mollified` replaced, the value-by-value CSV
writer that :func:`bvode.cli._write_csv` and :meth:`bvode.GridPath.rows`
replaced, and the per-probe shift-probe loop that the broadcast
:func:`bvode.mollify.sigma_delta_limit` replaced.
"""

import os

import numpy as np

from bvode.fields import FIELD_AFFINE, FIELD_CONST, FIELD_RAMP, FIELD_SIN, FIELD_TANH
from bvode.mollify import PROFILE_TRIANGULAR, PROFILE_UNIFORM, F_n, F_n_inv, SigmaProbe


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
