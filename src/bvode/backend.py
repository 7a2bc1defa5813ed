"""Entry points of the hot numerical kernels, all numpy and plain Python.

The mollified driver lattice is a vectorized numpy kernel.  The Euler
recursions step a whole fan of lattice offsets at once: fields affine in x
by a closed-form scan per offset, the rest, and the mollified coefficient,
one numpy step over the fan at a time.  The RK4 jump-map flow and the Heun
steps are plain-Python loops over the field's evaluator.
"""

from __future__ import annotations

import numpy as np

from .drivers import _poly_eval
from .fields import FIELD_AFFINE, FIELD_CONST

# the one lane; the benchmark manifest records it
ACTIVE = "numpy"

# lattice points evaluated per vectorized pass; bounds the temporaries
LATTICE_CHUNK = 16384


def _taylor(pc, origin, p, t, n):
    """Coefficients d_m n^-m of piece p's polynomial expanded at t, m = 0..3.

    With u0 = t - origin[p], d_m = sum_k c_k C(k, m) u0^(k-m), so the piece
    reads sum_m d_m n^-m y^m at time t + y/n.
    """
    c = pc[p]
    u = t - origin[p]
    c1, c2, c3 = c[:, 1], c[:, 2], c[:, 3]
    out = np.empty((t.size, 4))
    out[:, 0] = _poly_eval(c.T, u)
    out[:, 1] = ((3.0 * c3 * u + 2.0 * c2) * u + c1) / n
    out[:, 2] = (3.0 * c3 * u + c2) / (n * n)
    out[:, 3] = c3 / (n * n * n)
    return out


def driver_lattice_values(ts, n, profile, driver):
    """Mollified driver L_n(t) = integral of rho(y) L(t + y/n) over [0, 1], exact.

    The continuous part is piecewise cubic, with the constant extensions
    left of a and right of b as two more pieces, so on each piece the
    window integral is sum_m d_m n^-m (I_m(y_hi) - I_m(y_lo)) with the
    profile's incomplete moments I_m.  Summed by parts over the pieces of
    [t, t + 1/n], this is the last piece's coefficients against the full
    moments plus, at each breakpoint e strictly inside the window, the
    change of coefficients across e against I_m(n (e - t)).  Jumps at or
    before t count in full; a jump inside the window adds
    size * F_n(epoch - t).  Only breakpoints and jumps inside a window are
    visited, located with ``searchsorted``.
    """
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    n = float(int(n))  # n**3 below must not overflow an integer type
    inv = 1.0 / n
    breaks, coefs = driver.seg_breaks, driver.seg_coefs
    # piece p covers [breaks[p - 1], breaks[p]); pieces 0 and S + 1 are the
    # constant extensions, piece i + 1 is segment i
    right = float(driver.continuous_value(breaks[-1]))
    pc = np.vstack(([coefs[0, 0], 0.0, 0.0, 0.0], coefs, [right, 0.0, 0.0, 0.0]))
    origin = np.concatenate((breaks[:1], breaks[:-1], breaks[-1:]))
    full = profile.moments(1.0)
    jpos, jsize = driver.jump_epochs, driver.jump_sizes
    jcum = np.concatenate(([0.0], np.cumsum(jsize)))
    out = np.empty(ts.size)
    for start in range(0, ts.size, LATTICE_CHUNK):
        t = ts[start:start + LATTICE_CHUNK]
        first = np.searchsorted(breaks, t, side="right")
        last = np.searchsorted(breaks, t + inv, side="left")
        k0 = np.searchsorted(jpos, t, side="right")
        k1 = np.searchsorted(jpos, t + inv, side="left")
        val = _taylor(pc, origin, last, t, n) @ full + jcum[k0]
        for r in range(int(np.max(last - first, initial=0))):
            i = np.nonzero(last - first > r)[0]
            p = first[i] + r
            ti = t[i]
            step = _taylor(pc, origin, p, ti, n) - _taylor(pc, origin, p + 1, ti, n)
            val[i] += np.sum(step * profile.moments((breaks[p] - ti) * n), axis=-1)
        for r in range(int(np.max(k1 - k0, initial=0))):
            i = np.nonzero(k1 - k0 > r)[0]
            k = k0[i] + r
            val[i] += jsize[k] * profile.tail((jpos[k] - t[i]) * n)
        out[start:start + LATTICE_CHUNK] = val
    return out


def _step_fan(rate, tau, h, dLn, x0):
    """x_{k+1} = x_k + rate(t_k, x_k) dLn[:, k] for every row of the fan at once."""
    J, K = dLn.shape
    x = np.empty((J, K + 1))
    x[:, 0] = x0
    for k in range(K):
        cur = x[:, k]
        x[:, k + 1] = cur + rate(tau + k * h, cur) * dLn[:, k]
    return x


def _affine_scan(a, b, dL, x0):
    """States of x_{k+1} = x_k + (a + b x_k) dL_k in closed form, or None.

    With A_k = 1 + b dL_k and P_k = A_0 ... A_k, x_{k+1} = P_k (x0 + S_k)
    where S_k sums a dL_i / P_i.  None when the products degenerate.
    """
    A = 1.0 + b * dL
    if not np.min(np.abs(A)) > 1e-12:
        return None
    P = np.cumprod(A)
    if not (np.all(np.isfinite(P)) and np.min(np.abs(P)) > 1e-290
            and np.max(np.abs(P)) < 1e290):
        return None
    return P * (x0 + np.cumsum(a * dL / P))


def euler_exact(field, tau, h, dLn, x0):
    """Explicit recurrence x_{k+1} = x_k + f(t_k, x_k) dL_k, over a fan of offsets.

    ``tau`` and ``x0`` have shape (J,) and ``dLn`` shape (J, K); the result
    holds the states, shape (J, K + 1).  Fields affine in x (a constant is
    slope 0) run a closed-form scan row by row; the rest, and rows whose
    products degenerate, step the fan together.  A zero increment keeps
    the state.
    """
    tau = np.asarray(tau, dtype=np.float64)
    dLn = np.asarray(dLn, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if field.kind not in (FIELD_CONST, FIELD_AFFINE) or dLn.shape[1] == 0:
        return _step_fan(field._eval, tau, h, dLn, x0)
    a, b = field.params if field.kind == FIELD_AFFINE else (field.params[0], 0.0)
    x = np.empty((dLn.shape[0], dLn.shape[1] + 1))
    x[:, 0] = x0
    rest = []
    for j in range(dLn.shape[0]):
        row = _affine_scan(a, b, dLn[j], x0[j])
        if row is None:
            rest.append(j)
        else:
            x[j, 1:] = row
    if rest:
        x[rest] = _step_fan(field._eval, tau[rest], h, dLn[rest], x0[rest])
    return x


def euler_mollified(field, tau, h, dLn, x0, conv_s, conv_w):
    """Explicit recurrence with the mollified coefficient f_n, over a fan of offsets.

    ``tau`` and ``x0`` have shape (J,) and ``dLn`` shape (J, K); the result
    holds the states, shape (J, K + 1).  Each step evaluates f once on the
    (J, Q, Q) window grid (t_k + s_a, x_k + s_b) and contracts it with the
    tensor-product weights outer(w, w).  A zero increment keeps the state.
    """
    tau = np.asarray(tau, dtype=np.float64)
    dLn = np.asarray(dLn, dtype=np.float64)
    conv_s = np.asarray(conv_s, dtype=np.float64)
    J = dLn.shape[0]
    shift_t = conv_s[:, None]
    ww = np.outer(conv_w, conv_w).ravel()

    def rate(t, cur):
        grid = field(t[:, None, None] + shift_t, cur[:, None, None] + conv_s)
        return grid.reshape(J, -1) @ ww

    return _step_fan(rate, tau, h, dLn, x0)


def _rk4_step(z, x, dm):
    k1 = z(0.0, x)
    k2 = z(0.0, x + 0.5 * dm * k1)
    k3 = z(0.0, x + 0.5 * dm * k2)
    k4 = z(0.0, x + dm * k3)
    return x + (dm / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_mass(field, x, mass, substep):
    """Integrate dphi/dm = z(phi) over Lebesgue mass ``mass`` by RK4 substeps.

    A substep that would straddle a declared x-kink of z is shortened by
    bisection to land on the kink, so no step crosses a derivative
    discontinuity.
    """
    z = field._eval
    kinks = field.x_kinks()
    cur, rem, substep = float(x), float(mass), float(substep)
    if rem <= 0.0:
        return cur
    while rem > 1e-15:
        dm = substep if substep < rem else rem
        nxt = _rk4_step(z, cur, dm)
        up = cur < nxt
        inside = [v for v in kinks if min(cur, nxt) < v < max(cur, nxt)]
        if not inside:
            cur = nxt
            rem -= dm
            continue
        cross = min(inside) if up else max(inside)
        a, b = 0.0, dm
        for _ in range(60):
            mid = 0.5 * (a + b)
            xm = _rk4_step(z, cur, mid)
            if (xm < cross) if up else (xm > cross):
                a = mid
            else:
                b = mid
        cur = cross
        rem -= 0.5 * (a + b)
    return cur


def heun_path(field, s_grid, L_grid, x0):
    """Heun predictor-corrector for dx = f(s, x) dL along a grid of (s, L(s)) samples."""
    f = field._eval
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
