"""Entry points of the hot numerical kernels.

The serial kernels of :mod:`bvode._kernels` (the generic Euler recursion,
the RK4 jump-map substeps and the Heun steps) are compiled with
``numba.njit`` when numba imports, which the ``jit`` extra installs, and
run as plain Python otherwise.  ``ACTIVE`` records which of the two was
picked at import.  The mollified driver lattice, the Euler recursion for
fields affine in x and the mollified-coefficient recursion are vectorized
numpy either way.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._kernels import FIELD_AFFINE, FIELD_CONST
from .drivers import _poly_eval

try:
    import numba
except ImportError:
    ACTIVE = "numpy"
    _K = _kernels.PLAIN
else:
    ACTIVE = "numba"
    _K = _kernels.build_kernels(numba.njit(nogil=True))

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


def euler_exact(field, tau, h, dLn, x0):
    """Explicit recurrence x_{k+1} = x_k + f(t_k, x_k) dL_k.

    Fields affine in x run a closed-form scan (cumulative sums and
    products); the rest, and affine scans whose products degenerate, run
    the serial kernel.
    """
    dLn = np.ascontiguousarray(dLn, dtype=np.float64)
    kind, p = field.kind, field.packed
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
    return _K.euler_exact(kind, p, tau, h, dLn, x0)


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
    J, K = dLn.shape
    shift_t = conv_s[:, None]
    ww = np.outer(conv_w, conv_w).ravel()
    x = np.empty((J, K + 1))
    x[:, 0] = x0
    for k in range(K):
        cur = x[:, k]
        grid = field((tau + k * h)[:, None, None] + shift_t, cur[:, None, None] + conv_s)
        x[:, k + 1] = cur + (grid.reshape(J, -1) @ ww) * dLn[:, k]
    return x


def flow_mass(field, x, mass, substep):
    """Integrate dphi/dm = z(phi) over the given Lebesgue mass."""
    kinks = np.asarray(field.x_kinks(), dtype=np.float64)
    return _K.flow_mass(field.kind, field.packed, float(x), float(mass),
                        float(substep), kinks)


def heun_path(field, s_grid, L_grid, x0):
    """Heun predictor-corrector along a grid of (s, L(s)) samples."""
    s_grid = np.ascontiguousarray(s_grid, dtype=np.float64)
    L_grid = np.ascontiguousarray(L_grid, dtype=np.float64)
    return _K.heun_path(field.kind, field.packed, s_grid, L_grid, float(x0))


def warmup() -> None:
    """Compile (numba) or exercise every kernel on toy inputs."""
    from .drivers import BVFunction
    from .fields import ScalarField
    from .mollify import get_profile

    drv = BVFunction.from_poly((0.0, 1.0), (0.0, 1.0), jumps=((0.5, 1.0),))
    fld = ScalarField.affine(0.1, 1.0)
    rmp = ScalarField.ramp(0.5, 0.25)
    for name in ("uniform", "triangular", "bump"):
        prof = get_profile(name)
        driver_lattice_values(np.linspace(0.0, 1.0, 5), 8, prof, drv)
    dln = np.array([0.1, 0.2])
    euler_exact(fld, 0.0, 0.5, dln, 1.0)
    euler_exact(rmp, 0.0, 0.5, dln, 1.0)
    flow_mass(fld, 1.0, 0.01, 1e-3)
    flow_mass(rmp, 0.4, 0.3, 1e-3)
    heun_path(fld, np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.4, 1.0]), 1.0)
