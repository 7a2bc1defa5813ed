"""Serial numerical kernels: field evaluation and the step-by-step integrators.

Everything inside :func:`build_kernels` is written in nopython-compatible
style (scalar loops, preallocated outputs, no Python objects).  ``PLAIN`` is
the factory run undecorated; :mod:`bvode.backend` runs it under
``numba.njit`` instead when numba imports.  Both run the exact same
arithmetic, which the backend tests exploit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

FIELD_CONST = 0
FIELD_AFFINE = 1
FIELD_RAMP = 2
FIELD_SIN = 3
FIELD_TANH = 4


def build_kernels(jit):
    """Build the kernel namespace under a decorator (identity or numba.njit)."""

    @jit
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

    @jit
    def euler_exact(kind, p, tau, h, dLn, x0):
        K = dLn.size
        x = np.empty(K + 1)
        x[0] = x0
        cur = x0
        for k in range(K):
            cur = cur + field_value(kind, p, tau + k * h, cur) * dLn[k]
            x[k + 1] = cur
        return x

    @jit
    def _rk4_step(kind, p, x, dm):
        k1 = field_value(kind, p, 0.0, x)
        k2 = field_value(kind, p, 0.0, x + 0.5 * dm * k1)
        k3 = field_value(kind, p, 0.0, x + 0.5 * dm * k2)
        k4 = field_value(kind, p, 0.0, x + dm * k3)
        return x + (dm / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    @jit
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

    @jit
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

    return SimpleNamespace(
        field_value=field_value,
        euler_exact=euler_exact,
        flow_mass=flow_mass,
        heun_path=heun_path,
    )


PLAIN = build_kernels(lambda f: f)
