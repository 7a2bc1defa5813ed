"""Forward Euler scheme on shifted lattices driven by smoothed signals.

The recursion x_{k+1} = x_k + f(t_k, x_k) (L_n(t_{k+1}) - L_n(t_k)) runs
on the lattice t_k = tau + k h until the first point at or past the right
end of the driver's domain.  Shifting tau inside [a, a + h) changes where
the lattice samples each smoothed jump, which is exactly the effect the
offset grid and the discrete jump map expose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .drivers import STEP_CAP, BVFunction, StepLimitError
from .fields import ScalarField
from .jumpmap import XiGrid, phi_recursion
from .mollify import F_n, MollifierProfile


# CSV rows materialized per block by GridPath.rows; bounds its temporaries
ROW_BLOCK = 65536


def _step_count(b: float, tau: float, h: float, step_cap: int = STEP_CAP) -> int:
    """Smallest K >= 0 with tau + K h >= b, robust to rounding.

    Raises StepLimitError when K would exceed ``step_cap``.  The float
    estimate is checked before the rounding loops, which could not advance
    an index too large for k h to change with k.
    """
    est = (b - tau) / h
    if not est <= step_cap + 1:
        raise StepLimitError(f"run needs {est:.6g} steps, cap is {step_cap}")
    k = int(math.ceil(est))
    while tau + k * h < b:
        k += 1
    while k >= 1 and tau + (k - 1) * h >= b:
        k -= 1
    k = max(k, 0)
    if k > step_cap:
        raise StepLimitError(f"run needs {k} steps, cap is {step_cap}")
    return k


def _fan(f: ScalarField, L: BVFunction, profile: MollifierProfile, n: int,
         h: float, taus: np.ndarray, x0s: np.ndarray,
         mollify_coefficient: bool = False, conv_points: int = 16,
         step_cap: int = STEP_CAP):
    """Run the lattices of every offset in ``taus``; return (values, lengths).

    ``values[j, :lengths[j]]`` is offset j's state sequence and the rest of
    the row repeats its final state.  The increments of all offsets share
    one (J, Kmax) array whose steps past an offset's own K_j are zero, so
    both recursions step the whole fan at once and pad by keeping the
    final state.
    """
    a, b = L.domain
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step size h must be positive and finite")
    for tau in taus:
        if not a <= tau < a + h:
            raise ValueError(f"offset tau={float(tau)!r} must lie in [{a!r}, {a + h!r})")
    if n < 1:
        raise ValueError("sharpness n must be a positive integer")
    if not np.all(np.isfinite(x0s)):
        raise ValueError("initial states must be finite")
    Ks = [_step_count(b, float(tau), h, step_cap) for tau in taus]
    dLn = np.zeros((taus.size, max(Ks)))
    for j, K in enumerate(Ks):
        ts = taus[j] + h * np.arange(K + 1, dtype=np.float64)
        dLn[j, :K] = np.diff(backend.driver_lattice_values(ts, n, profile, L))
    lengths = np.array(Ks, dtype=np.int64) + 1
    if mollify_coefficient:
        s, w = profile.convolution_rule(n, conv_points)
        return backend.euler_mollified(f, taus, h, dLn, x0s, s, w), lengths
    return backend.euler_exact(f, taus, h, dLn, x0s), lengths


def solve_offset(f: ScalarField, L: BVFunction, profile: MollifierProfile,
                 n: int, h: float, tau: float, x0: float,
                 mollify_coefficient: bool = False, conv_points: int = 16,
                 step_cap: int = STEP_CAP) -> np.ndarray:
    """Run one lattice and return the state sequence x_0 .. x_K.

    The lattice is t_k = tau + k h with tau in [a, a + h); the driver is
    smoothed at sharpness n before differencing.  With
    ``mollify_coefficient`` the coefficient is averaged with the same
    kernel in both arguments instead of evaluated pointwise.
    """
    values, _ = _fan(f, L, profile, n, h, np.array([float(tau)]), np.array([float(x0)]),
                     mollify_coefficient, conv_points, step_cap)
    return values[0]


@dataclass(frozen=True)
class GridPath:
    """Scheme runs over a fan of lattice offsets, padded to one array.

    ``values[j, :lengths[j]]`` is the state sequence for offset
    ``offsets[j]``; the padding repeats each final state so clamped
    indexing stays valid.  Each path is read as piecewise constant:
    x(t) = x_k on [t_k, t_{k+1}).
    """

    offsets: np.ndarray
    values: np.ndarray
    lengths: np.ndarray
    n: int
    h: float
    profile_name: str
    domain: tuple

    def path(self, j: int):
        """Times and states of offset j, without padding."""
        m = int(self.lengths[j])
        ts = self.offsets[j] + self.h * np.arange(m, dtype=np.float64)
        return ts, self.values[j, :m]

    def eval(self, j: int, t) -> np.ndarray:
        """Piecewise-constant read-out of offset j at times t."""
        t = np.asarray(t, dtype=np.float64)
        k = np.floor((t - self.offsets[j]) / self.h).astype(np.int64)
        k = np.clip(k, 0, int(self.lengths[j]) - 1)
        return self.values[j, k]

    def eval_nearest(self, t) -> np.ndarray:
        """Value at arbitrary t via the split t = tau_t + m h.

        tau_t snaps to the nearest stored offset, m indexes into that
        offset's run; the snap error is one offset spacing, O(h).
        """
        arr = np.asarray(t, dtype=np.float64)
        shape = arr.shape
        tt = np.atleast_1d(arr).reshape(-1)
        a = self.domain[0]
        J = self.offsets.size
        r = (tt - a) / self.h
        m = np.floor(r).astype(np.int64)
        j = np.rint((r - m) * J).astype(np.int64)
        wrap = j >= J
        j[wrap] = 0
        m[wrap] += 1
        k = np.clip(m, 0, self.lengths[j] - 1)
        out = self.values[j, k].reshape(shape)
        return float(out) if shape == () else out

    def final_values(self) -> np.ndarray:
        return self.values[np.arange(self.values.shape[0]), self.lengths - 1]

    def rows(self):
        """CSV rows (offset_index, tau, k, t, x), built a block of columns at a time."""
        for j in range(self.offsets.size):
            tau, m = self.offsets[j], int(self.lengths[j])
            for start in range(0, m, ROW_BLOCK):
                k = np.arange(start, min(start + ROW_BLOCK, m))
                yield from zip(itertools.repeat(j), itertools.repeat(float(tau)), k.tolist(),
                               (tau + k * self.h).tolist(),
                               self.values[j, start:start + k.size].tolist())


def solve_grid(f: ScalarField, L: BVFunction, profile: MollifierProfile,
               n: int, h: float, x0, n_offsets: int = 16,
               **kwargs) -> GridPath:
    """Run the scheme for n_offsets equispaced lattice offsets in [a, a + h).

    ``x0`` is a number or a callable of the offset tau.  Keyword arguments
    (``mollify_coefficient``, ``conv_points``, ``step_cap``) are those of
    :func:`solve_offset`.
    """
    if n_offsets < 1:
        raise ValueError("need at least one offset")
    a, _ = L.domain
    taus = a + (h / n_offsets) * np.arange(n_offsets, dtype=np.float64)
    x0s = np.array([x0(float(tau)) if callable(x0) else float(x0) for tau in taus],
                   dtype=np.float64)
    values, lengths = _fan(f, L, profile, n, h, taus, x0s, **kwargs)
    return GridPath(offsets=taus, values=values, lengths=lengths, n=n, h=h,
                    profile_name=profile.name, domain=L.domain)


def xi_grid_for_offset(profile: MollifierProfile, n: int, h: float,
                       tau: float, zeta: float) -> XiGrid:
    """Smoothed-jump fractions seen by one lattice around the epoch zeta.

    With t_j the last lattice point before zeta - 1/n, the values
    xi_k = F_n(zeta - t_{j+k}) for k = 0 .. p + 2 (p = floor(1/(n h)))
    rise from exactly 0 to exactly 1: they are the fractions of the
    smoothed jump already consumed at each step the scheme takes while
    crossing it.  Raises StepLimitError when j or the p + 3 fractions
    exceed the default step cap.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    if n < 1:
        raise ValueError("sharpness n must be a positive integer")
    width = 1.0 / n
    if zeta - width <= tau:
        raise ValueError("epoch must sit at least one smoothing width past tau")
    j = _step_count(zeta - width, tau, h) - 1
    est = 1.0 / (n * h) + 1e-9
    if not est < STEP_CAP - 2:  # p + 3 > STEP_CAP
        raise StepLimitError(f"crossing grid needs {est + 3:.6g} points, cap is {STEP_CAP}")
    p = int(math.floor(est))
    ks = np.arange(p + 3, dtype=np.float64)
    xi = F_n(profile, n, zeta - (tau + (j + ks) * h))
    return XiGrid(xi, clamp=True)


def discrete_jump_map(f: ScalarField, L: BVFunction, zeta: float,
                      profile: MollifierProfile, n: int, h: float,
                      tau: float, x: float) -> float:
    """State the scheme reaches after crossing the smoothed jump at zeta.

    Runs the explicit recursion for the frozen, jump-scaled coefficient
    z(y) = dL * f(zeta, y) over the crossing fractions of this lattice,
    starting from the pre-jump state x.
    """
    dL = L.jump_at(zeta)
    if dL == 0.0:
        raise ValueError(f"driver has no jump at {zeta!r}")
    z = f.scaled_frozen(zeta, dL)
    grid = xi_grid_for_offset(profile, n, h, tau, zeta)
    return float(phi_recursion(z, float(x), grid)[-1])
