"""Forward Euler scheme on shifted lattices driven by smoothed signals.

The recursion x_{k+1} = x_k + f(t_k, x_k) (L_n(t_{k+1}) - L_n(t_k)) runs
on the lattice t_k = tau + k h until the first point at or past the right
end of the driver's domain.  Shifting tau inside [a, a + h) changes where
the lattice samples each smoothed jump, which is exactly the effect the
offset grid and the discrete jump map expose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .drivers import STEP_CAP, BVFunction, StepLimitError, _check_cap, _Same
from .fields import ScalarField
from .jumpmap import XiGrid, phi_recursion
from .mollify import F_n, MollifierProfile


def _step_counts(b: float, taus: np.ndarray, h: float) -> np.ndarray:
    """Smallest K_j >= 0 with taus[j] + K_j h >= b for every offset, robust to rounding.

    Raises StepLimitError for the first offset whose K_j would exceed
    ``STEP_CAP``.  The float estimates are checked before the rounding
    passes, which could not advance an index too large for k h to change
    with k.  Passes step every offset that still moves, until none does.
    """
    with np.errstate(over="ignore"):  # an overflowed estimate fails the cap check
        est = (b - taus) / h
    fits = est <= STEP_CAP + 1
    ks = np.ceil(np.where(fits, est, 0.0)).astype(np.int64)
    while (up := fits & (taus + ks * h < b)).any():
        ks += up
    while (down := fits & (ks >= 1) & (taus + (ks - 1) * h >= b)).any():
        ks -= down
    ks = np.maximum(ks, 0)
    bad = ~fits | (ks > STEP_CAP)
    if bad.any():
        j = int(np.argmax(bad))
        need = f"{est[j]:.6g}" if not fits[j] else ks[j]
        raise StepLimitError(f"run needs {need} steps, cap is {STEP_CAP}")
    return ks


def _fan(f: ScalarField, L: BVFunction, profile: MollifierProfile, n: int,
         h: float, taus: np.ndarray, x0s: np.ndarray,
         mollify_coefficient: bool = False):
    """Run the lattices of every offset in ``taus``; return (values, lengths).

    ``values[j, :lengths[j]]`` is offset j's state sequence and the rest of
    the row repeats its final state.  The increments of all offsets share
    one (J, Kmax) array whose steps past an offset's own K_j are zero, so
    both recursions step the whole fan at once and pad by keeping the
    final state.  The driver keeps the read-only result (``L._remember``),
    so a repeated fan is not solved again.
    """
    a, b = L.domain
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step size h must be positive and finite")
    if not a + h > a:  # [a, a + h) would hold no offset
        raise ValueError(f"step h={h!r} is below the float spacing at a={a!r}")
    outside = ~((a <= taus) & (taus < a + h))
    if outside.any():
        tau = float(taus[np.argmax(outside)])
        raise ValueError(f"offset tau={tau!r} must lie in [{a!r}, {a + h!r})")
    if n < 1:
        raise ValueError("sharpness n must be a positive integer")
    if not np.all(np.isfinite(x0s)):
        raise ValueError("initial states must be finite")
    ks = _step_counts(b, taus, h)
    # STEP_CAP bounds each offset, and the fan's arrays too
    _check_cap(taus.size * float(ks.max()), STEP_CAP, "lattice fan", "steps")
    if mollify_coefficient:  # each step averages f over a (J, Q, Q) window
        s, w = profile.convolution_rule(n)
        _check_cap(taus.size * float(s.size) * s.size, STEP_CAP, "mollified window", "points")

    def build():
        # one lattice call for the fan: padded times lie past b, where L_n is constant
        ts = taus[:, None] + h * np.arange(ks.max() + 1, dtype=np.float64)
        Ln = backend.driver_lattice_values(ts.ravel(), n, profile, L).reshape(ts.shape)
        del ts  # freed before differencing: at most two (J, Kmax + 1) arrays are live
        dLn = np.diff(Ln, axis=1)
        del Ln
        lengths = ks + 1
        if mollify_coefficient:
            return backend.euler_mollified(f, taus, h, dLn, x0s, s, w), lengths
        return backend.euler_exact(f, taus, h, dLn, x0s), lengths

    # looked up only after every check, so each error is raised as before
    return L._remember(("fan", _Same(profile), int(n), float(h).hex(), taus.tobytes(), _Same(f),
                        x0s.tobytes(), bool(mollify_coefficient)), build)


def solve_offset(f: ScalarField, L: BVFunction, profile: MollifierProfile,
                 n: int, h: float, tau: float, x0: float,
                 mollify_coefficient: bool = False) -> np.ndarray:
    """Run one lattice and return the state sequence x_0 .. x_K.

    The lattice is t_k = tau + k h with tau in [a, a + h); the driver is
    smoothed at sharpness n before differencing.  With
    ``mollify_coefficient`` the coefficient is averaged with the same
    kernel in both arguments instead of evaluated pointwise.
    """
    values, _ = _fan(f, L, profile, n, h, np.array([float(tau)]), np.array([float(x0)]),
                     mollify_coefficient)
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

    def eval(self, j, t) -> np.ndarray:
        """Piecewise-constant read-out of offset j at times t, clamped to the lattice.

        ``j`` may also be a 1-D array of offset indices; then ``t`` has one
        row per index, and row i is read on offset ``j[i]``.
        """
        t = np.asarray(t, dtype=np.float64)
        if not np.isfinite(t).all():
            raise ValueError("times must be finite")
        j = np.asarray(j)[..., None] if np.ndim(j) else j
        # clipped before the cast, which past the int64 range would not be defined
        k = np.clip(np.floor((t - self.offsets[j]) / self.h), 0, self.lengths[j] - 1)
        # one flat gather: row j starts at j * width
        return np.take(self.values, k.astype(np.int64) + j * self.values.shape[1])

    def final_values(self) -> np.ndarray:
        return self.values[np.arange(self.values.shape[0]), self.lengths - 1]


def _offset_fan(a: float, h, n_offsets: int) -> np.ndarray:
    """Offsets a + k h / n_offsets in [a, a + h); an array of steps h gives a row per step."""
    if n_offsets < 1:
        raise ValueError("need at least one offset")
    _check_cap(n_offsets, STEP_CAP, "offset fan", "offsets")
    return a + (np.asarray(h)[..., None] / n_offsets) * np.arange(n_offsets, dtype=np.float64)


def solve_grid(f: ScalarField, L: BVFunction, profile: MollifierProfile,
               n: int, h: float, x0: float, n_offsets: int = 16,
               mollify_coefficient: bool = False) -> GridPath:
    """Run the scheme for n_offsets equispaced lattice offsets in [a, a + h),
    each from the initial state x0; ``mollify_coefficient`` is that of
    :func:`solve_offset`.
    """
    taus = _offset_fan(L.domain[0], h, n_offsets)
    x0s = np.full(taus.shape, float(x0))
    values, lengths = _fan(f, L, profile, n, h, taus, x0s, mollify_coefficient)
    return GridPath(offsets=taus, values=values, lengths=lengths, n=n, h=h,
                    profile_name=profile.name, domain=L.domain)


def _crossing_fractions(profile: MollifierProfile, n: int, h: float,
                        taus: np.ndarray, zeta: float) -> np.ndarray:
    """Smoothed-jump fractions seen around the epoch zeta, one row per offset.

    With t_j the last point of offset tau's lattice before zeta - 1/n, the
    row holds xi_k = F_n(zeta - t_{j+k}) for k = 0 .. p + 2
    (p = floor(1/(n h))), clipped to [0, 1], made non-decreasing and pinned
    to exactly 0 and 1 at its ends: the fractions of the smoothed jump
    already consumed at each step the scheme takes while crossing it.
    Raises StepLimitError when a j or all J (p + 3) fractions together
    exceed STEP_CAP.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step size h must be positive and finite")
    if n < 1:
        raise ValueError("sharpness n must be a positive integer")
    width = 1.0 / n
    if np.any(zeta - width <= taus):
        raise ValueError("epoch must sit at least one smoothing width past tau")
    js = (_step_counts(zeta - width, taus, h) - 1).astype(np.float64)
    p = np.floor(1.0 / (n * h) + 1e-9)  # a float: inf when 1 / (n h) overflows
    _check_cap(taus.size * (p + 3.0), STEP_CAP, "crossing grid", "points")
    ks = np.arange(p + 3.0)
    xi = F_n(profile, n, zeta - (taus[:, None] + (js[:, None] + ks) * h))
    xi = np.maximum.accumulate(np.clip(xi, 0.0, 1.0), axis=1)
    xi[:, 0] = 0.0
    xi[:, -1] = 1.0
    return xi


def xi_grid_for_offset(profile: MollifierProfile, n: int, h: float,
                       tau: float, zeta: float) -> XiGrid:
    """Crossing fractions around zeta of the lattice with offset tau (J = 1)."""
    return XiGrid(_crossing_fractions(profile, n, h, np.array([float(tau)]), zeta)[0])


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
