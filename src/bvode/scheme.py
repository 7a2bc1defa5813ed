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


def _step_count(b: float, tau: float, h: float) -> int:
    """Smallest K >= 0 with tau + K h >= b, robust to rounding, in Python floats.

    Raises StepLimitError when K would exceed ``STEP_CAP``.  The float
    estimate is checked before the rounding search, which could not advance
    an index too large for k h to change with k.  ``tau + k h >= b`` cannot
    fail once it holds, so the search gallops from the estimate to a
    bracket and bisects it: ~50 tests where a step far below the float
    spacing at tau puts K ~1e8 steps off the estimate.
    """
    est = (b - tau) / h
    if not est <= STEP_CAP + 1:
        raise StepLimitError(f"run needs {est:.6g} steps, cap is {STEP_CAP}")
    hi = max(math.ceil(est), 0)
    lo, step = hi - 1, 1
    while tau + hi * h < b:  # gallop up until hi reaches b
        lo, hi, step = hi, hi + step, 2 * step
    while lo >= 0 and tau + lo * h >= b:  # gallop down until lo falls short
        lo, hi, step = lo - step, lo, 2 * step
    lo = max(lo, -1)  # -1 stands for a k that falls short
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tau + mid * h >= b else (mid, hi)
    k = hi
    if k > STEP_CAP:
        raise StepLimitError(f"run needs {k} steps, cap is {STEP_CAP}")
    return k


def _offset_fan(tau0: float, h: float, J: int, b: float, k0: int):
    """The offsets tau0 + j h / J of a fan whose count J _check_offsets
    passed, and each one's _step_count to b, from offset 0's count k0.

    For a fixed k, tau + k h does not fall as tau rises, so no offset needs
    more than k0 steps: each count is k0 stepped down while one step fewer
    still reaches b, every offset that still moves at once.
    """
    taus = tau0 + (h / J) * np.arange(J, dtype=np.float64)
    ks = np.full(J, k0, dtype=np.int64)
    while (down := (ks >= 1) & (taus + (ks - 1) * h >= b)).any():
        ks -= down
    return taus, ks


def _fan(f: ScalarField, L: BVFunction, profile: MollifierProfile, n: int,
         h: float, tau0: float, J: int, x0: float, mollify_coefficient: bool = False):
    """Run the lattices of the J offsets tau0 + j h / J, each from the state
    x0; return (offsets, values, lengths).

    ``values[j, :lengths[j]]`` is offset j's state sequence and the rest of
    the row repeats its final state.  The increments of all offsets share
    one (J, Kmax) array whose steps past an offset's own K_j are zero, so
    both recursions step the whole fan at once and pad by keeping the
    final state.  The offsets rise with j, so the checks read two: offset
    0 takes the most steps, and only the last can round onto a + h.  The
    driver keeps the read-only result (``L._remember``) under the fan's
    parameters, and the offsets and their counts are made only when it is
    not kept.
    """
    _check_offsets(J)
    a, b = L.domain
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step size h must be positive and finite")
    h = float(h)
    if not a + h > a:  # [a, a + h) would hold no offset
        raise ValueError(f"step h={h!r} is below the float spacing at a={a!r}")
    if not a <= tau0 < a + h:
        raise ValueError(f"offset tau={tau0!r} must lie in [{a!r}, {a + h!r})")
    if n < 1:
        raise ValueError("sharpness n must be a positive integer")
    if not math.isfinite(x0):
        raise ValueError("initial states must be finite")
    k0 = _step_count(b, tau0, h)
    # STEP_CAP bounds each offset, and the fan's arrays too
    _check_cap(J * float(k0), STEP_CAP, "lattice fan", "steps")
    last = tau0 + (h / J) * (J - 1)
    if not last < a + h:
        raise ValueError(f"offset tau={last!r} must lie in [{a!r}, {a + h!r})")
    if mollify_coefficient:  # each step averages f over a (J, Q, Q) window
        s, w = profile.convolution_rule(n)
        _check_cap(J * float(s.size) * s.size, STEP_CAP, "mollified window", "points")

    def build():
        taus, ks = _offset_fan(tau0, h, J, b, k0)
        # one lattice call for the fan: padded times lie past b, where L_n is constant
        ts = taus[:, None] + h * np.arange(k0 + 1, dtype=np.float64)
        Ln = backend.driver_lattice_values(ts.ravel(), n, profile, L).reshape(ts.shape)
        del ts  # freed before differencing: at most two (J, Kmax + 1) arrays are live
        dLn = np.diff(Ln, axis=1)
        del Ln
        x0s = np.full(taus.shape, x0)
        if mollify_coefficient:
            return taus, backend.euler_mollified(f, taus, h, dLn, x0s, s, w), ks + 1
        return taus, backend.euler_exact(f, taus, h, dLn, x0s), ks + 1

    # looked up only after every check, so each error is raised as before
    return L._remember(("fan", _Same(profile), int(n), h.hex(), tau0.hex(), J, _Same(f),
                        x0.hex(), bool(mollify_coefficient)), build)


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
        return np.take(self.values, self._flat_index(j, t))

    def _flat_index(self, j, t) -> np.ndarray:
        """Index into the flattened ``values`` of eval's read-out at finite
        times t: row j starts at j * width."""
        j = np.asarray(j)[..., None] if np.ndim(j) else j
        k = np.asarray(t - self.offsets[j])  # an array even for one time, for the in-place steps
        k /= self.h
        np.floor(k, out=k)
        # clipped before the cast, which past the int64 range would not be defined
        np.clip(k, 0.0, self.lengths[j] - 1.0, out=k)
        idx = k.astype(np.int64)
        idx += j * self.values.shape[1]
        return idx

    def final_values(self) -> np.ndarray:
        return self.values[np.arange(self.values.shape[0]), self.lengths - 1]


def _check_offsets(n_offsets: int) -> None:
    """Refuse an offset count below 1 or over STEP_CAP, before any offset is made."""
    if n_offsets < 1:
        raise ValueError("need at least one offset")
    _check_cap(n_offsets, STEP_CAP, "offset fan", "offsets")


def solve_grid(f: ScalarField, L: BVFunction, profile: MollifierProfile,
               n: int, h: float, x0: float, n_offsets: int = 16,
               mollify_coefficient: bool = False) -> GridPath:
    """Run the scheme for n_offsets equispaced lattice offsets in [a, a + h),
    each from the initial state x0.  Each lattice t_k = tau + k h differences
    the driver smoothed at sharpness n; with ``mollify_coefficient`` the
    coefficient is averaged with the same kernel in both arguments instead
    of evaluated pointwise.  The fan is checked, and looked up on the driver,
    by (a, n_offsets, x0) before its offsets are made; a kept fan keeps them.
    """
    taus, values, lengths = _fan(f, L, profile, n, h, L.domain[0], n_offsets, float(x0),
                                 mollify_coefficient)
    return GridPath(offsets=taus, values=values, lengths=lengths, n=n, h=h,
                    profile_name=profile.name, domain=L.domain)


def _crossing_fractions(profile: MollifierProfile, n: int, h: float,
                        tau0: float, J: int, zeta: float) -> np.ndarray:
    """Smoothed-jump fractions seen around the epoch zeta, one row for each
    offset tau0 + j h / J of a fan whose count J the caller has checked.

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
    if not (math.isfinite(tau0) and math.isfinite(zeta)):
        raise ValueError("offset tau and epoch zeta must be finite")
    start = zeta - 1.0 / n
    if start <= tau0 + (h / J) * (J - 1):  # the last offset is the largest
        raise ValueError("epoch must sit at least one smoothing width past tau")
    taus, counts = _offset_fan(tau0, h, J, start, _step_count(start, tau0, h))
    p = np.floor(1.0 / (n * h) + 1e-9)  # a float: inf when 1 / (n h) overflows
    _check_cap(J * (p + 3.0), STEP_CAP, "crossing grid", "points")
    ks = np.arange(p + 3.0)
    xi = np.empty((J, ks.size))
    rows = max(1, backend.LATTICE_CHUNK // ks.size)  # blocks bound the transients
    for r in range(0, J, rows):
        block = F_n(profile, n, zeta - (taus[r:r + rows, None]
                                        + ((counts[r:r + rows, None] - 1.0) + ks) * h))
        np.maximum.accumulate(np.clip(block, 0.0, 1.0, out=block), axis=1, out=xi[r:r + rows])
    xi[:, 0] = 0.0
    xi[:, -1] = 1.0
    return xi


def xi_grid_for_offset(profile: MollifierProfile, n: int, h: float,
                       tau: float, zeta: float) -> XiGrid:
    """Crossing fractions around zeta of the lattice with offset tau (J = 1)."""
    return XiGrid(_crossing_fractions(profile, n, h, float(tau), 1, zeta)[0])


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
