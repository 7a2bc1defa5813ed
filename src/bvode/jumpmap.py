"""Staircase maps, the probability measures they generate, and jump maps.

A staircase map sigma sends u to the right endpoint of a covering interval
(a_i, b_i] and to u itself elsewhere.  Its Stieltjes measure d(sigma) puts
an atom of mass b_i - a_i at each a_i and unit Lebesgue density on the
rest of [0, 1].  The jump map phi(z, x, u) transports a state x across a
driver jump by integrating dphi = z(phi) d(mu) over [0, u): atoms apply a
single explicit increment, Lebesgue stretches run the smooth flow.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import backend
from .fields import ScalarField


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


class SigmaG:
    """Staircase map on [0, 1]: b_i on each (a_i, b_i], identity elsewhere."""

    def __init__(self, intervals=()):
        ivals = [(float(a), float(b)) for a, b in intervals]
        ivals.sort()
        for a, b in ivals:
            if not (0.0 <= a < b <= 1.0):
                raise ValueError(f"interval ({a!r}, {b!r}] must satisfy 0 <= a < b <= 1")
        for (_, b0), (a1, _) in zip(ivals[:-1], ivals[1:]):
            if a1 < b0:
                raise ValueError("intervals must be pairwise disjoint")
        self.intervals = tuple(ivals)
        # the ends, held once; tuples, so that float and array calls read the same ends
        self._a, self._b = tuple(a for a, _ in ivals), tuple(b for _, b in ivals)

    def __call__(self, u):
        if isinstance(u, float):  # numpy.float64 too; one bisection on the left ends
            if not 0.0 <= u <= 1.0:
                raise ValueError("sigma argument must lie in [0, 1]")
            i = bisect.bisect_left(self._a, u) - 1
            return self._b[i] if i >= 0 and u <= self._b[i] else float(u)
        uu = np.asarray(u, dtype=np.float64)
        if not np.all((uu >= 0.0) & (uu <= 1.0)):
            raise ValueError("sigma argument must lie in [0, 1]")
        out = uu.copy()
        if self._a:
            a, b = np.asarray(self._a), np.asarray(self._b)
            idx = np.searchsorted(a, uu, side="left") - 1
            safe = np.clip(idx, 0, a.size - 1)
            hit = (idx >= 0) & (uu <= b[safe])
            out[hit] = b[safe][hit]
        return _scalar(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SigmaG({list(self.intervals)!r})"


class JumpMeasure:
    """Probability measure on [0, 1]: atoms plus unit-density segments."""

    def __init__(self, atoms=(), segments=()):
        atoms = sorted((float(v), float(m)) for v, m in atoms)
        for v, m in atoms:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"atom location {v!r} outside [0, 1]")
            if not m > 0.0:
                raise ValueError(f"atom at {v!r} has nonpositive mass {m!r}")
        for (v0, _), (v1, _) in zip(atoms[:-1], atoms[1:]):
            if v0 == v1:
                raise ValueError(f"duplicate atom location {v0!r}")
        segments = sorted((float(lo), float(hi)) for lo, hi in segments)
        for lo, hi in segments:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"segment ({lo!r}, {hi!r}) must satisfy 0 <= lo < hi <= 1")
        for (_, h0), (l1, _) in zip(segments[:-1], segments[1:]):
            if l1 < h0:
                raise ValueError("density segments must not overlap")
        total = sum(m for _, m in atoms) + sum(hi - lo for lo, hi in segments)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"total mass {total!r} must equal 1")
        self.atoms = tuple(atoms)
        self.segments = tuple(segments)
        self._alocs = np.array([v for v, _ in atoms], dtype=np.float64)
        self._amass = np.array([m for _, m in atoms], dtype=np.float64)

    @classmethod
    def lebesgue(cls) -> "JumpMeasure":
        return cls(segments=((0.0, 1.0),))

    @classmethod
    def dirac(cls, loc=0.0) -> "JumpMeasure":
        return cls(atoms=((loc, 1.0),))

    def lebesgue_mass(self, lo: float, hi: float) -> float:
        """Absolutely continuous mass of the window (lo, hi); a NaN end is a ValueError."""
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("window ends must not be NaN")
        return float(sum(max(0.0, min(s1, hi) - max(s0, lo))
                         for s0, s1 in self.segments))

    def mass_closed(self, u: float, v: float) -> float:
        """Mass of the closed window [u, v]."""
        if not u <= v:
            raise ValueError("window needs u <= v")
        at = float(self._amass[(self._alocs >= u) & (self._alocs <= v)].sum())
        return at + self.lebesgue_mass(u, v)

    def __repr__(self) -> str:  # pragma: no cover
        return f"JumpMeasure(atoms={list(self.atoms)!r}, segments={list(self.segments)!r})"


class XiGrid:
    """Monotone partition 0 = xi_0 <= ... <= xi_last = 1 of the unit interval."""

    def __init__(self, values):
        v = np.array(values, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid needs at least two values")
        if v[0] != 0.0 or v[-1] != 1.0:
            raise ValueError("grid endpoints must be exactly 0 and 1")
        if not np.all(np.diff(v) >= 0.0):
            raise ValueError("grid values must be non-decreasing")
        self.values = v

    def __repr__(self) -> str:  # pragma: no cover
        return f"XiGrid({self.values.size} values)"


def measure_from_sigma(sigma: SigmaG) -> JumpMeasure:
    """Stieltjes measure of a staircase map.

    Each interval (a, b] contributes an atom of mass b - a at a; the
    complement of the intervals keeps unit Lebesgue density.
    """
    atoms = [(a, b - a) for a, b in sigma.intervals]
    segments = []
    pos = 0.0
    for a, b in sigma.intervals:
        if a > pos:
            segments.append((pos, a))
        pos = b
    if pos < 1.0:
        segments.append((pos, 1.0))
    return JumpMeasure(atoms=atoms, segments=segments)


def _require_autonomous(z) -> None:
    if not z.is_autonomous:
        raise ValueError("z must not depend on t; freeze the time argument first")


def phi_solve(z: ScalarField, x: float, u: float, mu: JumpMeasure) -> float:
    """Jump-map value phi(z, x, u): integrate dphi = z(phi) d(mu) over [0, u).

    Event-driven walk in increasing position: each atom strictly below u
    applies the explicit increment phi += z(phi) * mass, each Lebesgue
    stretch advances the exact flow dphi/dm = z(phi)
    (:func:`bvode.backend.flow_mass`).  An atom exactly at u is excluded
    by the half-open convention.  One forward pass over the segments finds
    every stretch's mass, so a call is linear in atoms plus segments.
    """
    _require_autonomous(z)
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
    segs, i = mu.segments, 0
    for p0, p1 in zip(edges[:-1], edges[1:]):
        if p0 in amass:
            phi = phi + float(z._eval(0.0, phi)) * amass[p0]
        # lebesgue_mass(p0, p1) from the segments i..j that meet [p0, p1): the
        # sorted segments before i end by p0 and those from j on start at p1 or
        # later, so the terms they would add are exactly 0.0
        while i < len(segs) and segs[i][1] <= p0:
            i += 1
        j = i
        while j < len(segs) and segs[j][0] < p1:
            j += 1
        leb = float(sum(max(0.0, min(s1, p1) - max(s0, p0)) for s0, s1 in segs[i:j]))
        if leb > 0.0:
            phi = backend.flow_mass(z, phi, leb)
    return phi


def phi_recursion(z: ScalarField, x: float, grid: XiGrid) -> np.ndarray:
    """Explicit recursion phi_{k+1} = phi_k + z(phi_k) (xi_{k+1} - xi_k).

    Returns the whole sequence phi_0 .. phi_last.
    """
    _require_autonomous(z)
    return backend.euler_exact(z, np.zeros(1), 0.0, np.diff(grid.values)[None],
                               np.array([float(x)]))[0]


def ramp_z(q: float, eps: float, x_ref: float) -> ScalarField:
    """Unit-height ramp in x: 1 up to x_ref + q, linear to 0 over width eps."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    return ScalarField.ramp(float(x_ref) + float(q), float(eps), height=1.0)


def phi_explicit_ramp(sigma: SigmaG, q: float, eps: float, x: float,
                      t: float) -> float:
    """Closed-form jump-map value for the ramp field z = ramp_z(q, eps, x).

    Serves as the independent oracle for :func:`phi_solve` under the
    measure generated by sigma.  Three regimes: before the ramp engages
    the state just accumulates sigma(t); afterwards the head distance to
    the ramp top decays exponentially in accumulated mass, with each
    staircase atom of mass m scaling it by (1 - m/eps); the first atom of
    mass >= eps (position w*) overshoots the ramp and freezes the state.

    Only valid when sigma(q) = q: if the engagement point sits strictly
    inside a staircase interval the piecewise derivation breaks down, and
    a ValueError is raised instead of returning a wrong value.
    """
    q, eps, x, t = float(q), float(eps), float(x), float(t)
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t <= q:
        return x + float(sigma(t))
    if float(sigma(q)) > q:
        raise ValueError(
            f"explicit formula needs sigma(q) = q, got sigma({q!r}) = {float(sigma(q))!r}")
    atoms = [(a, b - a) for a, b in sigma.intervals if a >= q]
    big = [a for a, m in atoms if m >= eps]
    w_star = min(1.0, min(big)) if big else 1.0

    def head(stop: float) -> float:
        g = eps * math.exp(-(float(sigma(stop)) - q) / eps)
        for a, m in atoms:
            if a < stop:
                g *= (1.0 - m / eps) * math.exp(m / eps)
        return g

    if t <= w_star:
        return x + q + eps - head(t)
    m_star = dict(atoms)[w_star]
    return x + q + eps - head(w_star) * (1.0 - m_star / eps)
