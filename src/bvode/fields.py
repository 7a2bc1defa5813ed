"""Scalar coefficient fields f(t, x) with declared Lipschitz and growth constants.

Fields are stored as a small integer kind plus a parameter tuple.  Each
field builds one evaluator specialized to its kind when it is constructed;
``__call__``, the Euler recursions, the Heun steps and the jump-map flow all
evaluate through it.  Every constructor computes the constants

    |f(t, x) - f(t, y)| <= M |x - y|        (``lipschitz_const``)
    |f(t, x)|          <= K (1 + |x|)       (``growth_const``)

for the produced field.  For the built-in library, ``lipschitz_const`` is a
joint (t, x) Lipschitz bound, which is what the mollification error estimates
need.
"""

from __future__ import annotations

from dataclasses import dataclass, field as _dc_field

import numpy as np

FIELD_CONST = 0
FIELD_AFFINE = 1
FIELD_RAMP = 2
FIELD_SIN = 3
FIELD_TANH = 4


def _finite(*values) -> tuple:
    """The values as floats; ValueError when one is not finite."""
    out = tuple(map(float, values))
    if not all(np.isfinite(out)):
        raise ValueError(f"field parameters must be finite, got {out!r}")
    return out


def _evaluator(kind: int, params: tuple):
    """f(t, x) of one field kind, on floats or on arrays (t and x not broadcast).

    The ramp branches on a float, which costs a fraction of ``np.where``
    on a scalar; the RK4 flow and the Heun steps evaluate one float at a time.
    """
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


_KIND_NAMES = {
    FIELD_CONST: "constant",
    FIELD_AFFINE: "affine",
    FIELD_RAMP: "ramp",
    FIELD_SIN: "sin",
    FIELD_TANH: "tanh",
}


@dataclass(frozen=True)
class ScalarField:
    """Coefficient field f(t, x); immutable and closed under freeze/scale."""

    kind: int
    params: tuple
    lipschitz_const: float
    growth_const: float
    name: str = ""
    # the kind's evaluator, built from the parameters; see _evaluator
    _eval: object = _dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_eval", _evaluator(self.kind, self.params))

    def __reduce__(self):
        # the evaluator is a closure, which pickle cannot store; rebuild it
        return (ScalarField, (self.kind, self.params, self.lipschitz_const,
                              self.growth_const, self.name))

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        (value,) = _finite(value)
        return cls(FIELD_CONST, (value,), 0.0, abs(value), f"const({value:g})")

    @classmethod
    def affine(cls, offset: float, slope: float) -> "ScalarField":
        """f(t, x) = offset + slope * x."""
        offset, slope = _finite(offset, slope)
        return cls(
            FIELD_AFFINE,
            (offset, slope),
            abs(slope),
            max(abs(offset), abs(slope)),
            f"affine({offset:g},{slope:g})",
        )

    @classmethod
    def linear_x(cls) -> "ScalarField":
        """f(t, x) = x."""
        return cls.affine(0.0, 1.0)

    @classmethod
    def ramp(cls, threshold: float, width: float, height: float = 1.0) -> "ScalarField":
        """Plateau of ``height`` for x <= threshold, linear to 0 on
        (threshold, threshold + width], 0 beyond."""
        threshold, width, height = _finite(threshold, width, height)
        if width <= 0.0:
            raise ValueError("ramp width must be positive")
        return cls(
            FIELD_RAMP,
            (threshold, width, height),
            abs(height) / width,
            abs(height),
            f"ramp({threshold:g},{width:g},{height:g})",
        )

    @classmethod
    def bounded_sin(cls, amp: float, freq_x: float, freq_t: float = 0.0,
                    phase: float = 0.0, offset: float = 0.0) -> "ScalarField":
        """f(t, x) = amp * sin(freq_x * x + freq_t * t + phase) + offset."""
        amp, freq_x, freq_t, phase, offset = _finite(amp, freq_x, freq_t, phase, offset)
        lip = abs(amp) * max(abs(freq_x), abs(freq_t))
        return cls(
            FIELD_SIN,
            (amp, freq_x, freq_t, phase, offset),
            lip,
            abs(amp) + abs(offset),
            f"sin({amp:g},{freq_x:g},{freq_t:g})",
        )

    @classmethod
    def bounded_tanh(cls, amp: float, slope: float, offset: float = 0.0) -> "ScalarField":
        """f(t, x) = amp * tanh(slope * x) + offset."""
        amp, slope, offset = _finite(amp, slope, offset)
        return cls(
            FIELD_TANH,
            (amp, slope, offset),
            abs(amp) * abs(slope),
            abs(amp) + abs(offset),
            f"tanh({amp:g},{slope:g})",
        )

    # -- evaluation --------------------------------------------------------

    def __call__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = self._eval(t, x)
        shape = np.broadcast_shapes(t.shape, x.shape)
        if np.shape(out) != shape:
            out = np.broadcast_to(out, shape).copy()
        return float(out) if np.ndim(out) == 0 else out

    @property
    def is_autonomous(self) -> bool:
        """True when the field does not depend on t."""
        if self.kind == FIELD_SIN:
            return self.params[2] == 0.0
        return True

    def x_kinks(self) -> tuple:
        """x-values where f( . , x) is not smooth (used for step alignment)."""
        if self.kind == FIELD_RAMP:
            return (self.params[0], self.params[0] + self.params[1])
        return ()

    def scaled_frozen(self, t0: float, scale: float) -> "ScalarField":
        """Return the autonomous field x -> scale * f(t0, x).

        Used to turn a coefficient field into the jump field z(p) = dL * f(zeta, p).
        The result stays within the coded field family.
        """
        t0 = float(t0)
        scale = float(scale)
        p = self.params
        tag = f"{scale:g}*{self.name}@t={t0:g}"
        if self.kind == FIELD_CONST:
            return ScalarField(FIELD_CONST, (scale * p[0],), 0.0, abs(scale) * self.growth_const, tag)
        if self.kind == FIELD_AFFINE:
            return ScalarField(
                FIELD_AFFINE, (scale * p[0], scale * p[1]),
                abs(scale) * self.lipschitz_const, abs(scale) * self.growth_const, tag,
            )
        if self.kind == FIELD_RAMP:
            return ScalarField(
                FIELD_RAMP, (p[0], p[1], scale * p[2]),
                abs(scale) * self.lipschitz_const, abs(scale) * self.growth_const, tag,
            )
        if self.kind == FIELD_SIN:
            return ScalarField(
                FIELD_SIN, (scale * p[0], p[1], 0.0, p[2] * t0 + p[3], scale * p[4]),
                abs(scale * p[0] * p[1]), abs(scale) * self.growth_const, tag,
            )
        return ScalarField(
            FIELD_TANH, (scale * p[0], p[1], scale * p[2]),
            abs(scale) * self.lipschitz_const, abs(scale) * self.growth_const, tag,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScalarField<{_KIND_NAMES[self.kind]}:{self.name}>"


def check_field_constants(field: ScalarField, rng: np.random.Generator,
                          trials: int = 200, t_span=(-2.0, 2.0), x_span=(-5.0, 5.0)) -> None:
    """Spot-check the declared Lipschitz and growth constants by sampling.

    Raises AssertionError on a violation; used by the test suite and available
    for user-defined sanity checks.
    """
    ts = rng.uniform(*t_span, size=trials)
    xs = rng.uniform(*x_span, size=trials)
    ys = rng.uniform(*x_span, size=trials)
    fx = np.asarray(field(ts, xs))
    fy = np.asarray(field(ts, ys))
    tol = 1e-12
    assert np.all(np.abs(fx - fy) <= field.lipschitz_const * np.abs(xs - ys) + tol)
    assert np.all(np.abs(fx) <= field.growth_const * (1.0 + np.abs(xs)) + tol)
