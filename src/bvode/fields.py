"""Scalar coefficient fields f(t, x) with declared Lipschitz and growth constants.

Fields are stored as a small integer kind plus a parameter tuple.  The
``_KINDS`` table describes each kind once: its name, its evaluator and the
parameters that scale with f.  Each field builds its kind's evaluator when it
is constructed; ``__call__``, the Euler recursions, the Heun steps and the
jump-map flow all evaluate through it.  Every constructor computes the constants

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


def _ramp(top, width, height):
    """The ramp's evaluator.  It branches on a float, which costs a fraction
    of ``np.where`` on a scalar; the jump map and the Heun steps evaluate one
    float at a time."""
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


# Each kind once: its name, its evaluator factory (the parameters in; out
# f(t, x) on floats or on arrays, t and x not broadcast) and the positions of
# the parameters that scale with f.
_KINDS = {
    FIELD_CONST: ("constant", lambda c: lambda t, x: c, (0,)),
    FIELD_AFFINE: ("affine", lambda a, b: lambda t, x: a + b * x, (0, 1)),
    FIELD_RAMP: ("ramp", _ramp, (2,)),
    FIELD_SIN: ("sin", lambda amp, wx, wt, phase, off:
                lambda t, x: amp * np.sin(wx * x + wt * t + phase) + off, (0, 4)),
    FIELD_TANH: ("tanh", lambda amp, slope, off:
                 lambda t, x: amp * np.tanh(slope * x) + off, (0, 2)),
}


@dataclass(frozen=True)
class ScalarField:
    """Coefficient field f(t, x); immutable and closed under freeze/scale."""

    kind: int
    params: tuple
    lipschitz_const: float
    growth_const: float
    name: str = ""
    # the kind's evaluator, built from the parameters; see _KINDS
    _eval: object = _dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_eval", _KINDS[self.kind][1](*self.params))

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

    def scaled_frozen(self, t0: float, scale: float) -> "ScalarField":
        """Return the autonomous field x -> scale * f(t0, x).

        Used to turn a coefficient field into the jump field z(p) = dL * f(zeta, p).
        The result stays within the coded field family.
        """
        t0 = float(t0)
        scale = float(scale)
        p = list(self.params)
        for i in _KINDS[self.kind][2]:
            p[i] = scale * p[i]
        lip = abs(scale) * self.lipschitz_const
        if self.kind == FIELD_SIN:  # t is frozen at t0: freq_t * t0 joins the phase
            p[2:4] = 0.0, p[2] * t0 + p[3]
            lip = abs(p[0] * p[1])  # frozen in t: the bound in x alone
        return ScalarField(self.kind, tuple(p), lip, abs(scale) * self.growth_const,
                           f"{scale:g}*{self.name}@t={t0:g}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"ScalarField<{_KINDS[self.kind][0]}:{self.name}>"

