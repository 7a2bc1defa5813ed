"""Coefficient fields: closed forms, declared constants, freezing."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from bvode import ScalarField

ALL_FIELDS = [
    ScalarField.constant(2.5),
    ScalarField.affine(0.3, -1.2),
    ScalarField.linear_x(),
    ScalarField.ramp(0.5, 0.25),
    ScalarField.bounded_sin(1.5, 2.0, 0.7, 0.3, 0.1),
    ScalarField.bounded_tanh(2.0, 0.8, -0.4),
]


def check_field_constants(field: ScalarField, rng: np.random.Generator, trials: int) -> None:
    """Spot-check the declared Lipschitz and growth constants by sampling."""
    ts = rng.uniform(-2.0, 2.0, size=trials)
    xs = rng.uniform(-5.0, 5.0, size=trials)
    ys = rng.uniform(-5.0, 5.0, size=trials)
    fx = np.asarray(field(ts, xs))
    fy = np.asarray(field(ts, ys))
    tol = 1e-12
    assert np.all(np.abs(fx - fy) <= field.lipschitz_const * np.abs(xs - ys) + tol)
    assert np.all(np.abs(fx) <= field.growth_const * (1.0 + np.abs(xs)) + tol)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_declared_constants_hold(field, rng):
    check_field_constants(field, rng, trials=4000)


def test_constant_value(rng):
    f = ScalarField.constant(3.0)
    ts, xs = rng.normal(size=(2, 50))
    np.testing.assert_array_equal(f(ts, xs), np.full(50, 3.0))


def test_affine_closed_form(rng):
    f = ScalarField.affine(0.3, -1.2)
    ts, xs = rng.normal(size=(2, 50))
    np.testing.assert_allclose(f(ts, xs), 0.3 - 1.2 * xs, atol=1e-15)


def test_ramp_shape():
    f = ScalarField.ramp(1.0, 0.5, height=2.0)
    assert f(0.0, 0.5) == 2.0
    assert f(0.0, 1.0) == 2.0        # plateau is closed at the threshold
    assert f(0.0, 1.25) == pytest.approx(1.0)
    assert f(0.0, 1.5) == 0.0
    assert f(0.0, 3.0) == 0.0


def test_sin_tanh_closed_forms(rng):
    ts, xs = rng.normal(size=(2, 40))
    f = ScalarField.bounded_sin(1.5, 2.0, 0.7, 0.3, 0.1)
    np.testing.assert_allclose(f(ts, xs), 1.5 * np.sin(2.0 * xs + 0.7 * ts + 0.3) + 0.1,
                               atol=1e-15)
    g = ScalarField.bounded_tanh(2.0, 0.8, -0.4)
    np.testing.assert_allclose(g(ts, xs), 2.0 * np.tanh(0.8 * xs) - 0.4, atol=1e-15)


@pytest.mark.parametrize("build", [
    lambda: ScalarField.constant(np.nan),
    lambda: ScalarField.affine(0.0, np.inf),
    lambda: ScalarField.ramp(np.nan, 0.5),
    lambda: ScalarField.bounded_sin(1.0, 2.0, freq_t=-np.inf),
    lambda: ScalarField.bounded_tanh(np.nan, 1.0),
], ids=["constant", "affine", "ramp", "sin", "tanh"])
def test_non_finite_parameter_rejected(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


def test_ramp_validation():
    with pytest.raises(ValueError):
        ScalarField.ramp(0.0, 0.0)
    with pytest.raises(ValueError):
        ScalarField.ramp(0.0, -1.0)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_scaled_frozen(field, rng):
    z = field.scaled_frozen(0.37, -2.5)
    assert z.is_autonomous
    xs = rng.normal(size=30)
    np.testing.assert_allclose(z(rng.normal(size=30), xs),
                               -2.5 * field(0.37, xs), atol=1e-13)
    assert z.lipschitz_const == pytest.approx(2.5 * field.lipschitz_const)
    assert z.growth_const == pytest.approx(2.5 * field.growth_const)


def test_autonomy_flag():
    assert ScalarField.bounded_sin(1.0, 1.0, 0.5).is_autonomous is False
    assert ScalarField.bounded_sin(1.0, 1.0, 0.0).is_autonomous is True
    assert ScalarField.linear_x().is_autonomous is True


@pytest.mark.parametrize("field", ALL_FIELDS, ids=lambda f: f.name)
def test_pickle_roundtrip(field, rng):
    back = pickle.loads(pickle.dumps(field))
    assert back == field
    ts, xs = rng.normal(size=(2, 20))
    np.testing.assert_array_equal(back(ts, xs), field(ts, xs))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# each kind's constructor with random finite parameters; a ramp's width is positive
RANDOM_FIELDS = st.one_of(
    st.builds(ScalarField.constant, FINITE),
    st.builds(ScalarField.affine, FINITE, FINITE),
    st.builds(ScalarField.ramp, FINITE, st.floats(0.0, exclude_min=True,
                                                   allow_infinity=False), FINITE),
    st.builds(ScalarField.bounded_sin, FINITE, FINITE, FINITE, FINITE, FINITE),
    st.builds(ScalarField.bounded_tanh, FINITE, FINITE, FINITE),
)


def bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


@given(field=RANDOM_FIELDS, t0=FINITE, scale=FINITE,
       ts=st.lists(FINITE, min_size=1, max_size=4), xs=st.lists(FINITE, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_kinds_table_matches_oracle(field, t0, scale, ts, xs):
    """The one table gives the bits of the per-kind code it replaced: the
    scaled frozen field's parameters, constants and name, the kind names, and
    every evaluator on floats and on arrays."""
    n = min(len(ts), len(xs))
    t, x = np.array(ts[:n]), np.array(xs[:n])
    with np.errstate(all="ignore"):  # huge parameters overflow alike on both sides
        z, want = field.scaled_frozen(t0, scale), oracle.scaled_frozen(field, t0, scale)
        assert (z.kind, z.name) == (want.kind, want.name)
        assert bits(z.params) == bits(want.params)
        assert bits(z.lipschitz_const) == bits(want.lipschitz_const)
        assert bits(z.growth_const) == bits(want.growth_const)
        for g in (field, z):
            assert repr(g) == f"ScalarField<{oracle.KIND_NAMES[g.kind]}:{g.name}>"
            ref = oracle.evaluator(g.kind, g.params)
            assert bits(g._eval(ts[0], xs[0])) == bits(ref(ts[0], xs[0]))
            assert bits(g._eval(t, x)) == bits(ref(t, x))
