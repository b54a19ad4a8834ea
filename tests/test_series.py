import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstar import (
    ArgOfZero,
    PowerSeries,
    differentiate,
    integrate,
    make_series,
    principal_arg,
)
from argstar.series import NonFiniteValue, falling_factorials


# ---------------------------------------------------------------- construction

def test_make_series_monomial():
    s = make_series(2, [])
    assert s.order_p == 2
    assert s.truncation_N == 1
    assert s.coeffs[0] == 1


def test_make_series_direct():
    s = make_series(1, [0.5])
    assert np.array_equal(s.coeffs, [1, 0.5])
    t = make_series(3, [(0, 0.25)])
    assert t.coeffs[1] == 0.25j


@pytest.mark.parametrize("p", [0, -1, 1.5, True])
def test_make_series_rejects_bad_p(p):
    with pytest.raises(ValueError):
        make_series(p, [])


def test_make_series_truncation_counts_the_tail():
    for n in range(4):
        s = make_series(1, [0.5] * n)
        assert s.truncation_N == n + 1
        assert np.array_equal(s.coeffs, [1.0] + [0.5] * n)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_make_series_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        make_series(1, [bad])


@pytest.mark.parametrize("coeffs", [[[1.0, 0.5]], []], ids=["2-d", "empty"])
def test_series_rejects_coefficients_that_are_not_a_nonempty_row(coeffs):
    with pytest.raises(ValueError, match=r"^coefficients must be a non-empty 1-d sequence$"):
        PowerSeries(0, coeffs)


@pytest.mark.parametrize("order_p,message", [
    (1.5, "order_p must be an integer"),
    (True, "order_p must be an integer"),
    (-1, "order_p must be >= 0"),
])
def test_series_rejects_bad_order(order_p, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PowerSeries(order_p, [1.0])


def test_series_equality_and_hash():
    s, t = PowerSeries(1, [1.0, 0.5j]), PowerSeries(1, np.array([1.0, 0.5j]))
    assert s == t and hash(s) == hash(t) and len({s, t}) == 1
    assert s != PowerSeries(2, [1.0, 0.5j]) and s != PowerSeries(1, [1.0, 0.25j])
    # another type is left to the other operand, so == falls back to identity
    assert s.__eq__((1, [1.0, 0.5j])) is NotImplemented
    assert s != (1, [1.0, 0.5j])


def test_series_is_immutable():
    s = make_series(2, [0.5])
    with pytest.raises(AttributeError):
        s.order_p = 3
    with pytest.raises(ValueError):
        s.coeffs[0] = 7.0


# ------------------------------------------------------------------- calculus

def test_differentiate_examples():
    assert np.array_equal(differentiate(make_series(3, []), 3).coeffs, [6])
    d = differentiate(make_series(2, [0.5]), 1)
    assert d.order_p == 1
    assert np.array_equal(d.coeffs, [2, 1.5])
    assert differentiate(make_series(4, []), 4).coeffs[0] == 24


def test_differentiate_below_zero_vanishes():
    d = differentiate(make_series(2, [0.5]), 3)
    assert d.order_p == 0
    assert np.array_equal(d.coeffs, [3.0])  # only the 0.5 z^3 term survives
    z = differentiate(make_series(1, []), 2)
    assert np.array_equal(z.coeffs, [0.0])


def test_differentiate_starts_at_lowest_nonzero_term():
    # 2z^3 + z^4 stored from z: f' = 6z^2 + 4z^3; f^(0) is the series as given
    f = PowerSeries(1, [0.0, 0.0, 2.0, 1.0])
    assert differentiate(f, 1) == PowerSeries(2, [6.0, 4.0])
    assert differentiate(f, 0) == f
    assert differentiate(PowerSeries(0, [5.0, 0.0, 0.0]), 1) == PowerSeries(1, [0.0])  # a zero keeps its last term


def test_differentiate_overflow_raises_non_finite_value():
    # f' = 1 + 2e308 z overflows in a coefficient; 171! overflows in the factorial row
    with pytest.raises(NonFiniteValue, match=r"coefficient of f\^\(1\)"):
        differentiate(make_series(1, [1e308]), 1)
    with pytest.raises(NonFiniteValue, match="overflows float64"):
        differentiate(make_series(171, []), 171)


@pytest.mark.parametrize("k", [-1, 1.5, True])
def test_differentiate_rejects_bad_k(k):
    with pytest.raises(ValueError, match=r"^k must be an integer >= 0$"):
        differentiate(make_series(2, [0.5]), k)


def test_integrate_examples():
    s = integrate(PowerSeries(0, [2.0]), 2)
    assert s.order_p == 2 and s.coeffs[0] == 1
    s = integrate(PowerSeries(1, [6.0]), 1)
    assert s.order_p == 2 and s.coeffs[0] == 3
    f = make_series(3, [1.0])
    assert integrate(differentiate(f, 2), 2) == f


coeff_st = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@given(
    p=st.integers(1, 8),
    tail=st.lists(coeff_st, max_size=31),
    k=st.integers(0, 8),
)
def test_roundtrip_integrate_then_differentiate_within_two_ulps(p, tail, k):
    s = make_series(p, tail)
    back = differentiate(integrate(s, k), k)
    assert back.order_p == s.order_p
    # one division and one multiplication by the same exact falling factorial:
    # two ulps, plus what a quotient below the normal range loses, scaled back up
    underflow = falling_factorials(p + k, s.coeffs.size, k) * np.spacing(0.0)
    for got, want in ((back.coeffs.real, s.coeffs.real), (back.coeffs.imag, s.coeffs.imag)):
        assert (np.abs(got - want) <= 2 * np.spacing(np.abs(want)) + underflow).all()


@given(
    tail=st.lists(coeff_st, min_size=1, max_size=31),
    z=st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200)
def test_derivative_matches_finite_difference(tail, z):
    def at(s, w):  # np.polyval reference: highest power first, then the z**order_p factor
        return np.polyval(s.coeffs[::-1], w) * w**s.order_p

    s = make_series(1, tail)
    h = 1e-5
    fd = (at(s, z + h) - at(s, z - h)) / (2 * h)
    assert abs(at(differentiate(s, 1), z) - fd) <= 1e-6


# -------------------------------------------------------------- principal arg

def test_principal_arg_examples():
    assert principal_arg(1 + 1j) == pytest.approx(math.pi / 4, abs=1e-15)
    assert principal_arg(-1) == math.pi
    assert principal_arg(complex(-1, -0.0)) == math.pi  # branch (-pi, pi]
    assert principal_arg(0.64 + 0.48j) == pytest.approx(math.atan(0.75), abs=1e-15)
    assert principal_arg(0.64 + 0.48j) == pytest.approx(math.asin(0.6), abs=1e-15)


def test_principal_arg_rejects_zero():
    with pytest.raises(ArgOfZero):
        principal_arg(0)
    with pytest.raises(ArgOfZero):
        principal_arg(complex(0.0, -0.0))


@given(st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_nan=False, allow_infinity=False))
def test_principal_arg_range(w):
    a = principal_arg(w)
    assert -math.pi < a <= math.pi
