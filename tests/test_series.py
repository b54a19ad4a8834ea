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
def test_roundtrip_integrate_then_differentiate_is_exact(p, tail, k):
    s = make_series(p, tail)
    back = differentiate(integrate(s, k), k)
    assert back.order_p == s.order_p
    # bit-exact, not approximately equal
    assert back.coeffs.tobytes() == s.coeffs.tobytes()


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
