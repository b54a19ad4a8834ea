"""Truncated complex power series with bit-exact differentiation and integration.

A series is a finite sum  sum_j coeffs[j] * z**(order_p + j)  with complex
float64 coefficients. ``order_p`` is the lowest stored exponent: ``p`` for a
normalized p-valent function z**p + a_{p+1} z**(p+1) + ..., and 0 for images
of repeated differentiation.

Differentiation and integration must round-trip bit-exactly
(differentiate(integrate(s, k), k) == s), which no plain coefficient store can
deliver in float64 because c/m*m and c*m/m are one ulp off for roughly one
coefficient in nine. Instead a series keeps the coefficients it was built with
verbatim plus a count of *pending integrations*: integrate() only relabels
(order up, count up), and differentiate() unwinds pending integrations by
relabeling before it ever multiplies by an exponent. The displayed/evaluated
coefficients divide once by the exact integer falling factorial.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_TOL = 1e-13  # |value| below this is treated as a true zero


class ArgOfZero(ValueError):
    """principal_arg(0) is undefined."""


def _as_coeff_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("coefficients must be a non-empty 1-d sequence")
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class PowerSeries:
    """Immutable truncated power series.

    Attributes:
        order_p: lowest stored exponent (>= 0).
        coeffs:  read-only complex128 array, coeffs[j] multiplies
                 z**(order_p + j).
    """

    __slots__ = ("order_p", "coeffs", "_raw", "_lift")

    def __init__(self, order_p: int, coeffs):
        if not isinstance(order_p, (int, np.integer)) or isinstance(order_p, bool):
            raise ValueError("order_p must be an integer")
        if order_p < 0:
            raise ValueError("order_p must be >= 0")
        raw = _as_coeff_array(coeffs)
        object.__setattr__(self, "order_p", int(order_p))
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_lift", 0)
        object.__setattr__(self, "coeffs", raw)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @classmethod
    def _lifted(cls, order_p: int, raw: np.ndarray, lift: int) -> "PowerSeries":
        # Internal: `raw` holds the coefficients as they were before `lift`
        # integrations; the true coefficient of z**e is raw[j] / (e falling lift).
        self = object.__new__(cls)
        object.__setattr__(self, "order_p", int(order_p))
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "_lift", int(lift))
        if lift == 0:
            plain = raw
        else:
            exps = range(order_p, order_p + raw.size)
            divisors = np.array([float(math.perm(e, lift)) for e in exps])
            plain = raw / divisors
            plain.flags.writeable = False
        object.__setattr__(self, "coeffs", plain)
        return self

    @property
    def truncation_N(self) -> int:
        return self.coeffs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order_p == other.order_p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.order_p, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], separator=", ")
        tail = ", ..." if self.coeffs.size > 4 else ""
        return f"PowerSeries(order_p={self.order_p}, coeffs={head[:-1]}{tail}])"


def make_series(p: int, tail_coeffs, N: int) -> PowerSeries:
    """Build z**p + sum tail_coeffs[j] z**(p+1+j), truncated at N stored terms."""
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise ValueError("p must be an integer >= 1")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 1:
        raise ValueError("N must be an integer >= 1")
    tail = list(tail_coeffs)
    if len(tail) != N - 1:
        raise ValueError(f"expected {N - 1} tail coefficients, got {len(tail)}")
    return PowerSeries(int(p), [1.0 + 0.0j, *(complex(*c) if isinstance(c, (tuple, list)) else complex(c) for c in tail)])


def _strip_leading_zeros(order: int, raw: np.ndarray) -> tuple[int, np.ndarray]:
    j = 0
    while j < raw.size - 1 and raw[j] == 0:
        j += 1
    return order + j, raw[j:]


def differentiate(s: PowerSeries, k: int) -> PowerSeries:
    """Term-by-term k-th derivative; terms whose exponent drops below 0 vanish."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    if k == 0:
        return s
    order, raw, lift = s.order_p, s._raw, s._lift
    unwound = min(k, lift)
    order -= unwound  # relabel only: bit-exact inverse of integrate()
    lift -= unwound
    for _ in range(k - unwound):
        if order == 0:
            if raw.size == 1:
                raw = np.zeros(1, dtype=np.complex128)
                break
            raw = raw[1:] * np.arange(1, raw.size)
        else:
            raw = raw * np.arange(order, order + raw.size)
            order -= 1
    order, raw = _strip_leading_zeros(order, raw)
    raw = raw.copy()
    raw.flags.writeable = False
    return PowerSeries._lifted(order, raw, lift)


def integrate(s: PowerSeries, k: int) -> PowerSeries:
    """k-fold antiderivative with all integration constants zero."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    if k == 0:
        return s
    return PowerSeries._lifted(s.order_p + k, s._raw, s._lift + k)


def _horner(coeffs: np.ndarray, z: complex) -> complex:
    acc = complex(coeffs[-1])
    for j in range(coeffs.size - 2, -1, -1):
        acc = acc * z + complex(coeffs[j])
    return acc


def principal_arg(w: complex) -> float:
    """Principal argument in (-pi, pi]."""
    w = complex(w)
    if w.real == 0.0 and w.imag == 0.0:
        raise ArgOfZero("argument of zero is undefined")
    a = math.atan2(w.imag, w.real)
    return math.pi if a == -math.pi else a
