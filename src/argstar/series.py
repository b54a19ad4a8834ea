"""Truncated complex power series, their derivatives and antiderivatives.

A series is a finite sum  sum_j coeffs[j] * z**(order_p + j)  with complex
float64 coefficients. ``order_p`` is the lowest stored exponent: ``p`` for a
normalized p-valent function z**p + a_{p+1} z**(p+1) + ..., and 0 for images
of repeated differentiation. The coefficients are all a series keeps.

differentiate() and integrate() multiply or divide each coefficient once by
its exact integer falling factorial, rounded once to float64, so a round trip
differentiate(integrate(s, k), k) comes back within two ulps of s.

A SeriesBlock keeps many series of one order as the rows of one array, and
derivative_block differentiates all rows at once. Each f^(k) it returns starts
at z**max(order_p - k, 0) for every row alike and keeps its leading zeros
(differentiate drops them from its one series), and is divided by its
leading falling factorial perm(e0, k), e0 = max(order_p, k):
one multiply per row by the cached ratios perm(e0 + j, k)/perm(e0, k), each at
most C(e0 + j, j), so they stay finite where the factorials themselves
overflow float64. Only positive scales are lost, which leave arguments and
signs alone; a caller that needs a true value multiplies the leads back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

ZERO_TOL = 1e-13  # |value| below this is treated as a true zero


class ArgOfZero(ValueError):
    """principal_arg(0) is undefined."""


class NonFiniteValue(ArithmeticError):
    """A float64 overflow: a value of a check, or a falling factorial, is not finite."""


def leading_power(order: int, k: int) -> int:
    """max(order - k, 0): the power of z at which derivative_block starts f^(k)
    of a series of this order."""
    return max(order - k, 0)


def leading_factorial(order: int, k: int) -> int:
    """perm(max(order, k), k): the exact integer that derivative_block divides
    f^(k) of a series of this order by."""
    return math.perm(max(order, k), k)


@functools.lru_cache(maxsize=256)
def falling_factorials(order: int, size: int, k: int, normalized: bool = False) -> np.ndarray:
    """perm(e, k) = e!/(e-k)! for the exponents e = order .. order+size-1, or
    perm(e, k)/leading_factorial(order, k) when normalized (order >= k). Each
    entry is an exact ratio of Python ints rounded once; the row is read-only
    float64. Raises NonFiniteValue where an entry overflows float64."""
    lead = leading_factorial(order, k) if normalized else 1
    try:
        row = np.array([math.perm(e, k) / lead for e in range(order, order + size)])
    except OverflowError:
        entry = f"perm(e, {k})" + (f"/perm({order}, {k})" if normalized else "")
        raise NonFiniteValue(f"{entry} overflows float64 for some e in {order}..{order + size - 1}") from None
    row.flags.writeable = False
    return row


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer, and not a bool: the test of integer arguments."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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

    __slots__ = ("order_p", "coeffs")

    def __init__(self, order_p: int, coeffs):
        if not is_integer(order_p):
            raise ValueError("order_p must be an integer")
        if order_p < 0:
            raise ValueError("order_p must be >= 0")
        object.__setattr__(self, "order_p", int(order_p))
        object.__setattr__(self, "coeffs", _as_coeff_array(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

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


def make_series(p: int, tail_coeffs) -> PowerSeries:
    """Build z**p + sum tail_coeffs[j] z**(p+1+j): 1 + len(tail_coeffs) stored terms."""
    if not is_integer(p) or p < 1:
        raise ValueError("p must be an integer >= 1")
    tail = (complex(*c) if isinstance(c, (tuple, list)) else complex(c) for c in tail_coeffs)
    return PowerSeries(int(p), [1.0 + 0.0j, *tail])


@dataclass(frozen=True)
class SeriesBlock:
    """Series of one order_p, one per row of raw (B, size): row b is
    sum_j raw[b, j] z**(order_p + j), as a PowerSeries keeps a single series."""

    order_p: int
    raw: np.ndarray


def _derive(order: int, raw: np.ndarray, k: int, normalized: bool) -> np.ndarray:
    """The k-th derivative of every row of raw, divided by
    leading_factorial(order, k) when normalized: row b is
    sum_j out[b, j] z**(leading_power(order, k) + j), leading zeros kept."""
    if not k:
        return raw
    e0 = max(order, k)  # the lowest exponent whose term survives
    width = raw.shape[1] - (e0 - order)
    if width < 1:  # every term vanishes
        return np.zeros((len(raw), 1), dtype=np.complex128)
    return raw[:, e0 - order:] * falling_factorials(e0, width, k, normalized)


@functools.lru_cache(maxsize=256)
def _factor_table(order: int, size: int, ks: tuple[int, ...]) -> Optional[np.ndarray]:
    """falling_factorials(order, size, k, normalized=True) for each k in ks,
    one row each: shape (len(ks), size), read-only. None where some k >
    order: that f^(k) loses terms and starts later (_derive)."""
    if max(ks) > order:
        return None
    table = np.array([falling_factorials(order, size, k, normalized=True) for k in ks])
    table.flags.writeable = False
    return table


def derivative_block(f, ks) -> np.ndarray:
    """The derivatives f^(k)/leading_factorial(order_p, k), k in ks, of every draw
    of f (a PowerSeries is one draw, a SeriesBlock one draw per row), as one
    (B, len(ks), n) block: row k of every draw starts at
    z**leading_power(order_p, k) and keeps its leading zeros, zero-padded on
    the right to the longest, n.

    Where every k <= order_p, every row keeps all n coefficients, and the
    block is one product with a cached table of the rows' factors
    (_factor_table); each entry rounds as in _derive. Row k = 0 is f
    verbatim, as _derive gives it: a product with 1 + 0j would turn a -0.0
    imaginary part into +0.0.
    """
    g = f if isinstance(f, SeriesBlock) else SeriesBlock(f.order_p, f.coeffs[None, :])
    table = _factor_table(g.order_p, g.raw.shape[1], tuple(ks))
    if table is not None:
        coeffs = g.raw[:, None, :] * table
        for i, k in enumerate(ks):
            if not k:
                coeffs[:, i] = g.raw
        return coeffs
    rows = [_derive(g.order_p, g.raw, k, normalized=True) for k in ks]
    coeffs = np.zeros((len(g.raw), len(ks), max(r.shape[1] for r in rows)), dtype=np.complex128)
    for i, r in enumerate(rows):
        coeffs[:, i, : r.shape[1]] = r
    return coeffs


def _check_k(k) -> None:
    if not is_integer(k) or k < 0:
        raise ValueError("k must be an integer >= 0")


def differentiate(s: PowerSeries, k: int) -> PowerSeries:
    """Term-by-term k-th derivative; terms whose exponent drops below 0 vanish.
    Raises NonFiniteValue where a coefficient overflows float64."""
    _check_k(k)
    with np.errstate(over="ignore", invalid="ignore"):  # found by the check below
        row = _derive(s.order_p, s.coeffs[None, :], int(k), normalized=False)[0]
    if not np.isfinite(row).all():
        raise NonFiniteValue(f"a coefficient of f^({k}) overflows float64")
    # f^(k), k >= 1, starts at its lowest nonzero term (a zero one keeps its last); f^(0) is s as given
    j = int(np.flatnonzero(row[:-1]).min(initial=row.size - 1)) if k else 0
    return PowerSeries(leading_power(s.order_p, k) + j, row[j:])


def integrate(s: PowerSeries, k: int) -> PowerSeries:
    """k-fold antiderivative with all integration constants zero."""
    _check_k(k)
    order = s.order_p + int(k)
    # the real and imaginary parts each divide once: a complex division would round twice
    divisors = falling_factorials(order, s.coeffs.size, int(k))
    parts = s.coeffs.view(np.float64).reshape(-1, 2) / divisors[:, None]
    return PowerSeries(order, parts.view(np.complex128)[:, 0])


def principal_arg(w: complex) -> float:
    """Principal argument in (-pi, pi]."""
    w = complex(w)
    if w.real == 0.0 and w.imag == 0.0:
        raise ArgOfZero("argument of zero is undefined")
    a = math.atan2(w.imag, w.real)
    return math.pi if a == -math.pi else a
