"""Truncated complex power series, their derivatives and antiderivatives.

A series is a finite sum  sum_j coeffs[j] * z**(order_p + j)  with complex
float64 coefficients. ``order_p`` is the lowest stored exponent: ``p`` for a
normalized p-valent function z**p + a_{p+1} z**(p+1) + ..., and 0 for images
of repeated differentiation. The coefficients are all a series keeps.

differentiate() and integrate() multiply or divide each coefficient once by
its exact integer falling factorial, rounded once to float64, so a round trip
differentiate(integrate(s, k), k) comes back within two ulps of s.

A SeriesBlock keeps many series of one order as the rows of one array, and
derivative_block differentiates all rows at once. It returns each f^(k)
divided by its leading falling factorial perm(e0, k), e0 = max(order_p, k):
one multiply per row by the cached ratios perm(e0 + j, k)/perm(e0, k), each at
most C(e0 + j, j), so they stay finite where the factorials themselves
overflow float64. Only positive scales are lost, which leave arguments and
signs alone; a caller that needs a true value multiplies the leads back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

ZERO_TOL = 1e-13  # |value| below this is treated as a true zero


class ArgOfZero(ValueError):
    """principal_arg(0) is undefined."""


class NonFiniteValue(ArithmeticError):
    """A float64 overflow: a value of a check, or a falling factorial, is not finite."""


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
        if not isinstance(order_p, (int, np.integer)) or isinstance(order_p, bool):
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
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise ValueError("p must be an integer >= 1")
    tail = (complex(*c) if isinstance(c, (tuple, list)) else complex(c) for c in tail_coeffs)
    return PowerSeries(int(p), [1.0 + 0.0j, *tail])


@dataclass(frozen=True)
class SeriesBlock:
    """Series of one order_p, one per row of raw (B, size): row b is
    sum_j raw[b, j] z**(order_p + j), as a PowerSeries keeps a single series."""

    order_p: int
    raw: np.ndarray


class _Derived(NamedTuple):
    """A derivative of a block: row b starts at z**(order + strip[b]) and keeps
    raw[b, :width - strip[b]], zero-padded on the right; strip is None when
    no row had a leading zero to strip."""

    order: int
    raw: np.ndarray
    strip: Optional[np.ndarray]


def _derive(order: int, raw: np.ndarray, k: int, normalized: bool) -> _Derived:
    """The k-th derivative of every row of raw, each with its leading zeros
    stripped; divided by leading_factorial(order, k) when normalized."""
    if not k:
        return _Derived(order, raw, None)
    e0 = max(order, k)  # the lowest exponent whose term survives
    width = raw.shape[1] - (e0 - order)
    if width < 1:  # every term vanishes
        return _Derived(0, np.zeros((len(raw), 1), dtype=np.complex128), None)
    raw = raw[:, e0 - order:] * falling_factorials(e0, width, k, normalized)
    if width == 1 or raw[:, 0].all():
        return _Derived(e0 - k, raw, None)
    strip = np.zeros(len(raw), dtype=np.intp)
    for b in (raw[:, 0] == 0).nonzero()[0].tolist():
        nonzero = np.flatnonzero(raw[b, :-1])
        j = int(nonzero[0]) if nonzero.size else width - 1
        raw[b, : width - j] = raw[b, j:].copy()
        raw[b, width - j:] = 0.0
        strip[b] = j
    return _Derived(e0 - k, raw, strip)


def derivative_block(f, ks) -> tuple[np.ndarray, list]:
    """The derivatives f^(k)/leading_factorial(order_p, k), k in ks, of every draw
    of f (a PowerSeries is one draw, a SeriesBlock one draw per row).

    Returns the coefficients as one (B, len(ks), n) block, each row
    zero-padded on the right to the longest, n, and per k the lowest power of
    z of each draw: an int when every draw shares it, else an int array (B,).
    """
    g = f if isinstance(f, SeriesBlock) else SeriesBlock(f.order_p, f.coeffs[None, :])
    derived = [_derive(g.order_p, g.raw, k, normalized=True) for k in ks]
    n = max(d.raw.shape[1] - (0 if d.strip is None else int(d.strip.min())) for d in derived)
    coeffs = np.zeros((len(g.raw), len(ks), n), dtype=np.complex128)
    powers = []
    for i, d in enumerate(derived):
        w = min(n, d.raw.shape[1])
        coeffs[:, i, :w] = d.raw[:, :w]
        if d.strip is None:
            powers.append(d.order)
        else:
            each = d.order + d.strip
            powers.append(int(each[0]) if (each == each[0]).all() else each)
    return coeffs, powers


def _check_k(k) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")


def differentiate(s: PowerSeries, k: int) -> PowerSeries:
    """Term-by-term k-th derivative; terms whose exponent drops below 0 vanish.
    Raises NonFiniteValue where a coefficient overflows float64."""
    _check_k(k)
    with np.errstate(over="ignore", invalid="ignore"):  # found by the check below
        d = _derive(s.order_p, s.coeffs[None, :], int(k), normalized=False)
    if not np.isfinite(d.raw).all():
        raise NonFiniteValue(f"a coefficient of f^({k}) overflows float64")
    j = 0 if d.strip is None else int(d.strip[0])
    return PowerSeries(d.order + j, d.raw[0, : d.raw.shape[1] - j])


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
