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

A SeriesBlock keeps many series of one order and one count of pending
integrations as the rows of one array; derivative_block differentiates all
rows at once, and each row rounds exactly as differentiate rounds it alone.
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
    """A float64 overflow: a polynomial of a check is not finite at a sample
    point, or a factorial scale of a series does not fit in float64."""


@functools.lru_cache(maxsize=256)
def falling_factorials(order: int, size: int, lift: int) -> np.ndarray:
    """e!/(e-lift)! for the exponents e = order .. order+size-1, as a read-only
    float64 row; raises NonFiniteValue where an entry overflows float64."""
    divisors = []
    for e in range(order, order + size):
        try:
            divisors.append(float(math.perm(e, lift)))
        except OverflowError:
            raise NonFiniteValue(
                f"{e}!/{e - lift}! overflows float64 (coefficient of z^{e} of a series "
                f"of order {order} after {lift} integrations)"
            ) from None
    row = np.array(divisors)
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
            plain = raw / falling_factorials(order_p, raw.size, lift)
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


def make_series(p: int, tail_coeffs) -> PowerSeries:
    """Build z**p + sum tail_coeffs[j] z**(p+1+j): 1 + len(tail_coeffs) stored terms."""
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise ValueError("p must be an integer >= 1")
    tail = (complex(*c) if isinstance(c, (tuple, list)) else complex(c) for c in tail_coeffs)
    return PowerSeries(int(p), [1.0 + 0.0j, *tail])


@dataclass(frozen=True)
class SeriesBlock:
    """Series that share order_p and their pending integrations, one per row
    of raw (B, size): row b is sum_j raw[b, j] z**(order_p+j) / (e falling
    lift), e = order_p + j, as a PowerSeries keeps a single series."""

    order_p: int
    raw: np.ndarray
    lift: int


class _Derived(NamedTuple):
    """A derivative of a block: row b starts at z**(order + strip[b]) and keeps
    raw[b, :width - strip[b]], zero-padded on the right; strip is None when
    no row had a leading zero to strip."""

    order: int
    raw: np.ndarray
    lift: int
    strip: Optional[np.ndarray]


def _derive(order: int, raw: np.ndarray, lift: int, k: int) -> _Derived:
    """The k-th derivative of every row of raw, each with its leading zeros stripped."""
    unwound = min(k, lift)
    order -= unwound  # relabel only: bit-exact inverse of integrate()
    lift -= unwound
    for _ in range(k - unwound):
        if order == 0:
            if raw.shape[1] == 1:
                raw = np.zeros_like(raw)
                break
            raw = raw[:, 1:] * np.arange(1, raw.shape[1])
        else:
            raw = raw * np.arange(order, order + raw.shape[1])
            order -= 1
    width = raw.shape[1]
    if not k or width == 1 or raw[:, 0].all():
        return _Derived(order, raw, lift, None)
    raw, strip = raw.copy(), np.zeros(len(raw), dtype=np.intp)
    for b in (raw[:, 0] == 0).nonzero()[0].tolist():
        nonzero = np.flatnonzero(raw[b, :-1])
        j = int(nonzero[0]) if nonzero.size else width - 1
        raw[b, : width - j] = raw[b, j:].copy()
        raw[b, width - j:] = 0.0
        strip[b] = j
    return _Derived(order, raw, lift, strip)


def _plain(d: _Derived) -> np.ndarray:
    """The coefficients of a derivative's rows: raw divided once by the falling factorials."""
    if d.lift == 0:
        return d.raw
    if d.strip is None:
        return d.raw / falling_factorials(d.order, d.raw.shape[1], d.lift)
    width = d.raw.shape[1]
    plain = np.zeros_like(d.raw)
    for j in set(d.strip.tolist()):
        rows = d.strip == j
        plain[rows, : width - j] = d.raw[rows, : width - j] / falling_factorials(d.order + j, width - j, d.lift)
    return plain


def derivative_block(f, ks) -> tuple[np.ndarray, list]:
    """The derivatives f^(k), k in ks, of every draw of f (a PowerSeries is
    one draw, a SeriesBlock one draw per row).

    Returns the coefficients as one (B, len(ks), n) block, each row
    zero-padded on the right to the longest, n, and per k the lowest power of
    z of each draw: an int when every draw shares it, else an int array (B,).
    """
    g = f if isinstance(f, SeriesBlock) else SeriesBlock(f.order_p, f._raw[None, :], f._lift)
    derived = [_derive(g.order_p, g.raw, g.lift, k) for k in ks]
    n = max(d.raw.shape[1] - (0 if d.strip is None else int(d.strip.min())) for d in derived)
    coeffs = np.zeros((len(g.raw), len(ks), n), dtype=np.complex128)
    powers = []
    for i, d in enumerate(derived):
        w = min(n, d.raw.shape[1])
        coeffs[:, i, :w] = _plain(d)[:, :w]
        if d.strip is None:
            powers.append(d.order)
        else:
            each = d.order + d.strip
            powers.append(int(each[0]) if (each == each[0]).all() else each)
    return coeffs, powers


def differentiate(s: PowerSeries, k: int) -> PowerSeries:
    """Term-by-term k-th derivative; terms whose exponent drops below 0 vanish."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    if k == 0:
        return s
    d = _derive(s.order_p, s._raw[None, :], s._lift, int(k))
    j = 0 if d.strip is None else int(d.strip[0])
    raw = d.raw[0, : d.raw.shape[1] - j].copy()
    raw.flags.writeable = False
    return PowerSeries._lifted(d.order + j, raw, d.lift)


def integrate(s: PowerSeries, k: int) -> PowerSeries:
    """k-fold antiderivative with all integration constants zero."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
    if k == 0:
        return s
    return PowerSeries._lifted(s.order_p + k, s._raw, s._lift + k)


def principal_arg(w: complex) -> float:
    """Principal argument in (-pi, pi]."""
    w = complex(w)
    if w.real == 0.0 and w.imag == 0.0:
        raise ArgOfZero("argument of zero is undefined")
    a = math.atan2(w.imag, w.real)
    return math.pi if a == -math.pi else a
