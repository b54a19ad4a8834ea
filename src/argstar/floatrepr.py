"""Python's float repr for a whole float64 array at once.

repr prints the shortest decimal that reads back to the same float, and of
those the closest. ``shortest_digits`` finds it as Ryū does (U. Adams, "Ryū:
fast float-to-string conversion", PLDI 2018): from the floors of the scaled
value V = |x| 10^t and of its two rounding bounds, halfway to the
neighbouring floats, it drops decimal digits while the bounds stay apart. It
computes the three floors for every element in one pass of float64
arithmetic: Dekker's error-free product (T. J. Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971)
against 10^t held as a double-double, an unevaluated sum hi + lo of two
float64 values, gives each floor's remainder to within 2^-41, and a floor is
taken only where its remainder lies at least 2^-32 from a whole number.

The fast path is every normal value below 2^49 whose three remainders clear
that margin. ``repr_slots`` lays its digits out as repr does and hands every
other element to repr itself: zeros, subnormals, nan, infinities, values
from 2^49 up, and values whose scaled value or a bound is a whole number (or
lies within 2^-32 of one). The last class holds every exact case of Ryū's
trailing-zero branch, such as 0.5, 1.0 and the whole numbers.
"""

from __future__ import annotations

import functools

import numpy as np

SLOTS = 29  # bytes per element of repr_slots; the longest repr of a float64 has 24

_POW10 = 10 ** np.arange(18, dtype=np.uint64)  # 10^0 .. 10^17
_PLACES = np.arange(18, dtype=np.uint8)
_EXPONENTS = 400  # beyond the decimal exponents of float64
_NORMAL = np.uint64(1 << 52)  # the bits of the smallest normal float64
_SPAN = np.uint64((1072 - 1) << 52)  # from there to 2^49, whose biased exponent is 1072
_SCALED = 300  # from t = 301 on, the table holds 10^t / 2^128 and x is scaled by 2^128
_SPLIT = float(2**27 + 1)  # Veltkamp's splitter: a float64 into two halves of 26 bits
_ERROR = 2.0**-41  # bound on the error of a remainder of _scaled_floors, derived there
_DELTA = 2**9 * _ERROR  # 2^-32: the least distance of a remainder from a whole number


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = a1 + a2 exactly, each of at most 26 bits."""
    c = a * _SPLIT
    a1 = c - (c - a)
    return a1, a - a1


@functools.cache
def _pow10_dd() -> np.ndarray:
    """10^t for t = 0..325 as a double-double, scaled by 2^-128 from t = 301
    on: rows hi, lo, hi's two halves by _split, and the scale 2^128 or 1 that
    x takes; shape (5, 326).

    Python's int true division rounds correctly, so hi is the scaled 10^t,
    T, rounded to float64 and lo the rest rounded: |T - hi| <= 2^-53 T and
    |T - hi - lo| <= 2^-106 T. The scaling keeps T and hi * _SPLIT finite."""
    rows = []
    for t in range(326):
        shift = 128 if t > _SCALED else 0
        hi = 10**t / 2**shift
        rows.append((hi, (10**t - (int(hi) << shift)) / 2**shift, 2.0**shift))
    hi, lo, scale = np.array(rows).T
    table = np.stack((hi, lo, *_split(hi), scale))
    table.flags.writeable = False  # shared by every call
    return table


def _scaled_floors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(floors, rests, t, ok) for a 1-d float64 array: the floors vr, vp, vm
    of the scaled value V = |x| 10^t and of its two rounding bounds, as a
    (3, n) uint64 array, and the remainders each floor left, (3, n) float64.
    ok is the fast path: x normal and below 2^49, and each remainder at
    least _DELTA from a whole number. Where x is normal and below 2^49,
    floor + remainder lies within _ERROR of the exact value; where ok, the
    floors are exact.

    Scale. For |x| in [2^E, 2^(E+1)), t = 17 - floor(E log10 2) puts
    V = |x| 10^t in [10^17, 2 10^18), above 2^56 and below 2^61: 18 or 19
    digits, so at least one goes and the round-up digit is defined. The
    table's row t holds T = 10^t / scale, and y = |x| scale, so V = y T; both
    scalings are exact.

    Product. Veltkamp's split of y and of hi gives Dekker's TwoProduct,
    p + e = y hi exactly, and p is a whole number, since p > 2^56. Then
    s = fl(e + fl(y lo)), and vr = p + floor(s). The bounds lie halfway to
    the neighbouring floats: U = u T above V, u half the gap above |x|,
    scaled, and likewise below, where the gap is half as wide at a power of
    two (Ryū's mm_shift). u is a power of two, so u hi is exact, and
    Fast2Sum gives p + u hi = ap + bp exactly, ap a whole number. The
    remainder of the upper bound is rp = fl(bp + s), and vp = ap + floor(rp);
    vm likewise.

    Error bound. hi is within 2^-53 T of T, and hi + lo within 2^-106 T.
    V < 2^61, so |e|, |bp| <= 2^7 (half an ulp of p or ap), |y lo| < 2^8,
    u T <= 2^-53 V < 2^8, and rounding a value below 2^k moves it by at most
    2^(k-53):
      - the table: y |T - hi - lo| <= 2^-106 V < 2^-45;
      - fl(y lo), below 2^8: 2^-45;
      - s, below 2^9: 2^-44;
    so |s - (V - p)| < 2^-43. A bound adds
      - the table: u |T - hi| <= 2^-53 u T < 2^-45;
      - fl(bp + s), below 2^10: 2^-43;
    so each remainder is within 2^-43 + 2^-45 + 2^-43 < 2^-41 = _ERROR of
    its exact value. A remainder at least _DELTA = 2^-32 from a whole
    number, 2^9 times that bound, has the floor of its exact value, and that
    exact value is not a whole number: an exact scaled value or bound, Ryū's
    trailing-zero case, never reaches the digit loop."""
    a = np.abs(np.asarray(x, dtype=np.float64))
    ok = a.view(np.uint64) - _NORMAL < _SPAN  # normal, below 2^49
    a = np.where(ok, a, 1.0)  # a safe stand-in where not ok
    bits = a.view(np.uint64)
    t = 17 - ((((bits >> np.uint64(52)).view(np.int64) - 1023) * 78913) >> 18)  # Ryū's floor(E log10 2)
    hi, lo, hi1, hi2, scale = np.take(_pow10_dd(), t, axis=1)
    y = a * scale
    up = ((bits + np.uint64(1)).view(np.float64) - a) * scale * 0.5
    down = (a - (bits - np.uint64(1)).view(np.float64)) * scale * 0.5

    y1, y2 = _split(y)
    p = y * hi
    s = (((y1 * hi1 - p) + y1 * hi2 + y2 * hi1) + y2 * hi2) + y * lo  # e + fl(y lo)
    uh, dh = up * hi, down * hi
    ap = p + uh
    bp = uh - (ap - p)
    am = p - dh
    bm = (p - am) - dh
    rest = np.stack((s, bp + s, bm + s))
    whole = np.floor(rest)
    rest -= whole
    ok &= ((rest >= _DELTA) & (rest <= 1 - _DELTA)).all(axis=0)
    floors = (np.stack((p, ap, am)).astype(np.int64) + whole.astype(np.int64)).view(np.uint64)
    return floors, rest, t, ok


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, ok) for a 1-d float64 array: where ok, |x| reads as
    digits * 10**exponent, the shortest such decimal that rounds back to x,
    and the closest to x of those; digits has no trailing zero. Where not ok,
    x is off the fast path and the digits and exponent mean nothing."""
    (vr, vp, vm), _, t, ok = _scaled_floors(x)

    # drop digits while the bounds stay apart: two at once, then one at a time;
    # each element stops at the first step whose bounds meet, and so stays stopped
    exp10 = -t
    go = vp // 100 > vm // 100
    vr100 = vr // 100
    round_up = go & (vr - vr100 * np.uint64(100) >= 50)
    vr, vp, vm = np.where(go, vr100, vr), np.where(go, vp // 100, vp), np.where(go, vm // 100, vm)
    exp10 += 2 * go
    while True:
        vp10, vm10 = vp // 10, vm // 10
        go = ok & (vp10 > vm10)
        if not go.any():
            break
        vr10 = vr // 10
        round_up = np.where(go, vr - vr10 * np.uint64(10) >= 5, round_up)
        vr, vp, vm = np.where(go, vr10, vr), np.where(go, vp10, vp), np.where(go, vm10, vm)
        exp10 += go
    # no trailing zero: a result in (vm, vp] ending in 0 would have let one more digit go
    return vr + ((vr == vm) | round_up), exp10, ok


@functools.cache
def _exponents() -> np.ndarray:
    """Column point + _EXPONENTS: the last five slots of repr_slots for a value
    in exponent notation whose decimal point follows digit `point`, "e", the
    sign of the exponent point - 1 and its two or three digits, NUL-padded."""
    texts = []
    for sci in range(-_EXPONENTS - 1, _EXPONENTS):
        texts.append("e" + ("-" if sci < 0 else "+") + f"{abs(sci):02d}".rjust(3, "\0"))
    table = np.frombuffer("".join(texts).encode(), dtype=np.uint8).reshape(-1, 5).T.copy()
    table.flags.writeable = False
    return table


def repr_slots(x: np.ndarray) -> np.ndarray:
    """repr of each element of a 1-d float64 array as a column of SLOTS bytes
    with NULs among them: shape (SLOTS, x.size), uint8, so that every step
    runs along the elements. Dropping the NULs of a column leaves repr of its
    element. The digits of shortest_digits are laid out by _layout, and repr
    itself fills the columns off its fast path."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    digits, exp10, ok = shortest_digits(x)
    cols = _layout(digits, exp10, np.signbit(x))
    if not ok.all():
        rest = np.flatnonzero(~ok)
        texts = np.array([repr(v) for v in x[rest].tolist()], dtype=f"S{SLOTS}")
        cols[:, rest] = texts.view(np.uint8).reshape(-1, SLOTS).T
    return cols


def _layout(digits: np.ndarray, exp10: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The columns of repr_slots for the values -1**negative * digits * 10**exp10,
    digits of 1 to 17 without a trailing zero.

    The slots are the sign, "0." and up to three zeros, 17 digits with one
    point inserted among them, then "e", the exponent's sign and three
    exponent digits; repr's layout (fixed notation for decimal exponents
    -4..15, exponent notation otherwise, ".0" after a whole number) fills some
    of them and leaves the rest NUL. Small counts are uint8, and each choice
    between bytes is arithmetic with a 0/1 mask, which numpy runs far faster
    on bytes than np.where."""
    n = np.searchsorted(_POW10, digits, side="right")  # the number of digits
    point = n + exp10  # the decimal point follows this many digits (none: 0, or fewer)
    fixed = (point > -4) & (point <= 16)
    cols = np.empty((SLOTS, digits.size), dtype=np.uint8)
    cols[0] = negative * ord("-")
    lead = np.where(fixed & (point <= 0), 2 - point, 0).astype(np.uint8)  # "0.", then a zero per place below 0
    cols[1:6] = (_PLACES[:5, None] < lead) * np.frombuffer(b"0.000", dtype=np.uint8)[:, None]

    # the digits left-aligned in 17 places: those of the value, then the zeros of
    # a whole number up to its point and the "0" after it; NUL past them
    chars = np.empty((17, digits.size), dtype=np.uint8)
    left = digits * _POW10[np.minimum(17 - n, 17)]
    high = left // np.uint64(10**9)  # places 0-7; places 8-16 below, both run faster in 32 bits
    halves = (((left - high * np.uint64(10**9)).astype(np.uint32), range(16, 7, -1)),
              (high.astype(np.uint32), range(7, -1, -1)))
    for value, places in halves:
        for k in places:
            tens = value // 10
            chars[k] = value - tens * np.uint32(10)
            value = tens
    last = np.where(fixed & (point >= n), point + 1, n).astype(np.uint8)
    chars += ord("0")
    chars *= _PLACES[:17, None] < last
    # the point follows digit `dot`: 99 where it is in the lead, or a one-digit exponent form has none
    dot = np.where(fixed, np.where(point > 0, point, 99), np.where(n > 1, 1, 99)).astype(np.uint8)
    body = cols[6:24]
    body[0] = chars[0]
    body[1:17] = chars[1:] + (_PLACES[1:17, None] > dot) * (chars[:16] - chars[1:])
    body[17] = chars[16] * (dot < 17)
    body[1:] += (_PLACES[1:18, None] == dot) * (ord(".") - body[1:])
    cols[24:] = 0
    sci = np.flatnonzero(~fixed)  # few or none: gather their exponents alone
    cols[24:, sci] = _exponents()[:, np.clip(point[sci], -_EXPONENTS, _EXPONENTS) + _EXPONENTS]
    return cols
