"""Verification of the argument-bound implications on |z| <= r_max.

Every check here has the same shape: evaluate a hypothesis functional, compare
its supremum (or minimum of the real part) against the theorem's bound, and if
the hypothesis holds, do the same for each conclusion functional. Conclusions
are strict inequalities, so a violation is declared only beyond a small slack
that separates genuine counterexamples from floating-point noise at the closed
boundary.

The functionals are sampled on the ring |z| = r_max only, the n_angular points
of a DiskGrid; heatmap_values alone takes them at every point of the grid, each
radius one ring. Re g is harmonic for analytic g, and so is arg g where g has
no zero, so both take their extremes over the closed disk on that circle. Every
polynomial whose argument is taken, and every denominator of a real-part ratio,
is first certified zero-free on the closed disk: a root makes sup|arg| exactly
pi with the root as witness, and a root of a real-part denominator is a pole
(ZeroOnGrid). Each check differentiates f once per derivative order it needs
and evaluates all of them in one call of the ring kernel, _ring_values: on n
uniform angles the samples of a polynomial are the inverse DFT of c_j r^j. A
scan samples a batch of draws as one coefficient block and does the same for
the whole block in one call. One pass over the coefficients (_row_bounds)
bounds every sample of each polynomial from below and above; the per-sample
overflow and ZERO_TOL scans run only where those bounds do not already decide
them, with the same outcome. The same pass decides a scan batch's
sup|arg f^(p)| hypothesis where it can (_Evaluation._certified): the bounds
then prove it on the whole closed disk, the hypothesis is not sampled, and
_Verdicts.hyp_value is NaN, which no report shows; check_theorem always samples
it. An evaluation raises the first failure it meets, and a scan batch that
fails is checked again draw by draw.

Ratios such as z f'(z)/f(z) are always evaluated with the z-power divided out
of numerator and denominator separately (f^(k)(z)/z^max(p-k,0) is a
polynomial), which keeps small-|z| samples far away from underflow. Such a
polynomial can still vanish at z = 0, where f has a zero coefficient; the
certificate counts those zeros and adds them to the z-power left over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .roots import alpha_sequence, itp_increasing, sigma_index, solve_gamma0
from .series import (
    NonFiniteValue,
    PowerSeries,
    SeriesBlock,
    ZERO_TOL,
    derivative_block,
    differentiate,
    falling_factorials,
    is_integer,
    leading_factorial,
    leading_power,
    principal_arg,
)

SLACK = 1e-9  # strict "<" conclusions fail only beyond this

VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_HYP = "HYPOTHESIS_NOT_SATISFIED"

class ZeroOnGrid(ArithmeticError):
    """A sampled denominator fell below the zero tolerance, or a certified
    polynomial has a root in the closed disk (magnitude None; root_text says
    which polynomial and which disk)."""

    def __init__(self, point: complex, magnitude: Optional[float], context: str = "",
                 root_text: str = "denominator has a root in |z| <= r_max"):
        self.point = point
        self.magnitude = magnitude
        where = f" in {context}" if context else ""
        if magnitude is None:
            super().__init__(f"{root_text} at z = {point}{where}")
        else:
            super().__init__(
                f"|value| = {magnitude:.3e} below tolerance {ZERO_TOL} at z = {point}{where}"
            )


class NotAttained(RuntimeError):
    """The probe level was not reached anywhere on |z| <= r_max."""

    def __init__(self, gamma: float, level: float, best_sup: float, best_point: complex):
        self.gamma = gamma
        self.level = level
        self.best_sup = best_sup
        self.best_point = best_point
        super().__init__(
            f"max|arg q| = {best_sup!r} stays below the level {level!r} "
            f"(gamma = {gamma!r}) on |z| <= r_max"
        )


class CrossingUnresolved(ArithmeticError):
    """The lemma1 crossing bracket is wider than its lower end: the crossing
    radius lies within about ABS_TOL of 0, so r0 has no correct digit."""


class DrawsExhausted(RuntimeError):
    """A scan ran out of attempts before enough draws satisfied the hypothesis."""


class ParamOutOfRange(ValueError):
    """A theorem parameter lies outside its admissible range."""


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (see is_integer) >= least."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling of |z| <= r_max: geometric radii, uniform angles."""

    r_max: float = 0.995
    n_radial: int = 64
    n_angular: int = 512

    def __post_init__(self):
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must lie in (0, 1)")
        for count in ("n_radial", "n_angular"):
            _check_count(count, getattr(self, count), 1)

    @cached_property
    def radii(self) -> np.ndarray:
        n = self.n_radial
        if n == 1:
            r = np.array([self.r_max])
        else:
            # r_j = r_max * n**((j-(n-1))/(n-1)): from r_max/n up to exactly r_max
            r = self.r_max * n ** ((np.arange(n) - (n - 1)) / (n - 1))
        r.flags.writeable = False
        return r

    @cached_property
    def angles(self) -> np.ndarray:
        t = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        t.flags.writeable = False
        return t

    @cached_property
    def points(self) -> np.ndarray:
        z = self.radii[:, None] * np.exp(1j * self.angles)[None, :]
        z.flags.writeable = False
        return z

    @property
    def size(self) -> int:
        return self.n_radial * self.n_angular


DEFAULT_GRID = DiskGrid()


@dataclass(frozen=True)
class SupArgResult:
    sup_abs_arg: float
    witness: complex


@dataclass(frozen=True)
class ConclusionCheck:
    label: str
    kind: str  # "sup_arg" | "min_real"
    value: float
    bound: float
    margin: float = field(init=False)  # how far value stays inside bound; negative past it
    witness: complex

    def __post_init__(self):
        margin = self.bound - self.value if self.kind == "sup_arg" else self.value - self.bound
        object.__setattr__(self, "margin", margin)

    @property
    def ok(self) -> bool:
        return self.margin >= -SLACK


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    params: dict
    hypothesis_sup: float
    hypothesis_bound: float
    hypothesis_satisfied: bool
    conclusions: tuple[ConclusionCheck, ...]
    verdict: str
    witnesses: tuple[complex, ...]  # hypothesis witness first, then one per conclusion
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Lemma1Report:
    gamma: float
    level: float  # pi*gamma/2
    r0: float
    z0: complex
    ratio: complex  # z0 q'(z0)/q(z0)
    k_est: float
    a_est: float
    imag_purity: float


@dataclass(frozen=True)
class ScanReport:
    theorem_id: str
    p: Optional[int]
    params: dict
    trials: int
    seed: int
    sampler_N: int
    attempts: int
    counts: dict
    verdicts: tuple[str, ...]
    worst_margin: Optional[float]  # None, as the other worst_ fields, when no draw had a conclusion
    worst_label: Optional[str]
    worst_attempt: Optional[int]
    worst_function: Optional[PowerSeries]


# ------------------------------------------------------------ grid evaluation

# A transform input row whose largest component exceeds 2**_FFT_HEADROOM is
# scaled down by a power of two first: its butterfly sums could overflow where
# the values are finite.
_FFT_HEADROOM = 960


@lru_cache(maxsize=64)
def _powers(radii: tuple[float, ...], start: int, stop: int) -> np.ndarray:
    """r**j for every r in radii and start <= j < stop, shape (len(radii),
    stop - start), read-only: computed once per argument."""
    powers = np.array(radii)[:, None] ** np.arange(start, stop)
    powers.flags.writeable = False
    return powers


def _ring_values(coeffs: np.ndarray, radii: np.ndarray, n: int, *, bound: float = math.inf) -> np.ndarray:
    """Each polynomial along the last axis of coeffs (ascending powers) at the
    n points r exp(2 pi i k/n), k = 0..n-1, of every radius r in radii, shape
    coeffs.shape[:-1] + (radii.size, n).

    On such a ring z^j = r^j w^(jk) with w = exp(2 pi i/n), and w^(jk) only
    depends on j mod n, so the samples are the unnormalized inverse DFT of
    c_j r^j with the powers folded onto n bins. The terms are written into
    one zero-padded buffer of whole rings of n, summed onto one ring where
    N > n, and transformed in place: one fresh array per call, the same
    transform of the same padded input as np.fft.ifft(terms, n=n) makes. A
    row rounds as it does alone, whatever else is in the batch. A
    one-coefficient row is its coefficient exactly, signed zeros included.

    bound is the caller's bound on S = sum_j |c_j| r^j of every row at the
    largest radius (_row_bounds). Below 2**(_FFT_HEADROOM - 1), no term
    component can exceed 2**_FFT_HEADROOM, so the scan for such rows is
    skipped, with the same values: a computed component is within 3u of
    |c_j| r^j <= S (u = 2**-52: the power, the product and a smaller radius's
    power each round once), and the computed bound within (N + 2)u of S
    (the moduli and the tail sum), so it is at most bound (1 + 3u)/(1 -
    (N + 2)u), below twice bound for any N < 2**50.
    """
    N = coeffs.shape[-1]
    shape = coeffs.shape[:-1] + (radii.size, n)
    if N == 1:
        return np.broadcast_to(coeffs[..., None, :], shape).copy()
    # the terms, zero-padded to whole rings of n: the transform's own input and output
    padded = np.zeros(shape[:-1] + (-(-N // n) * n,), dtype=np.complex128)
    terms = np.multiply(coeffs[..., None, :], _powers(tuple(radii.tolist()), 0, N), out=padded[..., :N])
    scaled = False
    if not bound < 2.0 ** (_FFT_HEADROOM - 1):
        top = np.abs(terms.view(np.float64)).max(axis=-1)
        big = (top > 2.0**_FFT_HEADROOM) & (top < np.inf)
        if scaled := bool(big.any()):
            shift = np.frexp(top[big])[1] - _FFT_HEADROOM  # each such row exactly below the headroom
            terms.view(np.float64)[big] *= np.ldexp(1.0, -shift)[:, None]
    if N > n:
        padded = padded.reshape(shape[:-1] + (-1, n)).sum(axis=-2)
    values = np.fft.ifft(padded, axis=-1, norm="forward", out=padded)
    if scaled:
        values.view(np.float64)[big] *= np.ldexp(1.0, shift)[:, None]
    return values


# ------------------------------------------------ certificate and evaluation

# |c_0| must beat the tail sum by more than its rounding error
_DOMINANCE_RTOL = 1e-12


def _head_tail(coeffs: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Per polynomial along the last axis: |c_0| and the tail sum sum_{j>=1} |c_j| r^j."""
    mag = np.abs(coeffs)
    # a stacked matmul makes one product per draw, rounded as for that draw alone
    return mag[..., 0], mag[..., 1:] @ _powers((r,), 1, mag.shape[-1])[0]


def _dominant(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Per polynomial, from its _head_tail at r: the constant term beats the rest on |z| <= r, so no root there."""
    return head > tail * (1.0 + _DOMINANCE_RTOL)


def _rounding_allowance(N: int, n: int) -> float:
    """eps(N, n): the error of a _ring_values sample of an N-coefficient row
    on n angles, plus that of the row's floor (_row_bounds), as a multiple of
    S = sum_j |c_j| r^j. With u = 2**-52 (float64 eps):

    - each term c_j r^j is a rounded power times one rounded product per
      component: within 2u of |c_j| r^j, so 2u S in all;
    - the fold onto n bins sums at most ceil(N/n) terms per bin: ceil(N/n) u S;
    - the inverse DFT computes each sample over ceil(log2 n) butterfly stages,
      each a twiddle product and an add that round within 8u of the partial
      sum (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      section 24.1): 8 ceil(log2 n) u S;
    - the floor's tail sum of N - 1 products rounds within N u S, and its
      |c_0|, two subtractions and the product eps(N, n) S within 3u S;
    - the z-power of a term, its product with the sample, the modulus that
      _below_tol compares with ZERO_TOL, the smallest |z|**shift that
      _clears takes and ZERO_TOL over it each round within u: 5u of a row
      sample of at most about S, 5u S.

    That is eps(N, n) = (8 ceil(log2 n) + ceil(N/n) + N + 10) u.
    """
    return (8 * math.ceil(math.log2(n)) + -(-N // n) + N + 10) * 2.0**-52


def _row_bounds(head: np.ndarray, tail: np.ndarray, N: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(floor, upper) per polynomial of N coefficients from its _head_tail at
    r, for its samples by _ring_values on n angles of any radius <= r: every
    sample has modulus at least floor (|c_0| - sum_{j>=1} |c_j| r^j less the
    rounding allowance) and is finite where upper = sum_j |c_j| r^j <
    2**_FFT_HEADROOM, as no partial sum of the transform can then overflow.
    A row with an infinite or NaN coefficient has a NaN or infinite bound, which decides nothing."""
    upper = head + tail
    return head - tail - _rounding_allowance(N, n) * upper, upper


def _smallest_root_in_disk(coeffs: np.ndarray, r_max: float) -> Optional[complex]:
    """Smallest-modulus root other than z = 0 of sum coeffs[j] z^j in
    |z| <= r_max, or None: the power of z of the lowest nonzero term is divided
    out, so a monomial has none, and a rest with a dominant constant term
    (_dominant) has none, with no companion matrix formed. A leading
    coefficient so small that the companion row overflows is dropped if
    |c_d| r^d <= _DOMINANCE_RTOL * sum |c_j| r^j, a finite sum, and the rest
    taken in its place, as many times as that holds; else NonFiniteValue."""
    while True:
        nonzero = np.flatnonzero(coeffs)
        if nonzero.size == 0:
            return 0j  # the zero polynomial vanishes everywhere
        coeffs = coeffs[nonzero[0]:]
        d = int(nonzero[-1] - nonzero[0])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing tail sum just fails _dominant
            if d == 0 or _dominant(*_head_tail(coeffs, r_max)):  # c z^j vanishes only at z = 0
                return None
            row = -coeffs[d - 1::-1] / coeffs[d]
            weights = np.abs(coeffs[: d + 1]) * r_max ** np.arange(d + 1)
            total = weights.sum()  # can overflow though each weight is finite
        if np.isfinite(row).all():
            break
        if not (np.isfinite(total) and weights[d] <= _DOMINANCE_RTOL * total):
            raise NonFiniteValue(f"companion row -c_j/c_{d} of a degree-{d} polynomial is not finite "
                                 f"(c_{d} = {complex(coeffs[d])}, float64 overflow)")
        coeffs = coeffs[:d]
    companion = np.zeros((d, d), dtype=np.complex128)
    companion[0, :] = row
    companion[np.arange(1, d), np.arange(d - 1)] = 1.0
    roots = np.linalg.eigvals(companion)
    inside = roots[np.abs(roots) <= r_max]
    if inside.size == 0:
        return None
    return complex(inside[np.argmin(np.abs(inside))])


@dataclass(frozen=True)
class _Quantity:
    """sup|arg| or min Re of add + N/D, where N = f^(k)/z^m for num = (k, m)
    and D likewise for den (1 when den is None)."""

    kind: str  # "sup_arg" | "min_real"
    num: tuple[int, int]
    den: Optional[tuple[int, int]] = None
    add: int = 0
    context: str = field(default="", compare=False)  # names it in errors; equal quantities take the same values


def _plain(kind: str, k: int, m: int, context: str) -> _Quantity:
    return _Quantity(kind, (k, m), context=context)


def _ratio(kind: str, p: int, upper: int, context: str, add: int = 0) -> _Quantity:
    """add + z f^(upper)/f^(upper-1): f^(upper)/z^m over f^(upper-1)/z^(m+1), m = p - upper."""
    m = p - upper
    return _Quantity(kind, (upper, m), (upper - 1, m + 1), add, context)


def _orders(*quantities: _Quantity) -> tuple[int, ...]:
    """The distinct derivative orders the quantities read, ascending."""
    return tuple(sorted({t[0] for q in quantities for t in (q.num, q.den) if t is not None}))


class _Hypothesis(NamedTuple):
    """A plan's hypothesis sup|arg f^(p)| < bound, which a scan batch
    certifies from coefficients where it can (_Evaluation._certified)."""

    quantity: _Quantity
    bound: float
    drop: bool  # no conclusion reads the highest derivative order: a certified batch does not sample it


# The rounding margin of the hypothesis certificate (_Evaluation._certified):
# what the steps after the certificate's bound rho on every sample may add to
# the angles. With u = 2**-52 as in _rounding_allowance:
#
# - asin(rho), a value below 2, is within 4 ulps (the C library's math.asin
#   is within 1), 4u;
# - np.angle's arctan2 of a sample, a value below 2 in modulus on a half
#   plane Re w > 0, is within 4 ulps (numpy's SIMD versions; the C library's
#   within 1), 4u; a scan takes |arg w| as arctan2(|Im w|, Re w), the same
#   arctan2 bit for bit, so this term covers it too;
# - the angle plus the margin, below 4, rounds within u before it is compared
#   with the bound.
#
# That is 9u; the margin is 32u, which still covers arcsin and arctan2
# implementations several ulps worse than these.
_HYPOTHESIS_MARGIN = 32 * 2.0**-52


class _Evaluation:
    """The derivatives f^(k) of the given orders of a batch of draws, each
    evaluated once at the sample points in one _ring_values call, and the
    quantities taken from them for the whole batch at once. The draws are one
    PowerSeries or the rows of one SeriesBlock; see series.derivative_block.
    The points are an array (rings, n), each ring n uniform angles from angle
    0, the last |z| = r_max: grid.points[-1:] for the checks, grid.points for heatmap.

    Each f^(k) is kept divided by its leading falling factorial and starts
    at z**max(p - k, 0), p = f.order_p, leading zeros included (see
    series.derivative_block): f^(k)/z^m is its row times z**(max(p - k, 0) - m),
    one shift for every draw. take multiplies the leads back where they change a
    value, and counts each row's zeros at z = 0 where it certifies.

    One bound pass (_head_tail, _row_bounds) gives each row's lower bound on
    |sample| (floor) and whether its constant term dominates (dominant), and
    decides these checks once for the whole batch:
    - upper bounds all below 2**(_FFT_HEADROOM - 1): the ring kernel skips
      its headroom scan; below 2**_FFT_HEADROOM: the finiteness scan of the
      samples is skipped;
    - a row whose floor exceeds ZERO_TOL in every draw (cleared): the
      ZERO_TOL scan of its terms without z-shift (_clears);
    - rows dominant in every draw (dominant_rows): the root certificate of
      a functional that reads them (_root_free), where the plan's z-shifts
      leave it no pole at z = 0;
    - a ratio it bounds (_bounded): the finiteness scan of its quotients.
    What a condition leaves undecided runs per draw or per sample: the
    ZERO_TOL scan of a term that the floors do not clear, and the
    certificate loop over the draws with a pole at z = 0 or a certified row
    that is not dominant. A scan hands over its plan's
    hypothesis, and a batch for whose every draw the same pass proves it
    (_certified) is certified: the hypothesis is not taken, and its highest
    order, where only the hypothesis reads it, is not evaluated.

    take gives each functional as arrays over the batch, one value and one
    witness per draw, and _verdicts turns them into the batch's verdicts.
    Each step raises the first failure it finds, an overflow, a ZeroOnGrid or
    a certificate's error; _scan_verdicts finds the batch's first failing draw.
    """

    def __init__(self, f, orders, points: np.ndarray, hypothesis: Optional[_Hypothesis] = None):
        self.points = points
        radii, n = points[:, 0].real, points.shape[1]  # each ring starts at angle 0, so at its radius exactly
        self.r_max = r_max = float(radii[-1])
        self.order = f.order_p
        self.row = {k: i for i, k in enumerate(orders)}
        self._terms: dict[tuple[int, int], tuple[int, int]] = {}  # _term's pairs, each computed once
        # an overflow is found by the bounds or the finiteness check below, not by a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            self.coeffs = derivative_block(f, orders)
            self.size = size = self.coeffs.shape[0]
            head, tail = _head_tail(self.coeffs, r_max)
            self.floor, upper = _row_bounds(head, tail, self.coeffs.shape[-1], n)
            # per draw and row, a pre-filter: _smallest_root_in_disk decides every row it leaves
            self.dominant = _dominant(head, tail)
            self.top = float(upper.max())  # the largest upper bound, NaN if any is
            self.certified = hypothesis is not None and self._certified(hypothesis, head)
            kept = len(orders) - (self.certified and hypothesis.drop)  # the highest order is the last row
            evaluated = self.coeffs[:, :kept].reshape(size * kept, self.coeffs.shape[-1])
            rows = _ring_values(evaluated, radii, n, bound=self.top)
        if not self.top < 2.0**_FFT_HEADROOM:  # else no sample can overflow
            i = int(np.argmin(np.isfinite(rows).all(axis=(1, 2))))  # the first row with a sample that is not, else 0
            self._finite(rows[i], f"f^({orders[i % kept]})")
        self.rows = rows.reshape((size, kept) + points.shape)

    def _certified(self, hypothesis: _Hypothesis, head: np.ndarray) -> bool:
        """Whether the hypothesis holds for every draw by its coefficients,
        and so surely that take would give it for every draw, raising nothing.

        The row of f^(p) must have no z-power (shift 0), and in every draw a
        real c_0 > 0 that dominates (dominant) and floor > ZERO_TOL; every
        row's upper bound must lie below 2**_FFT_HEADROOM. By the derivation
        of _rounding_allowance every sample w of such a row, as _ring_values
        computes it, lies within c_0 - floor < c_0 of c_0, so
        |arg w| <= asin(rho) with rho = (c_0 - floor)/c_0 < 1, which also
        bounds |arg f^(p)| on the closed disk. Computed as here, rho rounds
        twice, within u/2 each (u = 2**-52), so rho (1 + 2u) rounded is at
        least rho, and its arcsin must stay below the bound by
        _HYPOTHESIS_MARGIN.

        The same conditions make take raise nothing: the floors clear the
        ZERO_TOL scan, no sample can overflow below 2**_FFT_HEADROOM, and a
        dominant row with c_0 != 0 needs no root certificate.
        """
        i, shift = self._term(hypothesis.quantity.num)
        if shift or not self.top < 2.0**_FFT_HEADROOM or not (self.dominant_rows[i] and self.cleared[i]):
            return False
        h, floor = head[:, i], self.floor[:, i]
        if not (self.coeffs[:, i, 0] == h).all():  # c_0 = |c_0| > 0
            return False
        rho = float(((h - floor) / h).max())
        return math.asin(min(rho * (1.0 + 2.0**-51), 1.0)) + _HYPOTHESIS_MARGIN < hypothesis.bound

    @cached_property
    def dominant_rows(self) -> list[bool]:
        """Per row: whether its constant term dominates (dominant) in every
        draw; such a row has c_0 != 0 in every draw, so no zero at z = 0."""
        return self.dominant.all(axis=0).tolist()

    @cached_property
    def cleared(self) -> list[bool]:
        """Per row: whether its floor exceeds ZERO_TOL in every draw (_clears, shift 0)."""
        return (self.floor > ZERO_TOL).all(axis=0).tolist()

    @cached_property
    def zeros(self) -> np.ndarray:
        """Per draw and row: the order of the row's zero at z = 0 (0 for the zero polynomial)."""
        return (self.coeffs != 0).argmax(axis=2)

    def _term(self, term) -> tuple[int, int]:
        """(row, shift): f^(k)/z^m is the row's polynomial times z**shift."""
        pair = self._terms.get(term)
        if pair is None:
            k, m = term
            pair = self._terms[term] = self.row[k], leading_power(self.order, k) - m
        return pair

    def _point(self, j: int) -> complex:
        """The sample point of flat index j of an array over draws or rows, then the points."""
        return complex(self.points.flat[j % self.points.size])

    def _finite(self, vals: np.ndarray, what: str) -> None:
        """Raise NonFiniteValue naming what at the first sample of vals, in flat order, that is not finite."""
        finite = np.isfinite(vals)
        if not finite.all():
            z = self._point(int(np.argmin(finite)))
            raise NonFiniteValue(f"{what} is not finite at z = {z} (float64 overflow)")

    def _values(self, term) -> np.ndarray:
        i, shift = self._term(term)
        vals = self.rows[:, i]
        if shift == 0:
            return vals
        with np.errstate(over="ignore", invalid="ignore"):
            vals = vals * self.points**shift
        if shift < 0:  # only a negative shift can grow a value
            self._finite(vals, f"f^({term[0]})/z^{term[1]}")
        return vals

    @cached_property
    def _moduli(self) -> tuple[float, float]:
        """The smallest and the largest |z| over the sample points."""
        mod = np.abs(self.points)
        return float(mod.min()), float(mod.max())

    def _clears(self, term) -> bool:
        """Every value of the term, for every draw, has modulus above
        ZERO_TOL by its row's floor times the smallest |z|**shift over the
        sample points (compared as floor > ZERO_TOL/|z|**shift, which cannot
        overflow; a |z|**shift that underflows to 0 clears nothing): its
        _below_tol pass would find nothing. A term of shift 0 (scale 1) is
        decided once per batch for its row (cleared); another is compared
        per call, as its scale depends on the shift."""
        i, shift = self._term(term)
        if not shift:
            return self.cleared[i]
        scale = min(m**shift for m in self._moduli)
        return scale > 0.0 and bool((self.floor[:, i] > ZERO_TOL / scale).all())

    def _bounded(self, q: _Quantity) -> bool:
        """No quotient N/D of any draw can overflow, in numpy's complex
        division either: every |D| is at least ZERO_TOL (values checks it),
        and every |N| at most the largest upper bound times the largest
        |z|**shift, below 2**_FFT_HEADROOM ZERO_TOL. Called once N is
        finite, so its power does not overflow."""
        shift = self._term(q.num)[1]
        scale = max(m**shift for m in self._moduli) if shift < 0 else 1.0  # |z| < 1: else at most 1
        return self.top * scale < 2.0**_FFT_HEADROOM * ZERO_TOL

    def _below_tol(self, vals: np.ndarray, context: str) -> None:
        """Raise ZeroOnGrid at the first sample, in (draw, radial, angular) order, with |value| below ZERO_TOL."""
        mag = np.abs(vals).reshape(-1)
        low = mag < ZERO_TOL
        if low.any():
            j = int(np.argmax(low))
            raise ZeroOnGrid(self._point(j), float(mag[j]), context)

    def _lead_ratio(self, q: _Quantity) -> float:
        """The positive factor by which the true N/D exceeds the normalized one,
        an exact ratio of leading falling factorials rounded once; inf where
        it overflows float64."""
        num, den = (leading_factorial(self.order, k) for k, _ in (q.num, q.den or (0, 0)))
        try:
            return num / den
        except OverflowError:
            return math.inf

    def values(self, q: _Quantity) -> np.ndarray:
        """N/D of the normalized derivatives of every draw at every sample
        point; a denominator below ZERO_TOL at a sample raises ZeroOnGrid,
        and a quotient that is not finite NonFiniteValue."""
        vals = self._values(q.num)
        if q.den is None:
            return vals
        den = self._values(q.den)
        if not self._clears(q.den):
            self._below_tol(den, q.context)
        if self._bounded(q):
            return vals / den
        with np.errstate(over="ignore", invalid="ignore"):  # found by the check below
            vals = vals / den
        self._finite(vals, f"{q.context}: f^({q.num[0]})/z^{q.num[1]} over f^({q.den[0]})/z^{q.den[1]}")
        return vals

    def _root_free(self, certified: list[int], pole: bool) -> bool:
        """Whether the bound pass alone shows, for every draw, that the
        certified rows have no root in the closed disk and the functional no
        pole at z = 0: each certified row is dominant in every draw, so it
        has c_0 != 0 and no zero at z = 0 either, and pole, the test of the
        per-draw loop on the rows' net z-power, fails on the plan's shifts
        alone. A real part certifies no numerator row, whose zeros at z = 0
        only raise its power."""
        return not pole and all(self.dominant_rows[i] for i in certified)

    def take(self, q: _Quantity) -> tuple[np.ndarray, np.ndarray]:
        """Value and witness of one functional on the ring, one of each per draw.

        The ZERO_TOL scan of the values runs only where _clears does not
        decide it. The root certificate is decided once per batch where
        _root_free holds; else each draw that has a pole at z = 0 or a
        certified row that is not dominant gets its smallest root in the
        disk from _smallest_root_in_disk."""
        sup = q.kind == "sup_arg"
        vals = self.values(q)
        if q.den is None and not self._clears(q.num):
            self._below_tol(vals, q.context)
        if sup:  # the leads are positive and leave every argument alone
            reduced = np.arctan2(np.abs(vals.imag), vals.real).reshape(self.size, -1)  # |np.angle|: arctan2 is odd in y
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                reduced = self._lead_ratio(q) * vals.real.reshape(self.size, -1)
            if q.add:
                reduced += q.add
            self._finite(reduced, f"{q.context}: f^({q.num[0]}) with its leading falling factorial multiplied back")
        idx = reduced.argmax(axis=1) if sup else reduced.argmin(axis=1)
        value, witness = reduced[np.arange(self.size), idx], self.points.reshape(-1)[idx]

        # the smallest root or pole in the closed disk that the functional must not have
        num, shift = self._term(q.num)
        certified = [num] if sup else []  # the rows whose roots in the disk count
        if q.den is not None:
            den, den_shift = self._term(q.den)
            certified.append(den)
            shift -= den_shift
        if self._root_free(certified, shift != 0 if sup else shift < 0):
            return value, witness
        net = shift + self.zeros[:, num]  # the z-power of N/D at z = 0, per draw
        if q.den is not None:
            net = net - self.zeros[:, den]
        poles = net != 0 if sup else net < 0  # a zero of an argument, or a pole
        for b in np.flatnonzero(poles | ~self.dominant[:, certified].all(axis=1)).tolist():
            found = [_smallest_root_in_disk(self.coeffs[b, i], self.r_max) for i in certified]
            root = min([r for r in found if r is not None] + ([0j] if poles[b] else []), key=abs, default=None)
            if root is None:
                continue
            if not sup:
                raise ZeroOnGrid(root, None, q.context)
            value[b], witness[b] = math.pi, root
        return value, witness


def _take_one(s: PowerSeries, kind: str, divisor_power: int, grid: DiskGrid):
    if divisor_power < 0:
        raise ValueError("divisor_power must be >= 0")
    value, witness = _Evaluation(s, (0,), grid.points[-1:]).take(_plain(kind, 0, divisor_power, kind))
    return float(value[0]), complex(witness[0])


def sup_arg(s: PowerSeries, divisor_power: int, grid: DiskGrid = DEFAULT_GRID) -> SupArgResult:
    """sup over |z| <= r_max of |arg(s(z)/z**divisor_power)|, sampled on the outer ring.

    A zero in the closed disk gives exactly pi with the zero as witness.
    """
    value, witness = _take_one(s, "sup_arg", divisor_power, grid)
    return SupArgResult(sup_abs_arg=value, witness=witness)


def min_real(s: PowerSeries, divisor_power: int, grid: DiskGrid = DEFAULT_GRID) -> tuple[float, complex]:
    """min over |z| <= r_max of Re(s(z)/z**divisor_power), sampled on the outer ring."""
    return _take_one(s, "min_real", divisor_power, grid)


HEATMAP_QUANTITIES = ("arg-fp", "arg-fp1-over-z", "arg-jst", "re-ratio")


def heatmap_values(f: PowerSeries, quantity: str, grid: DiskGrid) -> np.ndarray:
    """One of the checks' functionals at every grid point, shape (n_radial,
    n_angular): arg f^(p), arg(f^(p-1)/z) or arg(z f'/f) on (-pi, pi], or
    Re(z f^(p)/f^(p-1)), p = f.order_p. A denominator, or a value whose
    argument is taken, below ZERO_TOL at a grid point raises ZeroOnGrid."""
    if quantity not in HEATMAP_QUANTITIES:
        raise ParamOutOfRange(f"unknown quantity {quantity!r}; choose from {HEATMAP_QUANTITIES}")
    p = f.order_p
    if quantity != "arg-fp" and p < 1:
        raise ParamOutOfRange(f"{quantity} requires p >= 1")
    q = {
        "arg-fp": _plain("sup_arg", p, 0, quantity),
        "arg-fp1-over-z": _plain("sup_arg", p - 1, 1, quantity),
        "arg-jst": _ratio("sup_arg", p, 1, quantity),
        "re-ratio": _ratio("min_real", p, p, quantity),
    }[quantity]
    ev = _Evaluation(f, _orders(q), grid.points)
    vals = ev.values(q)
    if q.kind == "min_real":  # a real value, -pi among them, as it is
        return ev._lead_ratio(q) * vals[0].real
    # arg is undefined where the value, or a ratio's numerator, vanishes
    if not ev._clears(q.num):
        ev._below_tol(ev._values(q.num), quantity)
    vals = np.angle(vals[0])
    return np.where(vals == -np.pi, np.pi, vals)  # fold onto (-pi, pi]


# ------------------------------------------------------------- theorem checks

@dataclass(frozen=True)
class _Plan:
    """One implication for series of order p: everything that does not depend
    on the coefficients of f, built once per configuration (_build_plan)."""

    theorem_id: str
    params: dict
    hypothesis: _Quantity
    hypothesis_bound: float
    conclusions: tuple[tuple[str, _Quantity, float], ...]  # (label, quantity, bound)
    notes: tuple[str, ...]

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return _orders(self.hypothesis, *(q for _, q, _ in self.conclusions))

    @cached_property
    def limits(self) -> tuple[np.ndarray, np.ndarray]:
        """(bounds, sup) over the conclusions in order: each bound, and
        whether it bounds a sup|arg| from above (else a min Re from below)."""
        bounds = np.array([c_bound for _, _, c_bound in self.conclusions])
        sup = np.array([q.kind == "sup_arg" for _, q, _ in self.conclusions], dtype=bool)
        bounds.flags.writeable = sup.flags.writeable = False  # shared by every evaluation of the plan
        return bounds, sup

    @cached_property
    def certificate(self) -> Optional[_Hypothesis]:
        """The hypothesis for a scan batch to certify from coefficients: a
        plain sup|arg| that no conclusion equals. L3's real part offset by p
        is no arcsin bound, and L2's hypothesis is its k = p conclusion, whose
        take is made anyway."""
        q, conclusions = self.hypothesis, [c for _, c, _ in self.conclusions]
        if q.kind != "sup_arg" or q.den is not None or q in conclusions:
            return None
        return _Hypothesis(q, self.hypothesis_bound, self.orders[-1] not in _orders(*conclusions))


class _Theorem(NamedTuple):
    """An implication's parameters besides p, in report order, and the bound
    its scans draw below (None: its hypothesis bound, up to _SAMPLER_CAP).

    A theorem that takes s is about gap series: the coefficient of z^(s-1)
    of f is 0 and that of z^s is not, a scan draws series of order s and
    takes no p, and the report gives s in place of p.
    """

    params: tuple[str, ...]
    sampler_bound: Optional[float]


# Every implication by id, in the order of README's table of theorem ids,
# which states its hypothesis and conclusions. The real-part implications draw
# below fixed bounds: asin(S) + asin(S/2) <= 1.44 < pi/2 for S <= sin(1), so
# the L2 hypothesis holds by construction at 1.0; L3 draws can miss theirs
# and are redrawn.
THEOREMS = {
    "T1": _Theorem(("alpha1",), None),
    "C1": _Theorem((), None),
    "C2": _Theorem((), None),
    "T3": _Theorem(("alpha0",), None),
    "T4": _Theorem(("alpha0",), None),
    "T5": _Theorem(("s", "delta"), None),
    "L2": _Theorem((), 1.0),
    "L3": _Theorem((), 0.9),
}

# Each parameter's admissible test and the message when it fails, in the
# order a call's parameters are checked.
_PARAMS = {
    "alpha1": (lambda alpha1: 0 < alpha1 <= 1, "alpha1 must lie in (0, 1]"),
    "alpha0": (lambda alpha0: 0 < alpha0 <= 1.5, "alpha0 must lie in (0, 3/2]"),
    "delta": (lambda delta: delta > 0 and 2 * delta + (2 / math.pi) * math.atan(delta) < 2.0,
              "delta must satisfy delta > 0 and 2 delta + (2/pi)atan(delta) < 2"),
    "s": (lambda s: is_integer(s) and s >= 2, "s must be an integer >= 2"),
}


def _theorem(theorem_id: str) -> tuple[str, _Theorem]:
    """The id in upper case and its THEOREMS entry."""
    theorem_id = theorem_id.upper()
    if theorem_id not in THEOREMS:
        raise ParamOutOfRange(f"unknown theorem id {theorem_id!r}")
    return theorem_id, THEOREMS[theorem_id]


@lru_cache(maxsize=256, typed=True)
def _build_plan(theorem_id, p, alpha1, alpha0, delta, s) -> _Plan:
    """Check the theorem id and parameters (THEOREMS, _PARAMS) and plan the
    implication for series of order p. Each branch lists the hypothesis,
    bounds, conclusions and notes of its theorem.

    A plan is cached per argument, typed: alpha0=1 and alpha0=1.0 echo their
    own params. Callers share it, so a report copies its params."""
    theorem_id, theorem = _theorem(theorem_id)
    given = {"alpha1": alpha1, "alpha0": alpha0, "delta": delta, "s": s}
    for name, value in given.items():  # each one given exactly when taken, before any range
        if (value is not None) != (name in theorem.params):
            raise ParamOutOfRange(f"{theorem_id} {'requires' if value is None else 'does not take'} parameter {name}")
    for name, (admissible, message) in _PARAMS.items():
        if name in theorem.params and not admissible(given[name]):
            raise ParamOutOfRange(message)
    given.update(p=p, s=None if s is None else int(s))
    params = {name: given[name] for name in (theorem.params if "s" in theorem.params else ("p", *theorem.params))}

    notes: list[str] = []
    concl: list = []
    hyp = _plain("sup_arg", params.get("s", p), 0, f"{theorem_id} hypothesis")  # L2 and L3 replace it
    if theorem_id == "T5":
        hyp_bound = (math.pi / 2) * delta + math.atan(delta)
        concl.append(("|arg(z f^(s)/f^(s-1))|", _ratio("sup_arg", p, s, "T5 conclusion"),
                      (math.pi / 2) * delta + 2 * math.atan(delta)))
    elif theorem_id == "L2":
        hyp, hyp_bound = _ratio("min_real", p, p, "L2 hypothesis"), 0.0
        for k in range(1, p + 1):
            concl.append((f"Re(z f^({k})/f^({k - 1}))", _ratio("min_real", p, k, f"L2 k={k}"), 0.0))
    elif theorem_id == "L3":
        hyp, hyp_bound = _ratio("min_real", p, p + 1, "L3 hypothesis", add=p), 0.0
        for k in range(1, p):
            concl.append((f"Re({k} + z f^({k + 1})/f^({k}))",
                          _ratio("min_real", p, k + 1, f"L3 k={k}", add=k), 0.0))
    elif theorem_id == "T1":
        hyp_bound = (math.pi / 2) * (alpha1 + (2 / math.pi) * math.atan(alpha1))
        concl.append((f"|arg(f^({p - 1})/z)|", _plain("sup_arg", p - 1, 1, "T1 conclusion"),
                      alpha1 * math.pi / 2))
    elif theorem_id == "C1":
        hyp_bound = 3 * math.pi / 4
        concl.append((f"|arg(f^({p - 1})/z)|", _plain("sup_arg", p - 1, 1, "C1 conclusion"), math.pi / 2))
        for k in range(p):
            concl.append((f"Re(f^({p - k - 1})/z^{k + 1})",
                          _plain("min_real", p - k - 1, k + 1, f"C1 k={k}"), 0.0))
    elif theorem_id == "C2":
        hyp_bound = (math.pi / 2) * solve_gamma0()[1]
        concl.append(("|arg(z f'/f)|", _ratio("sup_arg", p, 1, "C2 conclusion"), math.pi / 2))
    else:  # T3 and T4
        hyp_bound = math.pi * alpha0 / 2
        chain = alpha_sequence(alpha0, p)
        if theorem_id == "T3":
            for k in range(1, p + 1):
                concl.append((f"|arg(f^({p - k})/z^{k})|", _plain("sup_arg", p - k, k, f"T3 k={k}"),
                              math.pi * chain.values[k] / 2))
        else:
            # the s=1 ratio is meaningful only under this extra pair-sum condition
            first_s = 1 if alpha0 + chain.values[1] < 2.0 else 2
            for s_ in range(first_s, p + 1):
                concl.append((f"|arg(z f^({p - s_ + 1})/f^({p - s_}))| (s={s_})",
                              _ratio("sup_arg", p, p - s_ + 1, f"T4 s={s_}"),
                              (math.pi / 2) * (chain.values[s_] + chain.values[s_ - 1])))
            sigma = sigma_index(chain.values)
            if sigma is not None:
                concl.append(("starlike: |arg(z f'/f)|", _ratio("sup_arg", p, 1, "T4 starlike"),
                              math.pi / 2))
                if sigma == 1:
                    notes.append(
                        "pair-sum condition first holds at sigma=1, below the "
                        "usual range {2..p}; the starlike bound is reported anyway"
                    )
            else:
                notes.append(
                    f"no sigma <= p={p} with alpha_sigma + alpha_(sigma-1) <= 1; "
                    "starlikeness conclusion not applicable"
                )
    return _Plan(theorem_id, params, hyp, hyp_bound, tuple(concl), tuple(notes))


def check_theorem(
    theorem_id: str,
    f: PowerSeries,
    grid: DiskGrid = DEFAULT_GRID,
    *,
    alpha1: Optional[float] = None,
    alpha0: Optional[float] = None,
    delta: Optional[float] = None,
    s: Optional[int] = None,
) -> VerificationReport:
    """Verify one hypothesis -> conclusions implication for p = f.order_p,
    with every quantity sampled on the ring |z| = r_max (see the module docstring).

    README's table of theorem ids states each implication; THEOREMS gives
    the parameters each id takes. A gap series must have a zero coefficient
    of z^(s-1) and a nonzero one of z^s.
    """
    _theorem(theorem_id)  # an unknown id is named before the order of f
    if f.order_p < 1:
        raise ParamOutOfRange("f must have order_p >= 1")
    plan = _build_plan(theorem_id, f.order_p, alpha1, alpha0, delta, s)
    if "s" in plan.params:  # a gap series
        coeff = dict(enumerate(f.coeffs.tolist(), f.order_p))  # exponent -> coefficient
        if coeff.get(s - 1, 0) != 0:
            raise ParamOutOfRange(f"coefficient of z^{s - 1} must be 0")
        if coeff.get(s, 0) == 0:
            raise ParamOutOfRange(f"coefficient of z^{s} must be nonzero")
    v = _verdicts(plan, _Evaluation(f, plan.orders, grid.points[-1:]))
    hyp_ok = bool(v.hyp_ok[0])
    row = zip(plan.conclusions, v.value[0].tolist(), v.witness[0].tolist())
    conclusions = tuple(
        ConclusionCheck(label, q.kind, value, c_bound, witness) for (label, q, c_bound), value, witness in row
    ) if hyp_ok else ()
    return VerificationReport(
        theorem_id=plan.theorem_id,
        params=dict(plan.params),
        hypothesis_sup=float(v.hyp_value[0]),
        hypothesis_bound=plan.hypothesis_bound,
        hypothesis_satisfied=hyp_ok,
        conclusions=conclusions,
        verdict=VERDICT_HYP if not hyp_ok else VERDICT_PASS if v.passed[0] else VERDICT_FAIL,
        witnesses=(complex(v.hyp_witness[0]), *(c.witness for c in conclusions)),
        notes=plan.notes,
    )


class _Verdicts(NamedTuple):
    """The verdict of every draw of an evaluation, over B draws and the C
    conclusions of the plan in order. A row's conclusion entries are
    meaningless where its hypothesis fails."""

    hyp_value: np.ndarray  # (B,)
    hyp_witness: np.ndarray  # (B,)
    hyp_ok: np.ndarray  # (B,)
    value: np.ndarray  # (B, C)
    witness: np.ndarray  # (B, C)
    margin: np.ndarray  # (B, C), as ConclusionCheck.margin
    passed: np.ndarray  # (B,): the hypothesis holds and every margin is >= -SLACK


def _verdicts(plan: _Plan, ev: _Evaluation) -> _Verdicts:
    """The verdicts of every draw of the evaluation, as arrays. The
    hypothesis is taken for every draw, unless the evaluation certified it
    (its value and witness are then NaN), then each conclusion in order when
    it holds for any draw, a conclusion equal to the hypothesis or to an
    earlier one reusing its values. The first failure raises: on one draw its
    hypothesis fails first, then each conclusion in order, and the
    conclusions only when the hypothesis holds (see _scan_verdicts)."""
    if ev.certified:
        hyp_value = np.full(ev.size, np.nan)
        hyp_witness, hyp_ok = hyp_value.astype(np.complex128), np.ones(ev.size, dtype=bool)
    else:
        hyp_value, hyp_witness = ev.take(plan.hypothesis)
        bound = plan.hypothesis_bound
        hyp_ok = hyp_value > bound if plan.hypothesis.kind == "min_real" else hyp_value < bound
    shape = (ev.size, len(plan.conclusions))
    value, witness = np.zeros(shape), np.zeros(shape, dtype=np.complex128)
    if hyp_ok.any():
        taken = {} if ev.certified else {plan.hypothesis: (hyp_value, hyp_witness)}  # per distinct quantity
        for j, (_, q, _) in enumerate(plan.conclusions):
            taken[q] = taken[q] if q in taken else ev.take(q)
            value[:, j], witness[:, j] = taken[q]
    bounds, sup = plan.limits
    margin = np.where(sup, bounds - value, value - bounds)
    passed = hyp_ok & (margin >= -SLACK).all(axis=1)
    return _Verdicts(hyp_value, hyp_witness, hyp_ok, value, witness, margin, passed)


def _scan_verdicts(plan: _Plan, draws: SeriesBlock, grid: DiskGrid) -> _Verdicts:
    """The verdicts of a scan batch, as check_theorem gives them on each draw
    in turn, but for the hypothesis value and witness of a batch that
    certifies the hypothesis (NaN; a scan reports neither). A batch that
    fails is checked again draw by draw, so the first draw that fails
    raises, and a draw whose hypothesis fails is never failed by its
    conclusions. A row rounds as it does alone, whatever its batch
    (_ring_values, _head_tail), so the draws' verdicts are the batch's."""
    def verdicts(block: SeriesBlock) -> _Verdicts:
        return _verdicts(plan, _Evaluation(block, plan.orders, grid.points[-1:], plan.certificate))

    try:
        return verdicts(draws)
    except (ZeroOnGrid, NonFiniteValue, np.linalg.LinAlgError):
        alone = [verdicts(SeriesBlock(draws.order_p, row[None])) for row in draws.raw]
        return _Verdicts(*map(np.concatenate, zip(*alone)))


# ------------------------------------------------------------- boundary probe

_THETA_TOL = 1e-10  # width of Brent's final bracket around the maximizing angle
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step of Brent's method


def _brent_max(fun, a: float, b: float, x: float, fx: float) -> tuple[float, float]:
    """(x*, fun(x*)): Brent's parabolic maximization of fun on [a, b], started
    at the interior point x with fx = fun(x) (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5). x* is the best point
    evaluated, so fun(x*) >= fx."""
    v = w = x
    fv = fw = fx
    d = e = 0.0
    tol1 = _THETA_TOL / 4.0  # the smallest step; the loop stops once b - a <= 4 tol1
    tol2 = 2.0 * tol1
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            # vertex of the parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                parabolic = True
                d = p / q
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, m - x)
        if not parabolic:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fun(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _horner(cs: list, z: complex) -> complex:
    """q(z) by Horner's rule in Python complex arithmetic; cs holds the
    coefficients in ascending powers as Python complex numbers (coeffs.tolist())."""
    acc = cs[-1]
    for c in cs[-2::-1]:
        acc = acc * z + c
    return acc


def _ring_sup(coeffs: np.ndarray, r: float, angles: np.ndarray, *, bound: float = math.inf) -> tuple[float, float]:
    """(theta*, sup) of |arg q| on the circle of radius r: coarse scan at the
    n uniform angles of a grid (2 pi k/n), then Brent's refine from the coarse
    argmax. bound, if given, bounds sum_j |c_j| r^j, as _ring_values takes it.
    A sample of q that is not finite raises NonFiniteValue."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is found by the check below
        vals = _ring_values(coeffs, np.array([r]), angles.size, bound=bound)[0]
    finite = np.isfinite(vals)
    if not finite.all():
        z = complex(r * np.exp(1j * angles[np.argmin(finite)]))
        raise NonFiniteValue(f"f^(0) is not finite at z = {z} (float64 overflow)")
    args = np.angle(vals)
    absarg = np.abs(args)
    # conjugate-symmetric q gives +/- mirror maxima equal up to rounding; take
    # the positive-argument representative so the reported point is canonical.
    # The tie is relative: on a small ring every sample lies within any fixed
    # distance of the maximum.
    near = np.flatnonzero(absarg >= absarg.max() * (1.0 - 1e-9))
    positive = near[args[near] > 0]
    j = int(positive[0]) if positive.size else int(near[0])
    step = 2.0 * math.pi / angles.size
    cs = coeffs.tolist()

    def g(theta: float) -> float:
        return abs(principal_arg(_horner(cs, r * cmath.exp(1j * theta))))

    theta = float(angles[j])
    return _brent_max(g, theta - step, theta + step, theta, g(theta))


def lemma1_probe(q: PowerSeries, gamma: float, grid: DiskGrid = DEFAULT_GRID) -> Lemma1Report:
    """Locate the first radius where max|arg q| reaches pi*gamma/2 and evaluate
    the boundary relation z0 q'(z0)/q(z0) there.

    arg q is harmonic where q has no zero, so by the maximum principle max|arg q|
    on |z| = r never decreases in r: the outer ring decides whether the level
    is reached, and the crossing radius is bracketed on [0, r_max] by an ITP
    solve (roots.itp_increasing) to 1e-12; r0 is the bracket's midpoint. A
    bracket wider than its lower end raises CrossingUnresolved. q must be
    zero-free inside the crossing radius, certified by _smallest_root_in_disk
    as the checks' denominators are, on |z| <= hi, the bracket's upper end,
    since the midpoint can fall short of a zero that lifts the ring sup to
    the level; a zero there raises ZeroOnGrid. Each ring's maximizing angle is refined by Brent's
    method from the coarse argmax.

    At the first touching point the logarithmic derivative is purely imaginary
    with Im = (2k/pi) arg q(z0) for some k >= (a + 1/a)/2 >= 1, where
    a = |q(z0)|^(1/gamma); the report carries k_est, a_est, and the residual
    real part (imag_purity) so those inequalities can be asserted numerically.
    A q that overflows on the outer ring, where |q| is largest (maximum
    modulus principle), or an a_est or k_est that is not finite raises
    NonFiniteValue.
    """
    if not 0 < gamma < math.inf:
        raise ParamOutOfRange("gamma must be finite and > 0")
    if q.order_p != 0 or q.coeffs[0] != 1:
        raise ParamOutOfRange("q must satisfy q(0) = 1 (order_p 0, constant term 1)")
    level = math.pi * gamma / 2.0

    coeffs, angles, r_max = q.coeffs, grid.angles, grid.r_max
    # sum_j |c_j| r_max^j bounds that sum on every ring r <= r_max; an infinite one keeps the kernel's headroom scan
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(sum(_head_tail(coeffs, r_max)))
    theta, top = _ring_sup(coeffs, r_max, angles, bound=bound)
    if top < level:
        raise NotAttained(gamma, level, top, complex(r_max * cmath.exp(1j * theta)))

    # g(0) = -level because q(0) = 1; a ring that touches the level reaches it
    lo, hi = itp_increasing(lambda r: _ring_sup(coeffs, r, angles, bound=bound)[1] - level,
                            0.0, r_max, -level, top - level)
    if hi - lo >= lo:
        raise CrossingUnresolved(
            f"lemma1 probe: the crossing radius lies in ({lo!r}, {hi!r}], a bracket wider than "
            f"its lower end, so r0 is not resolved (gamma = {gamma!r})"
        )
    r0 = 0.5 * (lo + hi)
    # the lemma needs q zero-free inside the crossing radius: a zero there can be
    # what pushed arg q to the level, so certify up to hi, the smallest radius seen to reach it
    root = _smallest_root_in_disk(coeffs, hi)
    if root is not None:
        raise ZeroOnGrid(root, None, "lemma1 probe", f"q has a root in |z| <= r0 = {hi!r}")
    theta0, _ = _ring_sup(coeffs, r0, angles, bound=bound)

    z0 = r0 * cmath.exp(1j * theta0)
    qz = _horner(coeffs.tolist(), z0)
    qprime = differentiate(q, 1)
    ratio = z0 * _horner(qprime.coeffs.tolist(), z0) * z0**qprime.order_p / qz
    arg_q = principal_arg(qz)
    try:
        a_est = abs(qz) ** (1.0 / gamma)
    except OverflowError:
        a_est = math.inf
    k_est = (math.pi / 2.0) * abs(ratio.imag) / abs(arg_q) if arg_q else math.inf
    for name, value in (("a_est", a_est), ("k_est", k_est)):
        if not math.isfinite(value):
            raise NonFiniteValue(f"lemma1 probe: {name} is not finite at z0 = {z0} for gamma = {gamma!r}")
    return Lemma1Report(
        gamma=gamma,
        level=level,
        r0=r0,
        z0=z0,
        ratio=ratio,
        k_est=k_est,
        a_est=a_est,
        imag_purity=abs(ratio.real),
    )


# ------------------------------------------------------------------- sampling

# SeedSequence's hash (numpy.random.SeedSequence, after O'Neill's
# seed_seq_fe): 32-bit words, a pool of four, and hash constants that step the
# same way whatever the data, so one pass can hash a whole batch of draws.
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_NEG_R = (1 << 32) - 0x4973_F715  # mix subtracts MIX_MULT_R y: add this times y instead


def _words32(n: int) -> list[int]:
    """The little-endian 32-bit words of n >= 0 as SeedSequence takes them, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_keys(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of n hashes in turn: the hash constant
    before and after each step multiplies it by mult mod 2**32."""
    keys, const = [], init
    for _ in range(n):
        keys.append((const, const := const * mult & _MASK32))
    return keys


@lru_cache(maxsize=None)
def _mix_steps(n_words: int) -> tuple[tuple[int, int, int, int], ...]:
    """SeedSequence's mix_entropy after its first four hashes, for n_words >= 4
    words of entropy, as (src, dst, xor, mul) steps over the pool followed by
    the entropy past it: the hash of each pool word is mixed into every other
    one, then that of each word past the pool into all of them."""
    pairs = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst]
    pairs += [(src, dst) for src in range(_POOL_SIZE, n_words) for dst in range(_POOL_SIZE)]
    keys = _hash_keys(_INIT_A, _MULT_A, _POOL_SIZE + len(pairs))[_POOL_SIZE:]
    return tuple(pair + key for pair, key in zip(pairs, keys))


_POOL_KEYS = _hash_keys(_INIT_A, _MULT_A, _POOL_SIZE)  # the first hash of each pool word
_STATE_KEYS = _hash_keys(_INIT_B, _MULT_B, 2 * _POOL_SIZE)  # generate_state(4, uint64): eight 32-bit words


def _seed_states(seed: int, first: int, size: int) -> np.ndarray:
    """SeedSequence((seed, first + b)).generate_state(4, np.uint64) for b < size, shape (size, 4).

    Every value is a Python int with one 64-bit lane per draw, draw b in bits
    64b..64b+63, and its 32-bit word in the low half of the lane: a product of
    two words stays in its lane, so each step of numpy's hash (value ^ xor) *
    mul mod 2**32, then value ^ value >> 16, is a few operations over the batch.
    A batch is hashed in one pass as long as its attempts share all but their
    lowest 32-bit word, and split where an attempt crosses a multiple of 2**32.
    """
    n = min(size, (1 << 32) - (first & _MASK32))
    if n < size:
        return np.concatenate([_seed_states(seed, first, n), _seed_states(seed, first + n, size - n)])
    ones = int.from_bytes(b"\x01\0\0\0\0\0\0\0" * size, "little")
    mask, low16 = ones * _MASK32, ones * 0xFFFF
    ramp = int.from_bytes(np.arange(size, dtype="<u8").tobytes(), "little")
    attempt = _words32(first)
    entropy = [w * ones for w in _words32(seed)] + [attempt[0] * ones + ramp] + [w * ones for w in attempt[1:]]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    words = []  # the pool, then the entropy past it
    for word, (xor, mul) in zip(entropy, _POOL_KEYS):
        value = (word ^ xor * ones) * mul & mask
        words.append(value ^ (value >> 16 & low16))
    words += entropy[_POOL_SIZE:]
    for src, dst, xor, mul in _mix_steps(len(words)):
        value = (words[src] ^ xor * ones) * mul & mask
        value ^= value >> 16 & low16
        mixed = (_MIX_MULT_L * words[dst] & mask) + _MIX_NEG_R * value & mask  # stays in the lane
        words[dst] = mixed ^ (mixed >> 16 & low16)
    state = []  # cycling through the pool
    for i, (xor, mul) in enumerate(_STATE_KEYS):
        value = (words[i % _POOL_SIZE] ^ xor * ones) * mul & mask
        state.append(value ^ (value >> 16 & low16))
    lanes = b"".join((lo | hi << 32).to_bytes(8 * size, "little") for lo, hi in zip(state[::2], state[1::2]))
    return np.ascontiguousarray(np.frombuffer(lanes, dtype="<u8").reshape(4, size).T, dtype=np.uint64)


@lru_cache(maxsize=None)
def _state_words() -> type:
    """The class of a PCG64 seed that hands it four given words in place of
    SeedSequence.generate_state(4, uint64): an ISeedSequence, made on first
    use because numpy imports numpy.random only when it is first used."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _scan_uniforms(seed: int, first: int, size: int, count: int) -> np.ndarray:
    """The uniforms of attempts first..first+size-1 of a scan, shape (size, count):
    row b is default_rng(SeedSequence((seed, first + b))).random(count), bit for bit.

    The SeedSequence hash of the whole batch is one pass (_seed_states); each
    draw's PCG64 gets its four state words, and Generator.random's
    (raw >> 11) * 2**-53 turns the raw 64-bit outputs of all draws into
    doubles at once.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    raw, state_words = np.empty((size, count), dtype=np.uint64), _state_words()
    for b, words in enumerate(_seed_states(int(seed), first, size)):
        raw[b] = np.random.PCG64(state_words(words)).random_raw(count)
    return (raw >> 11) * 2.0**-53


def _sample_block(uniforms: np.ndarray, order: int, bound: float) -> SeriesBlock:
    """One draw of sample_hypothesis_function per row of uniforms, as the rows
    of a block of series of the given order; arguments as sample_hypothesis_function checks them.

    Row b holds its draw's 2N-1 uniforms, u, the N-1 weights and the N-1
    phases: default_rng(seed).random(2N-1) for sample_hypothesis_function,
    one row of _scan_uniforms for each attempt of a scan batch. The rest is
    one array operation over the block, and rounds as it does for a draw alone.
    """
    N = (uniforms.shape[1] + 1) // 2
    # uniform(low, high) is low + (high - low) * random(), so these are bit-identical
    u, weights, phases = uniforms[:, 0], uniforms[:, 1:N], 2.0 * math.pi * uniforms[:, N:]
    total = math.sin(bound) * u
    wsum = weights.sum(axis=1)[:, None]
    moduli = np.divide(total[:, None] * weights, wsum, out=np.zeros_like(weights), where=wsum > 0)
    raw = np.empty((len(uniforms), N), dtype=np.complex128)
    raw[:, 0] = 1.0
    # f^(order) = order! h: the coefficient of z^(order+j) of f is h_j / C(order+j, j)
    raw[:, 1:] = moduli / falling_factorials(order, N, order, normalized=True)[1:] * np.exp(1j * phases)
    return SeriesBlock(order, raw)


def sample_hypothesis_function(
    seed, p: int, bound: float, N: int = 16, s_gap: Optional[int] = None
) -> PowerSeries:
    """Draw f with sup|arg f^(p)| < bound guaranteed by construction.

    Builds h(z) = 1 + sum c_n z^n with random phases and moduli scaled so that
    sum|c_n| = sin(bound) * u for u drawn in (0, 1); then |arg h| <=
    asin(sum|c_n|) < bound everywhere, and f is the p-fold antiderivative of
    p! h, i.e. f^(p) = p! h with f in the normalized class (leading
    coefficient exactly 1): f's coefficient of z^(p+j) is c_j / C(p+j, j).
    With s_gap = s the same construction starts at z^s, so the coefficient
    of z^(s-1) is 0 and that of z^s is 1. The 2N-1 uniforms come from
    default_rng(seed), any seed numpy takes.
    """
    if not 0.0 < bound < math.pi / 2.0:
        raise ValueError("bound must lie in (0, pi/2)")
    _check_count("N", N, 2)
    if s_gap is not None:
        _check_count("s_gap", s_gap, 2)
    else:
        _check_count("p", p, 1)
    order = int(s_gap if s_gap is not None else p)
    block = _sample_block(np.random.default_rng(seed).random((1, 2 * N - 1)), order, bound)
    return PowerSeries(block.order_p, block.raw[0])


_SAMPLER_CAP = math.pi / 2.0 - 1e-9
# A scan batch holds at most this many ring samples, or coefficients where N is larger, per derivative order.
_BATCH_VALUES = 2**18


def counterexample_scan(
    theorem_id: str,
    trials: int,
    seed: int,
    p: Optional[int] = None,
    grid: DiskGrid = DEFAULT_GRID,
    *,
    alpha1: Optional[float] = None,
    alpha0: Optional[float] = None,
    delta: Optional[float] = None,
    s: Optional[int] = None,
    N: int = 16,
) -> ScanReport:
    """Check the implication on `trials` sampled hypothesis-satisfying functions.

    The bounds and implicit constants are solved once, then applied to every
    draw. Attempt a draws f as sample_hypothesis_function does from
    SeedSequence((seed, a)), and seed must be an integer >= 0: a batch takes
    the uniforms of all its draws from one _scan_uniforms call. The draws are
    evaluated in batches sized by _BATCH_VALUES, each batch in one
    _ring_values call. The verdicts and margins of a batch are arrays (see
    _scan_verdicts), with the verdicts, margins and first error that
    check_theorem gives on each draw in turn; no report object is built per
    draw, and only the worst draw becomes a PowerSeries. Draws that fail the
    hypothesis on the ring are discarded and redrawn (only L3 can produce them;
    the other samplers guarantee the hypothesis), capped at 10x the requested
    trials; a scan that reaches the cap raises DrawsExhausted. FAIL counts are
    expected to be 0: the implications are proved, so any FAIL is an artifact
    bug or a genuinely interesting sample worth inspecting via worst_function.
    """
    theorem_id, theorem = _theorem(theorem_id)
    _check_count("trials", trials, 1)
    gap = "s" in theorem.params  # its draws are gap series of order s
    if gap and p is not None:
        raise ParamOutOfRange(f"{theorem_id} does not take parameter p")
    if not gap and p is not None and not is_integer(p):
        raise ParamOutOfRange(f"{theorem_id} scan requires an integer p")
    if not gap and (p is None or p < 1):
        raise ParamOutOfRange(f"{theorem_id} scan requires p >= 1")
    plan = _build_plan(theorem_id, s if gap else p, alpha1, alpha0, delta, s)
    _check_count("N", N, 2)
    # sample_hypothesis_function's bound, s and p checks hold here by THEOREMS, _PARAMS and the p rule above
    bound = min(plan.hypothesis_bound, _SAMPLER_CAP) if theorem.sampler_bound is None else theorem.sampler_bound
    order = int(s if gap else p)

    verdicts: list[str] = []
    worst = (math.inf, None, None, None)  # (margin, label, attempt, sampler row)
    attempts = 0
    batch = max(1, _BATCH_VALUES // (len(plan.orders) * max(N, grid.n_angular)))
    while len(verdicts) < trials and attempts < 10 * trials:
        # every draw of a batch is needed: each one adds at most one verdict
        size = min(trials - len(verdicts), 10 * trials - attempts, batch)
        draws = _sample_block(_scan_uniforms(seed, attempts, size, 2 * N - 1), order, bound)
        v = _scan_verdicts(plan, draws, grid)
        held = v.passed[v.hyp_ok].tolist()
        verdicts.extend(VERDICT_PASS if ok else VERDICT_FAIL for ok in held)
        # the first smallest margin in (attempt, conclusion) order
        margin = np.where(v.hyp_ok[:, None], v.margin, np.inf)
        if margin.size:
            b, j = divmod(int(margin.argmin()), margin.shape[1])
            if margin[b, j] < worst[0]:
                worst = (float(margin[b, j]), plan.conclusions[j][0], attempts + b, draws.raw[b])
        attempts += size
    if len(verdicts) < trials:
        raise DrawsExhausted(
            f"only {len(verdicts)} of {trials} draws satisfied the {theorem_id} "
            f"hypothesis after {attempts} attempts"
        )
    return ScanReport(
        theorem_id=theorem_id,
        p=p,
        params={name: value for name, value in plan.params.items() if name != "p"},  # as verify reports them
        trials=trials,
        seed=seed,
        sampler_N=N,
        attempts=attempts,
        counts={VERDICT_PASS: verdicts.count(VERDICT_PASS), VERDICT_FAIL: verdicts.count(VERDICT_FAIL),
                VERDICT_HYP: attempts - len(verdicts)},
        verdicts=tuple(verdicts),
        worst_margin=None if worst[3] is None else worst[0],
        worst_label=worst[1],
        worst_attempt=worst[2],
        # the only PowerSeries of the scan: the worst draw's sampled row, verbatim
        worst_function=None if worst[3] is None else PowerSeries(order, worst[3]),
    )
