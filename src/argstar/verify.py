"""Verification of the argument-bound implications on |z| <= r_max.

Every check here has the same shape: evaluate a hypothesis functional, compare
its supremum (or minimum of the real part) against the theorem's bound, and if
the hypothesis holds, do the same for each conclusion functional. Conclusions
are strict inequalities, so a violation is declared only beyond a small slack
that separates genuine counterexamples from floating-point noise at the closed
boundary.

The functionals are sampled on the outer ring |z| = r_max of the grid only.
Re g is harmonic for analytic g, and so is arg g where g has no zero, so both
take their extremes over the closed disk on that circle. Every polynomial
whose argument is taken, and every denominator of a real-part ratio, is first
certified zero-free on the closed disk: a root makes sup|arg| exactly pi with
the root as witness, and a root of a real-part denominator is a pole
(ZeroOnGrid). Each check differentiates f once per derivative order it needs
and evaluates all of them in one Horner pass over the ring; a scan samples a
batch of draws as one coefficient block and does the same for the whole block
in one pass, and heatmap_values takes the same quantities at every point of
the grid.

Ratios such as z f'(z)/f(z) are always evaluated with the z-power divided out
of numerator and denominator separately (f^(k)(z)/z^(p-k) is a polynomial with
nonzero constant term), which keeps small-|z| samples far away from underflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .roots import alpha_sequence, bisect_increasing, sigma_index, solve_gamma0
from .series import (
    NonFiniteValue,
    PowerSeries,
    SeriesBlock,
    ZERO_TOL,
    derivative_block,
    differentiate,
    falling_factorials,
    integrate,
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
            f"(gamma = {gamma!r}) on the whole grid"
        )


class DrawsExhausted(RuntimeError):
    """A scan ran out of attempts before enough draws satisfied the hypothesis."""


class ParamOutOfRange(ValueError):
    """A theorem parameter lies outside its admissible range."""


@dataclass(frozen=True)
class DiskGrid:
    """Polar sampling of |z| <= r_max: geometric radii, uniform angles."""

    r_max: float = 0.995
    n_radial: int = 64
    n_angular: int = 512

    def __post_init__(self):
        if not 0.0 < self.r_max < 1.0:
            raise ValueError("r_max must lie in (0, 1)")
        if self.n_radial < 1 or self.n_angular < 1:
            raise ValueError("grid must have at least one radius and one angle")

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

    @cached_property
    def ring(self) -> np.ndarray:
        """The outer circle |z| = r_max, bit-identical to the last row of points."""
        z = self.radii[-1] * np.exp(1j * self.angles)
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
    samples_used: int  # ring points, or the whole grid when every point ties


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

def _horner_many(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Each polynomial along the last axis of coeffs (ascending powers) at every z.

    The result has shape coeffs.shape[:-1] + zs.shape; every element goes
    through the same operations as a one-polynomial Horner loop.
    """
    lead = coeffs.shape[:-1]
    c = coeffs.reshape(lead + (1,) * zs.ndim + coeffs.shape[-1:])
    acc = np.empty(lead + zs.shape, dtype=np.complex128)
    acc[...] = c[..., -1]
    for j in range(coeffs.shape[-1] - 2, -1, -1):
        acc *= zs
        acc += c[..., j]
    return acc


# ------------------------------------------------ certificate and evaluation

# |c_0| must beat the tail sum by more than its rounding error
_DOMINANCE_RTOL = 1e-12


def _dominant(coeffs: np.ndarray, r: float) -> np.ndarray:
    """Per polynomial along the last axis: the constant term beats the rest on |z| <= r, so no root there."""
    mag = np.abs(coeffs)
    # a stacked matmul makes one product per draw, rounded as for that draw alone
    tail = mag[..., 1:] @ (r ** np.arange(1, mag.shape[-1]))
    return mag[..., 0] > tail * (1.0 + _DOMINANCE_RTOL)


def _smallest_root_in_disk(coeffs: np.ndarray, r_max: float) -> Optional[complex]:
    """Smallest-modulus root of sum coeffs[j] z^j in |z| <= r_max, or None.
    A leading coefficient so small that the companion row overflows is dropped if
    |c_d| r^d <= _DOMINANCE_RTOL * sum |c_j| r^j, a finite sum; else NonFiniteValue."""
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size == 0:
        return 0j  # the zero polynomial vanishes everywhere
    d = int(nonzero[-1])
    companion = np.zeros((d, d), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        companion[0, :] = -coeffs[d - 1::-1] / coeffs[d]
        weights = np.abs(coeffs[: d + 1]) * r_max ** np.arange(d + 1)
        total = weights.sum()  # can overflow though each weight is finite
    if not np.isfinite(companion[0]).all():
        if np.isfinite(total) and weights[d] <= _DOMINANCE_RTOL * total:
            return _smallest_root_in_disk(coeffs[:d], r_max)
        raise NonFiniteValue(
            f"companion row -c_j/c_{d} of a degree-{d} polynomial is not finite "
            f"(c_{d} = {complex(coeffs[d])}, float64 overflow)"
        )
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
    context: str = ""


def _plain(kind: str, k: int, m: int) -> _Quantity:
    return _Quantity(kind, (k, m), context=kind)


def _ratio(kind: str, p: int, upper: int, context: str, add: int = 0) -> _Quantity:
    """add + z f^(upper)/f^(upper-1): f^(upper)/z^m over f^(upper-1)/z^(m+1), m = p - upper."""
    m = p - upper
    return _Quantity(kind, (upper, m), (upper - 1, m + 1), add, context)


def _orders(*quantities: _Quantity) -> tuple[int, ...]:
    """The distinct derivative orders the quantities read, ascending."""
    return tuple(sorted({t[0] for q in quantities for t in (q.num, q.den) if t is not None}))


class _Taken(NamedTuple):
    """One functional for each draw of an evaluation: the entries of a draw in
    `errors` (the ZeroOnGrid, NonFiniteValue or LinAlgError it raises) are meaningless."""

    value: list  # float per draw
    witness: list  # complex per draw
    used: list  # samples used per draw
    errors: dict  # draw -> exception


def _raise_first(draw: int, *errors: dict) -> None:
    for found in errors:
        if draw in found:
            raise found[draw]


class _Evaluation:
    """The derivatives f^(k) of the given orders of a batch of draws, each
    evaluated once at the sample points (grid.ring for the checks, grid.points
    for heatmap and the lemma1 probe) in one Horner pass, and the quantities
    taken from them for the whole batch at once. The draws are one
    PowerSeries or the rows of one SeriesBlock; see series.derivative_block.

    A failure belongs to its draw: `errors` maps a draw to the NonFiniteValue
    of its evaluation, values/take return the exceptions of each draw they
    reach, and the caller raises them in its own order.
    """

    def __init__(self, f, orders, grid: DiskGrid, points: np.ndarray):
        self.grid = grid
        self.points = points
        # lowest power of z of f^(k) per row: an int, or an array when draws differ
        self.coeffs, self.powers = derivative_block(f, orders)
        self.size = size = self.coeffs.shape[0]
        rows = _horner_many(self.coeffs.reshape(size * len(orders), -1), points)
        self.rows = rows.reshape((size, len(orders)) + points.shape)
        finite = np.isfinite(rows.reshape(size, -1))
        self.errors = {}
        for b in (~finite.all(axis=1)).nonzero()[0].tolist():
            i, j = divmod(int(np.argmin(finite[b])), points.size)  # first such row, its first sample
            z = complex(points.flat[j])
            self.errors[b] = NonFiniteValue(f"f^({orders[i]}) is not finite at z = {z} (float64 overflow)")
            # the constant 1 in its place keeps the rest of the batch free of inf and NaN
            self.coeffs[b] = 0.0
            self.coeffs[b, :, 0] = 1.0
            self.rows[b] = 1.0
        self.row = {k: i for i, k in enumerate(orders)}

    @cached_property
    def dominant(self) -> np.ndarray:
        """Per draw and row: no root on |z| <= r_max by a dominant constant term."""
        return _dominant(self.coeffs, self.grid.r_max)

    @cached_property
    def doubtful(self) -> list:
        """(draw, row) of every row without a dominant constant term."""
        draws, rows = (~self.dominant).nonzero()
        return list(zip(draws.tolist(), rows.tolist()))

    def _term(self, term):
        """(row, shift): f^(k)/z^m is the row's polynomial times z**shift, one
        int shift for all draws or an array of one per draw."""
        k, m = term
        i = self.row[k]
        return i, self.powers[i] - m

    def _values(self, term) -> np.ndarray:
        i, shifts = self._term(term)
        vals = self.rows[:, i]
        if isinstance(shifts, int):
            return vals if shifts == 0 else vals * self.points**shifts
        out = np.empty_like(vals)
        for shift in set(shifts.tolist()):  # draws whose f^(k) starts at different powers of z
            draws = shifts == shift
            out[draws] = vals[draws] if shift == 0 else vals[draws] * self.points**shift
        return out

    def _below_tol(self, vals: np.ndarray, context: str) -> dict:
        """{draw: ZeroOnGrid at its first sample with |value| below ZERO_TOL}."""
        mag = np.abs(vals).reshape(self.size, -1)
        low = mag < ZERO_TOL
        errors: dict = {}
        if not low.any():
            return errors
        for b in low.any(axis=1).nonzero()[0].tolist():
            j = int(np.argmax(low[b]))  # first offending point in (radial, angular) order
            errors[b] = ZeroOnGrid(complex(self.points.flat[j]), float(mag[b, j]), context)
        return errors

    def values(self, q: _Quantity) -> tuple[np.ndarray, dict]:
        """add + N/D of every draw at every sample point, and the ZeroOnGrid of
        each draw whose denominator falls below ZERO_TOL at a sample."""
        vals = self._values(q.num)
        errors = {}
        if q.den is not None:
            den = self._values(q.den)
            errors = self._below_tol(den, q.context)
            if errors:  # those draws are lost; keep their division finite
                den = den.copy()
                den[list(errors)] = 1.0
            vals = vals / den
        return (q.add + vals if q.add else vals), errors

    def take(self, q: _Quantity) -> _Taken:
        """Value, witness and samples used of one functional on the ring, for every draw."""
        points = self.points.reshape(-1)
        sup = q.kind == "sup_arg"
        vals, errors = self.values(q)
        if q.den is None:
            errors = self._below_tol(vals, q.context)
        reduced = (np.abs(np.angle(vals)) if sup else vals.real).reshape(self.size, -1)
        idx = reduced.argmax(axis=1) if sup else reduced.argmin(axis=1)
        extreme = reduced[np.arange(self.size), idx]
        value, witness, used = extreme.tolist(), points[idx].tolist(), [points.size] * self.size
        # a functional constant on the circle is constant on the disk: every grid
        # point ties and the witness is the first one, as on the full grid
        other = reduced.min(axis=1) if sup else reduced.max(axis=1)
        for b in (other == extreme).nonzero()[0].tolist():
            value[b], witness[b], used[b] = float(reduced[b, 0]), complex(self.grid.radii[0]), self.grid.size

        # the smallest root or pole in the closed disk that the functional must not have
        num, shift = self._term(q.num)
        certified = [num] if sup else []
        if q.den is not None:
            den, den_shift = self._term(q.den)
            certified.append(den)
            shift = shift - den_shift
        pole = shift != 0 if sup else shift < 0  # the net z-power: a zero of an argument, or a pole
        if isinstance(pole, np.ndarray):
            poles = set(pole.nonzero()[0].tolist())
        else:
            poles = set(range(self.size)) if pole else set()
        suspects = {b for b, i in self.doubtful if i in certified} if certified else set()
        for b in (suspects | poles) - errors.keys() - self.errors.keys():
            try:
                found = [_smallest_root_in_disk(self.coeffs[b, i], self.grid.r_max)
                         for i in certified if not self.dominant[b, i]]
            except (NonFiniteValue, np.linalg.LinAlgError) as exc:
                errors[b] = exc
                continue
            found = [r for r in found if r is not None] + ([0j] if b in poles else [])
            root = min(found, key=abs, default=None)
            if root is None:
                continue
            if q.kind == "min_real":
                errors[b] = ZeroOnGrid(root, None, q.context)
            else:
                value[b], witness[b], used[b] = math.pi, root, points.size
        return _Taken(value, witness, used, errors)


def _take_one(s: PowerSeries, kind: str, divisor_power: int, grid: DiskGrid):
    if divisor_power < 0:
        raise ValueError("divisor_power must be >= 0")
    ev = _Evaluation(s, (0,), grid, grid.ring)
    taken = ev.take(_plain(kind, 0, divisor_power))
    _raise_first(0, ev.errors, taken.errors)
    return taken.value[0], taken.witness[0], taken.used[0]


def sup_arg(s: PowerSeries, divisor_power: int, grid: DiskGrid = DEFAULT_GRID) -> SupArgResult:
    """sup over |z| <= r_max of |arg(s(z)/z**divisor_power)|, sampled on the outer ring.

    A zero in the closed disk gives exactly pi with the zero as witness.
    """
    value, witness, used = _take_one(s, "sup_arg", divisor_power, grid)
    return SupArgResult(sup_abs_arg=value, witness=witness, samples_used=used)


def min_real(s: PowerSeries, divisor_power: int, grid: DiskGrid = DEFAULT_GRID) -> tuple[float, complex]:
    """min over |z| <= r_max of Re(s(z)/z**divisor_power), sampled on the outer ring."""
    value, witness, _ = _take_one(s, "min_real", divisor_power, grid)
    return value, witness


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
        "arg-fp": _plain("sup_arg", p, 0),
        "arg-fp1-over-z": _plain("sup_arg", p - 1, 1),
        "arg-jst": _ratio("sup_arg", p, 1, quantity),
        "re-ratio": _ratio("min_real", p, p, quantity),
    }[quantity]
    ev = _Evaluation(f, _orders(q), grid, grid.points)
    vals, errors = ev.values(q)
    _raise_first(0, ev.errors, errors)
    if q.kind == "sup_arg":  # arg is undefined where the value, or a ratio's numerator, vanishes
        _raise_first(0, ev._below_tol(ev._values(q.num), quantity))
    vals = np.angle(vals[0]) if q.kind == "sup_arg" else vals[0].real
    return np.where(vals == -np.pi, np.pi, vals)  # fold onto (-pi, pi]


# ------------------------------------------------------------- theorem checks

def _coefficient_of(f: PowerSeries, exponent: int) -> complex:
    j = exponent - f.order_p
    if j < 0 or j >= f.coeffs.size:
        return 0j
    return complex(f.coeffs[j])


@dataclass(frozen=True)
class _Plan:
    """One implication for series of order p: everything that does not depend
    on the coefficients of f, so a scan builds it once."""

    theorem_id: str
    params: dict
    hypothesis: _Quantity
    hypothesis_bound: float
    conclusions: tuple[tuple[str, _Quantity, float], ...]  # (label, quantity, bound)
    notes: tuple[str, ...]

    @cached_property
    def orders(self) -> tuple[int, ...]:
        return _orders(self.hypothesis, *(q for _, q, _ in self.conclusions))


def _build_plan(theorem_id, p, alpha1, alpha0, delta, s) -> _Plan:
    """Check the theorem id and parameters and plan the implication for series
    of order p. Each branch names the parameters its theorem takes, checks
    their ranges, and lists the hypothesis, bounds and conclusions."""
    theorem_id = theorem_id.upper()
    given = {"alpha1": alpha1, "alpha0": alpha0, "delta": delta, "s": s}

    def takes(*names):
        for name, value in given.items():
            if value is not None and name not in names:
                raise ParamOutOfRange(f"{theorem_id} does not take parameter {name}")
            if value is None and name in names:
                raise ParamOutOfRange(f"{theorem_id} requires parameter {name}")

    notes: list[str] = []
    concl: list = []
    hyp = _plain("sup_arg", p, 0)  # all but T5, L2 and L3
    if theorem_id == "T5":
        takes("delta", "s")
        if not (delta > 0 and 2 * delta + (2 / math.pi) * math.atan(delta) < 2.0):
            raise ParamOutOfRange(
                "delta must satisfy delta > 0 and 2 delta + (2/pi)atan(delta) < 2"
            )
        if not isinstance(s, (int, np.integer)) or s < 2:
            raise ParamOutOfRange("s must be an integer >= 2")
        hyp = _plain("sup_arg", s, 0)
        hyp_bound = (math.pi / 2) * delta + math.atan(delta)
        params = {"s": int(s), "delta": delta}
        concl.append(("|arg(z f^(s)/f^(s-1))|", _ratio("sup_arg", p, s, "T5 conclusion"),
                      (math.pi / 2) * delta + 2 * math.atan(delta)))
    elif theorem_id == "L2":
        takes()
        hyp = _ratio("min_real", p, p, "L2 hypothesis")
        hyp_bound, params = 0.0, {"p": p}
        for k in range(1, p + 1):
            concl.append((f"Re(z f^({k})/f^({k - 1}))", _ratio("min_real", p, k, f"L2 k={k}"), 0.0))
    elif theorem_id == "L3":
        takes()
        hyp = _ratio("min_real", p, p + 1, "L3 hypothesis", add=p)
        hyp_bound, params = 0.0, {"p": p}
        for k in range(1, p):
            concl.append((f"Re({k} + z f^({k + 1})/f^({k}))",
                          _ratio("min_real", p, k + 1, f"L3 k={k}", add=k), 0.0))
    elif theorem_id == "T1":
        takes("alpha1")
        if not 0 < alpha1 <= 1:
            raise ParamOutOfRange("alpha1 must lie in (0, 1]")
        hyp_bound = (math.pi / 2) * (alpha1 + (2 / math.pi) * math.atan(alpha1))
        params = {"p": p, "alpha1": alpha1}
        concl.append((f"|arg(f^({p - 1})/z)|", _plain("sup_arg", p - 1, 1), alpha1 * math.pi / 2))
    elif theorem_id == "C1":
        takes()
        hyp_bound, params = 3 * math.pi / 4, {"p": p}
        concl.append((f"|arg(f^({p - 1})/z)|", _plain("sup_arg", p - 1, 1), math.pi / 2))
        for k in range(p):
            concl.append((f"Re(f^({p - k - 1})/z^{k + 1})", _plain("min_real", p - k - 1, k + 1), 0.0))
    elif theorem_id == "C2":
        takes()
        _, composite = solve_gamma0()
        hyp_bound, params = (math.pi / 2) * composite, {"p": p}
        concl.append(("|arg(z f'/f)|", _ratio("sup_arg", p, 1, "C2 conclusion"), math.pi / 2))
    elif theorem_id in ("T3", "T4"):
        takes("alpha0")
        if not 0 < alpha0 <= 1.5:
            raise ParamOutOfRange("alpha0 must lie in (0, 3/2]")
        hyp_bound = math.pi * alpha0 / 2
        params = {"p": p, "alpha0": alpha0}
        chain = alpha_sequence(alpha0, p)
        if theorem_id == "T3":
            for k in range(1, p + 1):
                concl.append((f"|arg(f^({p - k})/z^{k})|", _plain("sup_arg", p - k, k),
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
    else:
        raise ParamOutOfRange(f"unknown theorem id {theorem_id!r}")
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
    """Verify one hypothesis -> conclusions implication on the grid.

    Implications by id (p = f.order_p, all quantities sampled on the outer
    ring of the grid, see the module docstring):

    * T1: sup|arg f^(p)| < (pi/2)(a1 + (2/pi)atan a1)  =>
          sup|arg(f^(p-1)/z)| < a1 pi/2, for a1 in (0, 1].
    * C1: sup|arg f^(p)| < 3pi/4  =>  sup|arg(f^(p-1)/z)| < pi/2 and
          min Re(f^(p-k-1)/z^(k+1)) > 0 for k in {0..p-1}.
    * C2: sup|arg f^(p)| < (pi/2)(g0 + (2/pi)atan g0), g0 the root of
          2g + (2/pi)atan g = 1  =>  sup|arg(z f'/f)| < pi/2 (starlike).
    * T3: sup|arg f^(p)| < pi a0/2, a0 in (0, 3/2]  =>
          sup|arg(f^(p-k)/z^k)| < pi a_k/2 for k in {1..p}, a_k the implicit
          chain a_k + (2/pi)atan(a_k/k) = a_{k-1}.
    * T4: same hypothesis as T3  =>
          sup|arg(z f^(p-s+1)/f^(p-s))| < (pi/2)(a_s + a_{s-1}) for s in
          {2..p}; the s=1 case is included only when a0 + a1 < 2; when some
          sigma <= p has a_sigma + a_{sigma-1} <= 1, additionally
          sup|arg(z f'/f)| < pi/2.
    * T5: for a gap series (coefficient of z^(s-1) zero, of z^s nonzero):
          sup|arg f^(s)| < (pi/2)delta + atan(delta)  =>
          sup|arg(z f^(s)/f^(s-1))| < (pi/2)delta + 2 atan(delta).
    * L2: min Re(z f^(p)/f^(p-1)) > 0  =>  the same for every lower order
          k in {1..p}.
    * L3: min Re(p + z f^(p+1)/f^(p)) > 0  =>
          min Re(k + z f^(k+1)/f^(k)) > 0 for k in {1..p-1}.
    """
    if f.order_p < 1:
        raise ParamOutOfRange("f must have order_p >= 1")
    plan = _build_plan(theorem_id, f.order_p, alpha1, alpha0, delta, s)
    if plan.theorem_id == "T5":
        if _coefficient_of(f, s - 1) != 0:
            raise ParamOutOfRange(f"coefficient of z^{s - 1} must be 0")
        if _coefficient_of(f, s) == 0:
            raise ParamOutOfRange(f"coefficient of z^{s} must be nonzero")
    return _reports(plan, _Evaluation(f, plan.orders, grid, grid.ring))[0]


def _reports(plan: _Plan, ev: _Evaluation) -> list[VerificationReport]:
    """The report of each draw of the evaluation, in draw order.

    The first draw that fails raises, as if the draws were checked one at a
    time: within a draw its evaluation fails first, then its hypothesis, then
    each conclusion in order, and the conclusions only when the hypothesis holds.
    """
    hyp = ev.take(plan.hypothesis)
    hyp_values, bound = np.array(hyp.value), plan.hypothesis_bound
    hyp_ok = (hyp_values > bound if plan.hypothesis.kind == "min_real" else hyp_values < bound).tolist()
    taken = [ev.take(q) for _, q, _ in plan.conclusions] if any(hyp_ok) else []
    reports = []
    for b in range(ev.size):
        _raise_first(b, ev.errors, hyp.errors)
        conclusions = []
        verdict = VERDICT_HYP
        if hyp_ok[b]:
            for (label, q, c_bound), c in zip(plan.conclusions, taken):
                _raise_first(b, c.errors)
                conclusions.append(ConclusionCheck(label, q.kind, c.value[b], c_bound, c.witness[b]))
            verdict = VERDICT_PASS if all(c.ok for c in conclusions) else VERDICT_FAIL
        reports.append(VerificationReport(
            theorem_id=plan.theorem_id,
            params=plan.params,
            hypothesis_sup=hyp.value[b],
            hypothesis_bound=bound,
            hypothesis_satisfied=hyp_ok[b],
            conclusions=tuple(conclusions),
            verdict=verdict,
            witnesses=(hyp.witness[b], *(c.witness for c in conclusions)),
            notes=plan.notes,
        ))
    return reports


# ------------------------------------------------------------- boundary probe

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_THETA_TOL = 1e-10  # width of the golden-section bracket around the maximizing angle


def _golden_max(fun, a: float, b: float, tol: float) -> float:
    h = b - a
    c, d = b - _INVPHI * h, a + _INVPHI * h
    fc, fd = fun(c), fun(d)
    while h > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INVPHI * h
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fun(d)
    return 0.5 * (a + b)


def _horner(cs: list, z: complex) -> complex:
    """q(z) by Horner's rule in Python complex arithmetic; cs holds the
    coefficients in ascending powers as Python complex numbers (coeffs.tolist())."""
    acc = cs[-1]
    for c in cs[-2::-1]:
        acc = acc * z + c
    return acc


def _ring_sup(coeffs: np.ndarray, r: float, angles: np.ndarray) -> tuple[float, float]:
    """(theta*, sup) of |arg q| on the circle of radius r: coarse scan + golden refine."""
    vals = _horner_many(coeffs, r * np.exp(1j * angles))
    args = np.angle(vals)
    absarg = np.abs(args)
    # conjugate-symmetric q gives +/- mirror maxima equal up to rounding; take
    # the positive-argument representative so the reported point is canonical
    near = np.flatnonzero(absarg >= absarg.max() - 1e-9)
    positive = near[args[near] > 0]
    j = int(positive[0]) if positive.size else int(near[0])
    step = 2.0 * math.pi / angles.size
    cs = coeffs.tolist()

    def g(theta: float) -> float:
        return abs(principal_arg(_horner(cs, r * cmath.exp(1j * theta))))

    theta = _golden_max(g, angles[j] - step, angles[j] + step, _THETA_TOL)
    return theta, g(theta)


def lemma1_probe(q: PowerSeries, gamma: float, grid: DiskGrid = DEFAULT_GRID) -> Lemma1Report:
    """Locate the first radius where max|arg q| reaches pi*gamma/2 and evaluate
    the boundary relation z0 q'(z0)/q(z0) there.

    arg q is harmonic where q has no zero, so by the maximum principle max|arg q|
    on |z| = r never decreases in r: the outer ring decides whether the level
    is reached, and the crossing radius is bisected on [0, r_max]. q must then
    be zero-free on |z| <= r0, certified as for the checks' denominators; a
    zero there raises ZeroOnGrid.

    At the first touching point the logarithmic derivative is purely imaginary
    with Im = (2k/pi) arg q(z0) for some k >= (a + 1/a)/2 >= 1, where
    a = |q(z0)|^(1/gamma); the report carries k_est, a_est, and the residual
    real part (imag_purity) so those inequalities can be asserted numerically.
    """
    if not 0 < gamma < math.inf:
        raise ParamOutOfRange("gamma must be finite and > 0")
    if q.order_p != 0 or q.coeffs[0] != 1:
        raise ParamOutOfRange("q must satisfy q(0) = 1 (order_p 0, constant term 1)")
    ev = _Evaluation(q, (0,), grid, grid.points)
    _raise_first(0, ev.errors, ev._below_tol(ev.rows[:, 0], "lemma1 probe"))
    level = math.pi * gamma / 2.0

    coeffs, angles, r_max = q.coeffs, grid.angles, grid.r_max
    theta, top = _ring_sup(coeffs, r_max, angles)
    if top < level:
        raise NotAttained(gamma, level, top, complex(r_max * cmath.exp(1j * theta)))

    # a ring that touches the level reaches it, so a zero excess counts as positive
    r0 = bisect_increasing(lambda r: _ring_sup(coeffs, r, angles)[1] - level or math.inf, 0.0, r_max)
    # the lemma needs q zero-free on |z| <= r0: a zero there can be what pushed arg q to the level
    if not _dominant(coeffs, r0):
        root = _smallest_root_in_disk(coeffs, r0)
        if root is not None:
            raise ZeroOnGrid(root, None, "lemma1 probe", f"q has a root in |z| <= r0 = {r0!r}")
    theta0, _ = _ring_sup(coeffs, r0, angles)

    z0 = r0 * cmath.exp(1j * theta0)
    qz = _horner(coeffs.tolist(), z0)
    qprime = differentiate(q, 1)
    ratio = z0 * _horner(qprime.coeffs.tolist(), z0) * z0**qprime.order_p / qz
    arg_q = principal_arg(qz)
    return Lemma1Report(
        gamma=gamma,
        level=level,
        r0=r0,
        z0=z0,
        ratio=ratio,
        k_est=(math.pi / 2.0) * abs(ratio.imag) / abs(arg_q),
        a_est=abs(qz) ** (1.0 / gamma),
        imag_purity=abs(ratio.real),
    )


# ------------------------------------------------------------------- sampling

def _sample_block(seeds, p: int, bound: float, N: int = 16, s_gap: Optional[int] = None) -> SeriesBlock:
    """One draw of sample_hypothesis_function per seed, as the rows of a block.

    Each draw takes its 2N-1 uniforms, u, the weights and the phases, from its
    own default_rng(seed); everything after that is one array operation over
    the block, and rounds as it does for a draw alone.
    """
    if not 0.0 < bound < math.pi / 2.0:
        raise ValueError("bound must lie in (0, pi/2)")
    if N < 2:
        raise ValueError("N must be >= 2")
    order = int(s_gap) if s_gap is not None else int(p)
    if s_gap is not None and order < 2:
        raise ValueError("s_gap must be >= 2")
    if s_gap is None and order < 1:
        raise ValueError("p must be >= 1")
    try:
        scale = float(math.factorial(order))
    except OverflowError:
        raise NonFiniteValue(f"{order}! overflows float64 (sampler scale of order {order})") from None
    falling_factorials(order, N, order)  # the draws' coefficients divide by these: fail now if they overflow

    uniforms = np.empty((len(seeds), 2 * N - 1))
    for b, seed in enumerate(seeds):
        np.random.default_rng(seed).random(out=uniforms[b])
    # uniform(low, high) is low + (high - low) * random(), so these are bit-identical
    u, weights, phases = uniforms[:, 0], uniforms[:, 1:N], 2.0 * math.pi * uniforms[:, N:]
    total = math.sin(bound) * u
    wsum = weights.sum(axis=1)[:, None]
    moduli = np.divide(total[:, None] * weights, wsum, out=np.zeros_like(weights), where=wsum > 0)
    raw = np.empty((len(seeds), N), dtype=np.complex128)
    raw[:, 0] = 1.0
    raw[:, 1:] = moduli * np.exp(1j * phases)
    raw *= scale
    return SeriesBlock(order, raw, order)


def sample_hypothesis_function(
    seed, p: int, bound: float, N: int = 16, s_gap: Optional[int] = None
) -> PowerSeries:
    """Draw f with sup|arg f^(p)| < bound guaranteed by construction.

    Builds h(z) = 1 + sum c_n z^n with random phases and moduli scaled so that
    sum|c_n| = sin(bound) * u for u drawn in (0, 1); then |arg h| <=
    asin(sum|c_n|) < bound everywhere, and f is the p-fold antiderivative of
    p! h, i.e. f^(p) = p! h with f in the normalized class (leading
    coefficient exactly 1). With s_gap = s the same construction starts at
    z^s, so the coefficient of z^(s-1) is 0 and that of z^s is 1.
    """
    block = _sample_block([seed], p, bound, N, s_gap)
    return integrate(PowerSeries(0, block.raw[0]), block.order_p)


_SAMPLER_CAP = math.pi / 2.0 - 1e-9
# A scan batch holds at most this many ring values (4 MB of complex128).
_BATCH_VALUES = 2**18
# Sampler bounds of the real-part implications. asin(S) + asin(S/2) <= 1.44 <
# pi/2 for S <= sin(1), so the L2 hypothesis holds by construction at 1.0;
# L3 draws can miss theirs and are redrawn.
_RE_SAMPLER_BOUND = {"L2": 1.0, "L3": 0.9}


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
    draw. The draws are evaluated in batches of at most _BATCH_VALUES ring
    values, each batch in one Horner pass, with the reports (and the first
    error) that check_theorem gives on each draw in turn. Draws that fail the
    hypothesis on the grid are discarded and redrawn (only L3 can produce them;
    the other samplers guarantee the hypothesis), capped at 10x the requested
    trials; a scan that reaches the cap raises DrawsExhausted. FAIL counts are
    expected to be 0: the implications are proved, so any FAIL is an artifact
    bug or a genuinely interesting sample worth inspecting via worst_function.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    theorem_id = theorem_id.upper()
    if theorem_id == "T5":
        # T5 draws gap series of order s
        if p is not None:
            raise ParamOutOfRange("T5 does not take parameter p")
        order, s_gap = s, s
    elif p is None or p < 1:
        raise ParamOutOfRange(f"{theorem_id} scan requires p >= 1")
    else:
        order, s_gap = p, None
    plan = _build_plan(theorem_id, order, alpha1, alpha0, delta, s)
    bound = _RE_SAMPLER_BOUND.get(theorem_id, min(plan.hypothesis_bound, _SAMPLER_CAP))
    given = (("alpha1", alpha1), ("alpha0", alpha0), ("delta", delta), ("s", s))

    counts = {VERDICT_PASS: 0, VERDICT_FAIL: 0, VERDICT_HYP: 0}
    verdicts: list[str] = []
    worst = (math.inf, None, None, None)  # (margin, label, attempt, sampler row)
    attempts = 0
    batch = max(1, _BATCH_VALUES // (len(plan.orders) * grid.n_angular))
    while len(verdicts) < trials and attempts < 10 * trials:
        # every draw of a batch is needed: each one adds at most one verdict
        size = min(trials - len(verdicts), 10 * trials - attempts, batch)
        seeds = [np.random.SeedSequence((seed, attempts + b)) for b in range(size)]
        draws = _sample_block(seeds, order, bound, N, s_gap)
        for row, report in zip(draws.raw, _reports(plan, _Evaluation(draws, plan.orders, grid, grid.ring))):
            attempt = attempts
            attempts += 1
            if report.verdict == VERDICT_HYP:
                counts[VERDICT_HYP] += 1
                continue
            counts[report.verdict] += 1
            verdicts.append(report.verdict)
            for c in report.conclusions:
                if c.margin < worst[0]:
                    worst = (c.margin, c.label, attempt, row)
    if len(verdicts) < trials:
        raise DrawsExhausted(
            f"only {len(verdicts)} of {trials} draws satisfied the {theorem_id} "
            f"hypothesis after {attempts} attempts"
        )
    return ScanReport(
        theorem_id=theorem_id,
        p=p,
        params={name: value for name, value in given if value is not None},
        trials=trials,
        seed=seed,
        sampler_N=N,
        attempts=attempts,
        counts=counts,
        verdicts=tuple(verdicts),
        worst_margin=None if worst[3] is None else worst[0],
        worst_label=worst[1],
        worst_attempt=worst[2],
        # the only PowerSeries of the scan
        worst_function=None if worst[3] is None else integrate(PowerSeries(0, worst[3]), order),
    )
