"""Scalar root-finding for the implicit constants of the argument-bound theory.

Every equation solved here is strictly increasing in the unknown with a sign
change on a bracket provable from endpoint values. The implicit constants
(solve_gamma0, solve_delta_max, alpha_sequence) are solved by plain bisection:
deterministic, derivative-free, and the returned root is always the final
bracket midpoint, so their printed digits are reproducible and every bound
computed from them keeps its bytes (a 1e-12 move in one alpha moves a margin
by up to 3e-12). itp_increasing solves an equation whose evaluations are
costly, the lemma1 crossing radius, in fewer steps, and never more than one
beyond bisection.

The constants and chains are solved once per process: solve_gamma0,
solve_delta_max and alpha_sequence cache their (immutable) results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional


class BracketInvalid(ValueError):
    """g(lo) < 0 < g(hi) does not hold on the supplied bracket."""


class NoConvergence(ArithmeticError):
    """Bracket width did not reach ABS_TOL within MAX_ITER iterations."""

    def __init__(self, lo: float, hi: float, iterations: int):
        self.bracket = (lo, hi)
        self.iterations = iterations
        super().__init__(
            f"bracket [{lo!r}, {hi!r}] still wider than tolerance after "
            f"{iterations} iterations"
        )


@dataclass(frozen=True)
class AlphaSequence:
    """Solved chain of the implicit recurrence a_k + (2/pi)atan(a_k/k) = a_{k-1}.

    values[0] is the starting value; residuals[k] is the defining-equation
    residual of values[k] (residuals[0] is 0 by convention).
    """

    alpha0: float
    values: tuple[float, ...]
    residuals: tuple[float, ...]


# Every solve, bisection or ITP, stops once its bracket is at most ABS_TOL wide, within MAX_ITER steps.
ABS_TOL = 1e-12
MAX_ITER = 200


def bisect_increasing(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a strictly increasing g on [lo, hi]; returns the final bracket midpoint."""
    if not lo < hi:
        raise BracketInvalid(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not (g(lo) < 0.0 < g(hi)):
        raise BracketInvalid(
            f"sign condition g(lo) < 0 < g(hi) fails: g({lo!r}) = {g(lo)!r}, "
            f"g({hi!r}) = {g(hi)!r}"
        )
    for _ in range(MAX_ITER):
        if hi - lo <= ABS_TOL:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted float resolution
            return mid
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(lo, hi, MAX_ITER)


def itp_increasing(g: Callable[[float], float], lo: float, hi: float,
                   g_lo: float, g_hi: float) -> tuple[float, float]:
    """Bracket (lo', hi') of the root of an increasing g, at most ABS_TOL wide.

    g_lo = g(lo) and g_hi = g(hi) are the caller's known end values. A zero
    counts as positive: on return g(lo') < 0 <= g(hi'), hi' the smallest point
    seen to reach 0. Each step interpolates the two ends, truncates that
    point toward the midpoint and projects it into the interval that keeps
    the bisection count, so g is evaluated at most ceil(log2((hi - lo) /
    ABS_TOL)) + 1 times. This is ITP (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) with kappa1 = 0.2 / (hi - lo), kappa2 = 2 and n0 = 1.
    """
    if not lo < hi:
        raise BracketInvalid(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if not (g_lo < 0.0 <= g_hi):
        raise BracketInvalid(
            f"sign condition g(lo) < 0 <= g(hi) fails: g({lo!r}) = {g_lo!r}, g({hi!r}) = {g_hi!r}"
        )
    eps = 0.5 * ABS_TOL
    kappa1 = 0.2 / (hi - lo)
    n_max = math.ceil(math.log2((hi - lo) / ABS_TOL)) + 1
    for j in range(MAX_ITER):
        width = hi - lo
        if width <= ABS_TOL:
            return lo, hi
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket exhausted float resolution
            return lo, hi
        # interpolate (regula falsi), truncate toward mid, project into mid +- radius
        x = (g_hi * lo - g_lo * hi) / (g_hi - g_lo)
        sigma = math.copysign(1.0, mid - x)
        delta = kappa1 * width * width
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        # eps * 2**1064 is about 1e308: the radius stays finite for any float bracket
        radius = math.ldexp(eps, min(n_max - j, 1064)) - 0.5 * width
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        if not lo < x < hi:
            x = mid
        gx = g(x)
        if gx < 0.0:
            lo, g_lo = x, gx
        else:
            hi, g_hi = x, gx
    raise NoConvergence(lo, hi, MAX_ITER)


@functools.lru_cache
def solve_gamma0() -> tuple[float, float]:
    """Unique positive root of 2g + (2/pi)atan(g) = 1, with the composite bound.

    Returns (gamma0, gamma0 + (2/pi)atan(gamma0)); the composite is the factor
    in the sufficient starlikeness condition |arg f^(p)| < (pi/2) * composite.
    """
    root = bisect_increasing(lambda g: 2 * g + (2 / math.pi) * math.atan(g) - 1.0, 0.0, 1.0)
    return root, root + (2 / math.pi) * math.atan(root)


@functools.lru_cache
def solve_delta_max() -> tuple[float, float]:
    """Unique positive root of 2d + (2/pi)atan(d) = 2, with d + (2/pi)atan(d) at the root."""
    root = bisect_increasing(lambda d: 2 * d + (2 / math.pi) * math.atan(d) - 2.0, 0.0, 2.0)
    return root, root + (2 / math.pi) * math.atan(root)


def alpha_next(k: int, alpha_prev: float) -> float:
    """Unique root in (0, alpha_prev) of a + (2/pi)atan(a/k) = alpha_prev."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not alpha_prev > 0:
        raise ValueError("alpha_prev must be > 0")
    # At a=0 the left side is 0 < alpha_prev; at a=alpha_prev it exceeds alpha_prev.
    return bisect_increasing(lambda a: a + (2 / math.pi) * math.atan(a / k) - alpha_prev, 0.0, alpha_prev)


def alpha_residual(k: int, alpha_k: float, alpha_prev: float) -> float:
    return abs(alpha_k + (2 / math.pi) * math.atan(alpha_k / k) - alpha_prev)


# typed: alpha_sequence(1, n) keeps its int alpha0, as when it was solved each call
@functools.lru_cache(maxsize=256, typed=True)
def alpha_sequence(alpha0: float, n: int) -> AlphaSequence:
    """Chain alpha_next n times from alpha0 in (0, 3/2]."""
    if not 0 < alpha0 <= 1.5:
        raise ValueError("alpha0 must lie in (0, 3/2]")
    if n < 0:
        raise ValueError("n must be >= 0")
    values = [alpha0]
    residuals = [0.0]
    for k in range(1, n + 1):
        values.append(alpha_next(k, values[-1]))
        residuals.append(alpha_residual(k, values[-1], values[-2]))
    return AlphaSequence(alpha0, tuple(values), tuple(residuals))


def sigma_index(values) -> Optional[int]:
    """First k >= 1 with values[k] + values[k-1] <= 1, or None within the table."""
    for k in range(1, len(values)):
        if values[k] + values[k - 1] <= 1.0:
            return k
    return None


def majorant_sequence(n: int) -> list[float]:
    """x_0 = 2, x_k = x_{k-1} / (1 + 1/(k pi)): explicit majorant of the alpha chain."""
    if n < 0:
        raise ValueError("n must be >= 0")
    values = [2.0]
    for k in range(1, n + 1):
        values.append(values[-1] / (1.0 + 1.0 / (k * math.pi)))
    return values


def majorant_closed_form(k: int) -> float:
    """2 / prod_{j=1..k} (1 + 1/(j pi)), the product form of the majorant."""
    prod = 1.0
    for j in range(1, k + 1):
        prod *= 1.0 + 1.0 / (j * math.pi)
    return 2.0 / prod


def harmonic_lower_bound(n: int) -> float:
    """(1/pi) sum_{k=1..n} 1/(k + 1/pi): the divergent minorant of log prod (1 + 1/(k pi)).

    Termwise log(1 + 1/(k pi)) > 1/(k pi + 1) by log x > (x-1)/x, so this partial
    sum is dominated by the log of the majorant's denominator product yet still
    diverges, which is what drives the alpha chain to zero.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(1.0 / (k + 1.0 / math.pi) for k in range(1, n + 1)) / math.pi


def log_majorant_product(n: int) -> float:
    """log prod_{k=1..n} (1 + 1/(k pi)) = log(x_0 / x_n)."""
    return sum(math.log(1.0 + 1.0 / (k * math.pi)) for k in range(1, n + 1))
