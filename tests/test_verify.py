import cmath
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argstar import (
    CrossingUnresolved,
    DiskGrid,
    NonFiniteValue,
    NotAttained,
    ParamOutOfRange,
    PowerSeries,
    ZeroOnGrid,
    alpha_sequence,
    check_theorem,
    counterexample_scan,
    differentiate,
    integrate,
    lemma1_probe,
    make_series,
    min_real,
    sample_hypothesis_function,
    sigma_index,
    sup_arg,
)
from argstar import cli, series, verify
from argstar.series import principal_arg
from argstar.roots import ABS_TOL
from argstar.verify import SLACK, ConclusionCheck, _brent_max, _ring_values

# Independently computed: with q = 1 + z the max of |arg q| on |z| = r is
# asin(r), first reaching asin(0.6) at r0 = 0.6, where z0 q'(z0)/q(z0) is
# exactly 0.75i and (pi/2)|Im|/|arg q(z0)| = (3pi/8)/asin(0.6).
K_EST_ONE_PLUS_Z = 1.8307617951201067
LEVEL_06 = math.asin(0.6)


def integrated(p, tail_of_h, scale=None):
    # f with f^(p) = p! * (1 + sum tail_of_h[j] z^(j+1))
    fact = float(math.factorial(p)) if scale is None else scale
    raw = np.concatenate(([1.0], np.asarray(tail_of_h, dtype=complex))) * fact
    return integrate(PowerSeries(0, raw), p)


# ----------------------------------------------------------------------- grid

def test_grid_defaults():
    g = DiskGrid()
    assert (g.r_max, g.n_radial, g.n_angular) == (0.995, 64, 512)
    assert g.points.shape == (64, 512)
    assert g.size == 64 * 512


def test_grid_radii_endpoints():
    g = DiskGrid()
    assert g.radii[-1] == 0.995  # outermost ring lands on r_max exactly
    assert abs(g.radii[0] - 0.995 / 64) < 1e-18
    assert np.all(np.diff(g.radii) > 0)


def test_grid_single_ring():
    g = DiskGrid(r_max=0.5, n_radial=1, n_angular=4)
    assert list(g.radii) == [0.5]
    assert g.points.shape == (1, 4)


def test_grid_angles_uniform():
    g = DiskGrid(n_angular=8)
    assert np.allclose(g.angles, 2 * np.pi * np.arange(8) / 8)
    assert g.angles[0] == 0.0


@pytest.mark.parametrize("kw", [{"r_max": 0.0}, {"r_max": 1.0}, {"r_max": -0.5}, {"n_radial": 0}, {"n_angular": 0}])
def test_grid_rejects_bad_params(kw):
    with pytest.raises(ValueError):
        DiskGrid(**kw)


@pytest.mark.parametrize("count", ["n_radial", "n_angular"])
def test_grid_names_the_count_below_one(count):
    # --points sets n_angular alone, so the message names the count that is below 1
    for n in (0, -3):
        with pytest.raises(ValueError, match=rf"^{count} must be >= 1$"):
            DiskGrid(**{count: n})


@pytest.mark.parametrize("count", ["n_radial", "n_angular"])
def test_grid_rejects_non_integer_counts(count):
    # a count of 2.5 would sample 3 angles and report witnesses at 2 pi k / 2.5
    for n in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match=rf"^{count} must be an integer$"):
            DiskGrid(**{count: n})
    assert DiskGrid(**{count: np.int64(3)}).size == DiskGrid(**{count: 3}).size


def test_grid_arrays_deterministic_and_readonly():
    a, b = DiskGrid(), DiskGrid()
    assert a.points.tobytes() == b.points.tobytes()
    with pytest.raises(ValueError):
        a.radii[0] = 9.0
    with pytest.raises(ValueError):  # the checks' ring is its last row
        a.points[-1, 0] = 0j


@pytest.mark.parametrize("r_max", [0.995, 0.5, 1e-3, 1e-100, 1e-200])
def test_rings_start_at_their_radius(r_max):
    # every ring starts at angle 0, so an evaluation reads each radius off its
    # first point, bit for bit, and the outermost one is r_max exactly
    for n_radial in range(1, 101):
        g = DiskGrid(r_max=r_max, n_radial=n_radial, n_angular=8)
        assert g.points[:, 0].real.tobytes() == g.radii.tobytes()
        assert g.radii[-1] == r_max


def test_angular_doubling_is_nested():
    # same radii, every coarse angle present in the doubled grid
    coarse, fine = DiskGrid(n_angular=64), DiskGrid(n_angular=128)
    assert coarse.radii.tobytes() == fine.radii.tobytes()
    assert coarse.angles.tobytes() == fine.angles[::2].tobytes()


# ---------------------------------------------------------------- ring kernel

EPS = np.finfo(float).eps
EPS_LD = float(np.finfo(np.longdouble).eps)  # EPS where long double is double


def _ring_reference(coeffs: np.ndarray, r: float, n: int) -> np.ndarray:
    """Horner's rule in long double at r exp(2 pi i k/n), the angles taken in long double."""
    theta = 8 * np.arctan(np.longdouble(1)) * np.arange(n).astype(np.longdouble) / n
    z = np.longdouble(r) * (np.cos(theta) + 1j * np.sin(theta)).astype(np.clongdouble)
    acc = np.full(n, np.clongdouble(coeffs[-1]))
    for c in coeffs[-2::-1]:
        acc = acc * z + np.clongdouble(c)
    return acc


def _ring_bound(coeffs: np.ndarray, r: float) -> float:
    """8 eps sum|c_j| r^j for the kernel, plus the reference's own Horner and
    angle rounding (5 N long-double eps)."""
    return (8 * EPS + 5 * coeffs.size * EPS_LD) * float(np.abs(coeffs) @ (r ** np.arange(coeffs.size)))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 64, 512])
@pytest.mark.parametrize("extra", [-1, 0, 1, 2])  # N < n, N = n and N > n (folded)
def test_ring_values_match_horner_within_rounding(n, extra):
    rng = np.random.default_rng(1000 * n + extra)
    N = max(n + extra, 2) if extra < 2 else 3 * n + 5
    coeffs = (rng.normal(size=(3, N)) + 1j * rng.normal(size=(3, N))) / np.arange(1, N + 1)
    coeffs[2] = coeffs[2].real  # a real row
    radii = np.array([0.995, 0.5, 0.01])
    got = _ring_values(coeffs, radii, n)
    assert got.shape == (3, 3, n)
    for b in range(3):
        for i, r in enumerate(radii):
            err = np.abs(got[b, i].astype(np.clongdouble) - _ring_reference(coeffs[b], r, n)).max()
            assert err <= _ring_bound(coeffs[b], r), (b, r)


def test_ring_values_constant_rows_are_exact():
    coeffs = np.array([[complex(1.0, -0.0)], [complex(-0.0, 0.0)], [-2.5 + 1e-300j]])
    got = _ring_values(coeffs, np.array([0.9, 0.1]), 5)
    assert _bits(got) == _bits(np.broadcast_to(coeffs[:, None, :], (3, 2, 5)))
    assert np.angle(got[0]).tolist() == [[-0.0] * 5] * 2 and np.signbit(np.angle(got[0])).all()


def test_ring_values_flag_only_true_overflow():
    # every value of this row is finite, but its unscaled transform overflows
    coeffs = np.array([1.8613731354141504e307 - 3.9960794789262974e307j,
                       -1.2960001139415074e308 + 6.622631824434946e307j])
    r, n = 0.995, 8
    with np.errstate(over="ignore", invalid="ignore"):
        unscaled = np.fft.ifft(coeffs * r ** np.arange(2), n=n, norm="forward")
    assert not np.isfinite(unscaled).all()
    got = _ring_values(coeffs, np.array([r]), n)[0]
    assert np.isfinite(got).all()
    small = coeffs / 2.0**64  # the same error, scaled exactly below the overflow of the bound
    err = np.abs((got / 2.0**64).astype(np.clongdouble) - _ring_reference(small, r, n)).max()
    assert err <= _ring_bound(small, r)
    # so the checks take its argument instead of reporting an overflow
    sup_arg(PowerSeries(0, coeffs), 0, DiskGrid(r_max=r, n_radial=1, n_angular=n))
    # 1e308 (1 + z) overflows at z = r and nowhere else on the two-point ring;
    # the warning is the caller's to silence, as the checks do
    with np.errstate(over="ignore"):
        got = _ring_values(np.array([1e308, 1e308 + 0j]), np.array([r]), 2)[0]
    assert not np.isfinite(got[0]) and np.isfinite(got[1])


@pytest.mark.parametrize("n,N", [(64, 16), (47, 16), (512, 16), (64, 100)])
def test_ring_values_batch_rows_match_single_rows_bitwise(n, N):
    rng = np.random.default_rng(n + N)
    block = rng.normal(size=(33, N)) + 1j * rng.normal(size=(33, N))
    block[4] *= 1e306  # a row the kernel scales for its transform
    radii = np.array([0.995, 0.3])
    alone = [_ring_values(block[b:b + 1], radii, n)[0] for b in range(33)]
    for size in (1, 3, 5, 7, 17, 33):
        batch = _ring_values(block[:size], radii, n)
        for b in range(size):
            assert _bits(batch[b]) == _bits(alone[b]), (size, b)


def _former_ring_values(coeffs, radii, n):
    """_ring_values as it was before it transformed a zero-padded buffer in
    place: the terms are a fresh product, and np.fft.ifft pads them to n."""
    N = coeffs.shape[-1]
    shape = coeffs.shape[:-1] + (radii.size, n)
    if N == 1:
        return np.broadcast_to(coeffs[..., None, :], shape).copy()
    terms = coeffs[..., None, :] * radii[:, None] ** np.arange(N)
    top = np.abs(terms.view(np.float64)).max(axis=-1)
    big = (top > 2.0**verify._FFT_HEADROOM) & (top < np.inf)
    shift = np.frexp(top[big])[1] - verify._FFT_HEADROOM
    terms.view(np.float64)[big] *= np.ldexp(1.0, -shift)[:, None]
    if N > n:
        folded = np.zeros(terms.shape[:-1] + (-(-N // n) * n,), dtype=np.complex128)
        folded[..., :N] = terms
        terms = folded.reshape(shape[:-1] + (-1, n)).sum(axis=-2)
    values = np.fft.ifft(terms, n=n, axis=-1, norm="forward")
    values.view(np.float64)[big] *= np.ldexp(1.0, shift)[:, None]
    return values


def _same_bits(got, want):
    """Equal values with equal sign bits, zeros' included, and NaNs at the
    same places. A NaN's sign is not compared: it depends on the order of
    a commutative operation, and a NaN sample fails its check whatever it is."""
    parts = ((got.real, want.real), (got.imag, want.imag)) if np.iscomplexobj(want) else ((got, want),)
    for a, b in parts:
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a) & ~np.isnan(a), np.signbit(b) & ~np.isnan(b))


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("rings", [1, 64])
@pytest.mark.parametrize("n,N", [(64, 1), (64, 2), (64, 16), (64, 64), (64, 65), (16, 100), (47, 16), (8, 2000)])
def test_ring_values_match_the_former_transform_bitwise(n, N, rings):
    # N < n, N = n, the fold of N > n and N = 1, on one ring and on 64
    rng = np.random.default_rng(100 * n + N + rings)
    block = rng.normal(size=(6, N)) + 1j * rng.normal(size=(6, N))
    block[1] = block[1].real  # -0.0 imaginary parts where the normal draws are negative
    block[1].imag = np.where(block[1].real < 0, -0.0, 0.0)
    block[2] = complex(-0.0, -0.0)  # the zero polynomial, all signs negative
    block[3] *= 2.0 ** (960 - 2 * np.arange(N) % 8)  # terms on both sides of 2**960: the scaled path
    block[4] *= 1e308  # terms near the largest float and past it: the transform overflows
    block[5, 1::2] = complex(0.0, -0.0)
    radii = np.array([0.995]) if rings == 1 else np.linspace(0.995, 0.995 / 64, 64)
    with np.errstate(over="ignore", invalid="ignore"):
        _same_bits(_ring_values(block, radii, n), _former_ring_values(block, radii, n))
        _same_bits(_ring_values(block[0], radii, n), _former_ring_values(block[0], radii, n))


_SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 2.0**960, -(2.0**960),
                  2.0**961 * (1 - 2.0**-53), 1.0, -1.0, np.pi, math.inf, -math.inf, math.nan, -math.nan]


@given(st.lists(st.tuples(*[st.one_of(st.sampled_from(_SPECIAL_PARTS), st.floats())] * 2), max_size=80))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_folded_arctan2_is_abs_angle_bitwise(parts):
    # take reduces a sup_arg as arctan2(|Im w|, Re w): arctan2 is odd in its
    # first argument, so that is |np.angle(w)|, at +-0, +-pi and everywhere
    # else, with NaNs at the same samples
    v = np.array([complex(x, y) for x, y in parts], dtype=np.complex128)
    got, want = np.arctan2(np.abs(v.imag), v.real), np.abs(np.angle(v))
    _same_bits(got, want)


# ------------------------------------------------------------- per-row bounds


@pytest.mark.parametrize("n", [8, 47, 512, 8192])
def test_rounding_allowance_has_a_tenfold_margin(n):
    # the largest kernel error against a 30-digit evaluation, over the 1-norm
    # of the terms, stays within a tenth of eps(N, n); the exact value sums each
    # bin of the fold, then takes the bins by Horner at w^k, k all angles of a
    # small ring or 16 of a large one
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    ks = np.arange(n) if n <= 64 else np.unique(np.r_[0, n // 4, n // 2, rng.integers(0, n, 13)])
    with mpmath.workdps(30):
        for N in (2, 3, 16, 40, 300, 2000):
            for r, kind in ((0.995, "aligned"), (0.995, "spread"), (0.6, "normal")):
                c = rng.normal(size=N) + 1j * rng.normal(size=N)
                if kind == "aligned":  # every term real and positive: the largest value, at k = 0
                    c = np.abs(c)
                elif kind == "spread":
                    c *= 10.0 ** rng.uniform(-5, 5, size=N)
                got = _ring_values(c[None, :], np.array([r]), n)[0, 0, ks]
                bins = [mpmath.mpc(0)] * min(N, n)
                power = mpmath.mpf(1)
                for j, cj in enumerate(c.tolist()):
                    bins[j % n] += mpmath.mpc(cj) * power
                    power *= r
                worst = 0.0
                for k, value in zip(ks.tolist(), got.tolist()):
                    w, exact = mpmath.expjpi(mpmath.mpf(2 * k) / n), mpmath.mpc(0)
                    for b in reversed(bins):
                        exact = exact * w + b
                    worst = max(worst, float(abs(mpmath.mpc(value) - exact)))
                total = float(np.abs(c) @ (r ** np.arange(N)))
                assert worst <= verify._rounding_allowance(N, n) / 10 * total, (N, r, kind)


def _never_clears(head, tail, N, n):
    """A _row_bounds that decides nothing: every scan runs per sample."""
    shape = np.shape(head)
    return np.full(shape, -np.inf), np.full(shape, np.inf)


def _outcome(call, *args):
    """What a call gives, bit for bit: its result's arrays as bytes, or the
    type and message it raises."""
    try:
        got = call(*args)
    except Exception as exc:  # the first error of a check is part of its outcome
        return "raised", type(exc), str(exc)
    if isinstance(got, np.ndarray):
        return _bits(got)
    return tuple(_bits(np.asarray(part)) for part in got)


def _batch_and_draws(raw):
    """The block of order 1 of all rows of raw, then one block per row alone:
    the first failure of a batch need not be that of its first draw."""
    return [series.SeriesBlock(1, rows) for rows in (raw, *raw[:, None])]


@st.composite
def _bound_cases(draw):
    """(raw, grid, points): rows of a SeriesBlock of order 1, on the ring or on
    all points of a grid of 8 or 16 angles (folded from degree 8 or 16 on).
    Row kinds: a random tail around the constant term; every tail term real and
    opposite to c_0, so the first sample is c_0 - tail, with c_0 set a few ulps
    around where the floor of a term with z-shift -1, 0 or +1 (m = 2, 1, 0)
    clears ZERO_TOL; a root just outside r_max. Every row scaled by 1e-13, 1,
    1e300 or up to the largest float64, where values can overflow."""
    n = draw(st.sampled_from([8, 16]))
    on_points = draw(st.booleans())
    grid = DiskGrid(r_max=draw(st.sampled_from([0.5, 0.9, 0.995])), n_radial=3 if on_points else 1, n_angular=n)
    points = grid.points if on_points else grid.points[-1][None]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(2, 41))  # degrees 1-40
    r, weights = grid.r_max, grid.r_max ** np.arange(N)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "near", "root"]))
        scale = draw(st.sampled_from([1e-13, 1.0, 1e300, np.finfo(float).max]))
        if kind == "random":
            row = (rng.normal(size=N) + 1j * rng.normal(size=N)) / np.arange(1, N + 1) ** rng.uniform(0, 2)
            row[0] = 1.0
            row[1:] *= draw(st.floats(0.2, 3.0)) / (np.abs(row[1:]) @ weights[1:])
        elif kind == "near":
            row = -rng.uniform(0, 1, size=N).astype(complex)
            row[1:] /= np.abs(row[1:]) @ weights[1:]  # tail 1 at r_max
            shift = draw(st.sampled_from([-1, 0, 1]))
            lo, hi = np.abs(points).min(), np.abs(points).max()
            target = series.ZERO_TOL / scale / min(lo**shift, hi**shift)
            eps = verify._rounding_allowance(N, n)
            head = (target + 1.0 + eps) / (1.0 - eps)  # floor(head) = target, up to rounding
            for _ in range(abs(ulps := draw(st.integers(-4, 4)))):
                head = np.nextafter(head, np.inf if ulps > 0 else 0.0)
            row[0] = head
            row *= np.exp(1j * rng.uniform(0, 2 * np.pi))  # a phase leaves every modulus alone
        else:
            rho = r * (1 + 10.0 ** rng.uniform(-8, -2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            q = np.r_[1.0, (rng.normal(size=N - 2) + 1j * rng.normal(size=N - 2)) * 0.3 / np.arange(2, N) ** 2]
            row = np.polynomial.polynomial.polymul(q, [-rho, 1.0])
        rows.append(row * min(scale, 0.999 * np.finfo(float).max / max(np.abs(row).max(), 1.0)))  # all finite
    return np.array(rows), grid, points


def _bound_quantities():
    # on one row of order 1: m = 0, 1, 2 is a z-shift of 1, 0, -1
    for kind in ("sup_arg", "min_real"):
        for m in (0, 1, 2):
            yield verify._plain(kind, 0, m, "plain")
            yield verify._Quantity(kind, (0, 1), (0, m), context="ratio")


_HALF_RING = DiskGrid(r_max=0.5, n_radial=1, n_angular=8)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=_bound_cases())
# a floor near the largest float over |z| = 0.5 clears a z-shift of -1 without overflowing
@example(case=(np.array([[1.7e308, 1e307]], dtype=complex), _HALF_RING, _HALF_RING.points[-1][None]))
def test_row_bounds_never_clear_a_term_with_a_bad_sample(case):
    raw, grid, points = case
    for block in _batch_and_draws(raw):
        def evaluated(use, *args):
            return use(verify._Evaluation(block, (0,), points), *args)

        def outcomes():
            return [_outcome(evaluated, lambda ev: (ev.rows, ev.coeffs))] + [
                _outcome(evaluated, verify._Evaluation.take, q) for q in _bound_quantities()]

        got = outcomes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_row_bounds", _never_clears)
            assert outcomes() == got
        try:
            ev = verify._Evaluation(block, (0,), points)
        except NonFiniteValue:  # a batch with a sample that overflows raises
            continue
        assert np.isfinite(ev.rows).all()
        for m in (0, 1, 2):
            if ev._clears((0, m)):
                with np.errstate(over="ignore", invalid="ignore"):  # a row near the largest float overflows over |z| < 1
                    values = ev.rows[:, 0] * points ** (1 - m)  # f/z^m, cleared or not
                ev._below_tol(values, "")  # raises nothing


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=_bound_cases())
def test_row_bounds_leave_verdicts_and_heatmaps_alone(case):
    raw, grid, points = case
    plans = [verify._build_plan(tid, 1, alpha1, None, None, None)
             for tid, alpha1 in (("T1", 0.5), ("C1", None), ("C2", None), ("L2", None), ("L3", None))]
    for block in _batch_and_draws(raw):
        f = PowerSeries(1, block.raw[0])

        def verdicts(plan):
            return verify._verdicts(plan, verify._Evaluation(block, plan.orders, points))

        def outcomes():
            return ([_outcome(verdicts, plan) for plan in plans]
                    + [_outcome(verify.heatmap_values, f, quantity, grid) for quantity in verify.HEATMAP_QUANTITIES])

        got = outcomes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_row_bounds", _never_clears)
            assert got == outcomes()


def test_scan_draws_need_no_per_sample_zero_scan(monkeypatch):
    # the bound pass decides every term of default scan draws, and a row that
    # starts with a zero (|c_0| = 0) still takes the per-sample scan
    calls = []
    below_tol = verify._Evaluation._below_tol
    monkeypatch.setattr(verify._Evaluation, "_below_tol", lambda self, *a: calls.append(1) or below_tol(self, *a))
    for tid, kw in (("T4", {"p": 5, "alpha0": 1.0}), ("C2", {"p": 2}), ("L2", {"p": 3}), ("T5", {"s": 2, "delta": 0.3})):
        counterexample_scan(tid, 40, 1, grid=DiskGrid(n_radial=1), **kw)
    assert calls == []
    f = make_series(2, [0.0, 0.2, 0.01])
    assert check_theorem("T5", f, delta=0.5, s=4).verdict == "PASS"
    assert calls


# ------------------------------------------------------ hypothesis certificate


def test_hypothesis_margin_has_a_tenfold_margin():
    # the steps after the certificate's bound rho, against 30-digit values:
    # math.asin of rho, np.angle of a sample with Re w > 0 and the angle plus
    # the margin round within a tenth of _HYPOTHESIS_MARGIN together; and rho
    # (1 + 2u) as _certified rounds it is never below (c_0 - floor)/c_0
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(21)
    margin = verify._HYPOTHESIS_MARGIN
    x = np.r_[rng.uniform(0, 1, 2000), 1 - 10.0 ** rng.uniform(-16, -1, 500), 10.0 ** rng.uniform(-16, -1, 500)]
    asins = [math.asin(v) for v in x.tolist()]
    w = np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, 3000)) * 10.0 ** rng.uniform(-13, 288, 3000)
    w[:500] = 1.0 + 1j * np.tan(rng.uniform(1.0, np.pi / 2, 500))  # arguments up to pi/2
    head = 10.0 ** rng.uniform(-12, 288, 3000)
    floor = head * np.r_[rng.uniform(0, 1, 1000), 1 - 10.0 ** rng.uniform(-16, -1, 1000), 10.0 ** rng.uniform(-16, -1, 1000)]
    rhos = [rho * (1.0 + 2.0**-51) for rho in ((head - floor) / head).tolist()]
    with mpmath.workdps(30):
        asin_err = max(abs(mpmath.mpf(a) - mpmath.asin(v)) for a, v in zip(asins, x.tolist()))
        angle_err = max(abs(mpmath.mpf(a) - abs(mpmath.atan2(z.imag, z.real)))
                        for a, z in zip(np.abs(np.angle(w)).tolist(), w.tolist()))
        sum_err = max(abs(mpmath.mpf(a + margin) - (mpmath.mpf(a) + margin)) for a in asins)
        assert all(rho >= (mpmath.mpf(h) - f) / h for rho, h, f in zip(rhos, head.tolist(), floor.tolist()))
    assert asin_err + angle_err + sum_err <= margin / 10


# implications with a sup|arg f^(p)| hypothesis: (id, p, alpha1, alpha0, delta, s)
_CERTIFIABLE = [("T1", 2, 0.3, None, None, None), ("T1", 3, 1.0, None, None, None), ("C1", 2, None, None, None, None),
                ("C2", 3, None, None, None, None), ("T3", 3, None, 0.5, None, None),
                ("T4", 3, None, 1.4, None, None), ("T5", 3, None, None, 0.5, 3)]


@st.composite
def _hypothesis_cases(draw):
    """(plan, block, grid): draws of an implication with a certifiable
    hypothesis, each given by the row h = f^(p)/p! of its hypothesis on a ring
    of 8 or 64 angles. Row kinds: c_0 = 1 and a random tail of total T < 1 at
    r_max; one tail term whose sample at z = r_max is tangent to the sector,
    with |arg h| there asin(T), and T within 1e-15 of sin(bound) (or within
    1e-12 of 1 for a bound past pi/2); c_0 complex, negative or zero (a
    leading zero of f^(p)). Every row scaled by 1, by 1e-12, where samples
    of a dominant row can fall below ZERO_TOL, or by 2**950 to 2**962, around
    where upper crosses 2**_FFT_HEADROOM."""
    plan = verify._build_plan(*draw(st.sampled_from(_CERTIFIABLE)))
    p = plan.params.get("s", plan.params.get("p"))
    r = draw(st.sampled_from([0.5, 0.9, 0.995]))
    grid = DiskGrid(r_max=r, n_radial=1, n_angular=draw(st.sampled_from([8, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = draw(st.integers(2, 24))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "near", "complex", "negative", "zero"]))
        tail = (rng.normal(size=N - 1) + 1j * rng.normal(size=N - 1)) / np.arange(1, N) ** 2
        tail /= np.abs(tail) @ r ** np.arange(1, N)  # total 1 at r_max
        if kind == "near":
            if plan.hypothesis_bound < np.pi / 2:
                T = math.sin(plan.hypothesis_bound) * (1 + draw(st.floats(-1e-15, 1e-15)))
            else:
                T = 1 - 10.0 ** draw(st.floats(-16, -12))
            j = draw(st.integers(1, N - 1))
            tail[:] = 0
            tail[j - 1] = T / r**j * np.exp(1j * (np.pi / 2 + math.asin(T)))
        else:
            tail *= draw(st.floats(0.0, 0.99))
        c0 = {"complex": np.exp(1j * draw(st.floats(1e-9, 3.0))), "negative": -1.0, "zero": 0.0}.get(kind, 1.0)
        scale = draw(st.sampled_from([1.0, 1e-12, 2.0 ** draw(st.integers(950, 962))]))
        h = np.r_[c0, tail] * scale
        rows.append(h / series.falling_factorials(p, N, p, normalized=True))  # f^(p)/p! is h again
    return plan, series.SeriesBlock(p, np.array(rows)), grid


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=_hypothesis_cases())
def test_certified_hypothesis_is_what_take_gives(case):
    # wherever a batch certifies its hypothesis, the sampled take holds it
    # for every draw and raises nothing, and the rows the batch does not
    # sample are finite; its verdicts are those of the sampled batch, or it
    # raises what that raises
    plan, raw_block, grid = case
    for block in (raw_block, *(series.SeriesBlock(raw_block.order_p, row[None]) for row in raw_block.raw)):
        def verdicts(hypothesis):
            v = verify._verdicts(plan, verify._Evaluation(block, plan.orders, grid.points[-1][None], hypothesis))
            return v.hyp_ok, v.value, v.witness, v.margin, v.passed

        assert _outcome(verdicts, plan.certificate) == _outcome(verdicts, None)
        try:
            ev = verify._Evaluation(block, plan.orders, grid.points[-1][None], plan.certificate)
        except NonFiniteValue:
            continue
        if not ev.certified:
            continue
        sampled = verify._Evaluation(block, plan.orders, grid.points[-1][None])
        value, _ = sampled.take(plan.hypothesis)
        assert (value < plan.hypothesis_bound).all()
        assert np.isfinite(sampled.rows).all()
        assert ev.rows.shape[1] == len(plan.orders) - plan.certificate.drop


# -------------------------------------------------------------------- sup/min

def test_sup_arg_monomial_is_zero():
    g = DiskGrid()
    r = sup_arg(make_series(3, []), 3, g)
    assert r.sup_abs_arg == 0.0
    assert r.witness == complex(g.points[-1][0])  # every ring sample ties: the first one


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("functional", [sup_arg, min_real])
@pytest.mark.parametrize("coeffs,first", [([0.0, 1.5e308, 1.5e308j], 5), ([1e308, 1e307], 0)])
def test_shifted_sample_overflow_raises(functional, coeffs, first):
    # s/z doubles s on |z| = 0.5, past the largest float64 first at ring point
    # `first`: 1.5e308 (1 + iz) is finite on the ring (sup|arg| = asin(0.5)),
    # its doubled samples are not, and no warning or value may come of them
    z = complex(_HALF_RING.points[-1][first])
    with pytest.raises(NonFiniteValue) as raised:
        functional(PowerSeries(0, coeffs), 1, _HALF_RING)
    assert str(raised.value) == f"f^(0)/z^1 is not finite at z = {z} (float64 overflow)"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row,m,error,first", [
    ([0.0, 1.5e308, 1.5e308j], 1, NonFiniteValue, 5),  # s/z overflows first at ring point 5
    ([1.0, 2.0j, 0.0], 0, ZeroOnGrid, 2),  # 1 + 2iz vanishes at z = 0.5i, ring point 2
])
def test_batch_failure_names_its_ring_point(row, m, error, first):
    # the first failing sample of a batch lies in its second draw: its flat
    # index counts the first draw's samples too, and the point named is the
    # ring's own
    block = series.SeriesBlock(0, np.array([[1.0, 0.0, 0.0], row]))
    ev = verify._Evaluation(block, (0,), _HALF_RING.points[-1][None])
    with pytest.raises(error, match=re.escape(f"at z = {complex(_HALF_RING.points[-1][first])} ")):
        ev.take(verify._plain("min_real", 0, m, "batch"))


@pytest.mark.filterwarnings("error")
def test_ratio_overflow_raises():
    # z f'/f of f = z^2 + (1.7e308/3) z^3 + (1.7e308/6) z^4 is about
    # 1.66 + 0.07i at sample 6 of the ring, but numpy's complex division of
    # its operands near the largest float overflows there; a heatmap wrote
    # the argument 0.0 of that infinite quotient
    f = PowerSeries(2, [1, 1.7e308 / 3, 1.7e308 / 6])
    grid = DiskGrid(n_radial=1, n_angular=64)
    where = re.escape(f"f^(1)/z^1 over f^(0)/z^2 is not finite at z = {complex(grid.points[-1][6])} (float64 overflow)")
    with pytest.raises(NonFiniteValue, match=f"^arg-jst: {where}$"):
        verify.heatmap_values(f, "arg-jst", grid)
    ev = verify._Evaluation(f, (0, 1), grid.points[-1][None])
    for kind in ("sup_arg", "min_real"):
        with pytest.raises(NonFiniteValue, match=f"^ratio: {where}$"):
            ev.take(verify._ratio(kind, 2, 1, "ratio"))


def test_underflowing_scale_clears_nothing():
    # on |z| = 1e-200 the z-power |z|**2 of z^2 (1 + 0.1z) underflows to 0:
    # the bound pass clears nothing there, and the per-sample scan finds the
    # samples below ZERO_TOL
    where = re.escape("|value| = 0.000e+00 below tolerance 1e-13 at z = (1e-200+0j) in sup_arg")
    with pytest.raises(ZeroOnGrid, match=f"^{where}$"):
        sup_arg(make_series(2, [0.1]), 0, DiskGrid(r_max=1e-200, n_radial=1, n_angular=8))


def test_scan_quotients_need_no_finiteness_scan(monkeypatch):
    # the bound pass decides that no quotient of a default scan draw overflows
    decided = []
    bounded = verify._Evaluation._bounded
    monkeypatch.setattr(verify._Evaluation, "_bounded", lambda self, q: decided.append(bounded(self, q)) or decided[-1])
    for tid, kw in (("T4", {"p": 5, "alpha0": 1.0}), ("C2", {"p": 2}), ("L2", {"p": 3}), ("L3", {"p": 3})):
        counterexample_scan(tid, 40, 1, grid=DiskGrid(n_radial=1), **kw)
    assert decided and all(decided)


def test_each_term_is_resolved_once_per_evaluation(monkeypatch):
    # a plan's (row, shift) pairs are constants of the evaluation: taking its
    # functionals again looks each one up without a leading_power call
    calls = []
    power = verify.leading_power
    monkeypatch.setattr(verify, "leading_power", lambda order, k: calls.append(k) or power(order, k))
    plan = verify._build_plan("T4", 5, None, 1.0, None, None)
    block = verify._sample_block(verify._scan_uniforms(7, 0, 4, 31), 5, 0.9)
    ev = verify._Evaluation(block, plan.orders, DiskGrid(n_radial=1, n_angular=64).points[-1][None])
    quantities = [plan.hypothesis] + [q for _, q, _ in plan.conclusions]
    first = [ev.take(q) for q in quantities]
    terms = {t for q in quantities for t in (q.num, q.den) if t is not None}
    assert len(calls) == len(terms)
    again = [ev.take(q) for q in quantities]
    assert len(calls) == len(terms)
    assert all(_bits(a) == _bits(b) for x, y in zip(first, again) for a, b in zip(x, y))


def test_sup_arg_linear_tail():
    # sup of |arg(1 + 0.5 z)| over |z| <= 0.9 is asin(0.45)
    r = sup_arg(make_series(1, [0.5]), 1, DiskGrid(r_max=0.9))
    assert abs(r.sup_abs_arg - math.asin(0.45)) < 2e-3
    assert abs(r.witness) == pytest.approx(0.9, abs=1e-15)


def test_sup_arg_near_unit_radius():
    r = sup_arg(make_series(2, [1.0]), 2)
    assert abs(r.sup_abs_arg - math.asin(0.995)) < 2e-3


def test_sup_arg_divisor_must_be_nonneg():
    with pytest.raises(ValueError):
        sup_arg(make_series(1, []), -1)


def test_min_real_linear_tail():
    v, w = min_real(make_series(1, [0.5]), 1, DiskGrid(r_max=0.9))
    assert v == pytest.approx(0.55, abs=1e-12)
    assert w.real == pytest.approx(-0.9, abs=1e-12)


def test_min_real_constant():
    v, w = min_real(PowerSeries(0, np.array([6.0])), 0)
    assert v == 6.0
    assert w == complex(DiskGrid().points[-1][0]) == 0.995


def test_zero_on_grid_reports_first_point():
    # f/z = 1 - 2z vanishes at z = 0.5, which the r_max=0.5 grid hits exactly
    with pytest.raises(ZeroOnGrid) as exc:
        min_real(make_series(1, [-2.0]), 1, DiskGrid(r_max=0.5))
    assert exc.value.point == 0.5 + 0j
    assert exc.value.magnitude == 0.0


def test_sup_arg_zero_series_trips_tolerance():
    with pytest.raises(ZeroOnGrid):
        sup_arg(PowerSeries(1, np.array([0.0])), 1)


def test_sup_arg_interior_zero_is_pi():
    # f/z = 1 - 2z vanishes at 0.5, strictly inside and off every grid point
    r = sup_arg(make_series(1, [-2.0]), 1, DiskGrid(r_max=0.9))
    assert r.sup_abs_arg == math.pi
    assert r.witness == 0.5


def test_net_power_of_z_is_a_zero_or_a_pole():
    # z^2 + 0.1 z^3 over z^0 vanishes at the origin, and over z^2 it does not;
    # z + 0.1 z^2 over z^2 has a pole there
    grid = DiskGrid(n_radial=2, n_angular=16)
    f = make_series(2, [0.1])
    assert sup_arg(f, 0, grid) == verify.SupArgResult(math.pi, 0j)
    assert sup_arg(f, 2, grid).sup_abs_arg < 0.1
    with pytest.raises(ZeroOnGrid, match=r"root in \|z\| <= r_max at z = 0j in min_real"):
        min_real(make_series(1, [0.1]), 2, grid)


def test_zero_leading_coefficient_counts_as_a_zero_at_the_origin():
    # f = z^2 + 0.3 z^3 stored from z^1 with a zero first coefficient: f/z^2 = 1 + 0.3z
    # has no zero or pole at z = 0, and neither has z f'/f = (2 + 0.9z)/(1 + 0.3z)
    f = PowerSeries(1, [0.0, 1.0, 0.3])
    z = DiskGrid().points[-1]
    v, w = min_real(f, 2)
    assert v == pytest.approx((1 + 0.3 * z).real.min(), abs=1e-12) and v == pytest.approx(0.7015, abs=1e-12)
    assert w == pytest.approx(-0.995, abs=1e-12)
    r = sup_arg(f, 2)
    assert r.sup_abs_arg == pytest.approx(np.abs(np.angle(1 + 0.3 * z)).max(), abs=1e-12)
    assert r.sup_abs_arg == pytest.approx(math.asin(0.3 * 0.995), abs=1e-5)
    rep = check_theorem("L2", f)
    assert rep.hypothesis_sup == pytest.approx(((2 + 0.9 * z) / (1 + 0.3 * z)).real.min(), abs=1e-12)
    assert rep.hypothesis_sup == pytest.approx(1.5745, abs=1e-4)
    assert rep.verdict == "PASS"


def test_min_real_ignores_interior_zero():
    # Re(1 - 2z) is harmonic whatever its zeros: the minimum sits at z = r_max
    v, w = min_real(make_series(1, [-2.0]), 1, DiskGrid(r_max=0.9))
    assert v == pytest.approx(-0.8, abs=1e-12)
    assert w == 0.9


def test_sup_arg_without_dominant_constant_term():
    # 1 + 0.9z + 0.9z^2 fails the dominance test on |z| <= 0.995 but its roots
    # lie at |z| = 1.054, so the ring maximum is the maximum over the grid
    f = PowerSeries(0, np.array([1.0, 0.9, 0.9]))
    g = DiskGrid(n_radial=16, n_angular=64)
    full = np.abs(verify.heatmap_values(f, "arg-fp", g))
    assert sup_arg(f, 0, g).sup_abs_arg == full.max()
    # and that maximum is polyval's within the kernel's rounding over min|f| on the grid
    values = np.polynomial.polynomial.polyval(g.points, f.coeffs)
    tol = (8 + 2 * f.coeffs.size) * EPS * np.abs(f.coeffs).sum() / np.abs(values).min()
    assert abs(full.max() - np.abs(np.angle(values)).max()) <= tol


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    tail=st.lists(st.complex_numbers(max_magnitude=0.08, allow_nan=False, allow_infinity=False), min_size=1, max_size=10),
)
def test_angular_refinement_never_lowers_sup(tail):
    # doubling n_angular only adds sample points, so the max cannot drop
    f = make_series(1, tail)
    coarse = sup_arg(f, 1, DiskGrid(n_radial=16, n_angular=64)).sup_abs_arg
    fine = sup_arg(f, 1, DiskGrid(n_radial=16, n_angular=128)).sup_abs_arg
    assert fine >= coarse


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    tail=st.lists(st.complex_numbers(max_magnitude=0.08, allow_nan=False, allow_infinity=False), min_size=1, max_size=10),
)
def test_angular_refinement_never_raises_min(tail):
    f = make_series(1, tail)
    coarse, _ = min_real(f, 1, DiskGrid(n_radial=16, n_angular=64))
    fine, _ = min_real(f, 1, DiskGrid(n_radial=16, n_angular=128))
    assert fine <= coarse


# ------------------------------------------------------------ theorem: params

def test_unknown_theorem_id():
    with pytest.raises(ParamOutOfRange):
        check_theorem("T9", make_series(1, []))


@pytest.mark.parametrize(
    "tid,kw",
    [
        ("T1", {}),                      # missing alpha1
        ("T1", {"alpha1": 0.0}),
        ("T1", {"alpha1": 1.2}),
        ("T1", {"alpha1": 0.5, "delta": 0.1}),
        ("C1", {"alpha1": 0.5}),         # C1 takes no parameters
        ("T3", {}),
        ("T3", {"alpha0": 1.6}),
        ("T4", {"alpha0": -0.2}),
        ("T5", {"delta": 0.3}),          # missing s
        ("T5", {"delta": 0.9, "s": 2}),  # 2d + (2/pi)atan d >= 2
        ("T5", {"delta": 0.3, "s": 1}),
        ("L2", {"alpha0": 1.0}),
    ],
)
def test_parameter_validation(tid, kw):
    with pytest.raises(ParamOutOfRange) as checked:
        check_theorem(tid, make_series(2, [0.0, 1.0]), **kw)
    # the scan validates through the same plan; T5 draws at order s and takes no p
    with pytest.raises(ParamOutOfRange) as scanned:
        counterexample_scan(tid, trials=1, seed=1, p=None if tid == "T5" else 2, **kw)
    assert str(scanned.value) == str(checked.value)


def test_t5_gap_structure_enforced():
    # coefficient of z^(s-1) must vanish, of z^s must not
    with pytest.raises(ParamOutOfRange):
        check_theorem("T5", make_series(1, [0.1, 0.2]), delta=0.3, s=2)
    with pytest.raises(ParamOutOfRange):
        check_theorem("T5", make_series(1, [0.0, 0.0, 0.1]), delta=0.3, s=3)


# ------------------------------------------------------------ theorem: checks

def test_t1_monomial_passes_with_zero_sup():
    rep = check_theorem("T1", make_series(2, []), alpha1=0.5)
    assert rep.verdict == "PASS"
    assert rep.hypothesis_sup == 0.0
    assert rep.hypothesis_bound == pytest.approx(1.2490457723982544, abs=1e-12)
    assert len(rep.conclusions) == 1
    assert rep.conclusions[0].bound == pytest.approx(math.pi / 4, abs=1e-15)
    assert rep.witnesses[0] == rep.conclusions[0].witness or len(rep.witnesses) == 2


def test_t1_linear_second_derivative():
    # f'' = 2(1 + 0.3 z): sup|arg f''| = asin(0.3 * 0.995)
    rep = check_theorem("T1", integrated(2, [0.3]), alpha1=0.5)
    assert rep.verdict == "PASS"
    assert rep.hypothesis_satisfied
    assert abs(rep.hypothesis_sup - math.asin(0.2985)) < 2e-3
    assert rep.params == {"p": 2, "alpha1": 0.5}


def test_t1_report_is_deterministic():
    f = integrated(2, [0.2, 0.1j])
    assert check_theorem("T1", f, alpha1=0.7) == check_theorem("T1", f, alpha1=0.7)


def test_c1_conclusion_layout():
    rep = check_theorem("C1", integrated(3, [0.2]))
    assert rep.verdict == "PASS"
    assert rep.hypothesis_bound == pytest.approx(3 * math.pi / 4, abs=1e-15)
    kinds = [c.kind for c in rep.conclusions]
    assert kinds == ["sup_arg"] + ["min_real"] * 3
    assert rep.conclusions[1].label == "Re(f^(2)/z^1)"
    assert rep.conclusions[-1].label == "Re(f^(0)/z^3)"
    assert len(rep.witnesses) == 1 + len(rep.conclusions)


def test_c2_hypothesis_bound_and_starlikeness():
    rep = check_theorem("C2", integrated(2, [0.3]))
    assert rep.verdict == "PASS"
    assert rep.hypothesis_bound == pytest.approx(0.9684766700480623, abs=1e-9)
    (concl,) = rep.conclusions
    assert concl.label == "|arg(z f'/f)|"
    assert concl.bound == pytest.approx(math.pi / 2, abs=1e-15)
    assert concl.value < math.pi / 2


def test_c2_rejects_hypothesis_when_arg_too_wide():
    # f'' = 2(1 + 0.95 z) exceeds the narrow C2 aperture but passes T1 at alpha1=1
    f = integrated(2, [0.95])
    rep = check_theorem("C2", f)
    assert rep.verdict == "HYPOTHESIS_NOT_SATISFIED"
    assert rep.conclusions == ()
    assert check_theorem("T1", f, alpha1=1.0).verdict == "PASS"


def test_t3_bounds_follow_alpha_chain():
    rep = check_theorem("T3", integrated(3, [0.2j]), alpha0=1.0)
    chain = alpha_sequence(1.0, 3)
    assert rep.verdict == "PASS"
    assert [c.bound for c in rep.conclusions] == pytest.approx(
        [math.pi * a / 2 for a in chain.values[1:]], abs=1e-12
    )
    assert rep.conclusions[0].label == "|arg(f^(2)/z^1)|"
    assert rep.conclusions[-1].label == "|arg(f^(0)/z^3)|"


def test_t4_includes_s1_only_below_pair_sum_two():
    # alpha0 = 1.0: alpha0 + alpha1 = 1.638 < 2, the s=1 ratio is reported
    rep = check_theorem("T4", integrated(3, [0.1]), alpha0=1.0)
    labels = [c.label for c in rep.conclusions]
    assert labels[0].endswith("(s=1)")
    # alpha0 = 1.5: alpha0 + alpha1 = 2.5, the s=1 ratio is omitted
    rep2 = check_theorem("T4", integrated(3, [0.1]), alpha0=1.5)
    labels2 = [c.label for c in rep2.conclusions]
    assert all(not lab.endswith("(s=1)") for lab in labels2)
    assert labels2[0].endswith("(s=2)")


def test_t4_starlike_entry_needs_sigma():
    # p=3, alpha0=1.0: pair sum alpha2+alpha3 = 0.888 <= 1, entry present
    rep = check_theorem("T4", integrated(3, [0.1]), alpha0=1.0)
    assert rep.verdict == "PASS"
    assert rep.conclusions[-1].label == "starlike: |arg(z f'/f)|"
    assert rep.conclusions[-1].bound == pytest.approx(math.pi / 2, abs=1e-15)
    # p=2, alpha0=1.0: no pair sum reaches 1, entry absent and a note says so
    rep2 = check_theorem("T4", integrated(2, [0.1]), alpha0=1.0)
    assert all("starlike" not in c.label for c in rep2.conclusions)
    assert any("sigma" in n for n in rep2.notes)


def test_t4_sigma_one_is_noted():
    # alpha0 = 0.5 gives alpha1 = 0.309, so the first pair sum, 0.809, is already <= 1
    rep = check_theorem("T4", integrated(3, [0.1]), alpha0=0.5)
    assert sigma_index(alpha_sequence(0.5, 3).values) == 1
    assert rep.verdict == "PASS"
    assert rep.conclusions[-1].label == "starlike: |arg(z f'/f)|"
    assert rep.notes == (
        "pair-sum condition first holds at sigma=1, below the usual range {2..p}; the starlike bound is reported anyway",
    )


def test_t5_worked_example_bounds():
    # f = z^2 + 0.4 z^3 with delta = sqrt(3)/3: hypothesis bound pi(1+sqrt3)/6,
    # conclusion bound pi(2+sqrt3)/6; f'' = 2 + 2.4z vanishes inside the disk,
    # so the hypothesis fails on this sample and no conclusion is evaluated
    d = math.sqrt(3.0) / 3.0
    rep = check_theorem("T5", make_series(2, [0.4]), delta=d, s=2)
    assert rep.hypothesis_bound == pytest.approx(math.pi * (1 + math.sqrt(3)) / 6, abs=1e-12)
    assert rep.verdict == "HYPOTHESIS_NOT_SATISFIED"
    assert rep.params == {"s": 2, "delta": d}


def test_t5_conclusion_bound_and_pass():
    rep = check_theorem("T5", make_series(2, [0.05]), delta=0.3, s=2)
    assert rep.verdict == "PASS"
    (concl,) = rep.conclusions
    assert concl.bound == pytest.approx((math.pi / 2) * 0.3 + 2 * math.atan(0.3), abs=1e-15)
    assert concl.label == "|arg(z f^(s)/f^(s-1))|"


def test_t5_gap_above_order():
    # f = z + z^3: s=3 gap sits above order_p, zero tail coefficient supplies it
    f = make_series(1, [0.0, 1.0])
    rep = check_theorem("T5", f, delta=0.2, s=3)
    assert rep.verdict in ("PASS", "HYPOTHESIS_NOT_SATISFIED")
    assert rep.params["s"] == 3


def test_l2_monomial_ladder():
    rep = check_theorem("L2", make_series(3, []))
    assert rep.verdict == "PASS"
    assert rep.hypothesis_sup == pytest.approx(1.0, abs=1e-12)
    assert [c.value for c in rep.conclusions] == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)
    assert [c.label for c in rep.conclusions] == [
        "Re(z f^(1)/f^(0))",
        "Re(z f^(2)/f^(1))",
        "Re(z f^(3)/f^(2))",
    ]


def test_l3_monomial_ladder():
    rep = check_theorem("L3", make_series(3, []))
    assert rep.verdict == "PASS"
    # f^(4) = 0 for the cubic monomial, so the hypothesis value is p itself
    assert rep.hypothesis_sup == pytest.approx(3.0, abs=1e-12)
    assert [c.value for c in rep.conclusions] == pytest.approx([3.0, 3.0], abs=1e-12)


def test_l3_p1_has_no_conclusions():
    rep = check_theorem("L3", make_series(1, [0.1]))
    assert rep.verdict == "PASS"
    assert rep.conclusions == ()


def test_l2_interior_pole_raises():
    # z - 2z^2: the L2 denominator f/z = 1 - 2z vanishes at 0.5
    with pytest.raises(ZeroOnGrid) as exc:
        check_theorem("L2", make_series(1, [-2.0]))
    assert exc.value.point == pytest.approx(0.5, abs=1e-15)
    assert exc.value.magnitude is None


# ------------------------------------------------- ring against the full grid

def _full_grid(f, k, m, grid):
    """f^(k)(z)/z^m at every grid point, by numpy's polyval."""
    d = differentiate(f, k)
    z = grid.points
    return np.polynomial.polynomial.polyval(z, d.coeffs) * z ** (d.order_p - m)


def _full_ratio(f, upper, grid):
    p = f.order_p
    return _full_grid(f, upper, p - upper, grid) / _full_grid(f, upper - 1, p - upper + 1, grid)


def _brute_force(tid, f, grid, s=None):
    """(hypothesis value, conclusion values) over every grid point."""
    def sup(v):
        return float(np.abs(np.angle(v)).max())

    def low(v):
        return float(v.real.min())

    p = f.order_p
    if tid == "L2":
        return low(_full_ratio(f, p, grid)), [low(_full_ratio(f, k, grid)) for k in range(1, p + 1)]
    if tid == "L3":
        return low(p + _full_ratio(f, p + 1, grid)), [low(k + _full_ratio(f, k + 1, grid)) for k in range(1, p)]
    if tid == "T5":
        return sup(_full_grid(f, s, 0, grid)), [sup(_full_ratio(f, s, grid))]
    hyp = sup(_full_grid(f, p, 0, grid))
    if tid == "T1":
        return hyp, [sup(_full_grid(f, p - 1, 1, grid))]
    if tid == "C1":
        return hyp, [sup(_full_grid(f, p - 1, 1, grid))] + [
            low(_full_grid(f, p - k - 1, k + 1, grid)) for k in range(p)]
    if tid == "C2":
        return hyp, [sup(_full_ratio(f, 1, grid))]
    if tid == "T3":
        return hyp, [sup(_full_grid(f, p - k, k, grid)) for k in range(1, p + 1)]
    # T4 at alpha0 = 1, p = 3: s = 1..3 (alpha0 + alpha1 < 2), then starlike (sigma = 3)
    return hyp, [sup(_full_ratio(f, p - s_ + 1, grid)) for s_ in range(1, p + 1)] + [sup(_full_ratio(f, 1, grid))]


RING_CASES = [
    ("T1", {"alpha1": 0.5}, {"p": 2, "bound": 1.2}),
    ("C1", {}, {"p": 3, "bound": 1.5}),
    ("C2", {}, {"p": 2, "bound": 0.96}),
    ("T3", {"alpha0": 1.0}, {"p": 3, "bound": 1.5}),
    ("T4", {"alpha0": 1.0}, {"p": 3, "bound": 1.5}),
    ("T5", {"delta": 0.3, "s": 2}, {"p": 2, "s_gap": 2, "bound": 0.76}),
    ("L2", {}, {"p": 3, "bound": 1.0}),
    ("L3", {}, {"p": 3, "bound": 0.9}),
]


@pytest.mark.parametrize("tid,params,sampler", RING_CASES, ids=[c[0] for c in RING_CASES])
def test_ring_matches_full_grid(tid, params, sampler):
    grid = DiskGrid(n_radial=16, n_angular=64)
    for seed in range(6):
        f = sample_hypothesis_function(np.random.SeedSequence((77, seed)), N=16, **sampler)
        rep = check_theorem(tid, f, grid, **params)
        hyp, values = _brute_force(tid, f, grid, params.get("s"))
        assert rep.hypothesis_sup == pytest.approx(hyp, abs=1e-12)
        hyp_ok = hyp > 0.0 if tid in ("L2", "L3") else hyp < rep.hypothesis_bound
        assert rep.hypothesis_satisfied == hyp_ok
        if not hyp_ok:
            assert rep.verdict == "HYPOTHESIS_NOT_SATISFIED"
            continue
        assert [c.value for c in rep.conclusions] == pytest.approx(values, abs=1e-12)
        margins = [
            c.bound - v if c.kind == "sup_arg" else v - c.bound for c, v in zip(rep.conclusions, values)
        ]
        assert rep.verdict == ("PASS" if min(margins, default=0.0) >= -SLACK else "FAIL")


def _leading_zero_spec(tid, p, s=None):
    """A spec whose derivative rows start with a zero: a T5 gap series with
    a_(s-1) = 0, or an L3 series with a_(p+1) = 0; (f, check_theorem kwargs)."""
    # f^(s)/s! = 0.2 (1 + 0.3z - 0.2iz^2) and f^(p)/p! = 1 + (0.1 + 0.05i)z^2 - 0.05z^3
    if tid == "T5":
        tail = [0.3 - 0.1j] * (s - p - 2) + [0.0] + [0.2 * h / math.comb(s + j, j) for j, h in enumerate([1, 0.3, -0.2j])]
        return make_series(p, tail), {"delta": 0.5, "s": s}
    return make_series(p, [h / math.comb(p + j, j) for j, h in enumerate([0.0, 0.1 + 0.05j, -0.05], 1)]), {}


LEADING_ZERO_CASES = [("T5", p, s) for p in (1, 2, 3) for s in (p + 2, p + 3)] + [("L3", p, None) for p in (1, 2, 3)]


@pytest.mark.parametrize("tid,p,s", LEADING_ZERO_CASES)
def test_rows_with_leading_zeros_match_polynomial_reference(tid, p, s):
    # every value against np.polynomial on the full coefficient list, z^0 .. z^(p-1) included
    f, kw = _leading_zero_spec(tid, p, s)
    grid = DiskGrid()
    z = grid.points[-1]
    full = np.concatenate((np.zeros(p), f.coeffs))
    d = [np.polynomial.polynomial.polyval(z, np.polynomial.polynomial.polyder(full, k)) for k in range(p + 5)]
    if tid == "T5":
        hyp = np.abs(np.angle(d[s])).max()
        values = [np.abs(np.angle(z * d[s] / d[s - 1])).max()]
    else:
        hyp = (p + z * d[p + 1] / d[p]).real.min()
        values = [(k + z * d[k + 1] / d[k]).real.min() for k in range(1, p)]
    rep = check_theorem(tid, f, grid, **kw)
    assert rep.hypothesis_sup == pytest.approx(hyp, abs=1e-12)
    assert rep.hypothesis_satisfied and rep.verdict == "PASS"
    assert [c.value for c in rep.conclusions] == pytest.approx(values, abs=1e-12)
    assert all(c.margin > 0.1 for c in rep.conclusions)


def test_negligible_leading_coefficients_drop_one_by_one():
    # f' = 1 + 4z + 3e-320 z^2 + ..., 1,998 coefficients past the interpreter's
    # recursion limit, each negligible on the disk and each overflowing the
    # companion row when it leads: all are dropped and the root of 1 + 4z found
    f = PowerSeries(1, [1.0, 2.0] + [1e-320] * 1998)
    rep = check_theorem("T1", f, alpha1=0.5)
    assert (rep.verdict, rep.hypothesis_sup, rep.witnesses) == (verify.VERDICT_HYP, math.pi, (-0.25 + 0j,))
    assert verify._smallest_root_in_disk(differentiate(f, 1).coeffs, 0.995) == -0.25 + 0j


def test_zero_polynomial_has_its_root_at_the_origin():
    assert verify._smallest_root_in_disk(np.zeros(3, dtype=np.complex128), 0.995) == 0j


def test_rows_dominant_after_their_zeros_need_no_companion_roots(monkeypatch):
    # f^(3)/3! = 0.8z + 0.1z^2 starts with a zero, so its constant term does
    # not dominate, but the row after that zero does: no eigvals call, and
    # the report the companion roots give with no dominance test at all
    # (f^(4) for the hypothesis, f^(4) and f^(3) for the conclusion), byte for byte
    f = make_series(2, [0.0, 0.2, 0.01])
    eigvals = np.linalg.eigvals
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    got = check_theorem("T5", f, delta=0.5, s=4)
    assert calls == []
    with monkeypatch.context() as m:
        m.setattr(verify, "_DOMINANCE_RTOL", math.inf)  # no constant term dominates
        want = check_theorem("T5", f, delta=0.5, s=4)
    assert calls == [(1, 1)] * 3
    assert json.dumps(cli._payload(got)) == json.dumps(cli._payload(want))
    assert got.verdict == "PASS"


@pytest.mark.parametrize("p", [1, 2, 3])
def test_heatmap_values_match_full_grid(p):
    def arg_diff(a, b):
        return np.remainder(a - b + np.pi, 2 * np.pi) - np.pi

    for grid in (DiskGrid(n_radial=16, n_angular=64), DiskGrid(r_max=0.9, n_radial=8, n_angular=16)):
        for seed in range(4):
            f = sample_hypothesis_function(np.random.SeedSequence((78, p, seed)), p=p, bound=1.2, N=16)
            expected = {
                "arg-fp": np.angle(_full_grid(f, p, 0, grid)),
                "arg-fp1-over-z": np.angle(_full_grid(f, p - 1, 1, grid)),
                "arg-jst": np.angle(_full_ratio(f, 1, grid)),
                "re-ratio": _full_ratio(f, p, grid).real,
            }
            assert tuple(expected) == verify.HEATMAP_QUANTITIES
            for quantity, want in expected.items():
                got = verify.heatmap_values(f, quantity, grid)
                assert got.shape == (grid.n_radial, grid.n_angular)
                if quantity.startswith("arg"):
                    assert np.all((got > -np.pi) & (got <= np.pi))
                    assert np.abs(arg_diff(got, want)).max() <= 1e-12
                else:
                    assert np.abs(got - want).max() <= 1e-12


def test_heatmap_jst_examples():
    # re-ratio at p = 1 is Re(z f'/f), which is 2 at z = 0.5 for z/(1-z) = z + z^2 + ...
    geometric = make_series(1, [1.0] * 63)
    ring = DiskGrid(r_max=0.5, n_radial=1, n_angular=8)
    assert ring.points[0, 0] == 0.5
    assert abs(verify.heatmap_values(geometric, "re-ratio", ring)[0, 0] - 2.0) <= 1e-13


def test_heatmap_values_reject_unknown_quantity_and_order_zero():
    grid = DiskGrid(n_radial=2, n_angular=8)
    with pytest.raises(ParamOutOfRange, match=r"^unknown quantity 'arg-q'; choose from \("):
        verify.heatmap_values(make_series(1, []), "arg-q", grid)
    q = PowerSeries(0, [1.0, 0.5])  # arg-fp reads f^(0) itself; the others need f^(p-1) or a ratio
    assert verify.heatmap_values(q, "arg-fp", grid).shape == (2, 8)
    for quantity in verify.HEATMAP_QUANTITIES[1:]:
        with pytest.raises(ParamOutOfRange, match=f"^{quantity} requires p >= 1$"):
            verify.heatmap_values(q, quantity, grid)


def test_heatmap_arg_jst_monomial_is_zero():
    # z f'/f is exactly p for f = z^p
    grid = DiskGrid(n_radial=8, n_angular=16)
    for p in range(1, 9):
        assert np.all(verify.heatmap_values(make_series(p, []), "arg-jst", grid) == 0.0)


def test_t4_check_runs_kernel_once(monkeypatch):
    calls = []
    kernel = verify._ring_values

    def counted(coeffs, radii, n, **bound):  # an evaluation passes its bound on the rows
        calls.append((coeffs.shape, radii.shape, n))
        return kernel(coeffs, radii, n, **bound)

    monkeypatch.setattr(verify, "_ring_values", counted)
    grid = DiskGrid(n_radial=16, n_angular=64)
    f = sample_hypothesis_function(5, p=5, bound=1.5, N=16)
    rep = check_theorem("T4", f, grid, alpha0=1.0)
    assert rep.verdict == "PASS"
    assert len(rep.conclusions) == 6  # s = 1..5 and the starlike ratio
    # f^(0) .. f^(5), each once, on the 64 ring points
    assert calls == [((6, 16), (1,), 64)]


def test_conclusion_slack_window():
    good = ConclusionCheck("x", "sup_arg", 1.0, 1.0 - SLACK / 2, 0j)
    bad = ConclusionCheck("x", "sup_arg", 1.0 + 2 * SLACK, 1.0, 0j)
    assert good.ok and not bad.ok
    low = ConclusionCheck("x", "min_real", -SLACK / 2, 0.0, 0j)
    worse = ConclusionCheck("x", "min_real", -2 * SLACK, 0.0, 0j)
    assert low.ok and not worse.ok


@pytest.mark.parametrize("excess,verdict", [(SLACK / 2, "PASS"), (2 * SLACK, "FAIL")])
def test_verdict_slack_window(monkeypatch, excess, verdict):
    # z^3 under C1: |arg(f''/z)| = 0 and Re(f/z^3) = 1 exactly, and bounds
    # moved past them by `excess` leave margins of about -excess
    real = verify._build_plan

    def moved(*args):
        plan = real(*args)
        (first, q0, _), *middle, (last, q3, _) = plan.conclusions
        return dataclasses.replace(plan, conclusions=((first, q0, -excess), *middle, (last, q3, 1.0 + excess)))

    monkeypatch.setattr(verify, "_build_plan", moved)
    rep = check_theorem("C1", make_series(3, []), DiskGrid(n_radial=1, n_angular=64))
    assert [c.margin < 0 for c in rep.conclusions] == [True, False, False, True]
    assert rep.verdict == verdict


def test_reports_of_one_plan_do_not_share_params():
    # the plan is cached per configuration; each report gets its own params
    f, grid = make_series(2, [0.1]), DiskGrid(n_radial=1, n_angular=64)
    first = check_theorem("T1", f, grid, alpha1=0.5)
    first.params["alpha1"] = 0.25
    del first.params["p"]
    assert check_theorem("T1", f, grid, alpha1=0.5).params == {"p": 2, "alpha1": 0.5}
    scan = counterexample_scan("T1", trials=2, seed=1, p=2, alpha1=0.5, grid=grid)
    scan.params["alpha1"] = 0.25
    assert counterexample_scan("T1", trials=2, seed=1, p=2, alpha1=0.5, grid=grid).params == {"alpha1": 0.5}


@pytest.mark.parametrize("values", [(1, 1.0), (1.0, 1)])
def test_equal_parameters_of_two_types_echo_their_own(values):
    # 1 == 1.0 and they hash alike, but a report echoes the value it was given
    f, grid = make_series(3, [0.1]), DiskGrid(n_radial=1, n_angular=64)
    for alpha0 in values:
        params = check_theorem("T4", f, grid, alpha0=alpha0).params
        assert type(params["alpha0"]) is type(alpha0)
        assert json.dumps(params) == f'{{"p": 3, "alpha0": {alpha0!r}}}'


# ------------------------------------------------------------- boundary probe

def test_probe_one_plus_z_boundary_relation():
    q = PowerSeries(0, np.array([1.0, 1.0]))
    rep = lemma1_probe(q, 2 * LEVEL_06 / math.pi)
    assert rep.level == pytest.approx(LEVEL_06, abs=1e-15)
    assert abs(rep.r0 - 0.6) < 1e-9
    assert abs(rep.ratio - 0.75j) < 1e-6
    assert rep.imag_purity <= 1e-6
    assert abs(rep.k_est - K_EST_ONE_PLUS_Z) < 1e-4
    assert rep.z0.imag > 0  # first-occurrence argmax lands in the upper half

    # the boundary inequalities: k >= (a + 1/a)/2 >= 1
    floor = (rep.a_est + 1.0 / rep.a_est) / 2.0
    assert rep.k_est >= floor - 1e-9
    assert floor >= 1.0 - 1e-12


@pytest.mark.parametrize("u", [0.3, 0.6, 0.9])
def test_probe_crossing_radius_tracks_level(u):
    # for q = 1 + z the sup of |arg q| on |z| = r is asin(r), so the level
    # asin(u) is first reached exactly at r0 = u
    q = PowerSeries(0, np.array([1.0, 1.0]))
    rep = lemma1_probe(q, 2 * math.asin(u) / math.pi)
    assert abs(rep.r0 - u) < 1e-9
    assert rep.imag_purity <= 1e-6
    assert rep.k_est >= (rep.a_est + 1.0 / rep.a_est) / 2.0 - 1e-9


def test_probe_quadratic_leading_term():
    # q = 1 + 0.5 z^2 starts at order 2, so k >= 2 (a + 1/a)/2
    q = PowerSeries(0, np.array([1.0, 0.0, 0.5]))
    rep = lemma1_probe(q, 2 * math.asin(0.3) / math.pi)
    assert rep.k_est >= 2.0 * (rep.a_est + 1.0 / rep.a_est) / 2.0 - 1e-6


def test_probe_not_attained_carries_best():
    with pytest.raises(NotAttained) as exc:
        lemma1_probe(PowerSeries(0, np.array([1.0, 0.1])), 0.5)
    assert exc.value.best_sup < exc.value.level
    assert exc.value.best_sup > 0


def test_probe_sign_rule_on_random_q():
    # Lemma 1 at the first touching point: z0 q'(z0)/q(z0) = i k gamma with
    # k >= (a + 1/a)/2 where arg q(z0) = pi gamma/2 and k <= -(a + 1/a)/2
    # where it is -pi gamma/2; k_est takes both sides in modulus, so the sign
    # is checked here, on seeded q = 1 + six complex coefficients
    rng = np.random.default_rng(1)
    attained = 0
    for _ in range(300):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        q = PowerSeries(0, np.r_[1.0, c * rng.uniform(0.2, 3.0) / np.abs(c).sum()])
        try:
            rep = lemma1_probe(q, rng.uniform(0.1, 1.0))
        except NotAttained:
            continue
        attained += 1
        arg_q = cmath.phase(np.polynomial.polynomial.polyval(rep.z0, q.coeffs))
        assert rep.ratio.imag * arg_q > 0
        assert rep.k_est >= (rep.a_est + 1.0 / rep.a_est) / 2.0
        assert rep.imag_purity <= 1e-6 * abs(rep.ratio)
    assert attained >= 200


@pytest.mark.parametrize("n_radial", [1, 2, 64])
def test_probe_reads_no_interior_ring(n_radial):
    # q = 1 - z/rho vanishes at rho, a point of the default grid's second ring,
    # beyond the crossing radius rho sin(pi/4) of gamma = 1/2, where the lemma
    # asks nothing of q: the report is that of the outer ring alone
    rho = float(DiskGrid().radii[-2])
    q = PowerSeries(0, np.array([1.0, -1.0 / rho]))
    want = lemma1_probe(q, 0.5, DiskGrid(n_radial=1))
    assert lemma1_probe(q, 0.5, DiskGrid(n_radial=n_radial)) == want
    assert abs(want.r0 - rho * math.sin(math.pi / 4)) < 1e-9


def test_probe_rejects_bad_inputs():
    with pytest.raises(ParamOutOfRange):
        lemma1_probe(PowerSeries(0, np.array([1.0, 1.0])), 0.0)
    with pytest.raises(ParamOutOfRange):
        lemma1_probe(PowerSeries(0, np.array([2.0, 1.0])), 0.5)  # q(0) != 1
    with pytest.raises(ParamOutOfRange):
        lemma1_probe(make_series(1, [1.0]), 0.5)  # vanishes at 0


def test_probe_work_is_one_itp_solve(monkeypatch):
    # the outer ring, the ITP steps on [0, r_max] down to 1e-12 (the ends are
    # known: g(0) = -level, g(r_max) from the outer ring), and the ring at r0;
    # bisection took 44 rings here and 1,938 Horner evaluations
    radii, bounds, horners = [], [], []
    ring_sup, horner = verify._ring_sup, verify._horner

    def counted(coeffs, r, angles, bound):
        radii.append(r)
        bounds.append(bound)
        return ring_sup(coeffs, r, angles, bound=bound)

    def counted_horner(cs, z):
        horners.append(z)
        return horner(cs, z)

    monkeypatch.setattr(verify, "_ring_sup", counted)
    monkeypatch.setattr(verify, "_horner", counted_horner)
    lemma1_probe(PowerSeries(0, np.array([1.0, 1.0])), 2.0 * math.asin(0.6) / math.pi)
    assert len(radii) <= 12
    assert len(horners) <= 250
    # each ring is given sum |c_j| r_max^j, which spares its kernel the headroom scan
    assert bounds == [1.0 + DiskGrid().r_max] * len(radii)

    radii.clear()
    with pytest.raises(NotAttained) as exc:
        lemma1_probe(PowerSeries(0, np.array([1.0, 0.1])), 0.5)
    r_max = DiskGrid().r_max
    assert radii == [r_max]  # the outer ring alone decides that the level is missed
    assert abs(abs(exc.value.best_point) - r_max) <= 1e-15


def test_probe_step_takes_at_most_one_ring_beyond_bisection(monkeypatch):
    # q = 1 + 2z: the ring sup jumps to pi as the zero at -1/2 enters the disk,
    # a step that interpolation cannot shortcut; ITP with n0 = 1 then takes at
    # most one step more than the 40 halvings of [0, r_max] to 1e-12
    radii, brackets = [], []
    ring_sup, itp = verify._ring_sup, verify.itp_increasing

    def counted(coeffs, r, angles, bound):
        radii.append(r)
        return ring_sup(coeffs, r, angles, bound=bound)

    def spy(*args):
        brackets.append(itp(*args))
        return brackets[-1]

    monkeypatch.setattr(verify, "_ring_sup", counted)
    monkeypatch.setattr(verify, "itp_increasing", spy)
    with pytest.raises(ZeroOnGrid, match="q has a root"):
        lemma1_probe(PowerSeries(0, np.array([1.0, 2.0])), 1.5)
    halvings = math.ceil(math.log2(DiskGrid().r_max / ABS_TOL))
    assert len(radii) <= 1 + halvings + 1
    # the bracket's midpoint falls short of the zero, so the certificate has
    # to reach the upper end, the smallest radius seen to reach the level
    (lo, hi), = brackets
    assert lo < 0.5 <= hi and 0.5 * (lo + hi) < 0.5


def test_probe_level_touched_on_outer_ring():
    # a level equal to the outer ring's sup counts as reached there
    grid = DiskGrid()
    q = PowerSeries(0, np.array([1.0, 0.5]))
    top = verify._ring_sup(q.coeffs, grid.r_max, grid.angles)[1]
    gamma = 2.0 * top / math.pi
    assert math.pi * gamma / 2.0 == top
    rep = lemma1_probe(q, gamma, grid)
    assert grid.r_max - 1e-12 <= rep.r0 <= grid.r_max


def test_probe_is_deterministic():
    q = PowerSeries(0, np.array([1.0, 0.3, 0.2j]))
    a = lemma1_probe(q, 0.3)
    b = lemma1_probe(q, 0.3)
    assert (a.r0, a.z0, a.ratio, a.k_est) == (b.r0, b.z0, b.ratio, b.k_est)


@pytest.mark.parametrize("gamma", [1e-5, 1e-8, 1e-12])
def test_probe_small_level_on_small_ring(gamma):
    # every sample of a small ring lies within 1e-9 of its maximum, so an
    # absolute tie rule took the first positive-argument angle, not the
    # maximizing one; for q = 1 + z the crossing radius is sin(level)
    rep = lemma1_probe(PowerSeries(0, np.array([1.0, 1.0])), gamma)
    assert rep.r0 == pytest.approx(math.sin(rep.level), rel=1e-6)
    assert rep.k_est == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert rep.imag_purity <= 1e-6 * abs(rep.ratio)


def test_probe_unresolved_crossing_radius():
    # the level pi/2 * 1e-17 is reached at r = 1.6e-17, far below the solve's
    # 1e-12 tolerance: the bracket never leaves 0 and r0 has no correct digit
    with pytest.raises(CrossingUnresolved, match=r"lies in \(0\.0, "):
        lemma1_probe(PowerSeries(0, np.array([1.0, 1.0])), 1e-17)


@pytest.mark.parametrize("gamma,field", [(1e-4, "a_est"), (0.5, "k_est")])
def test_probe_nonfinite_estimates_raise(monkeypatch, gamma, field):
    # rings whose sup grows linearly to the level at r = 0.9 on the positive
    # axis, where q = 1 + 0.9z is 1.81 with arg 0: 1.81^(1/gamma) overflows
    # for gamma = 1e-4, and k_est divides by arg q(z0) = 0
    level = math.pi * gamma / 2.0
    monkeypatch.setattr(verify, "_ring_sup", lambda coeffs, r, angles, bound: (0.0, level * r / 0.9))
    with pytest.raises(NonFiniteValue, match=rf"^lemma1 probe: {field} is not finite"):
        lemma1_probe(PowerSeries(0, np.array([1.0, 0.9])), gamma)


def _bimodal(t: float) -> float:
    return math.exp(-((t - 0.3) / 0.05) ** 2) + 0.8 * math.exp(-((t + 0.3) / 0.05) ** 2)


@pytest.mark.parametrize("start", [-0.3, -0.2, 0.0, 0.3, 0.55, 0.9])
def test_brent_max_never_below_its_start(start):
    # two peaks on [-1, 1]; from the lower peak, a valley or a flank the
    # result may be either peak but never worse than the start
    calls = []

    def fun(t):
        calls.append(t)
        return _bimodal(t)

    theta, top = _brent_max(fun, -1.0, 1.0, start, _bimodal(start))
    assert top >= _bimodal(start)
    assert top == _bimodal(theta)
    assert all(-1.0 <= t <= 1.0 for t in calls)


def test_brent_max_converges_on_a_smooth_peak():
    theta, top = _brent_max(_bimodal, 0.2, 0.4, 0.31, _bimodal(0.31))
    assert abs(theta - 0.3) <= 1e-8
    assert top == pytest.approx(1.0, abs=1e-15)


# Reference: a Horner coarse scan, and Brent's refine on the numpy
# coefficient array, converting one numpy scalar per coefficient.
# verify._ring_sup scans with its ring kernel and refines on coeffs.tolist();
# it must give the same floats.

def _head_horner(coeffs: np.ndarray, z: complex) -> complex:
    acc = complex(coeffs[-1])
    for j in range(coeffs.size - 2, -1, -1):
        acc = acc * z + complex(coeffs[j])
    return acc


def _head_horner_many(coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    acc = np.full(zs.shape, coeffs[-1], dtype=np.complex128)
    for j in range(coeffs.size - 2, -1, -1):
        acc *= zs
        acc += coeffs[j]
    return acc


def _head_ring_sup(coeffs: np.ndarray, r: float, angles: np.ndarray) -> tuple[float, float]:
    """(theta*, sup) of |arg q| on the circle of radius r: coarse scan + Brent's refine."""
    vals = _head_horner_many(coeffs, r * np.exp(1j * angles))
    args = np.angle(vals)
    absarg = np.abs(args)
    # conjugate-symmetric q gives +/- mirror maxima equal up to rounding; take
    # the positive-argument representative so the reported point is canonical
    near = np.flatnonzero(absarg >= absarg.max() * (1.0 - 1e-9))
    positive = near[args[near] > 0]
    j = int(positive[0]) if positive.size else int(near[0])
    step = 2.0 * math.pi / angles.size

    def g(theta: float) -> float:
        return abs(principal_arg(_head_horner(coeffs, r * cmath.exp(1j * theta))))

    theta = float(angles[j])
    return _brent_max(g, theta - step, theta + step, theta, g(theta))


def _random_q(rng, complex_coeffs: bool) -> PowerSeries:
    """q = 1 + a tail of degree 1..15, real or complex, decaying like 1/n."""
    deg = int(rng.integers(1, 16))
    tail = rng.normal(size=deg) + (1j * rng.normal(size=deg) if complex_coeffs else 0.0)
    tail *= rng.uniform(0.05, 1.0) / np.arange(1, deg + 1)
    return PowerSeries(0, np.concatenate(([1.0], tail)))


def _hexes(*values) -> tuple:
    out = []
    for v in values:
        v = complex(v)
        out += [v.real.hex(), v.imag.hex()]
    return tuple(out)


def test_ring_sup_matches_scalar_refine_bitwise():
    rng = np.random.default_rng(20260)
    grids = (DiskGrid(n_radial=1, n_angular=512), DiskGrid(n_radial=1, n_angular=47))
    cases = 0
    for i in range(120):
        q = _random_q(rng, complex_coeffs=i % 2 == 1)
        r = 0.995 * (1.0 - rng.random())  # in (0, 0.995]
        for grid in grids:
            got = verify._ring_sup(q.coeffs, r, grid.angles)
            want = _head_ring_sup(q.coeffs, r, grid.angles)
            assert _hexes(*got) == _hexes(*want), (i, r, grid.n_angular)
            cases += 1
    assert cases >= 200


def _probe_outcome(q: PowerSeries, gamma: float) -> tuple:
    try:
        rep = lemma1_probe(q, gamma)
    except (NotAttained, ZeroOnGrid) as exc:
        return (type(exc).__name__, str(exc), _hexes(*(v for v in vars(exc).values() if v is not None)))
    return ("report",) + _hexes(*(getattr(rep, f.name) for f in dataclasses.fields(rep)))


def test_probe_matches_scalar_refine_field_by_field(monkeypatch):
    rng = np.random.default_rng(20261)
    grid = DiskGrid()
    kinds = set()
    for i in range(20):
        q = _random_q(rng, complex_coeffs=i % 2 == 1)
        top = _head_ring_sup(q.coeffs, grid.r_max, grid.angles)[1]
        for factor in (0.4, 0.9, 1.1):
            gamma = 2.0 * factor * top / math.pi
            got = _probe_outcome(q, gamma)
            with monkeypatch.context() as m:
                m.setattr(verify, "_ring_sup", lambda coeffs, r, angles, bound: _head_ring_sup(coeffs, r, angles))
                m.setattr(verify, "_horner", lambda cs, z: _head_horner(np.array(cs, dtype=complex), z))
                want = _probe_outcome(q, gamma)
            assert got == want, (i, factor)
            kinds.add(got[0])
    assert {"report", "NotAttained"} <= kinds


# -------------------------------------------------------------------- sampler

def test_sampler_leading_coefficient_exact():
    for p in (1, 2, 5):
        f = sample_hypothesis_function(11, p=p, bound=1.0, N=16)
        assert f.order_p == p
        assert f.coeffs[0] == 1.0
        assert f.truncation_N == 16


def test_sampler_gap_variant():
    f = sample_hypothesis_function(12, p=1, bound=0.8, N=8, s_gap=3)
    assert f.order_p == 3
    assert f.coeffs[0] == 1.0


def test_sampler_rejects_bad_bound():
    with pytest.raises(ValueError):
        sample_hypothesis_function(1, p=2, bound=0.0)
    with pytest.raises(ValueError):
        sample_hypothesis_function(1, p=2, bound=math.pi / 2)
    with pytest.raises(ValueError):
        sample_hypothesis_function(1, p=2, bound=1.0, N=1)


@pytest.mark.parametrize("kw,message", [
    ({"p": 0, "bound": 1.0}, "p must be >= 1"),
    ({"p": 2, "bound": 1.0, "s_gap": 1}, "s_gap must be >= 2"),
    ({"p": 2, "bound": 0.0}, "bound must lie in (0, pi/2)"),
    ({"p": 2, "bound": math.pi / 2}, "bound must lie in (0, pi/2)"),
    ({"p": 2, "bound": 1.0, "N": 1}, "N must be >= 2"),
    ({"p": 0, "bound": 0.0, "N": 1}, "bound must lie in (0, pi/2)"),  # bound, N, then the order
    ({"p": 0, "bound": 1.0, "N": 1}, "N must be >= 2"),
    ({"p": 2.5, "bound": 1.0}, "p must be an integer"),  # not a series of order 2
    ({"p": True, "bound": 1.0}, "p must be an integer"),
    ({"p": 2, "bound": 1.0, "s_gap": 2.5}, "s_gap must be an integer"),
    ({"p": 2, "bound": 1.0, "N": 2.5}, "N must be an integer"),
], ids=["p0", "s_gap1", "bound0", "bound-half-pi", "N1", "bound-first", "N-before-p",
        "p-float", "p-bool", "s_gap-float", "N-float"])
def test_sampler_names_each_bad_argument(kw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample_hypothesis_function(1, **kw)


def test_sampler_is_deterministic():
    a = sample_hypothesis_function(np.random.SeedSequence((9, 4)), p=2, bound=1.0)
    b = sample_hypothesis_function(np.random.SeedSequence((9, 4)), p=2, bound=1.0)
    assert a == b


def _reference_sample(seed, p, bound, N, s_gap=None):
    """One draw of the sampler on its own: (order, f's coefficients h_j / C(order+j, j))."""
    order = int(s_gap) if s_gap is not None else int(p)
    rng = np.random.default_rng(seed)
    u = rng.uniform()
    weights = rng.uniform(size=N - 1)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=N - 1)
    total = math.sin(bound) * u
    wsum = weights.sum()
    moduli = total * weights / wsum if wsum > 0 else np.zeros(N - 1)
    tail = [m / math.comb(order + j, j) * w for j, (m, w) in enumerate(zip(moduli, np.exp(1j * phases)), 1)]
    return order, np.array([1.0, *tail], dtype=np.complex128)


def _reference_derivative(order, coeffs, k, normalized=True):
    """(lowest exponent, coefficients) of the k-th derivative of sum coeffs[j] z^(order+j),
    divided by perm(max(order, k), k) when normalized, one Python complex at a
    time: c * (perm(e, k) / lead) for each exponent e >= k, leading zeros kept."""
    if k == 0:
        return order, coeffs
    lead = math.perm(max(order, k), k) if normalized else 1
    terms = [(e - k, c * (math.perm(e, k) / lead)) for e, c in enumerate(coeffs.tolist(), order) if e >= k]
    if not terms:
        return 0, np.zeros(1, dtype=np.complex128)
    return terms[0][0], np.array([c for _, c in terms], dtype=np.complex128)


def _stripped(order, coeffs):
    """The series from its lowest nonzero term; the zero series keeps its last term."""
    nonzero = np.flatnonzero(coeffs)
    j = int(nonzero[0]) if nonzero.size else coeffs.size - 1
    return order + j, coeffs[j:]


def _assert_block_matches_reference(block, ref_rows, ks):
    coeffs = series.derivative_block(block, ks)
    assert coeffs.shape[:2] == (len(ref_rows), len(ks))
    for b, ref_row in enumerate(ref_rows):
        for i, k in enumerate(ks):
            order, ref = _reference_derivative(block.order_p, ref_row, k)
            assert order == max(block.order_p - k, 0), (b, k)  # every draw's row k starts there
            assert coeffs[b, i, : ref.size].tobytes() == ref.tobytes(), (b, k)
            assert not coeffs[b, i, ref.size:].any()


@pytest.mark.parametrize("N", [2, 16])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_block_pipeline_matches_per_draw_reference(batch, N):
    # p = 1..5 and the T5 gap orders s = 2, 3; derivative orders 0..order+1,
    # which include the L3 order p+1; with both N and all three batch sizes, 1008 draws
    for order, kw in [(p, {"p": p}) for p in range(1, 6)] + [(s, {"p": 1, "s_gap": s}) for s in (2, 3)]:
        bound = 0.3 + 0.1 * order
        seeds = [np.random.SeedSequence((order, N, batch, attempt)) for attempt in range(batch)]
        uniforms = np.array([np.random.default_rng(seed).random(2 * N - 1) for seed in seeds])
        block = verify._sample_block(uniforms, order, bound)
        assert (block.order_p, block.raw.shape) == (order, (batch, N))
        ref_rows = []
        for b, seed in enumerate(seeds):
            ref_order, ref_row = _reference_sample(seed, bound=bound, N=N, **kw)
            assert ref_order == order
            assert block.raw[b].tobytes() == ref_row.tobytes()
            f = sample_hypothesis_function(seed, bound=bound, N=N, **kw)
            assert f == PowerSeries(order, ref_row)
            for k in range(order + 2):
                ref_k_order, ref_k = _stripped(*_reference_derivative(order, ref_row, k, normalized=False))
                fk = differentiate(f, k)
                assert (fk.order_p, fk.coeffs.tobytes()) == (ref_k_order, ref_k.tobytes())
            ref_rows.append(ref_row)
        _assert_block_matches_reference(block, ref_rows, tuple(range(order + 2)))


def test_block_derivatives_keep_leading_zeros():
    # rows whose derivatives start with zeros keep them: every draw's row k
    # starts at the same power of z
    raw = verify._sample_block(verify._scan_uniforms(5, 0, 7, 15), 3, 1.0).raw
    raw[1, 1] = 0  # f^(4) starts at z
    raw[3, 1:4] = 0  # f^(4) starts at z^3
    raw[5, 1:] = 0  # f^(4) is the zero polynomial
    raw[6, :2] = 0  # every derivative starts two powers higher
    _assert_block_matches_reference(series.SeriesBlock(3, raw), list(raw), tuple(range(6)))


def test_sampler_guarantees_hypothesis():
    # by construction sum |c_n| < sin(bound), an a-priori bound on sup|arg|
    bound = 0.9
    for seed in range(120):
        f = sample_hypothesis_function(seed, p=2, bound=bound, N=12)
        fp = differentiate(f, 2)
        tail_mass = np.abs(fp.coeffs[1:] / fp.coeffs[0]).sum()
        assert tail_mass < math.sin(bound)
        assert sup_arg(fp, 0).sup_abs_arg <= math.asin(tail_mass) + 1e-12


# the seed words: one, one at the top of 32 bits, two, three (2**64 + 3) and
# four (2**100; with the attempt, entropy longer than SeedSequence's pool)
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100])
@pytest.mark.parametrize("first", [0, 2**32 - 2], ids=["first-0", "crosses-2**32"])
@pytest.mark.parametrize("size", [1, 4, 40, 85])
def test_scan_uniforms_are_numpys_per_draw_seeding(seed, first, size):
    uniforms = verify._scan_uniforms(seed, first, size, 31)
    states = verify._seed_states(seed, first, size)
    assert uniforms.shape == (size, 31) and states.shape == (size, 4)
    for b in range(size):
        seq = np.random.SeedSequence((seed, first + b))
        assert states[b].tobytes() == seq.generate_state(4, np.uint64).tobytes(), b
        assert uniforms[b].tobytes() == np.random.default_rng(seq).random(31).tobytes(), b


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_scan_names_a_bad_seed(seed):
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed}$"):
        counterexample_scan("C1", trials=2, seed=seed, p=3, grid=DiskGrid(n_radial=1, n_angular=64))


# ----------------------------------------------------------------------- scan

SMALL_GRID = DiskGrid(n_radial=16, n_angular=64)


def test_scan_runs_and_counts():
    rep = counterexample_scan("T1", trials=10, seed=101, p=2, alpha1=0.3, N=8, grid=SMALL_GRID)
    assert rep.trials == 10
    assert rep.counts["FAIL"] == 0
    assert rep.counts["PASS"] == 10
    assert len(rep.verdicts) == 10
    assert rep.worst_margin > 0
    assert rep.worst_function is not None


def test_scan_is_deterministic():
    a = counterexample_scan("C2", trials=6, seed=301, p=2, N=8, grid=SMALL_GRID)
    b = counterexample_scan("C2", trials=6, seed=301, p=2, N=8, grid=SMALL_GRID)
    assert a.verdicts == b.verdicts
    assert a.worst_margin == b.worst_margin
    assert a.worst_function == b.worst_function


def test_scan_l3_discards_failed_hypotheses():
    rep = counterexample_scan("L3", trials=15, seed=903, p=3, N=8, grid=SMALL_GRID)
    assert rep.counts["FAIL"] == 0
    assert len(rep.verdicts) == 15
    assert rep.attempts >= 15
    assert rep.attempts == 15 + rep.counts["HYPOTHESIS_NOT_SATISFIED"]


def test_scan_t5_uses_gap_sampler():
    rep = counterexample_scan("T5", trials=5, seed=601, s=3, delta=0.3, N=8, grid=SMALL_GRID)
    assert rep.counts["FAIL"] == 0
    assert rep.worst_function.order_p == 3
    assert rep.params == {"delta": 0.3, "s": 3}


@pytest.mark.parametrize("s", [3, np.int64(3)])
def test_scan_params_as_verify_reports_them(s):
    # the layout of the verify report, with s a Python int that JSON takes
    rep = counterexample_scan("T5", trials=2, seed=601, s=s, delta=0.3, N=8, grid=SMALL_GRID)
    checked = check_theorem("T5", rep.worst_function, SMALL_GRID, s=s, delta=0.3)
    assert list(rep.params.items()) == list(checked.params.items()) == [("s", 3), ("delta", 0.3)]
    assert type(rep.params["s"]) is int
    assert json.loads(json.dumps(cli._payload(rep)))["params"] == {"s": 3, "delta": 0.3}


@pytest.mark.parametrize(
    "tid,solver,kwargs",
    [("T4", "alpha_sequence", {"p": 5, "alpha0": 1.0}), ("C2", "solve_gamma0", {"p": 2})],
)
def test_scan_solves_constants_once(monkeypatch, tid, solver, kwargs):
    calls = []
    real = getattr(verify, solver)

    def counted(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(verify, solver, counted)
    verify._build_plan.cache_clear()  # a cold plan: its constants are solved once for all the draws
    grid = DiskGrid(n_radial=1, n_angular=64)
    rep = counterexample_scan(tid, trials=200, seed=501, N=16, grid=grid, **kwargs)
    assert len(rep.verdicts) == 200
    assert len(calls) == 1
    assert counterexample_scan(tid, trials=200, seed=501, N=16, grid=grid, **kwargs) == rep
    assert len(calls) == 1  # a repeat scan reuses the plan


SCAN_CASES = [
    ("T1", {"p": 2, "alpha1": 0.5}),
    ("C1", {"p": 3}),
    ("C2", {"p": 2}),
    ("T3", {"p": 3, "alpha0": 1.0}),
    ("T4", {"p": 5, "alpha0": 1.0}),
    ("T5", {"s": 2, "delta": 0.3}),
    ("L2", {"p": 3}),
    ("L3", {"p": 3}),
]


def _scan_by_checks(tid, trials, seed, grid, N=16, p=None, **params):
    """counterexample_scan as one public check_theorem call per attempt."""
    theorem = verify.THEOREMS[tid]
    order = params["s"] if "s" in theorem.params else p
    hyp_bound = check_theorem(tid, make_series(order, []), grid, **params).hypothesis_bound
    bound = min(hyp_bound, verify._SAMPLER_CAP) if theorem.sampler_bound is None else theorem.sampler_bound
    counts = {"PASS": 0, "FAIL": 0, "HYPOTHESIS_NOT_SATISFIED": 0}
    verdicts, worst, attempt = [], (math.inf, "", -1, None), 0
    while len(verdicts) < trials and attempt < 10 * trials:
        f = verify.sample_hypothesis_function(
            np.random.SeedSequence((seed, attempt)), p=order, bound=bound, N=N, s_gap=params.get("s")
        )
        rep = check_theorem(tid, f, grid, **params)
        counts[rep.verdict] += 1
        if rep.verdict != "HYPOTHESIS_NOT_SATISFIED":
            verdicts.append(rep.verdict)
            for c in rep.conclusions:
                if c.margin < worst[0]:
                    worst = (c.margin, c.label, attempt, f)
        attempt += 1
    return attempt, counts, tuple(verdicts), worst


@pytest.mark.parametrize("budget", [None, 1, 1000], ids=["one-batch", "one-draw", "small-batches"])
@pytest.mark.parametrize("n_radial", [1, 4])
@pytest.mark.parametrize("tid,params", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_scan_matches_per_draw_checks(monkeypatch, tid, params, n_radial, budget):
    if budget is not None:  # 1000 values hold 2-7 draws of 64 points, 1 holds one
        monkeypatch.setattr(verify, "_BATCH_VALUES", budget)
    grid = DiskGrid(n_radial=n_radial, n_angular=64)
    seed = 904  # for L3, 7 of the first 10 draws miss the hypothesis and are redrawn
    rep = counterexample_scan(tid, trials=10, seed=seed, grid=grid, N=16, **params)
    attempts, counts, verdicts, worst = _scan_by_checks(tid, 10, seed, grid, **params)
    if tid == "L3":
        assert counts["HYPOTHESIS_NOT_SATISFIED"] == 7
    assert (rep.attempts, rep.counts, rep.verdicts) == (attempts, counts, verdicts)
    assert type(rep.worst_margin) is float
    assert (rep.worst_margin, rep.worst_label, rep.worst_attempt) == worst[:3]
    assert rep.worst_function == worst[3]


def test_scan_counts_fail_verdicts_as_per_draw_checks(monkeypatch):
    # C1 p=3 with the sup_arg bound moved to 0.05 and the last Re bound to
    # 0.98, inside the sampled values: 5 of the first 10 draws fail, and the
    # scan must count, order and pick the worst of them as per-draw checks do
    real = verify._build_plan

    def moved(*args):
        plan = real(*args)
        bounds = (0.05, 0.0, 0.0, 0.98)
        return dataclasses.replace(plan, conclusions=tuple(
            (label, q, bound) for (label, q, _), bound in zip(plan.conclusions, bounds, strict=True)
        ))

    monkeypatch.setattr(verify, "_build_plan", moved)
    grid = DiskGrid(n_radial=1, n_angular=64)
    rep = counterexample_scan("C1", trials=10, seed=904, p=3, grid=grid, N=16)
    attempts, counts, verdicts, worst = _scan_by_checks("C1", 10, 904, grid, p=3)
    assert counts["FAIL"] == 5
    assert (rep.attempts, rep.counts, rep.verdicts) == (attempts, counts, verdicts)
    assert (rep.worst_margin, rep.worst_label, rep.worst_attempt) == worst[:3]
    assert rep.worst_margin < 0


@pytest.mark.parametrize("budget", [None, 1], ids=["one-batch", "one-draw"])
def test_scan_worst_tie_goes_to_the_first_attempt(monkeypatch, budget):
    # every attempt draws the same function, so every draw ties for the worst margin
    if budget is not None:
        monkeypatch.setattr(verify, "_BATCH_VALUES", budget)
    real = verify._scan_uniforms

    def same(seed, first, size, count):
        return np.repeat(real(5, 0, 1, count), size, axis=0)

    monkeypatch.setattr(verify, "_scan_uniforms", same)
    rep = counterexample_scan("C1", trials=6, seed=1, p=3, grid=DiskGrid(n_radial=1, n_angular=64))
    assert rep.counts["PASS"] == 6
    assert rep.worst_attempt == 0


def test_scan_batches_count_coefficients_past_the_ring(monkeypatch):
    # at N = 2,000 on 512 points a draw's rows hold more coefficients than ring
    # samples, so a T4 p = 5 batch (6 orders) holds 2**18 // (6 * 2000) = 21
    # draws, not the 85 that the ring alone would allow; the report is the
    # one that batches of a single draw give
    sizes = []
    real = verify._scan_uniforms

    def recorded(seed, first, size, count):
        sizes.append(size)
        return real(seed, first, size, count)

    monkeypatch.setattr(verify, "_scan_uniforms", recorded)
    args = dict(trials=50, seed=1, p=5, alpha0=1.0, grid=DiskGrid(n_radial=1, n_angular=512), N=2000)
    rep = counterexample_scan("T4", **args)
    assert sizes == [21, 21, 8]
    monkeypatch.setattr(verify, "_BATCH_VALUES", 1)
    assert counterexample_scan("T4", **args) == rep
    assert rep.counts["PASS"] == 50


@pytest.mark.parametrize("tid", ["L2", "L3", "C2"])
def test_batch_reports_match_check_theorem(tid):
    # row 1 is f = z^3 + 0.01 z^5, whose f^(4) = 1.2 z starts with a zero where
    # a sampled draw's f^(4) does not; L2 and C2 read the rows f^(0) as well.
    # The last row, z^4 + 0.01 z^5 stored from z^3, starts every row with a zero,
    # f^(0) included: f''' vanishes at the origin (C2), z f^(k)/f^(k-1) does not
    grid = DiskGrid(n_radial=1, n_angular=64)
    sampled = verify._sample_block(verify._scan_uniforms(80, 0, 3, 31), 3, 0.9)
    raw = np.insert(sampled.raw, 1, [1.0, 0.0, 0.01] + [0.0] * 13, axis=0)
    block = series.SeriesBlock(3, np.vstack([raw, [0.0, 1.0, 0.01] + [0.0] * 13]))
    fs = [PowerSeries(3, row) for row in block.raw]
    assert fs[1] == make_series(3, [0.0, 0.01] + [0.0] * 13)
    assert [fs[0], *fs[2:-1]] == [
        sample_hypothesis_function(np.random.SeedSequence((80, k)), p=3, bound=0.9, N=16) for k in range(3)
    ]
    plan = verify._build_plan(tid, 3, None, None, None, None)
    v = verify._verdicts(plan, verify._Evaluation(block, plan.orders, grid.points[-1][None]))
    assert v.hyp_ok[1]
    assert v.hyp_ok[-1] == (tid != "C2")
    for b, f in enumerate(fs):  # every batch row is check_theorem on its draw, bit for bit
        rep = check_theorem(tid, f, grid)
        assert (v.hyp_value[b], v.hyp_witness[b], v.hyp_ok[b]) == (
            rep.hypothesis_sup, rep.witnesses[0], rep.hypothesis_satisfied
        )
        assert v.passed[b] == (rep.verdict == "PASS")
        if rep.hypothesis_satisfied:
            assert list(zip(v.value[b].tolist(), v.witness[b].tolist(), v.margin[b].tolist())) == [
                (c.value, c.witness, c.margin) for c in rep.conclusions
            ]


@pytest.mark.parametrize("first", ["pole", "overflow"])
def test_scan_raises_first_failing_draw(monkeypatch, first):
    # sampler rows of f for L2 with p = 2 and N = 16
    faults = {
        "pole": np.array([1.0, -1.0] + [0.0] * 14),  # f'/z = 2 - 3z, the L2 hypothesis denominator, vanishes at 2/3
        # finite, but f''/2! = 1 + 1.7e308 z + 1.7e308 z^2 overflows float64 on the ring
        "overflow": np.array([1.0, 1.7e308 / 3, 1.7e308 / 6] + [0.0] * 13),
    }
    later = "overflow" if first == "pole" else "pole"
    real_uniforms, real_sampler = verify._scan_uniforms, verify._sample_block
    attempts = []  # the attempts of the batch being sampled

    def uniforms(seed, first, size, count):
        attempts[:] = range(first, first + size)
        return real_uniforms(seed, first, size, count)

    def sampler(u, *args, **kw):
        block = real_sampler(u, *args, **kw)
        for b, attempt in enumerate(attempts):
            fault = {2: faults[first], 5: faults[later]}.get(attempt)
            if fault is not None:
                block.raw[b] = fault
        return block

    grid = DiskGrid(n_radial=1, n_angular=64)
    with pytest.raises((ZeroOnGrid, verify.NonFiniteValue)) as alone:
        check_theorem("L2", PowerSeries(2, faults[first]), grid)
    monkeypatch.setattr(verify, "_scan_uniforms", uniforms)
    monkeypatch.setattr(verify, "_sample_block", sampler)
    with pytest.raises(type(alone.value)) as scanned:
        counterexample_scan("L2", trials=10, seed=3, p=2, grid=grid)
    assert str(scanned.value) == str(alone.value)


def _scan_outcome(*args, **kwargs):
    """repr of counterexample_scan's report, or the type and message it raises."""
    try:
        return repr(counterexample_scan(*args, **kwargs))
    except Exception as exc:  # the first error of a scan is part of its outcome
        return type(exc), str(exc)


def _count_certificates(monkeypatch) -> list:
    """Record the certificate's decision on every batch that has one."""
    decisions, real = [], verify._Evaluation._certified

    def certified(*args):
        decisions.append(real(*args))
        return decisions[-1]

    monkeypatch.setattr(verify._Evaluation, "_certified", certified)
    return decisions


# C1 at p = 171 certifies every batch and raises on a conclusion past 170!
@pytest.mark.parametrize("budget", [None, 1], ids=["one-batch", "one-draw"])
@pytest.mark.parametrize("tid,params", SCAN_CASES + [("C1", {"p": 171})],
                         ids=[c[0] for c in SCAN_CASES] + ["C1-p171"])
def test_scan_reports_do_not_depend_on_the_certificate(monkeypatch, tid, params, budget):
    # every batch of a sup|arg f^(p)| hypothesis certifies it here, and L2
    # and L3 have no certificate; the reports are those of sampled hypotheses
    if budget is not None:
        monkeypatch.setattr(verify, "_BATCH_VALUES", budget)
    grid = DiskGrid(n_radial=1, n_angular=64)
    seeds = (1, 2, 904)
    decisions = _count_certificates(monkeypatch)
    on = [_scan_outcome(tid, 12, seed, grid=grid, **params) for seed in seeds]
    assert (decisions and all(decisions)) if tid not in ("L2", "L3") else decisions == []
    monkeypatch.setattr(verify._Evaluation, "_certified", lambda *args: False)
    assert [_scan_outcome(tid, 12, seed, grid=grid, **params) for seed in seeds] == on


@pytest.mark.parametrize("budget", [None, 1], ids=["one-batch", "one-draw"])
@pytest.mark.parametrize("kinds", [("root",), ("root", "overflow"), ("overflow", "root")], ids="-".join)
@pytest.mark.parametrize("tid,params", [("T1", {"p": 2, "alpha1": 0.5}), ("C1", {"p": 3}),
                                        ("T4", {"p": 5, "alpha0": 1.0}), ("L2", {"p": 2})], ids=["T1", "C1", "T4", "L2"])
def test_scan_faults_do_not_depend_on_the_certificate(monkeypatch, tid, params, kinds, budget):
    # faulty sampler rows at attempts 2 and 5, as in
    # test_scan_raises_first_failing_draw: a batch with one does not certify,
    # and is checked again draw by draw, where its other draws do. f^(p)/p! of
    # the "root" row is 1 - 1.5z, whose hypothesis fails, so a scan with only
    # that row completes; the "overflow" row overflows float64 on the ring
    if budget is not None:
        monkeypatch.setattr(verify, "_BATCH_VALUES", budget)
    p = params["p"]
    faults = {"root": np.array([1.0, -1.5 / (p + 1)] + [0.0] * 14),
              "overflow": np.array([1.0, 1.7e308 / 3, 1.7e308 / 6] + [0.0] * 13)}
    injected = {attempt: faults[kind] for attempt, kind in zip((2, 5), kinds)}
    real_uniforms, real_sampler = verify._scan_uniforms, verify._sample_block
    attempts = []  # the attempts of the batch being sampled

    def uniforms(seed, first_attempt, size, count):
        attempts[:] = range(first_attempt, first_attempt + size)
        return real_uniforms(seed, first_attempt, size, count)

    def sampler(u, *args, **kw):
        block = real_sampler(u, *args, **kw)
        for b, attempt in enumerate(attempts):
            if attempt in injected:
                block.raw[b] = injected[attempt]
        return block

    monkeypatch.setattr(verify, "_scan_uniforms", uniforms)
    monkeypatch.setattr(verify, "_sample_block", sampler)
    grid = DiskGrid(n_radial=1, n_angular=64)
    decisions = _count_certificates(monkeypatch)
    on = _scan_outcome(tid, 10, 3, grid=grid, **params)
    assert any(decisions) == (tid != "L2")
    monkeypatch.setattr(verify._Evaluation, "_certified", lambda *args: False)
    assert _scan_outcome(tid, 10, 3, grid=grid, **params) == on


@pytest.mark.parametrize("budget", [None, 1], ids=["one-batch", "one-draw"])
def test_scan_batch_failed_by_a_missed_hypothesis_completes(monkeypatch, budget):
    # C1 at p = 170, attempt 2 made f = z^170 (1 + 50 z): f^(170) has a root in
    # the disk, so its hypothesis fails, and Re(f^(169)/z) overflows once 170!
    # is multiplied back. The batch of all draws raises on that conclusion and
    # is checked again draw by draw, where this draw is never asked for it
    if budget is not None:
        monkeypatch.setattr(verify, "_BATCH_VALUES", budget)
    fault = [1.0, 50.0] + [0.0] * 14
    grid = DiskGrid(n_radial=1, n_angular=64)
    assert check_theorem("C1", PowerSeries(170, fault), grid).verdict == "HYPOTHESIS_NOT_SATISFIED"
    target = verify._scan_uniforms(1, 2, 1, 31)[0]  # also the uniforms of sample_hypothesis_function
    real_sampler, real_verdicts = verify._sample_block, verify._verdicts
    raised = []

    def sampler(u, *args, **kw):
        block = real_sampler(u, *args, **kw)
        block.raw[(u == target).all(axis=1)] = fault
        return block

    def verdicts(*args):
        try:
            return real_verdicts(*args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(verify, "_sample_block", sampler)
    monkeypatch.setattr(verify, "_verdicts", verdicts)
    rep = counterexample_scan("C1", trials=10, seed=1, p=170, grid=grid)
    assert raised == ([] if budget == 1 else [verify.NonFiniteValue])
    attempts, counts, verdicts_, worst = _scan_by_checks("C1", 10, 1, grid, p=170)
    assert counts["HYPOTHESIS_NOT_SATISFIED"] == 1
    assert (rep.attempts, rep.counts, rep.verdicts) == (attempts, counts, verdicts_)
    assert (rep.worst_margin, rep.worst_label, rep.worst_attempt) == worst[:3]
    assert rep.worst_function == worst[3]


def test_scan_builds_no_report_objects(monkeypatch):
    built = []
    for name in ("VerificationReport", "ConclusionCheck"):
        cls = getattr(verify, name)

        def counted(*args, _cls=cls, **kwargs):
            built.append(_cls.__name__)
            return _cls(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    grid = DiskGrid(n_radial=1, n_angular=64)
    rep = counterexample_scan("C1", trials=50, seed=1, p=3, grid=grid)
    assert rep.counts["PASS"] == 50
    assert built == []
    check_theorem("C1", rep.worst_function, grid)  # the one report of a check, with its 4 conclusions
    assert built == ["ConclusionCheck"] * 4 + ["VerificationReport"]


def test_scan_runs_kernel_once(monkeypatch):
    calls = []
    kernel = verify._ring_values

    def counted(coeffs, radii, n, **bound):  # an evaluation passes its bound on the rows
        calls.append((coeffs.shape, radii.shape, n))
        return kernel(coeffs, radii, n, **bound)

    monkeypatch.setattr(verify, "_ring_values", counted)
    grid = DiskGrid(n_radial=1, n_angular=64)
    rep = counterexample_scan("T4", trials=200, seed=501, p=5, alpha0=1.0, N=16, grid=grid)
    assert rep.attempts == len(rep.verdicts) == 200
    # f^(0) .. f^(5) of all 200 draws in one call on the 64 ring points
    assert calls == [((1200, 16), (1,), 64)]


def test_scan_rejects_bad_args():
    with pytest.raises(ValueError):
        counterexample_scan("T1", trials=0, seed=1, p=2, alpha1=0.3)
    with pytest.raises(ParamOutOfRange):
        counterexample_scan("T1", trials=2, seed=1, alpha1=0.3)  # p missing
    with pytest.raises(ParamOutOfRange):
        counterexample_scan("Q7", trials=2, seed=1, p=2)
    with pytest.raises(ParamOutOfRange, match="T5 does not take parameter p"):
        counterexample_scan("T5", trials=2, seed=1, p=7, s=2, delta=0.3)  # draws have order s
    with pytest.raises(ParamOutOfRange, match="unknown theorem id 'Q7'"):
        counterexample_scan("Q7", trials=2, seed=1)  # the id is named before the missing p


@pytest.mark.parametrize("kw,error,message", [
    ({"trials": 2.5}, ValueError, "trials must be an integer"),
    ({"N": 2.5}, ValueError, "N must be an integer"),
    ({"p": 2.5}, ParamOutOfRange, "T1 scan requires an integer p"),
    ({"p": True}, ParamOutOfRange, "T1 scan requires an integer p"),  # not reported as p = True
], ids=["trials-float", "N-float", "p-float", "p-bool"])
def test_scan_rejects_non_integer_arguments(kw, error, message):
    args = {"trials": 2, "seed": 1, "p": 2, "alpha1": 0.5, **kw}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        counterexample_scan("T1", **args)


def test_unknown_id_is_named_first():
    # before the order of f (check_theorem) and before trials or N (counterexample_scan)
    unknown = "^unknown theorem id 'Q7'$"
    with pytest.raises(ParamOutOfRange, match=unknown):
        check_theorem("q7", PowerSeries(0, [1.0, 0.3]))
    with pytest.raises(ParamOutOfRange, match=unknown):
        counterexample_scan("q7", trials=0, seed=1)
    with pytest.raises(ParamOutOfRange, match=unknown):
        counterexample_scan("q7", trials=2, seed=1, N=1)
    # a known id keeps each message
    with pytest.raises(ParamOutOfRange, match=r"^f must have order_p >= 1$"):
        check_theorem("t1", PowerSeries(0, [1.0, 0.3]), alpha1=0.5)
    with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
        counterexample_scan("t1", trials=0, seed=1, p=2, alpha1=0.5)
    with pytest.raises(ValueError, match=r"^N must be >= 2$"):
        counterexample_scan("t1", trials=2, seed=1, p=2, alpha1=0.5, N=1)


@pytest.mark.parametrize("tid,params,scan_takes,check_takes", [
    # T4 at p = 5: conclusions s = 1..5 and the starlike one, which is its s = 5
    # one; a scan batch certifies the hypothesis, check_theorem takes it
    ("T4", {"p": 5, "alpha0": 1.0}, 5, 6),
    # L2 at p = 3: the hypothesis is its k = 3 conclusion, beside k = 1 and 2
    ("L2", {"p": 3}, 3, 3),
], ids=["T4", "L2"])
def test_scan_takes_each_distinct_quantity_once(monkeypatch, tid, params, scan_takes, check_takes):
    monkeypatch.setattr(verify, "_BATCH_VALUES", 8 * 6 * 64)  # batches of 8 (T4) and 12 (L2) draws
    taken, batches = [], []
    real_take, real_verdicts = verify._Evaluation.take, verify._verdicts

    def take(self, q):
        taken.append(q)
        return real_take(self, q)

    def verdicts(plan, ev):
        taken.clear()
        v = real_verdicts(plan, ev)
        batches.append((ev.certified, len(taken), len(set(taken))))
        return v

    monkeypatch.setattr(verify._Evaluation, "take", take)
    monkeypatch.setattr(verify, "_verdicts", verdicts)
    grid = DiskGrid(n_radial=1, n_angular=64)
    rep = counterexample_scan(tid, trials=30, seed=1, grid=grid, **params)
    assert rep.counts["PASS"] == 30
    certified = tid == "T4"
    assert len(batches) > 1 and batches == [(certified, scan_takes, scan_takes)] * len(batches)
    batches.clear()
    check_theorem(tid, rep.worst_function, grid, **{k: v for k, v in params.items() if k != "p"})
    assert batches == [(False, check_takes, check_takes)]


def test_readme_theorem_table_matches_theorems():
    # the id column and the parameter column (its --flags, or "none") of
    # README's table of theorem ids, row by row, are THEOREMS in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Theorem ids", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("|")][2:]
    assert [(row[0].lstrip("| ").upper(), re.findall(r"`--(\w+)`", row[-1])) for row in rows] == [
        (tid, list(theorem.params)) for tid, theorem in verify.THEOREMS.items()
    ]
    assert [row[-1].rstrip(" |") == "none" for row in rows] == [not t.params for t in verify.THEOREMS.values()]


# ------------------------------------------------------------ batch shortcuts
# An evaluation decides four things once per batch where its bound pass or
# its orders allow: the root certificate of a functional (_root_free), the
# ZERO_TOL scan of a term without z-shift (cleared), the headroom scan of the
# ring kernel (its bound) and the derivative block as one product
# (series._factor_table). Where a condition fails, the per-draw code runs.


def _clears_per_call(self, term):
    """_Evaluation._clears with every term compared per call, scale 1 at shift 0."""
    i, shift = self._term(term)
    scale = min(m**shift for m in self._moduli) if shift else 1.0
    return scale > 0.0 and bool((self.floor[:, i] > series.ZERO_TOL / scale).all())


def _force(monkeypatch, mode):
    """Every shortcut off ("off"), or one condition forced true."""
    kernel = verify._ring_values
    if mode in ("off", "root"):
        monkeypatch.setattr(verify._Evaluation, "_root_free", lambda self, certified, pole: mode == "root")
    if mode == "off":
        monkeypatch.setattr(verify._Evaluation, "_clears", _clears_per_call)
        monkeypatch.setattr(verify, "_ring_values", lambda coeffs, radii, n, **bound: kernel(coeffs, radii, n))
        monkeypatch.setattr(series, "_factor_table", lambda order, size, ks: None)
    elif mode == "clear":
        monkeypatch.setattr(verify._Evaluation, "cleared", property(lambda self: [True] * self.floor.shape[1]))
    elif mode == "headroom":
        monkeypatch.setattr(verify, "_ring_values",
                            lambda coeffs, radii, n, **bound: kernel(coeffs, radii, n, bound=0.0))
    elif mode == "table":
        monkeypatch.setattr(series, "_factor_table", lambda order, size, ks: np.array(
            [series.falling_factorials(order, size, k, normalized=True) for k in ks]))


def _sector_map(beta, p, N=16):
    """The row of f with f^(p)/p! = h = ((1+w)/(1-w))**beta, w = 0.7z, up
    to z^(N-1): |arg h| < beta pi/2 on the disk, and no coefficient bound
    decides it, as |h_1| = 1.4 beta."""
    up, down = np.ones(N), np.ones(N)  # (1+w)**beta and (1-w)**-beta
    for j in range(1, N):
        up[j] = up[j - 1] * (beta - j + 1) / j
        down[j] = down[j - 1] * (beta + j - 1) / j
    h = np.convolve(up, down)[:N] * 0.7 ** np.arange(N)
    return h / series.falling_factorials(p, N, p, normalized=True)


def _scan_batch(tid, params, size, seed=1):
    """(plan, block): the first batch of size draws of a scan of the config."""
    theorem = verify.THEOREMS[tid]
    order = params.get("s", params.get("p"))
    plan = verify._build_plan(tid, order, params.get("alpha1"), params.get("alpha0"), params.get("delta"),
                              params.get("s"))
    bound = min(plan.hypothesis_bound, verify._SAMPLER_CAP) if theorem.sampler_bound is None else theorem.sampler_bound
    return plan, verify._sample_block(verify._scan_uniforms(seed, 0, size, 31), order, bound)


def _replaced(block, b, row):
    raw = block.raw.copy()
    raw[b] = row
    return series.SeriesBlock(block.order_p, raw)


def _edge_batches():
    """(id, plan, block, grid) of batches where some shortcut must not fire."""
    ring = DiskGrid(n_radial=1)
    plan, block = _scan_batch("T4", {"p": 5, "alpha0": 1.0}, 4)
    yield "T4-one-not-dominant", plan, _replaced(block, 2, _sector_map(0.9, 5)), ring
    plan, block = _scan_batch("T1", {"p": 3, "alpha1": 0.5}, 4)
    yield "T1-leading-zero", plan, _replaced(block, 1, np.r_[0.0, block.raw[1, 1:]]), ring
    # f^(3)/3! = 1 - z/0.995: a zero on the ring at z = r_max, which the ZERO_TOL scan finds
    yield "T1-zero-on-ring", plan, _replaced(block, 3, np.r_[1.0, -0.25 / 0.995, np.zeros(14)]), ring
    # f^(3)/3! = 1 + 2z: a root at -0.5, inside the disk
    yield "T1-root-inside", plan, _replaced(block, 0, np.r_[1.0, 0.5, np.zeros(14)]), ring
    # z + 0 z^2 + z^3 (1 + ...): a T5 gap series at s = 3 of order 1, so f^(2) starts with a zero
    _, gap = _scan_batch("T5", {"s": 3, "delta": 0.5}, 4)
    raw = np.hstack([np.ones((4, 1)), np.zeros((4, 1)), gap.raw])
    yield "T5-gap", verify._build_plan("T5", 1, None, None, 0.5, 3), series.SeriesBlock(1, raw), ring
    plan, block = _scan_batch("L3", {"p": 3}, 4)
    yield "L3-hypothesis-not-dominant", plan, _replaced(block, 1, _sector_map(0.5, 3)), ring
    # f''/2 = 1 + 2z, the denominator of the L3 hypothesis at p = 2: a pole at -0.5
    plan, block = _scan_batch("L3", {"p": 2}, 4)
    yield "L3-pole-inside", plan, _replaced(block, 2, np.r_[1.0, 2 / 3, np.zeros(14)]), ring
    # the largest upper bound just under 2**_FFT_HEADROOM: the finiteness scan is
    # skipped, the headroom scan is not
    plan, block = _scan_batch("T1", {"p": 2, "alpha1": 0.5}, 4)
    top = verify._Evaluation(block, plan.orders, ring.points[-1:]).top
    yield "T1-under-headroom", plan, series.SeriesBlock(2, block.raw * 2.0 ** (960 - math.frexp(top)[1])), ring
    # every sample of f' finite, but its transform overflows unless scaled (test_ring_values_flag_only_true_overflow)
    big = np.array([1.8613731354141504e307 - 3.9960794789262974e307j, -1.2960001139415074e308 + 6.622631824434946e307j])
    yield ("T1-over-headroom", verify._build_plan("T1", 1, 0.5, None, None, None),
           series.SeriesBlock(1, np.array([big / [1, 2]])), DiskGrid(n_radial=1, n_angular=8))


def _shortcut_batches():
    for tid, params in SCAN_CASES:
        for size in (1, 4, 40):
            yield (f"{tid}-{size}", *_scan_batch(tid, params, size), DiskGrid(n_radial=1))
    yield from _edge_batches()


def _batch_outcome(plan, block, grid):
    """_scan_verdicts' arrays, or the type and message of what it raises."""
    try:
        return tuple(verify._scan_verdicts(plan, block, grid))
    except Exception as exc:  # the first error of a batch is part of its outcome
        return type(exc), str(exc)


def _identical(a, b) -> bool:
    """Equal arrays, NaN where NaN and every sign bit alike, or equal errors."""
    raised = [not isinstance(outcome[0], np.ndarray) for outcome in (a, b)]
    if any(raised):
        return all(raised) and a == b

    def signs(v):
        return v if v.dtype == bool else np.signbit(np.ascontiguousarray(v).view(np.float64))

    return all(x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True) and np.array_equal(signs(x), signs(y))
               for x, y in zip(a, b))


def _differing(monkeypatch, mode) -> list[str]:
    """The batches whose outcome with the mode forced differs from the default one."""
    batches = list(_shortcut_batches())
    default = [_batch_outcome(plan, block, grid) for _, plan, block, grid in batches]
    with monkeypatch.context() as mp:
        _force(mp, mode)
        forced = [_batch_outcome(plan, block, grid) for _, plan, block, grid in batches]
    return [name for (name, *_), a, b in zip(batches, default, forced) if not _identical(a, b)]


def test_batch_shortcuts_change_no_verdict_bit(monkeypatch):
    # the 8 bench configs at 1, 4 and 40 draws, and batches where some
    # shortcut must not fire, with every shortcut on and off
    assert _differing(monkeypatch, "off") == []


@pytest.mark.parametrize("mode,cases", [
    ("root", ["T1-leading-zero", "T1-root-inside", "L3-pole-inside"]),
    ("clear", ["T1-zero-on-ring"]),
    ("headroom", ["T1-over-headroom"]),
    ("table", ["L3-4", "T5-gap", "L3-hypothesis-not-dominant"]),
])
def test_batch_shortcut_conditions_matter(monkeypatch, mode, cases):
    # with its condition forced true, each shortcut changes these batches
    assert set(cases) <= set(_differing(monkeypatch, mode))


def test_derivative_block_keeps_signed_zeros():
    # 1 - 0j: the one product would turn every -0.0 imaginary part of f^(0) into +0.0
    raw = np.full((3, 5), complex(1.0, -0.0))
    raw[1] = complex(-0.0, -0.0)
    block = series.SeriesBlock(2, raw)
    got = series.derivative_block(block, (0, 1, 2))
    want = [series._derive(2, raw, k, normalized=True) for k in (0, 1, 2)]
    for i in range(3):
        assert _bits(got[:, i]) == _bits(want[i])
    assert np.signbit(got[:, 0].imag).all()
    product = raw * series._factor_table(2, 5, (0, 1, 2))[0]  # 1 - 0j times 1 + 0j is 1 + 0j
    assert np.signbit(product.imag).tolist() == [[False] * 5, [True] * 5, [False] * 5]


def test_dominant_scan_makes_no_root_solve(monkeypatch):
    # a 4-draw T4 scan at p = 5 of sampler draws decides every certificate per
    # batch; with a sector-map draw, whose high derivatives are not dominant,
    # the per-draw loop runs for that draw alone, on the rows it ran on before
    calls = []
    solve, sampler = verify._smallest_root_in_disk, verify._sample_block
    monkeypatch.setattr(verify, "_smallest_root_in_disk",
                        lambda coeffs, r: calls.append(coeffs.copy()) or solve(coeffs, r))
    rep = counterexample_scan("T4", 4, 7, p=5, alpha0=1.0)
    assert (rep.counts["PASS"], calls) == (4, [])

    sector = _sector_map(0.9, 5)
    monkeypatch.setattr(verify, "_sample_block", lambda *args: _replaced(sampler(*args), 2, sector))
    plan = verify._build_plan("T4", 5, None, 1.0, None, None)
    rows = series.derivative_block(series.SeriesBlock(5, sector[None].astype(complex)), plan.orders)[0]

    def solved():
        calls.clear()
        scanned = counterexample_scan("T4", 4, 7, p=5, alpha0=1.0)
        assert scanned.counts["PASS"] == 4
        return [[k for k, row in zip(plan.orders, rows) if _bits(row) == _bits(c)] for c in calls]

    # f^(5) and f^(4) of that draw are not dominant: the hypothesis solves
    # f^(5), then z f^(5)/f^(4) and z f^(4)/f^(3) each solve both of their rows
    assert solved() == [[5], [5], [4], [4], [3]]
    monkeypatch.setattr(verify._Evaluation, "_root_free", lambda self, certified, pole: False)
    assert solved() == [[5], [5], [4], [4], [3]]
