import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstar import cli, floatrepr, sample_hypothesis_function
from argstar.verify import DEFAULT_GRID


def texts(x: np.ndarray) -> list:
    """repr_slots of each element with its NULs dropped, as str."""
    return _strings(floatrepr.repr_slots(x))


def _strings(cols: np.ndarray) -> list:
    rows = np.ascontiguousarray(cols.T).view(f"S{floatrepr.SLOTS}").ravel().tolist()
    return [row.replace(b"\0", b"").decode("ascii") for row in rows]


def assert_reprs(x: np.ndarray) -> None:
    want = [repr(v) for v in x.tolist()]
    got = texts(x)
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {x.size} differ from repr, e.g. {wrong[:3]}"


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(derandomize=True, max_examples=300)
def test_repr_of_any_bit_pattern(bits):
    assert_reprs(from_bits(bits))


def test_seeded_sweep_of_bit_patterns():
    rng = np.random.default_rng(20181)
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
    for block in np.split(bits, 50):
        assert_reprs(block.view(np.float64))


def _edges() -> np.ndarray:
    smallest_normal = np.finfo(np.float64).tiny
    points = [0.0, 5e-324, smallest_normal, 2.0**54]
    points += [2.0**k for k in range(-1074, 1024)]  # the lower boundary is nearer for each
    points += [10.0**k for k in range(-30, 31)]  # the switches to exponent form at 1e-4 and 1e16
    x = np.array(points)
    x = np.concatenate((x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)))
    return np.concatenate((x, -x))


def test_edges():
    assert_reprs(_edges())


def test_constants():
    # 9.999999999999999e15 reads as 1e16, halfway to the float below, which prints whole
    x = np.array([0.1, 0.5, 1.0, 9.999999999999999e15, np.nextafter(1e16, 0), math.pi, -math.pi,
                  math.nan, math.inf, -math.inf])
    assert texts(x) == ["0.1", "0.5", "1.0", "1e+16", "9999999999999998.0", "3.141592653589793",
                        "-3.141592653589793", "nan", "inf", "-inf"]


def test_layout_of_every_form():
    # the common path never yields a whole number or an exponent above 15, so
    # the layout takes the digits of repr itself here: every form of repr
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64)
    x = np.concatenate((x, [1.0, 123456.0, 1e15, 9999999999999998.0, 1e16, 1.5e300, 0.001, 1e-4, 1e-5]))
    x = x[np.isfinite(x) & (x != 0)]
    parts = [Decimal(repr(abs(v))).normalize().as_tuple() for v in x.tolist()]
    digits = np.array([int("".join(map(str, p.digits))) for p in parts], dtype=np.uint64)
    exp10 = np.array([p.exponent for p in parts])
    assert _strings(floatrepr._layout(digits, exp10, np.signbit(x))) == [repr(v) for v in x.tolist()]


def _binades(per_binade: int, seed: int) -> np.ndarray:
    """The power of two and per_binade random floats in each binade [2^E, 2^(E+1))
    for E = -1022..48, with their neighbours one ulp up and down, where normal and below 2^49."""
    rng = np.random.default_rng(seed)
    tops = np.arange(1, 1072, dtype=np.uint64)[:, None] << np.uint64(52)  # biased exponents 1..1071
    mantissas = rng.integers(0, 2**52, size=(tops.size, per_binade + 1), dtype=np.uint64)
    mantissas[:, 0] = 0
    x = from_bits((tops | mantissas).ravel())
    x = np.concatenate((x, np.nextafter(x, np.inf), np.nextafter(x, 0)))
    return x[(x >= np.finfo(np.float64).tiny) & (x < 2.0**49)]


def test_scaled_floors_are_exact():
    # V = |x| 10^t and the bounds halfway to the neighbouring floats, in exact
    # arithmetic: each floor + remainder lies within _ERROR, and where the kernel
    # takes the fast path each floor is exact
    x = _binades(4, 1971)
    floors, rests, t, ok = floatrepr._scaled_floors(x)
    assert ok.mean() > 0.97 and ok[t > 300].any()  # the range scaled by 2^128 among them
    worst = Fraction(0)
    for i, (v, up, down) in enumerate(zip(x.tolist(), np.nextafter(x, np.inf).tolist(),
                                          np.nextafter(x, 0).tolist())):
        scale = 10 ** int(t[i])
        exact = [Fraction(v) * scale, (Fraction(v) + Fraction(up)) / 2 * scale,
                 (Fraction(v) + Fraction(down)) / 2 * scale]
        assert 10**17 <= exact[0] < 2 * 10**18, v
        for k, value in enumerate(exact):
            floor = int(floors[k, i])
            worst = max(worst, abs(floor + Fraction(float(rests[k, i])) - value))
            if ok[i]:
                assert floor == math.floor(value), (v, k)
    assert worst < floatrepr._ERROR


def test_remainder_margin_exceeds_the_error_bound_tenfold():
    # _scaled_floors derives the bound from two errors of 2^-43 and the table's 2^-45
    assert 2 * 2.0**-43 + 2.0**-45 < floatrepr._ERROR
    assert floatrepr._DELTA >= 10 * floatrepr._ERROR


def test_common_path_covers_the_ordinary_floats():
    # the repr fallback is for zeros, subnormals, nan, infinities, |x| >= 2^49
    # and scaled values or bounds within 2^-32 of a whole number, which holds
    # every exact one (0.5, 1.0, the whole numbers), not for values such as these
    x = np.array([math.pi, -math.e, 0.1, 1e-5, 123456.789, 1.5e15 / 7, -2.5e-300])
    assert floatrepr.shortest_digits(x)[2].all()
    x = np.array([0.0, -0.0, 5e-324, math.nan, math.inf, 2.0**54, 1.5e300, 0.5, 1.0])
    assert not floatrepr.shortest_digits(x)[2].any()


def test_near_whole_remainders_fall_back():
    # for x = m / 2^52 in [1, 2), t = 17: V = m 5^17 / 2^35 and the bounds are
    # (2m +- 1) 5^17 / 2^36; each m puts one of the three 2^-35 or 2^-36 from a
    # whole number, too rare for a random sweep to find
    ms = []
    for c35, c36 in ((pow(5**17, -1, 2**35), pow(5**17, -1, 2**36)),
                     (-pow(5**17, -1, 2**35) % 2**35, -pow(5**17, -1, 2**36) % 2**36)):
        ms += [c35, (c36 - 1) // 2, (c36 + 1) // 2]  # V, then 2m + 1 and 2m - 1 congruent to c36
    x = np.array([(2**52 + m) / 2**52 for m in ms])
    _, rests, t, ok = floatrepr._scaled_floors(x)
    assert (t == 17).all() and not ok.any()
    near = np.minimum(rests, 1 - rests)[np.arange(6) % 3, np.arange(6)]
    assert (near < 2.0**-34).all()
    assert_reprs(x)


def test_shortest_digits_read_back():
    x = np.array([math.pi, 1e-5, 6.02214076e-23, -2.5e-300])
    digits, exp10, ok = floatrepr.shortest_digits(x)
    assert ok.all()
    assert digits.tolist() == [3141592653589793, 1, 602214076, 25]
    assert exp10.tolist() == [-15, -5, -31, -301]


@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_heatmaps_need_no_fallback(seed, monkeypatch, tmp_path):
    # the writer formats every r, theta and value through the kernel, and the
    # values of complex-coefficient draws are all on its common path: only
    # theta = 0.0 goes to repr, so a silent return to per-value repr fails here
    f = sample_hypothesis_function(np.random.SeedSequence((seed, 3)), p=3, bound=1.5, N=16)
    kernel, seen = floatrepr.shortest_digits, []

    def counted(x):
        digits, exp10, ok = kernel(x)
        seen.append((x.size, int(ok.size - ok.sum())))
        return digits, exp10, ok

    monkeypatch.setattr(floatrepr, "shortest_digits", counted)
    grid = DEFAULT_GRID
    for quantity in cli.HEATMAP_QUANTITIES:
        seen.clear()
        cli.emit_heatmap(f, quantity, grid, tmp_path / "hm.csv")
        assert sum(size for size, _ in seen) == grid.size + grid.n_radial + grid.n_angular, quantity
        assert sum(rest for _, rest in seen) == 1, quantity


def test_table_is_built_on_first_use():
    code = ("import argstar.cli, argstar.floatrepr as fr; import numpy as np; "
            "assert fr._pow10_dd.cache_info().currsize == 0; "
            "fr.repr_slots(np.array([0.25])); assert fr._pow10_dd.cache_info().currsize == 1")
    src = str(Path(floatrepr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    subprocess.run([sys.executable, "-W", "error", "-c", code], check=True, env=env, timeout=60)
