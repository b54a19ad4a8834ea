import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstar import (
    DiskGrid,
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
    sup_arg,
)
from argstar import series, verify
from argstar.series import principal_arg
from argstar.verify import _THETA_TOL, SLACK, ConclusionCheck, _golden_max, _horner_many

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


def test_grid_arrays_deterministic_and_readonly():
    a, b = DiskGrid(), DiskGrid()
    assert a.points.tobytes() == b.points.tobytes()
    with pytest.raises(ValueError):
        a.radii[0] = 9.0


def test_ring_is_last_row_of_points():
    for g in (DiskGrid(), DiskGrid(r_max=0.5, n_radial=1, n_angular=4), DiskGrid(n_radial=16, n_angular=64)):
        assert g.ring.tobytes() == g.points[-1].tobytes()
        assert not g.ring.flags.writeable


def test_angular_doubling_is_nested():
    # same radii, every coarse angle present in the doubled grid
    coarse, fine = DiskGrid(n_angular=64), DiskGrid(n_angular=128)
    assert coarse.radii.tobytes() == fine.radii.tobytes()
    assert coarse.angles.tobytes() == fine.angles[::2].tobytes()


# -------------------------------------------------------------------- sup/min

def test_sup_arg_monomial_is_zero():
    g = DiskGrid()
    r = sup_arg(make_series(3, []), 3, g)
    assert r.sup_abs_arg == 0.0
    assert r.witness == complex(g.radii[0])  # tie broken to the first grid point
    assert r.samples_used == g.size


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
    assert w == complex(DiskGrid().radii[0])


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
    assert sup_arg(f, 0, grid) == verify.SupArgResult(math.pi, 0j, 16)
    assert sup_arg(f, 2, grid).sup_abs_arg < 0.1
    with pytest.raises(ZeroOnGrid, match=r"root in \|z\| <= r_max at z = 0j in min_real"):
        min_real(make_series(1, [0.1]), 2, grid)


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
    full = np.abs(np.angle(np.polynomial.polynomial.polyval(g.points, f.coeffs)))
    assert sup_arg(f, 0, g).sup_abs_arg == full.max()


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


def test_heatmap_arg_jst_monomial_is_zero():
    # z f'/f is exactly p for f = z^p
    grid = DiskGrid(n_radial=8, n_angular=16)
    for p in range(1, 9):
        assert np.all(verify.heatmap_values(make_series(p, []), "arg-jst", grid) == 0.0)


def test_t4_check_runs_kernel_once(monkeypatch):
    calls = []
    kernel = verify._horner_many

    def counted(coeffs, zs):
        calls.append((coeffs.shape, zs.shape))
        return kernel(coeffs, zs)

    monkeypatch.setattr(verify, "_horner_many", counted)
    grid = DiskGrid(n_radial=16, n_angular=64)
    f = sample_hypothesis_function(5, p=5, bound=1.5, N=16)
    rep = check_theorem("T4", f, grid, alpha0=1.0)
    assert rep.verdict == "PASS"
    assert len(rep.conclusions) == 6  # s = 1..5 and the starlike ratio
    # f^(0) .. f^(5), each once, on the 64 ring points
    assert calls == [((6, 16), (64,))]


def test_conclusion_slack_window():
    good = ConclusionCheck("x", "sup_arg", 1.0, 1.0 - SLACK / 2, 0j)
    bad = ConclusionCheck("x", "sup_arg", 1.0 + 2 * SLACK, 1.0, 0j)
    assert good.ok and not bad.ok
    low = ConclusionCheck("x", "min_real", -SLACK / 2, 0.0, 0j)
    worse = ConclusionCheck("x", "min_real", -2 * SLACK, 0.0, 0j)
    assert low.ok and not worse.ok


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


def test_probe_rejects_bad_inputs():
    with pytest.raises(ParamOutOfRange):
        lemma1_probe(PowerSeries(0, np.array([1.0, 1.0])), 0.0)
    with pytest.raises(ParamOutOfRange):
        lemma1_probe(PowerSeries(0, np.array([2.0, 1.0])), 0.5)  # q(0) != 1
    with pytest.raises(ParamOutOfRange):
        lemma1_probe(make_series(1, [1.0]), 0.5)  # vanishes at 0


def test_probe_work_is_one_bisection(monkeypatch):
    # the outer ring, both bracket ends, the halvings of [0, r_max] down to
    # 1e-12, and the ring at r0; the parent scan of every grid radius took 94
    radii = []
    ring_sup = verify._ring_sup

    def counted(coeffs, r, angles):
        radii.append(r)
        return ring_sup(coeffs, r, angles)

    monkeypatch.setattr(verify, "_ring_sup", counted)
    lemma1_probe(PowerSeries(0, np.array([1.0, 1.0])), 2.0 * math.asin(0.6) / math.pi)
    assert len(radii) <= 45

    radii.clear()
    with pytest.raises(NotAttained) as exc:
        lemma1_probe(PowerSeries(0, np.array([1.0, 0.1])), 0.5)
    r_max = DiskGrid().r_max
    assert radii == [r_max]  # the outer ring alone decides that the level is missed
    assert abs(abs(exc.value.best_point) - r_max) <= 1e-15


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


# Reference: the golden refine on the numpy coefficient array, converting one
# numpy scalar per coefficient. verify._ring_sup runs it on coeffs.tolist()
# and must give the same floats.

def _head_horner(coeffs: np.ndarray, z: complex) -> complex:
    acc = complex(coeffs[-1])
    for j in range(coeffs.size - 2, -1, -1):
        acc = acc * z + complex(coeffs[j])
    return acc


def _head_ring_sup(coeffs: np.ndarray, r: float, angles: np.ndarray) -> tuple[float, float]:
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

    def g(theta: float) -> float:
        return abs(principal_arg(_head_horner(coeffs, r * cmath.exp(1j * theta))))

    theta = _golden_max(g, angles[j] - step, angles[j] + step, _THETA_TOL)
    return theta, g(theta)


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
                m.setattr(verify, "_ring_sup", _head_ring_sup)
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


def test_sampler_is_deterministic():
    a = sample_hypothesis_function(np.random.SeedSequence((9, 4)), p=2, bound=1.0)
    b = sample_hypothesis_function(np.random.SeedSequence((9, 4)), p=2, bound=1.0)
    assert a == b


def _reference_sample(seed, p, bound, N, s_gap=None):
    """The per-draw sampler body before the block sampler, verbatim: (order, raw of f^(order))."""
    order = int(s_gap) if s_gap is not None else int(p)
    rng = np.random.default_rng(seed)
    u = rng.uniform()
    weights = rng.uniform(size=N - 1)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=N - 1)
    total = math.sin(bound) * u
    wsum = weights.sum()
    moduli = total * weights / wsum if wsum > 0 else np.zeros(N - 1)
    scale = float(math.factorial(order))
    raw = np.concatenate(([1.0], moduli * np.exp(1j * phases))) * scale
    return order, raw


def _reference_derivative(order, raw, lift, k):
    """(order_p, coefficients) of the k-th derivative of sum raw[j] z^(order+j) / (e falling lift)
    by the per-series differentiate and the _lifted divisors before the block form, verbatim."""
    if k > 0:
        unwound = min(k, lift)
        order -= unwound
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
        j = 0
        while j < raw.size - 1 and raw[j] == 0:
            j += 1
        order, raw = order + j, raw[j:]
    if lift == 0:
        return order, raw
    exps = range(order, order + raw.size)
    divisors = np.array([float(math.perm(e, lift)) for e in exps])
    return order, raw / divisors


def _assert_block_matches_reference(block, ref_raws, ks):
    coeffs, powers = series.derivative_block(block, ks)
    for b, ref_raw in enumerate(ref_raws):
        for i, k in enumerate(ks):
            order, ref = _reference_derivative(block.order_p, ref_raw, block.lift, k)
            power = powers[i] if isinstance(powers[i], int) else int(powers[i][b])
            assert power == order, (b, k)
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
        block = verify._sample_block(seeds, bound=bound, N=N, **kw)
        assert (block.order_p, block.lift, block.raw.shape) == (order, order, (batch, N))
        ref_raws = []
        for b, seed in enumerate(seeds):
            ref_order, ref_raw = _reference_sample(seed, bound=bound, N=N, **kw)
            assert ref_order == order
            assert block.raw[b].tobytes() == ref_raw.tobytes()
            f = sample_hypothesis_function(seed, bound=bound, N=N, **kw)
            assert f == integrate(PowerSeries(0, ref_raw), order)
            for k in range(order + 2):
                ref_k_order, ref_k = _reference_derivative(order, ref_raw, order, k)
                fk = differentiate(f, k)
                assert (fk.order_p, fk.coeffs.tobytes()) == (ref_k_order, ref_k.tobytes())
            ref_raws.append(ref_raw)
        _assert_block_matches_reference(block, ref_raws, tuple(range(order + 2)))


def test_block_derivatives_strip_each_row():
    # rows whose derivatives start with zeros: each is stripped on its own and
    # starts at its own power of z, also where integrations are still pending
    seeds = [np.random.SeedSequence((5, attempt)) for attempt in range(7)]
    raw = verify._sample_block(seeds, p=3, bound=1.0, N=8).raw
    raw[1, 1] = 0  # f^(4) starts at z
    raw[3, 1:4] = 0  # f^(4) starts at z^3
    raw[5, 1:] = 0  # f^(4) is the zero polynomial
    raw[6, :2] = 0  # f and every derivative start one power higher
    _assert_block_matches_reference(series.SeriesBlock(3, raw, 3), list(raw), tuple(range(6)))


def test_sampler_guarantees_hypothesis():
    # by construction sum |c_n| < sin(bound), an a-priori bound on sup|arg|
    bound = 0.9
    for seed in range(120):
        f = sample_hypothesis_function(seed, p=2, bound=bound, N=12)
        fp = differentiate(f, 2)
        tail_mass = np.abs(fp.coeffs[1:] / fp.coeffs[0]).sum()
        assert tail_mass < math.sin(bound)
        assert sup_arg(fp, 0).sup_abs_arg <= math.asin(tail_mass) + 1e-12


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
    rep = counterexample_scan(tid, trials=200, seed=501, N=16, grid=DiskGrid(n_radial=1, n_angular=64), **kwargs)
    assert len(rep.verdicts) == 200
    assert len(calls) == 1


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
    order = params["s"] if tid == "T5" else p
    hyp_bound = check_theorem(tid, make_series(order, []), grid, **params).hypothesis_bound
    bound = verify._RE_SAMPLER_BOUND.get(tid, min(hyp_bound, verify._SAMPLER_CAP))
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


def test_batch_reports_match_check_theorem():
    # row 1 is f''' of f = z^3 + 0.01 z^5, whose f^(4) = 1.2 z has order 1 where
    # a sampled draw's f^(4) has order 0, so one batch divides out two different z-powers
    grid = DiskGrid(n_radial=1, n_angular=64)
    sampled = verify._sample_block([np.random.SeedSequence((80, k)) for k in range(3)], p=3, bound=0.9, N=16)
    block = series.SeriesBlock(3, np.insert(sampled.raw, 1, [6.0, 0.0, 0.6] + [0.0] * 13, axis=0), 3)
    fs = [integrate(PowerSeries(0, row), 3) for row in block.raw]
    assert fs[1] == make_series(3, [0.0, 0.01] + [0.0] * 13)
    assert fs[::2] + fs[3:] == [
        sample_hypothesis_function(np.random.SeedSequence((80, k)), p=3, bound=0.9, N=16) for k in range(3)
    ]
    plan = verify._build_plan("L3", 3, None, None, None, None)
    reports = verify._reports(plan, verify._Evaluation(block, plan.orders, grid, grid.ring))
    assert reports[1].hypothesis_satisfied
    assert reports == [check_theorem("L3", f, grid) for f in fs]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("first", ["pole", "overflow"])
def test_scan_raises_first_failing_draw(monkeypatch, first):
    # sampler rows of f'' = 2! h for L2 with p = 2 and N = 16
    faults = {
        "pole": np.array([2.0, -6.0] + [0.0] * 14),  # f'/z = 2 - 3z, the L2 hypothesis denominator, vanishes at 2/3
        "overflow": np.array([2.0, 1.7e308, 1.7e308] + [0.0] * 13),  # finite, but f'' overflows float64 on the ring
    }
    later = "overflow" if first == "pole" else "pole"
    real = verify._sample_block

    def sampler(seeds, *args, **kw):
        block = real(seeds, *args, **kw)
        for b, seed in enumerate(seeds):
            fault = {2: faults[first], 5: faults[later]}.get(seed.entropy[1])
            if fault is not None:
                block.raw[b] = fault
        return block

    grid = DiskGrid(n_radial=1, n_angular=64)
    with pytest.raises((ZeroOnGrid, verify.NonFiniteValue)) as alone:
        check_theorem("L2", integrate(PowerSeries(0, faults[first]), 2), grid)
    monkeypatch.setattr(verify, "_sample_block", sampler)
    with pytest.raises(type(alone.value)) as scanned:
        counterexample_scan("L2", trials=10, seed=3, p=2, grid=grid)
    assert str(scanned.value) == str(alone.value)


def test_scan_runs_kernel_once(monkeypatch):
    calls = []
    kernel = verify._horner_many

    def counted(coeffs, zs):
        calls.append((coeffs.shape, zs.shape))
        return kernel(coeffs, zs)

    monkeypatch.setattr(verify, "_horner_many", counted)
    grid = DiskGrid(n_radial=1, n_angular=64)
    rep = counterexample_scan("T4", trials=200, seed=501, p=5, alpha0=1.0, N=16, grid=grid)
    assert rep.attempts == len(rep.verdicts) == 200
    # f^(0) .. f^(5) of all 200 draws in one call on the 64 ring points
    assert calls == [((1200, 16), (64,))]


def test_scan_rejects_bad_args():
    with pytest.raises(ValueError):
        counterexample_scan("T1", trials=0, seed=1, p=2, alpha1=0.3)
    with pytest.raises(ParamOutOfRange):
        counterexample_scan("T1", trials=2, seed=1, alpha1=0.3)  # p missing
    with pytest.raises(ParamOutOfRange):
        counterexample_scan("Q7", trials=2, seed=1, p=2)
    with pytest.raises(ParamOutOfRange, match="T5 does not take parameter p"):
        counterexample_scan("T5", trials=2, seed=1, p=7, s=2, delta=0.3)  # draws have order s
