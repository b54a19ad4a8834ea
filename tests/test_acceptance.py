"""Acceptance suite: one test per criterion, `pytest -v` gives the scoreboard.

Digit comparisons floor-truncate to the quoted precision. A few tabulated
reference digits contradict the very recurrences and closed forms that define
them; those literals are kept as strict-xfail subtests beside the recomputed
values, so a regression that somehow "fixes" them fails loud.
"""

import json
import math
import time

import numpy as np
import pytest

from argstar import (
    DiskGrid,
    PowerSeries,
    alpha_sequence,
    check_theorem,
    counterexample_scan,
    harmonic_lower_bound,
    lemma1_probe,
    log_majorant_product,
    majorant_closed_form,
    majorant_sequence,
    make_series,
    solve_delta_max,
    solve_gamma0,
    sup_arg,
)
from argstar.cli import run

SQ3 = math.sqrt(3.0)


def truncated(x: float, digits: int) -> float:
    scale = 10.0**digits
    return math.floor(x * scale) / scale


def cli_json(capsys, argv) -> dict:
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)["result"]


# --------------------------------------------------------------------- A1

def test_a1_gamma0_constant(capsys):
    res = cli_json(capsys, ["gamma0"])
    assert truncated(res["gamma0"], 3) == 0.383
    assert truncated(res["composite"], 1) == 0.6
    assert res["residual"] <= 1e-11

    solve_gamma0()  # warm
    t0 = time.perf_counter()
    solve_gamma0()
    assert time.perf_counter() - t0 < 1e-3


# --------------------------------------------------------------------- A2

def test_a2_chain_from_three_halves(capsys):
    t0 = time.perf_counter()
    chain = alpha_sequence(1.5, 5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10e-3
    res = cli_json(capsys, ["alpha", "--alpha0", "1.5", "--count", "5"])
    assert res["values"] == pytest.approx(list(chain.values), abs=0)
    assert max(res["residuals"]) <= 1e-11
    assert truncated(res["values"][1], 2) == 1.0
    assert truncated(res["values"][2], 2) == 0.76


@pytest.mark.xfail(
    strict=True,
    reason="tabulated digits 0.65/0.56/0.5 are inconsistent with the defining "
    "recurrence, which gives 0.63/0.54/0.48 at residual 1e-13",
)
def test_a2_printed_digits_k3_to_k5():
    chain = alpha_sequence(1.5, 5)
    assert truncated(chain.values[3], 2) == 0.65
    assert truncated(chain.values[4], 2) == 0.56
    assert truncated(chain.values[5], 1) == 0.5


# --------------------------------------------------------------------- A3

def test_a3_chain_from_one(capsys):
    t0 = time.perf_counter()
    alpha_sequence(1.0, 5)
    assert time.perf_counter() - t0 < 10e-3
    res = cli_json(capsys, ["alpha", "--alpha0", "1.0", "--count", "5"])
    assert truncated(res["values"][1], 3) == 0.638
    assert truncated(res["values"][2], 3) == 0.486
    assert truncated(res["values"][3], 3) == 0.401
    assert max(res["residuals"]) <= 1e-11


@pytest.mark.xfail(
    strict=True,
    reason="tabulated digits 0.347/0.309 are inconsistent with the defining "
    "recurrence, which gives 0.346/0.307; no rounding convention repairs both",
)
def test_a3_printed_digits_k4_k5():
    chain = alpha_sequence(1.0, 5)
    assert truncated(chain.values[4], 3) == 0.347
    assert truncated(chain.values[5], 3) == 0.309


# --------------------------------------------------------------------- A4

def test_a4_gap_series_constants(capsys):
    res = cli_json(capsys, ["deltamax"])
    assert truncated(res["delta_max"], 3) == 0.787
    assert truncated(res["bound"], 2) == 1.21
    assert res["residual"] <= 1e-11

    # atan(sqrt(3)/3) = pi/6 turns both bounds into closed forms
    rep = check_theorem("T5", make_series(2, [0.05]), delta=SQ3 / 3, s=2)
    assert rep.verdict == "PASS"
    assert abs(rep.hypothesis_bound - math.pi * (1 + SQ3) / 6) <= 1e-12
    assert abs(rep.conclusions[0].bound - math.pi * (2 + SQ3) / 6) <= 1e-12


# --------------------------------------------------------------------- A5

def test_a5_majorant_dominates_and_diverges():
    chain = alpha_sequence(1.5, 50)
    xs = majorant_sequence(50)
    assert all(chain.values[k] < xs[k] for k in range(1, 51))

    xs200 = majorant_sequence(200)
    for k in range(1, 201):
        closed = majorant_closed_form(k)
        assert abs(xs200[k] - closed) <= 1e-12 * abs(closed)

    checkpoints = [harmonic_lower_bound(n) for n in (100, 1000, 10000)]
    assert checkpoints[0] < checkpoints[1] < checkpoints[2]
    for n, lower in zip((100, 1000, 10000), checkpoints):
        assert lower < log_majorant_product(n)


# --------------------------------------------------------------------- A6

def test_a6_boundary_probe_oracle():
    q = PowerSeries(0, np.array([1.0, 1.0]))
    gamma = 2.0 * math.asin(0.6) / math.pi
    t0 = time.perf_counter()
    rep = lemma1_probe(q, gamma)
    assert time.perf_counter() - t0 < 1.0

    assert abs(rep.ratio - 0.75j) <= 1e-6
    assert abs(rep.a_est - 0.580) <= 1e-3
    assert rep.k_est >= 1.0
    assert rep.k_est >= (rep.a_est + 1.0 / rep.a_est) / 2.0
    # closed form at the touching point: k = (pi/2)(3/4)/asin(0.6)
    assert abs(rep.k_est - (3.0 * math.pi / 8.0) / math.asin(0.6)) <= 1e-4


@pytest.mark.xfail(
    strict=True,
    reason="anchor 1.8306 contradicts the closed form (3pi/8)/asin(0.6) = "
    "1.83076..., which sits 1.6e-4 away; the window is 1e-4",
)
def test_a6_literal_anchor():
    q = PowerSeries(0, np.array([1.0, 1.0]))
    rep = lemma1_probe(q, 2.0 * math.asin(0.6) / math.pi)
    assert abs(rep.k_est - 1.8306) <= 1e-4


# --------------------------------------------------------------------- A7

A7_CONFIGS = [
    ("T1", {"p": 2, "alpha1": 0.3}, 101),
    ("T1", {"p": 2, "alpha1": 0.5}, 102),
    ("T1", {"p": 2, "alpha1": 1.0}, 103),
    ("C1", {"p": 2}, 201),
    ("C1", {"p": 3}, 202),
    ("C2", {"p": 2}, 301),
    ("T3", {"p": 3, "alpha0": 0.8}, 401),
    ("T3", {"p": 3, "alpha0": 1.0}, 402),
    ("T3", {"p": 3, "alpha0": 1.5}, 403),
    ("T4", {"p": 5, "alpha0": 1.0}, 501),
    ("T5", {"s": 2, "delta": 0.3}, 601),
    ("T5", {"s": 2, "delta": SQ3 / 3}, 602),
]

_a7_elapsed: dict = {}


@pytest.mark.parametrize("tid,params,seed", A7_CONFIGS, ids=lambda v: str(v))
def test_a7_no_counterexamples(tid, params, seed):
    t0 = time.perf_counter()
    rep = counterexample_scan(tid, trials=200, seed=seed, N=16, **params)
    _a7_elapsed[(tid, seed)] = time.perf_counter() - t0
    assert rep.counts["FAIL"] == 0
    assert len(rep.verdicts) == 200
    assert rep.worst_margin > 0


def test_a7_total_runtime_under_two_minutes():
    assert len(_a7_elapsed) == len(A7_CONFIGS)
    assert sum(_a7_elapsed.values()) < 120.0


# --------------------------------------------------------------------- A8

@pytest.mark.parametrize("c", [0.25, 0.5])
def test_a8_closed_form_sup_oracle(c):
    f = make_series(1, [c])
    exact = math.asin(c * 0.9)
    coarse = sup_arg(f, 1, DiskGrid(r_max=0.9)).sup_abs_arg
    fine = sup_arg(f, 1, DiskGrid(r_max=0.9, n_angular=2048)).sup_abs_arg
    assert abs(coarse - exact) <= 2e-3
    assert abs(fine - exact) <= 2e-4
    assert fine >= coarse  # quadrupling angles only adds sample points


# --------------------------------------------------------------------- A9

@pytest.mark.parametrize("tid,seed", [("L2", 902), ("L3", 903)])
def test_a9_derivative_chain_conditions(tid, seed):
    rep = counterexample_scan(tid, trials=100, seed=seed, p=3, N=16)
    assert len(rep.verdicts) == 100
    assert rep.counts["FAIL"] == 0
    # every lower-order condition at every grid point, no violation beyond slack
    assert rep.worst_margin >= -1e-9
