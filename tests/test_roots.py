import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from argstar import (
    AlphaSequence,
    BracketInvalid,
    NoConvergence,
    alpha_next,
    alpha_sequence,
    bisect_increasing,
    harmonic_lower_bound,
    itp_increasing,
    log_majorant_product,
    majorant_closed_form,
    majorant_sequence,
    sigma_index,
    solve_delta_max,
    solve_gamma0,
)
from argstar.roots import ABS_TOL

# Reference values solved independently with bracket tolerance 1e-15.
GAMMA0 = 0.38344860277069026
DELTA_MAX = 0.7876372941648637
CHAIN_15 = (1.5, 1.0, 0.7668972055413801, 0.6342569348175938, 0.5476364204831818, 0.485956272464084)
CHAIN_10 = (1.0, 0.6383222623342948, 0.48643447944314383, 0.40169596977623245, 0.34666071565072176, 0.30755133714922456)


def test_bisect_sqrt2():
    x = bisect_increasing(lambda t: t * t - 2.0, 1.0, 2.0)
    assert abs(x - math.sqrt(2)) <= 1e-12


def test_bisect_identity():
    assert abs(bisect_increasing(lambda t: t, -1.0, 1.0)) <= 1e-12


def test_bisect_gamma0_equation():
    x = bisect_increasing(lambda g: 2 * g + (2 / math.pi) * math.atan(g) - 1.0, 0.0, 1.0)
    assert abs(x - GAMMA0) <= 1e-12


def test_bisect_bad_bracket():
    with pytest.raises(BracketInvalid):
        bisect_increasing(lambda t: t, 1.0, 2.0)
    with pytest.raises(BracketInvalid):
        bisect_increasing(lambda t: t, 1.0, -1.0)


def test_bisect_stops_once_bracket_is_abs_tol_wide():
    # 2**-40 < ABS_TOL = 1e-12 < 2**-39: a unit bracket takes 40 halvings, after the 2 endpoint checks
    calls = []

    def g(t):
        calls.append(t)
        return t - 1.0 / 3.0

    x = bisect_increasing(g, 0.0, 1.0)
    assert len(calls) == 2 + 40
    assert abs(x - 1.0 / 3.0) <= 0.5 * 2.0 ** -40


def test_solvers_stop_on_an_exhausted_float_bracket():
    # floats near 1e16 are 2 apart: once the bracket is two neighbours wide its
    # midpoint rounds onto an end, though the bracket is far wider than ABS_TOL
    def g(x):
        return x - 1e16 - 1

    lo, hi = 1e16, 1e16 + 4
    assert bisect_increasing(g, lo, hi) == 1e16
    assert itp_increasing(g, lo, hi, g(lo), g(hi)) == (1e16, 1e16 + 2)


def test_bisect_no_convergence_reports_bracket():
    # 200 halvings of a bracket 1e100 wide leave it about 6e39 wide
    with pytest.raises(NoConvergence) as exc:
        bisect_increasing(lambda t: t * t - 2.0, 1.0, 1e100)
    lo, hi = exc.value.bracket
    assert exc.value.iterations == 200
    assert lo < math.sqrt(2) < hi
    assert hi - lo == pytest.approx(1e100 * 2.0 ** -200)


def _itp(g, lo, hi):
    """(bracket, evaluations) of itp_increasing, given the two known ends."""
    calls = []

    def counted(t):
        calls.append(t)
        return g(t)

    return itp_increasing(counted, lo, hi, g(lo), g(hi)), len(calls)


def _step(t):
    return -1.0 if t < 0.5 else 1.0


@pytest.mark.parametrize("g,lo,hi,root", [
    (lambda t: t - 1.0 / 3.0, 0.0, 1.0, 1.0 / 3.0),
    (lambda t: t * t - 2.0, 1.0, 2.0, math.sqrt(2.0)),
    (_step, 0.0, 1.0, 0.5),
])
def test_itp_brackets_root_within_one_step_of_bisection(g, lo, hi, root):
    (a, b), evals = _itp(g, lo, hi)
    assert b - a <= ABS_TOL
    assert a <= root <= b
    assert g(a) < 0.0 <= g(b)
    assert evals <= math.ceil(math.log2((hi - lo) / ABS_TOL)) + 1


def test_itp_converges_fast_on_smooth_functions():
    # interpolation pays off on the smooth cases, against 40 halvings
    assert _itp(lambda t: t - 1.0 / 3.0, 0.0, 1.0)[1] <= 12
    assert _itp(lambda t: t * t - 2.0, 1.0, 2.0)[1] <= 12


def test_itp_zero_counts_as_positive():
    # g is 0 on [0.5, 1]: the bracket closes on the first point that reaches 0
    (a, b), _ = _itp(lambda t: min(t - 0.5, 0.0), 0.0, 1.0)
    assert a < 0.5 <= b and b - a <= ABS_TOL
    # a zero at the upper end is a valid bracket end
    (a, b), _ = _itp(lambda t: t - 1.0, 0.0, 1.0)
    assert b == 1.0 and b - a <= ABS_TOL


def test_itp_bad_bracket():
    with pytest.raises(BracketInvalid):
        itp_increasing(lambda t: t, 1.0, 2.0, 1.0, 2.0)
    with pytest.raises(BracketInvalid):
        itp_increasing(lambda t: t, 1.0, -1.0, 1.0, -1.0)
    with pytest.raises(BracketInvalid):
        itp_increasing(lambda t: t, 0.0, 1.0, 0.0, 1.0)  # g(lo) = 0 is not below the root


def test_itp_no_convergence_reports_bracket():
    with pytest.raises(NoConvergence) as exc:
        itp_increasing(lambda t: t * t - 2.0, 1.0, 1e100, -1.0, 1e200)
    lo, hi = exc.value.bracket
    assert exc.value.iterations == 200
    assert lo < math.sqrt(2) < hi


def test_gamma0():
    root, composite = solve_gamma0()
    assert abs(root - GAMMA0) <= 1e-12
    assert f"{root:.3f}"[:5] == "0.383"
    assert composite == pytest.approx(0.6165513972293106, abs=1e-11)
    assert abs(2 * root + (2 / math.pi) * math.atan(root) - 1.0) <= 1e-11


def test_delta_max():
    root, bound = solve_delta_max()
    assert abs(root - DELTA_MAX) <= 1e-12
    assert bound == pytest.approx(1.2123627058351358, abs=1e-11)
    # 2d + (2/pi)atan(d) = 2 rearranges to d + (2/pi)atan(d) = 2 - d
    assert bound == pytest.approx(2.0 - root, abs=1e-11)
    assert abs(2 * root + (2 / math.pi) * math.atan(root) - 2.0) <= 1e-11


def test_alpha_next_first_step_is_analytic():
    # 1 + (2/pi)atan(1) = 1 + 1/2 = 3/2 exactly
    assert abs(alpha_next(1, 1.5) - 1.0) <= 1e-12
    assert abs(alpha_next(2, 1.0) - 0.7668972055413801) <= 1e-12


def test_alpha_next_equals_doubled_gamma0():
    # a + (2/pi)atan(a/2) = 1 substitutes a = 2g into 2g + (2/pi)atan(g) = 1
    assert abs(alpha_next(2, 1.0) - 2 * solve_gamma0()[0]) <= 1e-11


def test_alpha_next_rejects_degenerate():
    with pytest.raises(ValueError):
        alpha_next(5, 0.0)
    with pytest.raises(ValueError):
        alpha_next(0, 1.0)


@pytest.mark.parametrize("alpha0,expected", [(1.5, CHAIN_15), (1.0, CHAIN_10)])
def test_alpha_sequence_values(alpha0, expected):
    seq = alpha_sequence(alpha0, 5)
    assert seq.alpha0 == alpha0
    assert len(seq.values) == 6
    for got, want in zip(seq.values, expected):
        assert abs(got - want) <= 1e-11
    assert seq.residuals[0] == 0.0
    assert all(r <= 1e-11 for r in seq.residuals)


def test_alpha_sequence_solved_once():
    first = alpha_sequence(1.0, 5)
    again = alpha_sequence(1.0, 5)
    assert again is first
    assert again.values == first.values and again.residuals == first.residuals
    assert solve_gamma0() is solve_gamma0()
    assert solve_delta_max() is solve_delta_max()


def test_alpha_sequence_empty_chain():
    seq = alpha_sequence(1.5, 0)
    assert seq.values == (1.5,)
    assert seq.residuals == (0.0,)


def test_alpha_sequence_domain():
    with pytest.raises(ValueError):
        alpha_sequence(0.0, 3)
    with pytest.raises(ValueError):
        alpha_sequence(1.6, 3)


@given(alpha0=st.floats(0.01, 1.5), n=st.integers(0, 12))
def test_alpha_sequence_decreasing_positive(alpha0, n):
    seq = alpha_sequence(alpha0, n)
    assert all(v > 0 for v in seq.values)
    assert all(b < a for a, b in zip(seq.values, seq.values[1:]))
    assert all(r <= 1e-11 for r in seq.residuals)


def test_sigma_index():
    assert sigma_index(alpha_sequence(1.5, 6).values) == 6
    assert sigma_index(alpha_sequence(1.0, 5).values) == 3
    assert sigma_index(alpha_sequence(1.5, 5).values) is None
    assert sigma_index((1.5,)) is None


def test_majorant_start_and_closed_form():
    xs = majorant_sequence(1)
    assert xs[0] == 2.0
    assert xs[1] == pytest.approx(2 * math.pi / (math.pi + 1), abs=1e-15)
    assert majorant_closed_form(1) == pytest.approx(xs[1], abs=1e-15)


def test_majorant_decreasing_positive():
    xs = majorant_sequence(200)
    assert all(x > 0 for x in xs)
    assert all(b < a for a, b in zip(xs, xs[1:]))


def test_majorant_matches_closed_form_to_200():
    xs = majorant_sequence(200)
    for k in range(201):
        assert abs(xs[k] - majorant_closed_form(k)) <= 1e-12 * xs[k]


def test_majorant_dominates_alpha_chain():
    seq = alpha_sequence(1.5, 50)
    xs = majorant_sequence(50)
    for k in range(1, 51):
        assert seq.values[k] < xs[k]


def test_divergence_surrogate_checkpoints():
    sums = [harmonic_lower_bound(n) for n in (100, 1000, 10000)]
    assert sums[0] < sums[1] < sums[2]
    for n, s in zip((100, 1000, 10000), sums):
        # log x > (x-1)/x termwise makes the log-product dominate the sum
        assert log_majorant_product(n) > s - 1e-9


@pytest.mark.parametrize("table", [majorant_sequence, harmonic_lower_bound])
def test_majorant_tables_reject_negative_n(table):
    with pytest.raises(ValueError, match=r"^n must be >= 0$"):
        table(-1)


def test_alpha_sequence_is_frozen():
    seq = alpha_sequence(1.0, 2)
    assert isinstance(seq, AlphaSequence)
    with pytest.raises(AttributeError):
        seq.alpha0 = 2.0
