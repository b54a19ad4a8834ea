import argparse
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import argstar.cli as cli
from argstar import PowerSeries, check_theorem, make_series, sample_hypothesis_function, verify
from argstar.cli import (
    FunctionFileError,
    emit_heatmap,
    parse_function_file,
    run,
    series_to_spec,
)
from argstar.verify import (
    DiskGrid,
    Lemma1Report,
    NonFiniteValue,
    ScanReport,
    VerificationReport,
    _smallest_root_in_disk,
    counterexample_scan,
    lemma1_probe,
)

import cli_corpus  # tests/cli_corpus.py, the golden corpus


def _reject_constant(name):
    raise AssertionError(f"report JSON holds the non-finite constant {name}")


@pytest.fixture(autouse=True)
def strict_json_reports(monkeypatch):
    """Every JSON report rendered in these tests must parse without Infinity or NaN."""
    render = cli._render

    def strict(env, fmt):
        text = render(env, fmt)
        if fmt == "json":
            json.loads(text, parse_constant=_reject_constant)
        return text

    monkeypatch.setattr(cli, "_render", strict)


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def mono2(tmp_path):
    return write_spec(tmp_path, "mono2.json", {"p": 2, "coefficients": [], "truncation": 1})


@pytest.fixture
def lin(tmp_path):
    return write_spec(tmp_path, "lin.json", {"p": 1, "coefficients": [[0.25, 0]], "truncation": 2})


@pytest.fixture
def probe(tmp_path):
    return write_spec(tmp_path, "probe.json", {"p": 0, "coefficients": [[1.0, 0]], "truncation": 2})


# ------------------------------------------------------------- function files

def test_parse_monomial(mono2):
    f, meta = parse_function_file(mono2)
    assert f == make_series(2, [])
    assert meta == {}


def test_parse_tail(lin):
    f, _ = parse_function_file(lin)
    assert f.order_p == 1
    assert list(f.coeffs) == [1.0, 0.25]


def test_parse_gap_forces_zero(tmp_path):
    # gap_index 4 zeroes the z^3 slot even when the file says otherwise
    path = write_spec(tmp_path, "g.json", {"p": 2, "coefficients": [[0.9, 0.9], [0.2, 0]], "gap_index": 4})
    f, meta = parse_function_file(path)
    assert f.coeffs[1] == 0
    assert f.coeffs[2] == 0.2
    assert meta == {"gap_index": 4}


def test_parse_gap_below_order_is_noop(tmp_path):
    path = write_spec(tmp_path, "g.json", {"p": 2, "coefficients": [[0.4, 0]], "gap_index": 2})
    f, meta = parse_function_file(path)
    assert list(f.coeffs) == [1.0, 0.4]
    assert meta["gap_index"] == 2


def test_parse_probe_input(probe):
    q, _ = parse_function_file(probe)
    assert q.order_p == 0
    assert list(q.coeffs) == [1.0, 1.0]


@pytest.mark.parametrize(
    "payload",
    [
        {"coefficients": []},                                    # p missing
        {"p": -1, "coefficients": []},
        {"p": True, "coefficients": []},
        {"p": 1.5, "coefficients": []},
        {"p": 1},                                                # coefficients missing
        {"p": 1, "coefficients": [[0.1]]},
        {"p": 1, "coefficients": [0.1]},
        {"p": 1, "coefficients": [["a", 0]]},
        {"p": 1, "coefficients": [[0.5, 0]], "truncation": 3},   # mismatch
        {"p": 1, "coefficients": [], "truncation": True},
        {"p": 1, "coefficients": [], "gap_index": 1},
        {"p": 1, "coefficients": [[0.5, 0]], "gap_index": 2},    # would zero leading z^1
        {"p": 1, "coefficients": [], "extra": 1},
    ],
)
def test_parse_rejections(tmp_path, payload):
    path = write_spec(tmp_path, "bad.json", payload)
    with pytest.raises(FunctionFileError):
        parse_function_file(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(FunctionFileError):
        parse_function_file(tmp_path / "nope.json")


def test_parse_invalid_json_names_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 1,\n  "coefficients": [}')
    with pytest.raises(FunctionFileError, match="line 2"):
        parse_function_file(path)


def test_parse_nonfinite_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"p": 1, "coefficients": [[1e999, 0]]}')
    with pytest.raises(FunctionFileError):
        parse_function_file(path)


def test_spec_round_trip_is_identity(tmp_path):
    payload = {"p": 3, "coefficients": [[0.4, 0.0], [-0.125, 0.3]]}
    path = write_spec(tmp_path, "rt.json", payload)
    f, meta = parse_function_file(path)
    assert series_to_spec(f) == payload  # bit-exact, including 0.4
    # a truncation in the file is checked on input and not written back
    path = write_spec(tmp_path, "rt_truncation.json", dict(payload, truncation=3))
    assert series_to_spec(parse_function_file(path)[0]) == payload


def test_spec_round_trip_keeps_the_gap_index(tmp_path):
    # the gap index comes back from the file's meta; the zeroed coefficient is in the list
    payload = {"p": 1, "coefficients": [[0.0, 0.0], [0.2, 0.0]], "gap_index": 3}
    f, meta = parse_function_file(write_spec(tmp_path, "gap.json", payload))
    assert series_to_spec(f, gap_index=meta["gap_index"]) == payload


def test_spec_serialization_requires_unit_leading():
    with pytest.raises(ValueError):
        series_to_spec(PowerSeries(1, np.array([2.0, 0.5])))


WORST_FUNCTION_SCANS = [
    ("T1", {"p": 2, "alpha1": 0.5}),
    ("C1", {"p": 3}),
    ("C2", {"p": 2}),
    ("T3", {"p": 3, "alpha0": 1.0}),
    ("T4", {"p": 5, "alpha0": 1.0}),
    ("T5", {"s": 2, "delta": 0.3}),
    ("L2", {"p": 3}),
    ("L3", {"p": 3}),
]


# each scan above at 200 draws and seeds 1 and 11, and seven at p = 3, 50 draws and seed 1
_ROUND_TRIPS = [pytest.param(tid, params, 200, seed, id=f"{tid}-{seed}")
                for seed in (1, 11) for tid, params in WORST_FUNCTION_SCANS]
_ROUND_TRIPS += [pytest.param(tid, {"p": 3, **params}, 50, 1, id=f"{tid}-1-p3-50")
                 for tid, params in [("T1", {"alpha1": 0.5}), ("C1", {}), ("C2", {}), ("T3", {"alpha0": 1.0}),
                                     ("T4", {"alpha0": 1.0}), ("L2", {}), ("L3", {})]]


def _flags(params):
    return [a for k, v in params.items() for a in (f"--{k}", str(v))]


@pytest.mark.parametrize("tid,params,trials,seed", _ROUND_TRIPS)
def test_worst_function_spec_reproduces_worst_margin(tmp_path, capsys, tid, params, trials, seed):
    # the scan's worst draw, as its JSON report gives it, written as a spec file
    # and verified on its own, gives back the scan's worst margin bit for bit,
    # in its worst_label conclusion, the least of its margins
    assert run(["scan", "--theorem", tid, "--trials", str(trials), "--seed", str(seed), *_flags(params)]) == 0
    scan = json.loads(capsys.readouterr().out)["result"]
    path = write_spec(tmp_path, "worst.json", scan["worst_function"])
    flags = _flags({k: v for k, v in params.items() if k != "p"})
    assert run(["verify", "--theorem", tid, "--function", path, *flags]) == 0
    margins = [(c["label"], c["margin"]) for c in json.loads(capsys.readouterr().out)["result"]["conclusions"]]
    assert [repr(m) for label, m in margins if label == scan["worst_label"]] == [repr(scan["worst_margin"])]
    assert min(m for _, m in margins) == scan["worst_margin"]


# ----------------------------------------------------------------- exit codes

def test_exit_0_informational(capsys):
    assert run(["gamma0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["gamma0"] == pytest.approx(0.3834486, abs=1e-6)


def test_exit_0_verify_pass(mono2, capsys):
    assert run(["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["verdict"] == "PASS"
    assert payload["result"]["hypothesis_sup"] == 0.0


def test_exit_0_hypothesis_not_satisfied(tmp_path, capsys):
    # wide second derivative: not a counterexample, just out of scope -> 0
    path = write_spec(tmp_path, "wide.json", {"p": 2, "coefficients": [[0.95, 0]]})
    assert run(["verify", "--theorem", "c2", "--function", path]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "HYPOTHESIS_NOT_SATISFIED"


def test_exit_1_on_fail_verdict(mono2, monkeypatch, capsys):
    real = check_theorem(
        "T1", make_series(2, []), DiskGrid(n_radial=4, n_angular=8), alpha1=1.0
    )
    forced = dataclasses.replace(real, verdict="FAIL")
    monkeypatch.setattr(cli, "check_theorem", lambda *a, **k: forced)
    assert run(["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "FAIL"


def test_exit_1_on_scan_fail(monkeypatch, capsys):
    real = cli.counterexample_scan(
        "T1", trials=1, seed=1, p=1, grid=DiskGrid(n_radial=4, n_angular=8), alpha1=0.5, N=4
    )
    forced = dataclasses.replace(real, counts={"PASS": 0, "FAIL": 1, "HYPOTHESIS_NOT_SATISFIED": 0})
    monkeypatch.setattr(cli, "counterexample_scan", lambda *a, **k: forced)
    assert run(["scan", "--theorem", "t1", "--trials", "1", "--seed", "1", "--p", "1", "--alpha1", "0.5"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nope"],
        ["verify", "--theorem", "t1"],                       # --function missing
        ["alpha", "--alpha0", "1.0"],                        # --count missing
        ["scan", "--theorem", "t1", "--trials", "2", "--seed", "1", "--p", "2"],  # alpha1 missing
        ["alpha", "--alpha0", "2.5", "--count", "3"],        # out of (0, 3/2]
        ["alpha", "--alpha0", "1.0", "--count", "-1"],
        ["scan", "--theorem", "t1", "--trials", "0", "--seed", "1", "--p", "2", "--alpha1", "0.5"],
    ],
)
def test_exit_2_usage(argv, capsys):
    assert run(argv) == 2


def test_exit_2_bad_grid_spec(mono2, tmp_path):
    out = str(tmp_path / "hm.csv")
    for spec in ("64", "0x8"):
        assert run(["heatmap", "--function", mono2, "--quantity", "arg-fp", "--grid", spec, "--out", out]) == 2
    assert run(["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0", "--points", "0"]) == 2


@pytest.mark.parametrize("command", ["verify", "scan", "lemma1"])
def test_checks_read_one_ring(command, mono2, probe, capsys):
    # verify, scan and lemma1 take --points; the report's grid is the ring
    # (r_max, n_angular), and the report that of any grid with that ring
    argv = {
        "verify": ["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "0.5"],
        "scan": ["scan", "--theorem", "t4", "--p", "3", "--alpha0", "1.0", "--trials", "20", "--seed", "1"],
        "lemma1": ["lemma1", "--function", probe, "--gamma", "0.3"],
    }[command]
    assert run([*argv, "--rmax", "0.9", "--points", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["grid"] == {"r_max": 0.9, "n_angular": 64}
    grid = DiskGrid(r_max=0.9, n_radial=7, n_angular=64)
    want = {
        "verify": lambda: check_theorem("T1", make_series(2, []), grid, alpha1=0.5),
        "scan": lambda: counterexample_scan("T4", 20, 1, p=3, grid=grid, alpha0=1.0),
        "lemma1": lambda: lemma1_probe(PowerSeries(0, [1.0, 1.0]), 0.3, grid),
    }[command]()
    assert payload["result"] == json.loads(json.dumps(cli._payload(want)))
    assert run([*argv, "--points", "64", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("grid.")] == ["grid.r_max,0.995", "grid.n_angular,64"]
    # the old disk-grid flag is an unknown argument, as argparse reports it
    assert run([*argv, "--grid", "8x16"]) == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --grid 8x16\n")


def test_exit_2_t5_gap_violation(lin, capsys):
    # z + 0.25 z^2 has a_1 = 1 != 0, not a valid gap input for s=2
    assert run(["verify", "--theorem", "t5", "--function", lin, "--delta", "0.3", "--s", "2"]) == 2


def test_exit_2_t5_scan_rejects_p(capsys):
    # T5 draws gap series of order s, so a p would be ignored
    assert run(["scan", "--theorem", "t5", "--s", "2", "--delta", "0.3", "--p", "7", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "T5 does not take parameter p" in captured.err


_ALPHA1 = "alpha1 must lie in (0, 1]"
_ALPHA0 = "alpha0 must lie in (0, 3/2]"
_DELTA = "delta must satisfy delta > 0 and 2 delta + (2/pi)atan(delta) < 2"
_S = "s must be an integer >= 2"

# (theorem, flags, the one stderr line) of verify and scan alike; scan adds
# --p 2 except for t5, whose series have order s, and q7, which is no id
_ID_AND_PARAM_ERRORS = [
    ("q7", [], "unknown theorem id 'Q7'"),
    ("q7", ["--alpha1", "5"], "unknown theorem id 'Q7'"),
    ("t1", [], "T1 requires parameter alpha1"),
    ("t3", [], "T3 requires parameter alpha0"),
    ("t4", [], "T4 requires parameter alpha0"),
    ("t5", ["--s", "2"], "T5 requires parameter delta"),
    ("t5", ["--delta", "0.3"], "T5 requires parameter s"),
    ("t5", [], "T5 requires parameter delta"),
    ("c1", ["--alpha1", "0.5"], "C1 does not take parameter alpha1"),
    ("c2", ["--alpha0", "1.0"], "C2 does not take parameter alpha0"),
    ("l2", ["--delta", "0.3"], "L2 does not take parameter delta"),
    ("l3", ["--s", "2"], "L3 does not take parameter s"),
    ("t1", ["--alpha1", "0.5", "--alpha0", "1.0"], "T1 does not take parameter alpha0"),
    ("t5", ["--alpha1", "0.5", "--delta", "0.3", "--s", "2"], "T5 does not take parameter alpha1"),
    # every presence check, in the order alpha1, alpha0, delta, s, before any range
    ("t3", ["--alpha1", "0.5"], "T3 does not take parameter alpha1"),
    ("t1", ["--alpha1", "5", "--delta", "0.3"], "T1 does not take parameter delta"),
    ("t5", ["--alpha0", "9", "--delta", "9"], "T5 does not take parameter alpha0"),
    ("t5", ["--delta", "9"], "T5 requires parameter s"),
    ("t1", ["--alpha1", "0"], _ALPHA1),
    ("t1", ["--alpha1", "1.5"], _ALPHA1),
    ("t1", ["--alpha1", "nan"], _ALPHA1),
    ("t3", ["--alpha0", "0"], _ALPHA0),
    ("t4", ["--alpha0", "2"], _ALPHA0),
    ("t3", ["--alpha0", "nan"], _ALPHA0),
    ("t5", ["--delta", "0", "--s", "2"], _DELTA),
    ("t5", ["--delta", "0.9", "--s", "2"], _DELTA),
    ("t5", ["--delta", "nan", "--s", "2"], _DELTA),
    ("t5", ["--delta", "0.3", "--s", "1"], _S),
    ("t5", ["--delta", "5", "--s", "1"], _DELTA),  # delta is checked first
]
_SCAN_ONLY_ERRORS = [
    ("t1", ["--alpha1", "0.5"], "T1 scan requires p >= 1"),
    ("c1", ["--p", "0"], "C1 scan requires p >= 1"),
]
_ERROR_CASES = [
    *[("verify", theorem, flags, message) for theorem, flags, message in _ID_AND_PARAM_ERRORS],
    *[("scan", theorem, flags if theorem in ("t5", "q7") else ["--p", "2", *flags], message)
      for theorem, flags, message in _ID_AND_PARAM_ERRORS],
    *[("scan", *case) for case in _SCAN_ONLY_ERRORS],
]


@pytest.mark.parametrize(
    "command,theorem,flags,message", _ERROR_CASES, ids=[f"{c[0]}-{c[1]}-{' '.join(c[2])}" for c in _ERROR_CASES]
)
def test_exit_2_id_and_parameter_errors(command, theorem, flags, message, mono2, capsys):
    inputs = ["--function", mono2] if command == "verify" else ["--seed", "1", "--trials", "2"]
    assert run([command, "--theorem", theorem, *inputs, *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"argstar: {message}\n")


@pytest.mark.parametrize("command", ["verify", "lemma1", "gamma0"])
def test_exit_2_flag_prefix(command, tmp_path, probe, capsys):
    # each subcommand flag has one spelling: a prefix, which argparse would
    # otherwise read as the flag it begins (--p as --points, --o as --out),
    # is an unrecognized argument, and no report is written
    f = write_spec(tmp_path, "f.json", {"p": 2, "coefficients": [[0.3, 0.0]]})
    out = tmp_path / "F"
    argv, prefix = {
        "verify": (["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", f], ["--p", "3"]),
        "lemma1": (["lemma1", "--function", probe, "--gamma", "0.3"], ["--p", "3"]),
        "gamma0": (["gamma0"], ["--o", str(out)]),
    }[command]
    assert run([*argv, *prefix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(prefix)}\n")
    assert not out.exists()


@pytest.mark.parametrize("spelling", [["--out", "{out}"], ["--out={out}"]], ids=["separate", "joined"])
def test_out_is_left_out_of_the_echo(spelling, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["gamma0", *(a.format(out=out) for a in spelling)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == ["gamma0"]


@pytest.mark.parametrize("command,flags,known,message", [
    ("verify", ["--function", "{q}"], ["--alpha1", "0.5"], "f must have order_p >= 1"),  # a file of p = 0
    ("scan", ["--seed", "1", "--trials", "0"], ["--alpha1", "0.5", "--p", "2"], "trials must be >= 1"),
    ("scan", ["--seed", "1", "--ncoeffs", "1"], ["--alpha1", "0.5", "--p", "2"], "N must be >= 2"),
], ids=["verify-p0", "scan-trials0", "scan-ncoeffs1"])
def test_exit_2_unknown_id_first(command, flags, known, message, probe, capsys):
    # an unknown id is named before the other error, which a known id still reports
    argv = [a.format(q=probe) for a in flags]
    assert run([command, "--theorem", "q7", *argv]) == 2
    assert capsys.readouterr() == ("", "argstar: unknown theorem id 'Q7'\n")
    assert run([command, "--theorem", "t1", *argv, *known]) == 2
    assert capsys.readouterr() == ("", f"argstar: {message}\n")


@pytest.mark.parametrize("command", ["verify", "scan", "lemma1"])
def test_exit_2_points_below_one_names_n_angular(command, mono2, probe, capsys):
    argv = {
        "verify": ["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "0.5"],
        "scan": ["scan", "--theorem", "t4", "--p", "3", "--alpha0", "1.0", "--trials", "2", "--seed", "1"],
        "lemma1": ["lemma1", "--function", probe, "--gamma", "0.3"],
    }[command]
    for points in ("0", "-3"):
        assert run([*argv, "--points", points]) == 2
        assert capsys.readouterr() == ("", "argstar: n_angular must be >= 1\n")


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize("command", ["gamma0", "verify", "heatmap"])
def test_exit_2_unwritable_out(command, where, mono2, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json" if where == "missing" else tmp_path
    argv = {
        "gamma0": ["gamma0"],
        "verify": ["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0"],  # a PASS verdict
        "heatmap": ["heatmap", "--function", mono2, "--quantity", "arg-fp", "--grid", "2x4"],
    }[command]
    assert run([*argv, "--out", str(out)]) == 2
    reason = "No such file or directory" if where == "missing" else "Is a directory"
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"argstar: cannot write {out}: {reason}\n")


class _FullStdout(io.StringIO):
    """A stdout on a full disk: its write, or only its flush, raises ENOSPC."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", [["gamma0"], ["alpha", "--alpha0", "1.0", "--count", "30", "--format", "csv"]])
def test_exit_2_unwritable_stdout(argv, failing, monkeypatch, capsys):
    # a report that fails to reach stdout is named in one line, never a traceback
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    assert run(argv) == 2
    assert capsys.readouterr().err == "argstar: cannot write stdout: No space left on device\n"


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("target", ["full", "pipe"])
@pytest.mark.parametrize("argv", [["gamma0"], ["alpha", "--alpha0", "1.0", "--count", "3000", "--format", "csv"]])
def test_exit_2_unwritable_stdout_in_a_fresh_process(argv, target):
    # the interpreter flushes stdout once more at exit; that flush must neither
    # print a second error nor turn the exit status into 120
    if target == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        stdout, reason = os.open("/dev/full", os.O_WRONLY), "No space left on device"
    else:
        stdout, reason = _closed_pipe(), "Broken pipe"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    try:
        proc = subprocess.run([sys.executable, "-m", "argstar.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr.decode()) == (2, f"argstar: cannot write stdout: {reason}\n")


def test_exit_2_negative_seed_is_named(capsys):
    assert run(["scan", "--theorem", "t4", "--p", "3", "--alpha0", "1.0", "--trials", "20", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "argstar: seed must be an integer >= 0, got -1\n"


def test_exit_3_parse_errors(tmp_path):
    assert run(["verify", "--theorem", "t1", "--function", str(tmp_path / "nope.json"), "--alpha1", "1.0"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "--theorem", "t1", "--function", str(bad), "--alpha1", "1.0"]) == 3
    mismatch = write_spec(tmp_path, "m.json", {"p": 1, "coefficients": [[0.5, 0]], "truncation": 5})
    assert run(["verify", "--theorem", "t1", "--function", str(mismatch), "--alpha1", "1.0"]) == 3


def test_exit_3_top_level_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[2, [[0.3, 0.0]]]")
    assert run(["verify", "--theorem", "t1", "--function", str(path), "--alpha1", "1.0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"argstar: {path}: top level must be an object\n"


def test_exit_4_zero_on_grid(tmp_path, capsys):
    # f/z = 1 - 2z vanishes exactly on the r_max = 0.5 grid
    path = write_spec(tmp_path, "z.json", {"p": 1, "coefficients": [[-2.0, 0]]})
    out = tmp_path / "hm.csv"
    assert run(["heatmap", "--function", path, "--quantity", "arg-jst", "--rmax", "0.5", "--out", str(out)]) == 4
    assert "below tolerance" in capsys.readouterr().err


def test_exit_4_heatmap_arg_of_zero(tmp_path, capsys):
    # z - 2z^2: f' = 1 - 4z vanishes at the sample 0.25 and f/z = 1 - 2z at 0.5,
    # where their arguments are undefined; on the single ring |z| = 0.25 the
    # arg-jst numerator f' vanishes but its denominator f/z does not
    path = write_spec(tmp_path, "z.json", {"p": 1, "coefficients": [[-2.0, 0]]})
    out = tmp_path / "hm.csv"
    for quantity, rmax, grid, zero in (
        ("arg-fp", "0.5", "2x8", 0.25),
        ("arg-fp1-over-z", "0.5", "2x8", 0.5),
        ("arg-jst", "0.25", "1x8", 0.25),
    ):
        argv = ["heatmap", "--function", path, "--quantity", quantity, "--rmax", rmax, "--grid", grid]
        assert run(argv + ["--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "below tolerance" in err and f"at z = {complex(zero)} in {quantity}" in err
        assert not out.exists()


def test_exit_4_interior_pole(tmp_path, capsys):
    # z - 2z^2: the L2 denominator f/z = 1 - 2z has its root 0.5 inside the disk
    path = write_spec(tmp_path, "pole.json", {"p": 1, "coefficients": [[-2.0, 0]]})
    assert run(["verify", "--theorem", "l2", "--function", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "root" in captured.err


@pytest.mark.filterwarnings("error")
def test_exit_4_overflowing_derivative(tmp_path, capsys):
    # z^2 + 1e308 z^3 is finite, but its normalized f''/2! = 1 + 3e308 z is not
    path = write_spec(tmp_path, "big.json", {"p": 2, "coefficients": [[1e308, 0.0]]})
    # z + 1e308 z^2 is finite on the grid, its derivative 1 + 2e308 z is not
    wide = write_spec(tmp_path, "wide.json", {"p": 1, "coefficients": [[1e308, 0.0]]})
    # q = 1 + 1e308 z + 1e308 z^2 overflows first on the outer ring, where |q| is largest
    q = write_spec(tmp_path, "q.json", {"p": 0, "coefficients": [[1e308, 0.0], [1e308, 0.0]]})
    out = tmp_path / "hm.csv"
    # the message names the first non-finite sample: on the outer ring for
    # verify and lemma1, the first point of the whole grid for heatmap
    ring, disk = complex(DiskGrid().points[-1][0]), complex(DiskGrid().points[0, 0])
    for argv, where in (
        (["verify", "--theorem", "t1", "--function", path, "--alpha1", "1.0"], f"f^(2) is not finite at z = {ring}"),
        (["verify", "--theorem", "t1", "--function", wide, "--alpha1", "1.0"], f"f^(1) is not finite at z = {ring}"),
        (["lemma1", "--function", q, "--gamma", "0.5"], "f^(0) is not finite at z = (0.995+0j)"),
        (["heatmap", "--function", path, "--quantity", "re-ratio", "--out", str(out)],
         f"f^(2) is not finite at z = {disk}"),
        (["heatmap", "--function", wide, "--quantity", "arg-jst", "--out", str(out)],
         f"f^(1) is not finite at z = {disk}"),
    ):
        assert run(argv) == 4
        captured = capsys.readouterr()
        # no numpy RuntimeWarning ahead of the one line
        assert captured.err == f"argstar: numeric failure: {where} (float64 overflow)\n"
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("p", [170, 171, 200])
def test_scan_runs_past_factorial_overflow(p, capsys):
    # the draws are f's own coefficients and the derivatives are divided by
    # their leading falling factorials, so p! > 1.8e308 does not overflow
    assert run(["scan", "--theorem", "t1", "--p", str(p), "--alpha1", "0.5", "--trials", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    res = json.loads(captured.out)["result"]
    assert captured.err == ""
    assert res["counts"] == {"PASS": 3, "FAIL": 0, "HYPOTHESIS_NOT_SATISFIED": 0}
    assert res["worst_function"]["p"] == p and res["worst_margin"] > 0


def test_exit_4_c1_names_its_conclusion(capsys):
    # C1's Re(f^(p-1)/z) carries the lead perm(p, p-1) = p!, past float64 from p = 171;
    # the message names the conclusion, k = 0 of Re(f^(p-k-1)/z^(k+1))
    assert run(["scan", "--theorem", "c1", "--p", "171", "--trials", "10", "--seed", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "argstar: numeric failure: C1 k=0: f^(170) with its leading falling factorial multiplied back "
        "is not finite at z = (0.995+0j) (float64 overflow)\n"
    )


def test_exit_4_lemma1_zero_inside_crossing_radius(tmp_path, capsys):
    # q = 1 + 2z reaches the level 3pi/4 only as its zero at -1/2 enters the disk, at r0 = 0.5
    path = write_spec(tmp_path, "q.json", {"p": 0, "coefficients": [[2.0, 0.0]]})
    assert run(["lemma1", "--function", path, "--gamma", "1.5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    head = "numeric failure: q has a root in |z| <= r0 = "
    assert head in captured.err
    assert float(captured.err.split(head)[1].split()[0]) == pytest.approx(0.5, abs=1e-9)
    assert f"at z = {complex(-0.5)} in lemma1 probe" in captured.err


@pytest.mark.filterwarnings("error")
def test_exit_4_zero_on_a_tiny_ring(tmp_path, capsys):
    # at r_max = 1e-200 the z-power of the T5 conclusion's numerator
    # underflows: no coefficient bound clears it, and its samples are zeros
    path = write_spec(tmp_path, "gap4.json", {"p": 1, "coefficients": [[0, 0], [0, 0], [0.2, 0]], "gap_index": 4})
    assert run(["verify", "--theorem", "t5", "--delta", "0.5", "--function", path, "--rmax", "1e-200"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("argstar: numeric failure: |value| = 0.000e+00 below tolerance 1e-13 "
                            "at z = (1e-200+0j) in T5 conclusion\n")


@pytest.mark.filterwarnings("error")
def test_exit_4_companion_overflow(tmp_path, capsys):
    # f' = 1 + 4z + 3e-310 z^2 and q = 1 + 2z + 1e-310 z^2 are not dominant on
    # their disks, and dividing by the tiny leading coefficient overflows; the
    # negligible z^2 term is dropped and the root of the linear rest is found,
    # with no numpy warning
    f = write_spec(tmp_path, "f.json", {"p": 1, "coefficients": [[2.0, 0.0], [1e-310, 0.0]]})
    q = write_spec(tmp_path, "q.json", {"p": 0, "coefficients": [[2.0, 0.0], [1e-310, 0.0]]})
    assert run(["verify", "--theorem", "t1", "--function", f, "--alpha1", "0.5"]) == 0
    captured = capsys.readouterr()
    res = json.loads(captured.out)["result"]
    assert captured.err == ""
    assert res["verdict"] == "HYPOTHESIS_NOT_SATISFIED"
    assert res["hypothesis_sup"] == math.pi and res["witnesses"] == [[-0.25, 0.0]]
    assert run(["lemma1", "--function", q, "--gamma", "1.5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "argstar: numeric failure: q has a root in |z| <= r0 = 0.5000000000002751 "
        "at z = (-0.5+0j) in lemma1 probe\n"
    )
    # the weights |c_j| r^j are each finite, but their sum overflows
    with pytest.raises(NonFiniteValue, match=r"^companion row -c_j/c_3 of a degree-3 polynomial is not finite "
                       r"\(c_3 = \(1e-310\+0j\), float64 overflow\)$"):
        _smallest_root_in_disk(np.array([1, 1e308, 1e308, 1e-310], dtype=complex), 0.995)


def test_exit_4_any_linalg_error(mono2, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

    monkeypatch.setattr(cli, "check_theorem", singular)
    assert run(["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "argstar: numeric failure: Array must not contain infs or NaNs\n"


@pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
def test_exit_2_lemma1_nonfinite_gamma(probe, gamma, capsys):
    assert run(["lemma1", "--function", probe, f"--gamma={gamma}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "argstar: gamma must be finite and > 0\n"


@pytest.mark.parametrize("coefficients", [[[1.0, 0.0]], [[0.3, 0.4], [0.1, -0.2]]])
@pytest.mark.parametrize("gamma", ["1e-17", "1e-100", "1e-200", "1e-310", "5e-324"])
def test_exit_4_lemma1_tiny_gamma(tmp_path, coefficients, gamma, capsys):
    # the level is reached within 1e-12 of z = 0, below the solve's tolerance:
    # one numeric-failure line, no traceback, no report with Infinity in it
    q = write_spec(tmp_path, "q.json", {"p": 0, "coefficients": coefficients})
    assert run(["lemma1", "--function", q, "--gamma", gamma]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("argstar: numeric failure: lemma1 probe: the crossing radius lies in (0.0, ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("coefficients", [[[1.0, 0.0]], [[0.3, 0.4], [0.1, -0.2]]])
def test_lemma1_small_gamma_reports(tmp_path, coefficients, capsys):
    q = write_spec(tmp_path, "q.json", {"p": 0, "coefficients": coefficients})
    assert run(["lemma1", "--function", q, "--gamma", "1e-5"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert all(math.isfinite(res[k]) for k in ("r0", "k_est", "a_est"))
    assert res["k_est"] >= (res["a_est"] + 1.0 / res["a_est"]) / 2.0 - 1e-9


def test_exit_4_not_attained_emits_partial(probe, capsys):
    assert run(["lemma1", "--function", probe, "--gamma", "1.9"]) == 4
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["result"]["error"] == "not_attained"
    assert payload["result"]["best_sup"] < payload["result"]["level"]
    assert "lemma1" in captured.err


# -------------------------------------------------------------------- reports

def test_gamma0_printed_digits(capsys):
    run(["gamma0"])
    res = json.loads(capsys.readouterr().out)["result"]
    assert repr(res["gamma0"]).startswith("0.383")
    assert repr(res["composite"]).startswith("0.6")
    assert res["residual"] <= 1e-11


def test_deltamax_printed_digits(capsys):
    run(["deltamax"])
    res = json.loads(capsys.readouterr().out)["result"]
    assert repr(res["delta_max"]).startswith("0.787")
    assert repr(res["bound"]).startswith("1.21")


@pytest.mark.parametrize("argv", [["gamma0"], ["deltamax"], ["alpha", "--alpha0", "1.0", "--count", "3"]])
def test_solver_settings_are_echoed(argv, capsys):
    # the bisection settings every solved constant shares, byte for byte
    assert run(argv) == 0
    assert '\n  "solver": {\n    "abs_tol": 1e-12,\n    "max_iter": 200\n  },\n' in capsys.readouterr().out
    if argv == ["gamma0"]:
        assert run(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "solver.abs_tol,1e-12" in lines and "solver.max_iter,200" in lines


def test_alpha_report_fields(capsys):
    run(["alpha", "--alpha0", "1.5", "--count", "5"])
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["values"][0] == 1.5
    assert res["values"][1] == pytest.approx(1.0, abs=1e-11)
    assert res["values"][2] == pytest.approx(0.7668972055413801, abs=1e-11)
    assert len(res["majorant"]) == 6
    assert res["majorant"][0] == 2.0
    assert res["sigma"] is None  # pair sums stay above 1 through k=5
    assert max(res["residuals"]) <= 1e-11


def test_alpha_sigma_reported(capsys):
    run(["alpha", "--alpha0", "1.0", "--count", "5"])
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["sigma"] == 3


def test_alpha_csv_table(capsys):
    run(["alpha", "--alpha0", "1.5", "--count", "2", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,alpha,residual,majorant"
    assert len(lines) == 4
    assert lines[1].startswith("0,1.5,0.0,2.0")


def test_verify_report_envelope(mono2, capsys):
    run(["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "0.5", "--points", "16"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "argstar"
    assert payload["grid"] == {"r_max": 0.995, "n_angular": 16}
    assert payload["command"][0] == "verify"
    res = payload["result"]
    assert res["params"] == {"p": 2, "alpha1": 0.5}
    assert len(res["witnesses"]) == 1 + len(res["conclusions"])
    assert all(len(w) == 2 for w in res["witnesses"])
    for c in res["conclusions"]:
        assert set(c) == {"label", "kind", "value", "bound", "margin", "witness"}


def test_verify_t5_s_from_file(tmp_path, capsys):
    path = write_spec(tmp_path, "g.json", {"p": 2, "coefficients": [[0.05, 0]], "gap_index": 2})
    assert run(["verify", "--theorem", "t5", "--function", path, "--delta", "0.3"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["params"]["s"] == 2
    assert res["verdict"] == "PASS"


def test_verify_csv_flatten(mono2, capsys):
    run(["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0", "--format", "csv"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert "result.verdict,PASS" in lines
    assert "result.hypothesis_satisfied,true" in lines


def test_lemma1_report(probe, capsys):
    gamma = 2 * math.asin(0.6) / math.pi
    assert run(["lemma1", "--function", probe, "--gamma", repr(gamma)]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["r0"] == pytest.approx(0.6, abs=1e-9)
    assert res["ratio"][0] == pytest.approx(0.0, abs=1e-6)
    assert res["ratio"][1] == pytest.approx(0.75, abs=1e-6)
    assert res["k_est"] >= 1.0


def test_scan_report_payload(capsys):
    code = run(["scan", "--theorem", "c2", "--trials", "4", "--seed", "301", "--p", "2",
                "--points", "32", "--ncoeffs", "6"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["counts"]["FAIL"] == 0
    assert len(res["verdicts"]) == 4
    assert res["worst_margin"] > 0
    wf = res["worst_function"]
    assert wf["p"] == 2 and len(wf["coefficients"]) == 5  # serialized and reusable


@pytest.mark.parametrize("argv", [
    ["scan", "--theorem", "l3", "--p", "1", "--trials", "1", "--seed", "0"],
    ["scan", "--theorem", "t4", "--p", "1", "--alpha0", "1.5", "--trials", "3", "--seed", "1"],
])
def test_scan_without_conclusions(argv, capsys):
    # L3 at p = 1 and T4 at p = 1, alpha0 = 3/2 have no conclusion to check:
    # every accepted draw passes, and there is no worst conclusion: all four
    # worst_ fields are null
    worst = ("worst_margin", "worst_label", "worst_attempt", "worst_function")
    assert run(argv) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["counts"]["PASS"] == len(res["verdicts"]) == int(argv[argv.index("--trials") + 1])
    assert [res[k] for k in worst] == [None] * 4
    assert run(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(f"result.{k}," in lines for k in worst)


def test_reports_are_byte_identical(mono2, tmp_path, capsys):
    argv = ["verify", "--theorem", "t1", "--function", mono2, "--alpha1", "1.0"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    out = tmp_path / "r.json"
    run(argv + ["--out", str(out)])
    assert first == second == out.read_text()


# ------------------------------------------------------------- serialization

def _c(z):
    return [float(z.real), float(z.imag)]


def _reference_payload(obj):
    """The hand-written payload builders that _payload replaced, verbatim but
    for the dispatch on the report type: the reference for the report bytes."""
    if isinstance(obj, DiskGrid):
        return {"r_max": obj.r_max, "n_radial": obj.n_radial, "n_angular": obj.n_angular}
    if isinstance(obj, dict):  # the solver settings
        return {"abs_tol": obj["abs_tol"], "max_iter": obj["max_iter"]}
    if isinstance(obj, Lemma1Report):
        return {
            "gamma": obj.gamma,
            "level": obj.level,
            "r0": obj.r0,
            "z0": _c(obj.z0),
            "ratio": _c(obj.ratio),
            "k_est": obj.k_est,
            "a_est": obj.a_est,
            "imag_purity": obj.imag_purity,
        }
    if isinstance(obj, ScanReport):
        return {
            "theorem_id": obj.theorem_id,
            "p": obj.p,
            "params": obj.params,
            "trials": obj.trials,
            "seed": obj.seed,
            "sampler_N": obj.sampler_N,
            "attempts": obj.attempts,
            "counts": obj.counts,
            "verdicts": list(obj.verdicts),
            "worst_margin": obj.worst_margin,
            "worst_label": obj.worst_label,
            "worst_attempt": obj.worst_attempt,
            "worst_function": series_to_spec(obj.worst_function),
        }
    return {
        "theorem_id": obj.theorem_id,
        "params": obj.params,
        "hypothesis_sup": obj.hypothesis_sup,
        "hypothesis_bound": obj.hypothesis_bound,
        "hypothesis_satisfied": obj.hypothesis_satisfied,
        "conclusions": [
            {
                "label": c.label,
                "kind": c.kind,
                "value": c.value,
                "bound": c.bound,
                "margin": c.margin,
                "witness": _c(c.witness),
            }
            for c in obj.conclusions
        ],
        "verdict": obj.verdict,
        "witnesses": [_c(w) for w in obj.witnesses],
        "notes": list(obj.notes),
    }


THEOREM_CASES = [
    ("T1", {"p": 2, "alpha1": 0.5}),
    ("C1", {"p": 3}),
    ("C2", {"p": 2}),
    ("T3", {"p": 3, "alpha0": 1.0}),
    ("T4", {"p": 5, "alpha0": 1.0}),
    ("T5", {"s": 2, "delta": 0.3}),
    ("L2", {"p": 3}),
    ("L3", {"p": 3}),
]


def _serializer_corpus():
    grid = DiskGrid(n_radial=2, n_angular=64)
    reports = [grid, DiskGrid(), cli._SOLVER]
    for tid, params in THEOREM_CASES:
        params = dict(params)
        p = params.pop("p", None)
        order = params["s"] if tid == "T5" else p
        for seed in range(3):
            f = sample_hypothesis_function(
                np.random.SeedSequence((41, seed)), p=order, bound=1.2, N=8, s_gap=params.get("s")
            )
            reports.append(check_theorem(tid, f, grid, **params))
        if tid not in ("T5", "L2", "L3"):  # f^(p) = p!(1 + 0.95 (p+1) z) has a root in the disk
            reports.append(check_theorem(tid, make_series(order, [0.95]), grid, **params))
        reports.append(counterexample_scan(tid, trials=4, seed=7, p=p, grid=grid, N=8, **params))
    q = make_series(1, [0.5, (0.1, 0.2)])
    q = PowerSeries(0, q.coeffs)
    for gamma in (0.05, 0.15, 0.25):
        reports.append(lemma1_probe(q, gamma, grid))
    return reports


def test_payload_matches_the_hand_written_builders():
    reports = _serializer_corpus()
    verdicts = {r.verdict for r in reports if isinstance(r, VerificationReport)}
    assert verdicts == {"PASS", "HYPOTHESIS_NOT_SATISFIED"}
    # T1 at p = 2: the root -1/(3 * 0.95) of f'' is the hypothesis witness
    assert any(
        r.hypothesis_sup == math.pi and r.witnesses[0] == pytest.approx(-1 / 2.85, abs=1e-12)
        for r in reports if isinstance(r, VerificationReport)
    )
    kinds = {type(r).__name__ for r in reports}
    assert kinds == {"DiskGrid", "dict", "VerificationReport", "ScanReport", "Lemma1Report"}
    assert len({r.theorem_id for r in reports if isinstance(r, ScanReport)}) == 8
    for rep in reports:
        for fmt in ("json", "csv"):
            assert cli._render(cli._payload(rep), fmt) == cli._render(_reference_payload(rep), fmt), rep


def _assert_native(obj, where):
    """Every value the report holds is a Python str, int, float, bool, complex
    or None, down through tuples, dicts and the worst function's spec."""
    if isinstance(obj, PowerSeries):
        obj = series_to_spec(obj)
    if dataclasses.is_dataclass(obj):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    elif type(obj) is dict:
        items = list(obj.items())
        for key in obj:
            _assert_native(key, f"{where} key")
    elif type(obj) in (tuple, list):
        items = list(enumerate(obj))
    else:
        assert type(obj) in (str, int, float, bool, complex, type(None)), f"{where} is {type(obj).__name__}"
        return
    for key, value in items:
        _assert_native(value, f"{where}.{key}")


def test_reports_hold_python_natives():
    reports = [r for r in _serializer_corpus() if isinstance(r, (ScanReport, VerificationReport))]
    assert {r.theorem_id for r in reports if isinstance(r, ScanReport)} == {tid for tid, _ in THEOREM_CASES}
    satisfied = set()
    for rep in reports:
        _assert_native(rep, type(rep).__name__)
        text = cli._render(cli._envelope(["test"], rep), "csv")
        assert "np." not in text
        for key, cell in (line.split(",", 1) for line in text.splitlines()[1:]):
            if key == "result.hypothesis_satisfied":
                satisfied.add(cell)
    assert satisfied == {"true", "false"}


@dataclasses.dataclass(frozen=True)
class _Inner:
    point: complex
    tags: tuple


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    series: PowerSeries
    rows: list
    missing: object = None


def test_payload_conversion_rules():
    obj = _Outer(_Inner(1 + 2j, ("a", 3)), make_series(1, [0.25]), [0.5j, _Inner(0j, ())])
    assert cli._payload(obj) == {
        "inner": {"point": [1.0, 2.0], "tags": ["a", 3]},
        "series": {"p": 1, "coefficients": [[0.25, 0.0]]},
        "rows": [[0.0, 0.5], {"point": [0.0, 0.0], "tags": []}],
        "missing": None,
    }


# -------------------------------------------------------------------- heatmap

def test_heatmap_file_shape(lin, tmp_path):
    out = tmp_path / "hm.csv"
    code = run(["heatmap", "--function", lin, "--quantity", "arg-fp", "--rmax", "0.9",
                "--grid", "16x64", "--out", str(out)])
    assert code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().splitlines()
    assert lines[0] == "r,theta,value"
    assert len(lines) == 1 + 16 * 64


def test_heatmap_column_max_matches_closed_form(lin, tmp_path):
    # f' = 1 + 0.5 z: max |arg| over |z| <= 0.9 is asin(0.45)
    out = tmp_path / "hm.csv"
    run(["heatmap", "--function", lin, "--quantity", "arg-fp", "--rmax", "0.9", "--out", str(out)])
    values = [abs(float(line.rsplit(",", 1)[1])) for line in out.read_text().splitlines()[1:]]
    assert max(values) == pytest.approx(math.asin(0.45), abs=2e-3)


def test_heatmap_monomial_all_zero(mono2, tmp_path):
    out = tmp_path / "hm.csv"
    run(["heatmap", "--function", mono2, "--quantity", "arg-fp", "--grid", "4x8", "--out", str(out)])
    values = [float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]]
    assert values == [0.0] * 32


def test_heatmap_reruns_identical(lin, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["heatmap", "--function", lin, "--quantity", "arg-jst", "--grid", "8x16"]
    run(argv + ["--out", str(a)])
    run(argv + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_quantities_all_emit(lin, tmp_path):
    for q in ("arg-fp", "arg-fp1-over-z", "arg-jst", "re-ratio"):
        out = tmp_path / f"{q}.csv"
        assert run(["heatmap", "--function", lin, "--quantity", q, "--grid", "4x8", "--out", str(out)]) == 0
        assert out.exists()


def test_heatmap_re_ratio_keeps_minus_pi(tmp_path):
    # Re(z f'/f) of f = z + c z^2 is (1 + 2cz)/(1 + cz), -pi at z = 0.5 for this
    # c: a real value, not an argument, so it is not folded onto pi
    path = write_spec(tmp_path, "f.json", {"p": 1, "coefficients": [[-1.6110154703516573, 0.0]]})
    out = tmp_path / "hm.csv"
    argv = ["heatmap", "--function", path, "--quantity", "re-ratio", "--rmax", "0.5", "--grid", "1x8"]
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "0.5,0.0,-3.141592653589793"


def test_heatmap_rejects_unknown_quantity(lin, tmp_path):
    code = run(["heatmap", "--function", lin, "--quantity", "curvature", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_emit_heatmap_direct_api(tmp_path):
    out = tmp_path / "direct.csv"
    emit_heatmap(make_series(2, []), "arg-fp", DiskGrid(n_radial=2, n_angular=4), out)
    assert out.read_text().splitlines()[0] == "r,theta,value"


def _joined_heatmap(f, quantity, grid):
    """The CSV text as one string, built line by line from heatmap_values."""
    vals = cli.heatmap_values(f, quantity, grid)
    lines = ["r,theta,value"]
    for i in range(grid.n_radial):
        for j in range(grid.n_angular):
            lines.append(f"{float(grid.radii[i])!r},{float(grid.angles[j])!r},{float(vals[i, j])!r}")
    return "\n".join(lines) + "\n"


def test_emit_heatmap_streams_the_same_bytes(tmp_path):
    f = sample_hypothesis_function(np.random.SeedSequence((79, 2)), p=2, bound=1.2, N=16)
    for grid in (DiskGrid(), DiskGrid(r_max=0.9, n_radial=3, n_angular=7)):
        for quantity in cli.HEATMAP_QUANTITIES:
            out = tmp_path / f"{quantity}.csv"
            emit_heatmap(f, quantity, grid, out)
            assert out.read_bytes() == _joined_heatmap(f, quantity, grid).encode()


def test_emit_heatmap_edge_rows(tmp_path):
    # one angle or one radius: a one-element ring formats without a separator;
    # f = (1 - 0j) + 1e-20 z has arg f in exponent notation and the constant
    # 1 - 0j has arg exactly -0.0 everywhere
    tiny = PowerSeries(0, np.array([complex(1.0, -0.0), 1e-20]))
    flat = PowerSeries(0, np.array([complex(1.0, -0.0)]))
    grids = (
        DiskGrid(r_max=0.9, n_radial=3, n_angular=1),
        DiskGrid(r_max=0.9, n_radial=1, n_angular=5),
        DiskGrid(r_max=0.9, n_radial=1, n_angular=1),
        DiskGrid(r_max=0.9, n_radial=4, n_angular=8),
    )
    out = tmp_path / "edge.csv"
    for f in (tiny, flat):
        for grid in grids:
            emit_heatmap(f, "arg-fp", grid, out)
            text = out.read_text()
            assert text == _joined_heatmap(f, "arg-fp", grid)
            assert len(text.splitlines()) == 1 + grid.size
    values = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
    assert values == ["-0.0"] * grids[-1].size
    emit_heatmap(tiny, "arg-fp", grids[-1], out)
    assert any("e-" in line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:])


def test_version_flag():
    assert run(["--version"]) == 0


def test_exit_4_scan_out_of_draws(capsys):
    # the first 10 draws of seed 4 all miss the L3 hypothesis, so one trial
    # exhausts its 10 attempts
    assert run(["scan", "--theorem", "l3", "--p", "1", "--trials", "1", "--seed", "4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "argstar: only 0 of 1 draws satisfied the L3 hypothesis after 10 attempts\n"


# --------------------------------------------------------------- parser tree

@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    """A working directory holding the corpus's spec files, as each of its rows runs in."""
    cli_corpus.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("columns", ["60", "100"])
@pytest.mark.parametrize("argv", cli_corpus.ROWS, ids=" ".join)
def test_run_matches_full_parser(argv, columns, corpus_dir, monkeypatch, capsys):
    # exit code, stdout, stderr and the --out file of a run through the cached
    # parser, which earlier runs at either width used, are byte-identical to a
    # run through a full parser built afresh, at two terminal widths
    monkeypatch.setenv("COLUMNS", columns)
    out = corpus_dir / cli_corpus.OUT

    def outcome():
        code = run(argv)
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    got = outcome()
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        want = outcome()
    assert got == want


@pytest.mark.filterwarnings("error")
def test_corpus_rows_in_one_process_match_the_table(monkeypatch, capsys):
    # every row of the golden corpus through cli.run, one after another in this
    # process, gives its line of tests/cli_corpus.txt, which fresh processes wrote
    def in_process(argv, cwd):
        monkeypatch.chdir(cwd)
        code = run(argv)
        out, err = capsys.readouterr()
        return code, out.encode(), err.encode()

    monkeypatch.setenv("COLUMNS", "80")
    want = cli_corpus.TABLE.read_text().splitlines()
    got = [cli_corpus.host_line()] + [cli_corpus.row_line(argv, in_process) for argv in cli_corpus.ROWS]
    assert got[1:] == want[1:], f"table computed with {want[0][2:]}, this run with {got[0][2:]}"


def test_run_reads_the_terminal_width_once_per_run(monkeypatch, capsys, mono2):
    reads = []
    size = cli.shutil.get_terminal_size

    def counted(*args, **kwargs):
        reads.append(args)
        return size(*args, **kwargs)

    monkeypatch.setattr(cli.shutil, "get_terminal_size", counted)
    cli._build_parser.cache_clear()
    verify_argv = ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", mono2]
    for argv in (verify_argv, verify_argv):  # a cold run builds the parser, a warm one not
        reads.clear()
        assert run(argv) == 0
        assert len(reads) <= 1
    capsys.readouterr()
    reads.clear()
    assert run(["verify", "--theorem"]) == 2  # usage error: the message is formatted
    assert "expected one argument" in capsys.readouterr().err
    assert len(reads) == 1
    # a cached parser formats help at the width of each run
    helps = {}
    for columns in ("60", "100", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        monkeypatch.setattr(cli._Parser, "_width", None)  # a fresh tree reads this width
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(["verify", "-h"])
        want = capsys.readouterr().out
        assert run(["verify", "-h"]) == 0
        helps[columns] = capsys.readouterr().out
        assert helps[columns] == want
    assert helps["60"] != helps["100"]


def test_run_builds_the_parser_once_per_process(monkeypatch, capsys, mono2):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cli._build_parser.cache_clear()
    verify_argv = ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", mono2]
    for argv in (["gamma0"], verify_argv, ["--version"], ["-h"]):
        assert run(argv) == 0
    capsys.readouterr()
    assert built == list(cli._COMMANDS)  # every sub-parser, each built once, on the first run


def test_runs_in_one_process_do_not_leak(monkeypatch, capsys, corpus_dir):
    # several runs through the cached parser and plans, from cold, give what
    # each run gives through a parser and a plan built afresh
    scan = ["scan", "--theorem", "t4", "--p", "3", "--alpha0", "1.0", "--trials", "5", "--seed", "1"]
    calls = [
        ("80", ["verify", "--theorem"]),
        ("80", ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "0.5"]),
        ("60", ["verify", "-h"]),
        ("100", ["verify", "-h"]),
        ("80", ["verify", "--theorem", "t1", "--function", "badjson.json", "--alpha1", "0.5"]),
        ("80", scan),
        ("80", scan),
    ]

    def outcomes():
        got = []
        for columns, argv in calls:
            monkeypatch.setenv("COLUMNS", columns)
            code = run(argv)
            got.append((code, *capsys.readouterr()))
        return got

    cli._build_parser.cache_clear()
    verify._build_plan.cache_clear()
    got = outcomes()
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        m.setattr(verify, "_build_plan", verify._build_plan.__wrapped__)
        want = outcomes()
    assert [code for code, _, _ in got] == [2, 0, 0, 0, 3, 0, 0]
    assert got == want
