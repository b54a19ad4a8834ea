"""The benchmark's workloads: inputs built from the workload seed, and the
closed-loop operations that call into argstar together with their output checks.

Importing this module imports ``argstar.cli``; ``run.py`` puts the checkout's
``src`` directory on ``sys.path`` first.

* ``scan-grid`` and ``scan-ring`` call ``verify.counterexample_scan`` once per
  theorem configuration per round. The grid one spends most of its time in the
  polynomial evaluation kernel on 64x512 points; the ring one evaluates 512
  points per polynomial, so the sampler, ``differentiate`` and the root solves
  carry a larger share, which makes it the control for kernel changes.
* ``oneshot`` calls ``cli.run(argv)`` in-process over every subcommand, so the
  argument parsing, spec files, report rendering and heatmap writing are
  measured next to the scalar probe path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from argstar import cli, roots, series, verify

MODULES = {"series": series, "roots": roots, "verify": verify, "cli": cli}

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# One configuration per theorem id; T4 at p=5 is the costliest check.
SCAN_CONFIGS = (
    ("T1", {"p": 2, "alpha1": 0.5}),
    ("C1", {"p": 3}),
    ("C2", {"p": 2}),
    ("T3", {"p": 3, "alpha0": 1.0}),
    ("T4", {"p": 5, "alpha0": 1.0}),
    ("T5", {"s": 2, "delta": 0.3}),
    ("L2", {"p": 3}),
    ("L3", {"p": 3}),
)
SCAN_N = 16
# (n_radial, n_angular, trials per scan call, rounds per traced pass). The ring
# workload runs 10x the trials so one round does comparable work.
SCAN_WORKLOADS = {
    "scan-grid": (64, 512, 4, 2),
    "scan-ring": (1, 512, 40, 3),
}
# Scan seeds come from a pool whose worst margins were recorded by
# record_reference.py; the workload seed fixes the order the pool is visited in.
POOL = 128
MARGIN_TOL = 1e-12


class CheckFailed(AssertionError):
    """An operation's output did not match what the workload expects."""


@dataclass(frozen=True)
class Op:
    """One closed-loop call: ``call`` is timed, ``check`` validates its result
    and returns the work it did (``checks``, ``report_bytes``, ``heatmap_bytes``)."""

    label: str  # the call type; calls of one type are comparable
    call: Callable[[], object]
    check: Callable[[object], dict]


def scan_seed(config_index: int, pool_index: int) -> int:
    return 10_000 * (config_index + 1) + pool_index


def scan_grid(name: str) -> verify.DiskGrid:
    n_radial, n_angular, _, _ = SCAN_WORKLOADS[name]
    return verify.DiskGrid(n_radial=n_radial, n_angular=n_angular)


def scan_call(grid: verify.DiskGrid, trials: int, config_index: int, pool_index: int):
    """The scan a round makes for one config; looked up through ``verify`` at call time."""
    tid, params = SCAN_CONFIGS[config_index]
    return verify.counterexample_scan(
        tid, trials, scan_seed(config_index, pool_index), grid=grid, N=SCAN_N, **params
    )


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ------------------------------------------------------------------- scans

class ScanWorkload:
    def __init__(self, name: str, seed: int):
        self.grid = scan_grid(name)
        _, _, self.trials, self.pass_rounds = SCAN_WORKLOADS[name]
        self.reference = json.loads(REFERENCE_FILE.read_text())["worst_margin"][name]
        for tid, _ in SCAN_CONFIGS:
            if len(self.reference[tid]) != POOL:
                raise ValueError(f"{REFERENCE_FILE.name}: {name}/{tid} needs {POOL} margins")
        self.order = np.random.default_rng(seed).permutation(POOL)

    def round(self, r: int) -> list:
        k = int(self.order[r % POOL])
        return [self._op(i, k) for i in range(len(SCAN_CONFIGS))]

    def _op(self, i: int, k: int) -> Op:
        tid = SCAN_CONFIGS[i][0]
        ref = self.reference[tid][k]

        def check(rep) -> dict:
            where = f"pool seed {k}"
            _expect(rep.counts["FAIL"] == 0, f"{where}: {rep.counts['FAIL']} FAIL verdicts")
            _expect(len(rep.verdicts) == self.trials, f"{where}: {len(rep.verdicts)} verdicts")
            _expect(
                abs(rep.worst_margin - ref) <= MARGIN_TOL,
                f"{where}: worst_margin {rep.worst_margin!r} differs from reference {ref!r}",
            )
            return {"checks": rep.attempts}

        return Op(f"scan {tid}", lambda: scan_call(self.grid, self.trials, i, k), check)


# ----------------------------------------------------------------- oneshot

# Hypothesis bound of the sampler for each verify fixture; the drawn function
# is then checked to satisfy the theorem's own hypothesis.
_SAMPLER_CAP = math.pi / 2 - 1e-9


def _verify_fixtures():
    composite = roots.solve_gamma0()[1]
    return (
        # (theorem id, theorem parameters, sampler keyword arguments)
        ("t1", {"alpha1": 0.5}, {"p": 2, "bound": (math.pi / 2) * (0.5 + (2 / math.pi) * math.atan(0.5))}),
        ("c1", {}, {"p": 3, "bound": _SAMPLER_CAP}),
        ("c2", {}, {"p": 2, "bound": (math.pi / 2) * composite}),
        ("t3", {"alpha0": 1.0}, {"p": 3, "bound": _SAMPLER_CAP}),
        ("t4", {"alpha0": 1.0}, {"p": 5, "bound": _SAMPLER_CAP}),
        ("t5", {"delta": 0.3}, {"p": 2, "s_gap": 2, "bound": (math.pi / 2) * 0.3 + math.atan(0.3)}),
        ("l2", {}, {"p": 3, "bound": 1.0}),
        ("l3", {}, {"p": 3, "bound": 0.9}),
    )


# the fixture whose spec file also feeds the heatmaps
DETAIL_FIXTURE = "t3"
LEMMA1_ORACLE_GAMMA = 2.0 * math.asin(0.6) / math.pi
LEMMA1_ORACLE_K = (3.0 * math.pi / 8.0) / math.asin(0.6)
ONESHOT_SCAN_TRIALS = 5
PROBE_RING = 47
# L3 draws can miss the hypothesis (the scan resamples them too); give up after this many.
MAX_FIXTURE_DRAWS = 100


def _write_spec(path: str, spec: dict) -> None:
    Path(path).write_text(json.dumps(spec))


class OneshotWorkload:
    """Builds the spec files in the current directory, which ``run.py`` makes a
    fresh directory of its own, so the argv of every call is the same across runs."""

    pass_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = grid = verify.DEFAULT_GRID
        self.verify_args = []
        for i, (tid, params, sampler) in enumerate(_verify_fixtures()):
            path = f"f_{tid}.json"
            for draw in range(MAX_FIXTURE_DRAWS):
                f = verify.sample_hypothesis_function(
                    np.random.SeedSequence((seed, i, draw)), N=SCAN_N, **sampler
                )
                _write_spec(path, cli.series_to_spec(f, gap_index=sampler.get("s_gap")))
                parsed, meta = cli.parse_function_file(path)
                kwargs = dict(params, **({"s": meta["gap_index"]} if "gap_index" in meta else {}))
                rep = verify.check_theorem(tid, parsed, grid, **kwargs)
                if rep.hypothesis_satisfied:
                    break
                if tid != "l3":
                    raise CheckFailed(f"generated {tid} fixture does not satisfy its hypothesis")
            else:
                raise CheckFailed(f"no {tid} fixture satisfied its hypothesis in {MAX_FIXTURE_DRAWS} draws")
            if rep.verdict != verify.VERDICT_PASS:
                raise CheckFailed(f"generated {tid} fixture gives {rep.verdict}")
            flags = [x for k, v in params.items() for x in (f"--{k}", repr(v))]
            self.verify_args.append((tid, ["verify", "--theorem", tid, "--function", path, *flags]))

        _write_spec("q_1pz.json", {"p": 0, "coefficients": [[1.0, 0.0]]})
        f = verify.sample_hypothesis_function(np.random.SeedSequence((seed, 100)), p=1, bound=1.2, N=SCAN_N)
        q_spec = dict(cli.series_to_spec(f), p=0)  # q = f/z, so q(0) = 1
        _write_spec("q_gen.json", q_spec)
        q, _ = cli.parse_function_file("q_gen.json")
        # the level is the sampled sup on a fixed inner ring, so the probe scans
        # about as many rings for every seed and its cost does not depend on it
        ring = verify.DiskGrid(r_max=float(grid.radii[PROBE_RING]), n_radial=1, n_angular=grid.n_angular)
        self.q_gamma = 2.0 * verify.sup_arg(q, 0, ring).sup_abs_arg / math.pi

    # -------------------------------------------------------------- checks

    @staticmethod
    def _json(text: str) -> dict:
        try:
            return json.loads(text)["result"]
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise CheckFailed(f"report is not a JSON envelope: {e}") from e

    def _cli_op(self, label, argv, check_result=None, checks=0, heatmap=None) -> Op:
        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result) -> dict:
            code, text, err = result
            _expect(code == 0, f"{label}: exit code {code}: {err.strip()}")
            stats = {"report_bytes": len(text.encode()), "checks": checks, "heatmap_bytes": 0}
            if heatmap is not None:
                _expect(text == "", f"{label}: heatmap wrote to stdout")
                with open(heatmap, newline="") as fh:
                    rows = sum(1 for _ in fh)
                _expect(rows == self.grid.size + 1, f"{label}: {rows} CSV lines")
                stats["heatmap_bytes"] = os.path.getsize(heatmap)
            if check_result is not None:
                extra = check_result(text)
                if extra:
                    stats.update(extra)
            return stats

        return Op(label, call, check)

    def _gamma0(self, text):
        g = self._json(text)["gamma0"]
        _expect(math.floor(g * 1000) == 383, f"gamma0 {g!r} does not truncate to 0.383")

    def _deltamax(self, text):
        _expect(math.isfinite(self._json(text)["delta_max"]), "delta_max not finite")

    def _alpha_csv(self, text):
        rows = list(csv.reader(io.StringIO(text)))
        _expect(rows[0] == ["k", "alpha", "residual", "majorant"] and len(rows) == 12, "alpha CSV table")

    def _verify(self, text):
        verdict = self._json(text)["verdict"]
        _expect(verdict == "PASS", f"verify verdict {verdict}")

    def _lemma1_oracle(self, text):
        k = self._json(text)["k_est"]
        _expect(abs(k - LEMMA1_ORACLE_K) <= 1e-4, f"lemma1 1+z k_est {k!r}")

    def _lemma1(self, text):
        _expect(math.isfinite(self._json(text)["k_est"]), "lemma1 k_est not finite")

    def _scan(self, text):
        res = self._json(text)
        _expect(res["counts"]["FAIL"] == 0, "scan FAIL verdicts")
        _expect(len(res["verdicts"]) == ONESHOT_SCAN_TRIALS, "scan verdict count")
        return {"checks": res["attempts"]}

    # ----------------------------------------------------------------- ops

    def round(self, r: int) -> list:
        ops = [
            self._cli_op("gamma0", ["gamma0"], self._gamma0),
            self._cli_op("deltamax", ["deltamax"], self._deltamax),
            self._cli_op("alpha", ["alpha", "--alpha0", "1.5", "--count", "10", "--format", "csv"], self._alpha_csv),
        ]
        ops += [self._cli_op(f"verify {tid}", argv, self._verify, checks=1) for tid, argv in self.verify_args]
        ops += self._probe_ops()
        ops += [self._heatmap_op(q) for q in cli.HEATMAP_QUANTITIES]
        ops.append(self._cli_op(
            "scan t4",
            ["scan", "--theorem", "t4", "--p", "3", "--alpha0", "1.0",
             "--trials", str(ONESHOT_SCAN_TRIALS), "--seed", str(self.seed)],
            self._scan,
        ))
        return ops

    def _probe_ops(self) -> list:
        return [
            self._cli_op("lemma1 1+z", ["lemma1", "--function", "q_1pz.json", "--gamma", repr(LEMMA1_ORACLE_GAMMA)],
                         self._lemma1_oracle),
            self._cli_op("lemma1 q", ["lemma1", "--function", "q_gen.json", "--gamma", repr(self.q_gamma)],
                         self._lemma1),
        ]

    def _heatmap_op(self, quantity: str) -> Op:
        out = f"hm_{quantity}.csv"
        argv = ["heatmap", "--function", f"f_{DETAIL_FIXTURE}.json", "--quantity", quantity, "--out", out]
        return self._cli_op(f"heatmap {quantity}", argv, heatmap=out)

    def cli_sweep(self) -> list:
        """One call into each CLI-only layer: spec parsing, report, probe, heatmap."""
        return [
            self._cli_op("verify t1", self.verify_args[0][1], self._verify, checks=1),
            self._probe_ops()[0],
            self._heatmap_op(cli.HEATMAP_QUANTITIES[0]),
        ]


def build(name: str, seed: int):
    if name == "oneshot":
        return OneshotWorkload(seed)
    return ScanWorkload(name, seed)
