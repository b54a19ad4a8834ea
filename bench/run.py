"""argstar benchmark: one closed-loop caller in one fresh process per workload.

    python3 bench/run.py --workload scan-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``, never
from an installed copy. Workloads are described in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped. A round
is one pass over the workload's calls, and the run repeats rounds for
``--seconds``. Every call counts. Times are reported in the time of a
reference host: between rounds the run times a fixed calibration workload,
and each round's times are scaled by the reference calibration time over
the calibration time measured around it (see ``calibration.py``), which
takes the drift of a shared host out and leaves argstar's own changes in.
The run line also prints the measured, unscaled ``checks_per_s`` and
``setup_s`` and the median calibration time.

* ``setup_s``: median over nine fresh interpreters, spread over the run, of
  the time from start to ready, that is ``import argstar.cli`` plus building
  the workload's inputs; each is calibrated just before and after.
* ``checks_per_s``: implication checks (scan attempts, discarded draws
  included, plus one per ``verify`` call) per second of call time.
* ``cmd_ms_p50`` / ``cmd_ms_p90``: latency of one call (one scan on the scan
  workloads, one ``cli.run`` on ``oneshot``). The percentile is taken over
  the calls of each call type (scan config or CLI command), and the types
  are combined by their geometric mean; the call count is printed.
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes over a fixed amount of
work (the first rounds of the workload) and reports per-layer metrics of one
pass, named after argstar's modules (see ``spans.py``): counts from any pass,
which must all agree, and times as medians over the passes. The spans of the
first traced pass are written to ``.bench_work/spans-<workload>-seed<n>.jsonl``.
``trace.overhead_s`` is the median traced minus the median untraced pass time.
``verify.kernel.*`` times public ``sup_arg``/``min_real`` on the workload's
grid; its point-coefficient count is computed from the array sizes. The scan
workloads never reach the CLI-only layers, so their traced run also times a
fixed CLI sweep (one spec-file ``verify``, one ``lemma1`` probe, one heatmap)
from which the ``cli.*`` and ``verify.probe.*`` metrics come.

Every call's output is checked, and in a traced run every counter comparison
counts as one more checked operation. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1 when any
check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import REFERENCE_S, calibrate, scales
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 9
KERNEL_SECONDS = 0.5
SWEEPS = 3


class BenchUnavailable(RuntimeError):
    """The checkout does not hold the argstar sources."""


def add_sources() -> None:
    """Put the checkout's ``src`` first on sys.path and make sure it is what gets imported."""
    src = ROOT / "src"
    if not (src / "argstar" / "__init__.py").is_file():
        raise BenchUnavailable(f"no argstar package under {src}")
    sys.path.insert(0, str(src))
    import argstar

    if Path(argstar.__file__).resolve().parent != (src / "argstar").resolve():
        raise BenchUnavailable(f"argstar imported from {argstar.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


# ------------------------------------------------------------------ running

class Tally:
    """Attempted and failed counts of the operations run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def execute(self, op):
        """Run one op closed-loop; returns (call seconds, stats or None on failure)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            elapsed = time.perf_counter() - t0
            self._fail(op, traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - t0
        try:
            return elapsed, op.check(result)
        except Exception:
            self._fail(op, traceback.format_exc())
            return elapsed, None

    def _fail(self, op, text):
        self.failed += 1
        if self.failed <= 5:
            print(f"bench: {op.label} failed:\n{text}", file=sys.stderr)


def run_ops(tally, ops):
    """(call seconds, per-call records, summed stats) of one closed-loop pass over ops.

    A record is (label, call seconds, checks); a failed call counts no work."""
    busy, records, stats = 0.0, [], {"checks": 0, "report_bytes": 0, "heatmap_bytes": 0}
    for op in ops:
        elapsed, st = tally.execute(op)
        busy += elapsed
        st = st or {}
        records.append((op.label, elapsed, st.get("checks", 0)))
        for k, v in st.items():
            stats[k] += v
    return busy, records, stats


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated as statistics.quantiles(n=100) does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_once(args) -> float:
    """Time from launching a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup process failed ({proc.returncode}): {err.strip()}")
    return elapsed


def scaled_setup(args) -> tuple[float, float]:
    """(measured, reference-host) seconds of one set-up, calibrated on both sides."""
    before = calibrate()
    elapsed = setup_once(args)
    return elapsed, elapsed * REFERENCE_S / statistics.mean([before, calibrate()])


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def timed_run(wl, tally, seconds: float, args) -> tuple[dict, dict]:
    run_ops(tally, wl.round(0))  # warm-up: lazy grid tables, first-call imports
    rounds, cals, setups = [], [calibrate()], []
    measured = 0.0
    while measured < seconds:
        # set-up samples are spread over the run, between rounds
        if len(setups) < SETUP_REPEATS * measured / seconds:
            setups.append(scaled_setup(args))
        t0 = time.perf_counter()
        _, records, _ = run_ops(tally, wl.round(len(rounds) + 1))
        measured += time.perf_counter() - t0
        cals.append(calibrate())
        rounds.append(records)
    while len(setups) < SETUP_REPEATS:
        setups.append(scaled_setup(args))

    # Every call counts, in reference-host time (see calibration.py).
    by_label: dict = {}
    checks, busy, scaled_busy = 0, 0.0, 0.0
    for scale, records in zip(scales(cals), rounds):
        for label, elapsed, n in records:
            by_label.setdefault(label, []).append(elapsed * scale)
            checks += n
            busy += elapsed
            scaled_busy += elapsed * scale
    # Calls of one type are alike, calls of different types are not: each
    # percentile is taken over the calls of one type, and the types are
    # combined by their geometric mean, so every type weighs the same and no
    # percentile falls on the boundary between two types.
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "checks_per_s": (checks / scaled_busy, "1/s"),
        "cmd_ms_p50": (1e3 * geomean(statistics.median(v) for v in by_label.values()), "ms"),
        "cmd_ms_p90": (1e3 * geomean(percentile(v, 90) for v in by_label.values()), "ms"),
    }
    info = {
        "rounds": len(rounds),
        "calls": sum(len(v) for v in by_label.values()),
        "call_types": len(by_label),
        "measured_checks_per_s": checks / busy,
        "measured_setup_s": statistics.median(m for m, _ in setups),
        "calibration_ms": 1e3 * statistics.median(cals),
    }
    return metrics, info


# ------------------------------------------------------------------ tracing

# Counters that must repeat exactly from one traced pass to the next.
DETERMINISTIC = ("calls", "g_evals", "attempts", "bytes")


def layer_metrics(tracer, stats) -> dict:
    layers = tracer.layers()

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    counts = tracer.counts
    attempts = counts["verify.scan.attempts"]
    return {
        "verify.check.calls": (get("verify.check", "calls"), "count"),
        "verify.check.self_s": (get("verify.check", "self_s"), "s"),
        "series.differentiate.calls": (get("series.differentiate", "calls"), "count"),
        "series.differentiate.s": (get("series.differentiate", "s"), "s"),
        "roots.bisect.calls": (get("roots.bisect", "calls"), "count"),
        "roots.bisect.g_evals": (counts["roots.bisect.g_evals"], "count"),
        "roots.bisect.s": (get("roots.bisect", "s"), "s"),
        "verify.sample.calls": (get("verify.sample", "calls"), "count"),
        "verify.sample.s": (get("verify.sample", "s"), "s"),
        "verify.scan.attempts": (attempts, "count"),
        "verify.scan.accept_ratio": (counts["verify.scan.accepted"] / attempts if attempts else 0.0, "ratio"),
        "verify.probe.calls": (get("verify.probe", "calls"), "count"),
        "verify.probe.s": (get("verify.probe", "s"), "s"),
        "cli.run.self_s": (get("cli.run", "self_s"), "s"),
        "cli.parse.s": (get("cli.parse", "s"), "s"),
        "cli.heatmap.s": (get("cli.heatmap", "s"), "s"),
        "cli.heatmap.bytes": (stats["heatmap_bytes"], "B"),
        "cli.report.bytes": (stats["report_bytes"], "B"),
    }


def _median_metrics(samples: list, tally) -> dict:
    """Median of each timing over samples; a counter that differs between
    samples is one failed self-check (each counter compared is one attempted)."""
    out = {}
    for name in samples[0]:
        values = [s[name][0] for s in samples]
        unit = samples[0][name][1]
        if name.rsplit(".", 1)[-1] in DETERMINISTIC:
            tally.attempted += 1
            if len(set(values)) != 1:
                tally.failed += 1
                print(f"bench: counter {name} differs between traced passes: {values}", file=sys.stderr)
            out[name] = (values[0], unit)
        else:
            out[name] = (statistics.median(values), unit)
    return out


def kernel_metrics(grid, seed: int) -> dict:
    """ns per point-coefficient of public sup_arg/min_real on the workload's grid."""
    import numpy as np
    from argstar import verify

    f = verify.sample_hypothesis_function(np.random.SeedSequence((seed, 7)), p=3, bound=1.0, N=16)
    point_coeffs = grid.size * f.coeffs.size  # computed from the array sizes
    verify.sup_arg(f, 3, grid)
    times = []
    deadline = time.perf_counter() + KERNEL_SECONDS
    while time.perf_counter() < deadline or len(times) < 20:
        for fn in (verify.sup_arg, verify.min_real):
            t0 = time.perf_counter()
            fn(f, 3, grid)
            times.append(time.perf_counter() - t0)
    return {
        "verify.kernel.ns_per_point_coeff": (1e9 * statistics.median(times) / point_coeffs, "ns"),
        "verify.kernel.point_coeffs": (point_coeffs, "count"),
    }


def traced_run(wl, tally, seconds: float, spans_file: Path, seed: int) -> tuple[dict, dict]:
    from workloads import MODULES, OneshotWorkload

    def work():
        return [op for r in range(wl.pass_rounds) for op in wl.round(r)]

    def traced_pass(ops, spans_file=None):
        with Tracer(MODULES) as tracer:
            busy, _, stats = run_ops(tally, ops)
        if spans_file is not None:
            tracer.write(spans_file)
        return busy, layer_metrics(tracer, stats)

    run_ops(tally, work())  # warm-up
    plain, traced, samples = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < 2:
        # alternate which side goes first so slow drift does not favour one
        order = (False, True) if len(samples) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                busy, sample = traced_pass(work(), None if samples else spans_file)
                traced.append(busy)
                samples.append(sample)
            else:
                plain.append(run_ops(tally, work())[0])
    metrics = _median_metrics(samples, tally)

    if not isinstance(wl, OneshotWorkload):
        sweep = OneshotWorkload(seed)
        cli_side = _median_metrics([traced_pass(sweep.cli_sweep())[1] for _ in range(SWEEPS)], tally)
        for name in ("verify.probe.calls", "verify.probe.s", "cli.run.self_s", "cli.parse.s",
                     "cli.heatmap.s", "cli.heatmap.bytes", "cli.report.bytes"):
            metrics[name] = cli_side[name]

    metrics.update(kernel_metrics(wl.grid, seed))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, {"passes": len(samples), "pass_s": statistics.median(plain)}


# --------------------------------------------------------------------- main

def parse_args(argv):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan-grid", "scan-ring", "oneshot"))
    ap.add_argument("--seed", required=True, type=non_negative)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        add_sources()
    except BenchUnavailable as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        os.chdir(workdir)  # spec files and heatmaps are written here, by relative path
        wl = workloads.build(args.workload, args.seed)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        tally = Tally()
        if args.trace:
            spans_file = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, info = traced_run(wl, tally, args.seconds, spans_file, args.seed)
            info["spans"] = spans_file.relative_to(ROOT)
        else:
            metrics, info = timed_run(wl, tally, args.seconds, args)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # holds a spans file, or another run's directory
            pass

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in sorted(metrics.items()):
        tag = " (computed)" if name == "verify.kernel.point_coeffs" else ""
        print(f"  {name} = {value!r} {unit}{tag}")
    print(f"error_rate = {tally.failed}/{tally.attempted} = {tally.failed / max(tally.attempted, 1)!r}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
