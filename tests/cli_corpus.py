"""The golden CLI corpus: one line of tests/cli_corpus.txt per row of ROWS.

    python -W error tests/cli_corpus.py > tests/cli_corpus.txt

Run from anywhere: each row runs as ``python -W error -m argstar.cli`` on this
checkout's ``src``, with ``COLUMNS=80``, in a fresh process and a new working
directory that holds FILES, which rows name by relative paths, as they name
their ``--out`` file OUT. A line is the exit code, the sha256 of stdout and
of OUT (``-`` if none was written), the exact stderr as a JSON string and the
argv as a JSON list. The first line starts with ``#`` and names the numpy and
BLAS that computed the table; it is not compared. tests/test_cli.py requires
the same rows of ``cli.run`` in one process. A change that moves report bytes
regenerates the table with the command above, and its diff declares the
change. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_suffix(".txt")
OUT = "out"

# spec files by name: a payload is written as its JSON, a string as it is
FILES = {
    "mono2.json": {"p": 2, "coefficients": [], "truncation": 1},
    "lin.json": {"p": 1, "coefficients": [[0.25, 0]], "truncation": 2},
    "probe.json": {"p": 0, "coefficients": [[1.0, 0]], "truncation": 2},
    "wide.json": {"p": 2, "coefficients": [[0.95, 0]]},
    "gap.json": {"p": 2, "coefficients": [[0.05, 0]], "gap_index": 2},
    "pole.json": {"p": 1, "coefficients": [[-2.0, 0]]},
    "badjson.json": "{not json",
    "mismatch.json": {"p": 1, "coefficients": [[0.5, 0]], "truncation": 5},
    "big.json": {"p": 2, "coefficients": [[1e308, 0.0]]},
    "huge.json": {"p": 1, "coefficients": [[1e308, 0.0]]},
    "q.json": {"p": 0, "coefficients": [[2.0, 0.0]]},
    "f.json": {"p": 2, "coefficients": [[0.3, 0.0]]},
    "p0.json": {"p": 0, "coefficients": [[0.3, 0.0]]},
    "p3.json": {"p": 3, "coefficients": [[0.1, 0.0]]},
    "gap3.json": {"p": 1, "coefficients": [[0.0, 0.0], [0.2, 0.0]], "gap_index": 3},
    "gap4.json": {"p": 2, "coefficients": [[0.0, 0.0], [0.2, 0.0], [0.01, 0.0]], "gap_index": 4},
    "gap4z.json": {"p": 1, "coefficients": [[0, 0], [0, 0], [0.2, 0]], "gap_index": 4},
    "qbig.json": {"p": 0, "coefficients": [[1e308, 0.0], [1e308, 0.0]]},
    "overflow.json": {"p": 2, "coefficients": [[1.7e308 / 3, 0.0], [1.7e308 / 6, 0.0]]},
    "long.json": {"p": 1, "coefficients": [[0.3 / (j + 1) ** 2, 0.0] for j in range(80)]},
    "negligible.json": {"p": 1, "coefficients": [[2.0, 0.0]] + [[1e-320, 0.0]] * 1998},
    "cplx.json": {"p": 2, "coefficients": [[0.21, -0.13], [-0.07, 0.05], [0.011, 0.019]]},
}

_T4 = ["scan", "--theorem", "t4", "--p", "3", "--alpha0", "1.0", "--trials", "20", "--seed"]

# Every exit code but 1 (a real function gives no FAIL), every subcommand and
# theorem id, the parser's own paths (help, version, unknown, missing and stray
# arguments), and the argv the CLI tests and the acceptance suite pass to run.
ROWS = [
    [], ["-h"], ["--help"], ["--version"], ["--vers"], ["nope"], ["--", "gamma0"], ["-h", "verify"],
    ["verify", "-h"], ["verify", "--bogus"], ["gamma0", "extra"], ["gamma0", "--version"], ["gamma0", "-h"],
    ["deltamax", "-h"], ["alpha", "-h"], ["lemma1", "-h"], ["scan", "-h"], ["heatmap", "-h"],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "1.0", "--grid", "64"],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "1.0", "--grid", "0x8"],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "1.0", "--points", "0"],
    ["heatmap", "--function", "mono2.json", "--quantity", "arg-fp", "--grid", "64", "--out", OUT],
    ["gamma0"], ["deltamax"],
    ["alpha", "--alpha0", "1.5", "--count", "5"], ["alpha", "--alpha0", "1.0", "--count", "5"],
    ["alpha", "--alpha0", "1.5", "--count", "2", "--format", "csv"],
    ["verify", "--theorem", "t1"], ["alpha", "--alpha0", "1.0"],
    ["alpha", "--alpha0", "2.5", "--count", "3"], ["alpha", "--alpha0", "1.0", "--count", "-1"],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "1.0"],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "1.0", "--out", OUT],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "1.0", "--format", "csv"],
    ["verify", "--theorem", "t1", "--function", "mono2.json", "--alpha1", "0.5", "--points", "16"],
    ["verify", "--theorem", "c2", "--function", "wide.json"],
    ["verify", "--theorem", "t5", "--function", "lin.json", "--delta", "0.3", "--s", "2"],
    ["verify", "--theorem", "t5", "--function", "gap.json", "--delta", "0.3"],
    ["verify", "--theorem", "l2", "--function", "pole.json"],
    ["verify", "--theorem", "t1", "--function", "nope.json", "--alpha1", "1.0"],
    ["verify", "--theorem", "t1", "--function", "badjson.json", "--alpha1", "1.0"],
    ["verify", "--theorem", "t1", "--function", "mismatch.json", "--alpha1", "1.0"],
    ["verify", "--theorem", "t1", "--function", "big.json", "--alpha1", "1.0"],
    ["lemma1", "--function", "probe.json", "--gamma", repr(2 * math.asin(0.6) / math.pi)],
    ["lemma1", "--function", "probe.json", "--gamma", "1.9"],
    ["lemma1", "--function", "q.json", "--gamma", "1.5"],
    ["scan", "--theorem", "t1", "--trials", "1", "--seed", "1", "--p", "1", "--alpha1", "0.5"],
    ["scan", "--theorem", "t1", "--trials", "2", "--seed", "1", "--p", "2"],
    ["scan", "--theorem", "t1", "--trials", "0", "--seed", "1", "--p", "2", "--alpha1", "0.5"],
    ["scan", "--theorem", "t5", "--s", "2", "--delta", "0.3", "--p", "7", "--seed", "1"],
    ["scan", "--theorem", "c2", "--trials", "4", "--seed", "301", "--p", "2", "--points", "32", "--ncoeffs", "6"],
    ["scan", "--theorem", "t1", "--p", "170", "--alpha1", "0.5", "--trials", "1", "--seed", "1"],
    ["scan", "--theorem", "t1", "--p", "171", "--alpha1", "0.5", "--trials", "1", "--seed", "1"],
    ["scan", "--theorem", "l3", "--p", "1", "--trials", "1", "--seed", "4"],
    ["heatmap", "--function", "pole.json", "--quantity", "arg-jst", "--rmax", "0.5", "--out", OUT],
    ["heatmap", "--function", "pole.json", "--quantity", "arg-fp", "--rmax", "0.5", "--grid", "2x8", "--out", OUT],
    ["heatmap", "--function", "pole.json", "--quantity", "arg-fp1-over-z", "--rmax", "0.5", "--grid", "2x8",
     "--out", OUT],
    ["heatmap", "--function", "pole.json", "--quantity", "arg-jst", "--rmax", "0.25", "--grid", "1x8", "--out", OUT],
    ["heatmap", "--function", "big.json", "--quantity", "re-ratio", "--out", OUT],
    ["heatmap", "--function", "huge.json", "--quantity", "arg-jst", "--out", OUT],
    ["heatmap", "--function", "lin.json", "--quantity", "arg-fp", "--rmax", "0.9", "--grid", "16x64", "--out", OUT],
    ["heatmap", "--function", "lin.json", "--quantity", "arg-fp", "--rmax", "0.9", "--out", OUT],
    ["heatmap", "--function", "mono2.json", "--quantity", "arg-fp", "--grid", "4x8", "--out", OUT],
    ["heatmap", "--function", "lin.json", "--quantity", "arg-jst", "--grid", "8x16", "--out", OUT],
    ["heatmap", "--function", "lin.json", "--quantity", "arg-fp1-over-z", "--grid", "4x8", "--out", OUT],
    ["heatmap", "--function", "lin.json", "--quantity", "re-ratio", "--grid", "4x8", "--out", OUT],
    ["heatmap", "--function", "lin.json", "--quantity", "curvature", "--out", OUT],
    # usage: help, unknown ids before p, a missing --out directory, one spelling per flag
    ["verify", "--help"], ["verify", "--theorem"],
    ["scan", "--theorem", "q7", "--seed", "1"],
    ["scan", "--theorem", "q7", "--seed", "1", "--trials", "0"],
    ["scan", "--theorem", "q7", "--seed", "1", "--ncoeffs", "1"],
    ["verify", "--theorem", "q7", "--function", "p0.json"],
    ["gamma0", "--out", "missing/r.json"],
    ["gamma0", "--o", OUT],
    ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", "f.json", "--p", "3"],
    ["lemma1", "--function", "p0.json", "--gamma", "0.5", "--p", "3"],
    ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", "f.json", "--grid", "8x16"],
    ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", "f.json", "--points", "0"],
    ["verify", "--theorem", "t1", "--alpha1", "1.5", "--function", "f.json"],
    ["alpha", "--alpha0", "1.5", "--count", "5", "--format", "csv"],
    # reports: a t5 f'' that starts with a zero, the sigma = 1 note, 1,998 negligible
    # coefficients, a scan with no conclusion, factorials past 170!, t5's params in order s, delta
    ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", "f.json"],
    ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", "f.json", "--points", "64"],
    ["verify", "--theorem", "t5", "--delta", "0.5", "--function", "gap3.json"],
    ["verify", "--theorem", "t5", "--delta", "0.5", "--function", "gap4.json"],
    ["verify", "--theorem", "t4", "--alpha0", "0.5", "--function", "p3.json"],
    ["verify", "--theorem", "t1", "--alpha1", "0.5", "--function", "negligible.json"],
    ["scan", "--theorem", "l3", "--p", "1", "--trials", "2", "--seed", "0"],
    ["scan", "--theorem", "t3", "--p", "200", "--alpha0", "1.0", "--trials", "20", "--seed", "1"],
    ["scan", "--theorem", "t5", "--s", "2", "--delta", "0.3", "--trials", "2", "--seed", "1"],
    # more coefficients than ring points, folded
    ["scan", "--theorem", "t3", "--p", "3", "--alpha0", "1.0", "--ncoeffs", "600", "--trials", "5", "--seed", "1"],
    ["heatmap", "--function", "long.json", "--quantity", "arg-jst", "--grid", "4x64", "--out", OUT],
    # seeds of one and three words, a negative seed, and one scan twice over
    [*_T4, "0"], [*_T4, str(2**64 + 3)], [*_T4, "-1"], [*_T4, "1"], [*_T4, "1"],
    # numeric failures: overflow, a zero on a ring that underflows, a probe's level out of reach
    ["scan", "--theorem", "c1", "--p", "171", "--trials", "10", "--seed", "1"],
    ["heatmap", "--function", "overflow.json", "--quantity", "arg-jst", "--grid", "1x64", "--out", OUT],
    ["lemma1", "--function", "qbig.json", "--gamma", "0.5"],
    ["lemma1", "--function", "probe.json", "--gamma", "1e-17"],
    ["verify", "--theorem", "t5", "--delta", "0.5", "--function", "gap4z.json", "--rmax", "1e-200"],
    # full default-grid (64x512) heatmaps of multi-coefficient specs: the CSV bytes of every quantity
    ["heatmap", "--function", "long.json", "--quantity", "arg-fp1-over-z", "--out", OUT],
    ["heatmap", "--function", "f.json", "--quantity", "arg-jst", "--out", OUT],
    ["heatmap", "--function", "p3.json", "--quantity", "re-ratio", "--out", OUT],
    ["heatmap", "--function", "cplx.json", "--quantity", "arg-jst", "--out", OUT],
    ["heatmap", "--function", "cplx.json", "--quantity", "re-ratio", "--rmax", "0.9", "--out", OUT],
]


def write_files(directory) -> None:
    """Write FILES into directory."""
    for name, payload in FILES.items():
        Path(directory, name).write_text(payload if isinstance(payload, str) else json.dumps(payload))


def row_line(argv, runner) -> str:
    """The table line of argv, which runner(argv, cwd) -> (exit code, stdout
    bytes, stderr bytes) runs in a new working directory that holds FILES."""
    with tempfile.TemporaryDirectory() as cwd:
        write_files(cwd)
        code, out, err = runner(argv, cwd)
        written = Path(cwd, OUT)
        out_hash = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else "-"
    return f"{code} {hashlib.sha256(out).hexdigest()} {out_hash} {json.dumps(err.decode())} {json.dumps(argv)}"


def host_line() -> str:
    """The table's first line: the numpy version and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def fresh_process(argv, cwd):
    """The runner of main: a fresh ``python -W error -m argstar.cli`` process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "argstar.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> None:
    print(host_line())
    for argv in ROWS:
        print(row_line(argv, fresh_process), flush=True)


if __name__ == "__main__":
    main()
