"""Command-line interface: constants, chain tables, disk verification, probes,
scans, and heatmap emission, with reproducible JSON/CSV reports.

Reports carry no timestamps or environment state, so identical argv yields
byte-identical output. Floats are serialized via repr (17 significant digits),
complex values as [re, im] pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .roots import (
    ABS_TOL,
    MAX_ITER,
    BracketInvalid,
    NoConvergence,
    alpha_sequence,
    majorant_sequence,
    sigma_index,
    solve_delta_max,
    solve_gamma0,
)
from .series import ArgOfZero, PowerSeries
from .verify import (
    HEATMAP_QUANTITIES,
    THEOREMS,
    CrossingUnresolved,
    DiskGrid,
    DrawsExhausted,
    NonFiniteValue,
    NotAttained,
    ZeroOnGrid,
    check_theorem,
    counterexample_scan,
    heatmap_values,
    lemma1_probe,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4


class FunctionFileError(ValueError):
    """A function-spec file is missing, malformed, or inconsistent."""


# ------------------------------------------------------- function spec files

def parse_function_file(path) -> tuple[PowerSeries, dict]:
    """Load {p, coefficients, truncation?, gap_index?} into a PowerSeries.

    `coefficients` lists [re, im] pairs for the terms after the implied
    leading coefficient 1. `truncation`, when present, must equal
    len(coefficients) + 1. `gap_index` s forces the coefficient of z^(s-1)
    to zero (an error if that would be the leading term).
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise FunctionFileError(f"cannot read {path}: {e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FunctionFileError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise FunctionFileError(f"{path}: top level must be an object")
    unknown = set(data) - {"p", "coefficients", "truncation", "gap_index"}
    if unknown:
        raise FunctionFileError(f"{path}: unknown field {sorted(unknown)[0]!r}")

    p = data.get("p")
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise FunctionFileError(f"{path}: field 'p' must be an integer >= 0")
    pairs = data.get("coefficients")
    if not isinstance(pairs, list):
        raise FunctionFileError(f"{path}: field 'coefficients' must be a list of [re, im] pairs")
    tail = []
    for i, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise FunctionFileError(f"{path}: coefficients[{i}] must be an [re, im] pair of numbers")
        c = complex(pair[0], pair[1])
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise FunctionFileError(f"{path}: coefficients[{i}] must be finite")
        tail.append(c)

    if "truncation" in data:
        trunc = data["truncation"]
        if not isinstance(trunc, int) or isinstance(trunc, bool):
            raise FunctionFileError(f"{path}: field 'truncation' must be an integer")
        if trunc != len(tail) + 1:
            raise FunctionFileError(
                f"{path}: truncation {trunc} does not match {len(tail)} tail coefficients "
                f"(expected {len(tail) + 1})"
            )

    meta: dict = {}
    if "gap_index" in data:
        s = data["gap_index"]
        if not isinstance(s, int) or isinstance(s, bool) or s < 2:
            raise FunctionFileError(f"{path}: field 'gap_index' must be an integer >= 2")
        if s - 1 == p:
            raise FunctionFileError(
                f"{path}: gap_index {s} would zero the leading coefficient of z^{p}"
            )
        j = s - 1 - (p + 1)
        if 0 <= j < len(tail):
            tail[j] = 0j
        meta["gap_index"] = s

    raw = np.concatenate(([1.0], np.asarray(tail, dtype=complex) if tail else []))
    return PowerSeries(p, raw), meta


def series_to_spec(f: PowerSeries, gap_index: Optional[int] = None) -> dict:
    """Inverse of parse_function_file for series with leading coefficient 1."""
    if f.coeffs[0] != 1:
        raise ValueError("only series with leading coefficient 1 are serializable")
    spec = {
        "p": f.order_p,
        "coefficients": [[float(c.real), float(c.imag)] for c in f.coeffs[1:]],
    }
    if gap_index is not None:
        spec["gap_index"] = gap_index
    return spec


# ------------------------------------------------------------- serialization

def _payload(obj):
    """A report as JSON data: a dataclass becomes {field: value} in field
    order, a PowerSeries its spec, a complex [re, im], a tuple or list a list;
    anything else passes through."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, PowerSeries):
        return series_to_spec(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (tuple, list)):
        return [_payload(v) for v in obj]
    return obj


def _strip_out_flag(argv) -> list:
    # the report destination does not affect the result, so the echoed command
    # omits it; stdout and --out emissions are then byte-identical
    kept, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--out":
            skip = True
        elif not a.startswith("--out="):
            kept.append(a)
    return kept


# the bisection settings that solved a report's constants, echoed as its `solver`
_SOLVER = {"abs_tol": ABS_TOL, "max_iter": MAX_ITER}


def _envelope(argv, result, grid: Optional[DiskGrid] = None, solver: Optional[dict] = None) -> dict:
    env = {"tool": "argstar", "version": __version__, "command": _strip_out_flag(argv)}
    if grid is not None:  # the checks' ring: r_max and its points
        env["grid"] = {"r_max": grid.r_max, "n_angular": grid.n_angular}
    if solver is not None:
        env["solver"] = solver
    env["result"] = _payload(result)
    return env


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}.{i}" if prefix else str(i), v, rows)
    else:
        if isinstance(obj, bool):
            cell = "true" if obj else "false"
        elif isinstance(obj, float):
            cell = repr(obj)
        elif obj is None:
            cell = ""
        else:
            cell = str(obj)
        rows.append((prefix, cell))


def _to_csv(rows, header) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _render(env: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(env, indent=2) + "\n"
    rows: list = []
    _flatten("", env, rows)
    return _to_csv(rows, ("key", "value"))


def _write(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()  # a full disk or closed pipe behind stdout raises here, inside run


# ------------------------------------------------------------------- heatmap

def emit_heatmap(f: PowerSeries, quantity: str, grid: DiskGrid, path) -> None:
    """Write quantity sampled over the grid as CSV rows r,theta,value in
    (radial, angular) order (see verify.heatmap_values), one ring at a time.
    A list's repr writes each float as its repr, so one repr per ring formats
    its values, split apart at the list's separators."""
    vals = heatmap_values(f, quantity, grid)
    thetas = [repr(t) for t in grid.angles.tolist()]
    with open(path, "w") as out:
        out.write("r,theta,value\n")
        for r, row in zip(grid.radii.tolist(), vals):
            texts = repr(row.tolist())[1:-1].split(", ")
            out.write("\n".join(map(",".join, zip(itertools.repeat(repr(r)), thetas, texts))))
            out.write("\n")


# ------------------------------------------------------------------ handlers

def _ring_from(args) -> DiskGrid:
    """The ring |z| = r_max of --points angles, all that verify, scan and lemma1 read of a grid."""
    return DiskGrid(r_max=args.rmax, n_radial=1, n_angular=args.points)


def _cmd_gamma0(args, argv) -> int:
    root, composite = solve_gamma0()
    result = {
        "gamma0": root,
        "composite": composite,
        "residual": abs(2 * root + (2 / math.pi) * math.atan(root) - 1.0),
    }
    _write(_render(_envelope(argv, result, solver=_SOLVER), args.format), args.out)
    return EXIT_PASS


def _cmd_deltamax(args, argv) -> int:
    root, bound = solve_delta_max()
    result = {
        "delta_max": root,
        "bound": bound,
        "residual": abs(2 * root + (2 / math.pi) * math.atan(root) - 2.0),
    }
    _write(_render(_envelope(argv, result, solver=_SOLVER), args.format), args.out)
    return EXIT_PASS


def _cmd_alpha(args, argv) -> int:
    chain = alpha_sequence(args.alpha0, args.count)
    majorant = majorant_sequence(args.count)
    result = {
        "alpha0": chain.alpha0,
        "values": list(chain.values),
        "residuals": list(chain.residuals),
        "majorant": majorant,
        "sigma": sigma_index(chain.values),
    }
    if args.format == "csv":
        rows = [
            (str(k), repr(chain.values[k]), repr(chain.residuals[k]), repr(majorant[k]))
            for k in range(args.count + 1)
        ]
        text = _to_csv(rows, ("k", "alpha", "residual", "majorant"))
    else:
        text = _render(_envelope(argv, result, solver=_SOLVER), "json")
    _write(text, args.out)
    return EXIT_PASS


def _cmd_verify(args, argv) -> int:
    f, meta = parse_function_file(args.function)
    grid = _ring_from(args)
    theorem = THEOREMS.get(args.theorem.upper())  # a gap-series theorem takes s from the file by default
    s = meta.get("gap_index") if args.s is None and theorem is not None and "s" in theorem.params else args.s
    rep = check_theorem(args.theorem, f, grid, alpha1=args.alpha1, alpha0=args.alpha0, delta=args.delta, s=s)
    _write(_render(_envelope(argv, rep, grid=grid), args.format), args.out)
    return EXIT_FAIL if rep.verdict == "FAIL" else EXIT_PASS


def _cmd_lemma1(args, argv) -> int:
    q, _ = parse_function_file(args.function)
    grid = _ring_from(args)
    try:
        rep = lemma1_probe(q, args.gamma, grid)
    except NotAttained as e:
        partial = {
            "error": "not_attained",
            "gamma": e.gamma,
            "level": e.level,
            "best_sup": e.best_sup,
            "best_point": _payload(e.best_point),
        }
        _write(_render(_envelope(argv, partial, grid=grid), args.format), args.out)
        print(f"lemma1: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    _write(_render(_envelope(argv, rep, grid=grid), args.format), args.out)
    return EXIT_PASS


def _cmd_scan(args, argv) -> int:
    grid = _ring_from(args)
    rep = counterexample_scan(
        args.theorem,
        trials=args.trials,
        seed=args.seed,
        p=args.p,
        grid=grid,
        N=args.ncoeffs,
        alpha1=args.alpha1,
        alpha0=args.alpha0,
        delta=args.delta,
        s=args.s,
    )
    _write(_render(_envelope(argv, rep, grid=grid), args.format), args.out)
    return EXIT_FAIL if rep.counts["FAIL"] > 0 else EXIT_PASS


def _cmd_heatmap(args, argv) -> int:
    f, _ = parse_function_file(args.function)
    nr, na = args.grid
    emit_heatmap(f, args.quantity, DiskGrid(r_max=args.rmax, n_radial=nr, n_angular=na), args.out)
    return EXIT_PASS


# -------------------------------------------------------------------- parser

def _grid_spec(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise argparse.ArgumentTypeError(f"expected <n_radial>x<n_angular>, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_ring_flags(sub):
    sub.add_argument("--rmax", type=float, default=0.995)
    sub.add_argument("--points", type=int, default=512, help="angles on the ring |z| = r_max")


def _add_alpha(sub):
    sub.add_argument("--alpha0", type=float, required=True)
    sub.add_argument("--count", type=int, required=True)
    _add_output_flags(sub)


def _add_verify(sub):
    sub.add_argument("--theorem", required=True, help="|".join(THEOREMS).lower())
    sub.add_argument("--function", required=True, help="function spec JSON file")
    sub.add_argument("--alpha1", type=float, default=None)
    sub.add_argument("--alpha0", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--s", type=int, default=None, help="gap index (default: file gap_index)")
    _add_ring_flags(sub)
    _add_output_flags(sub)


def _add_lemma1(sub):
    sub.add_argument("--function", required=True, help="function spec JSON file with p=0")
    sub.add_argument("--gamma", type=float, required=True)
    _add_ring_flags(sub)
    _add_output_flags(sub)


def _add_scan(sub):
    sub.add_argument("--theorem", required=True)
    sub.add_argument("--trials", type=int, default=200)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--alpha1", type=float, default=None)
    sub.add_argument("--alpha0", type=float, default=None)
    sub.add_argument("--delta", type=float, default=None)
    sub.add_argument("--s", type=int, default=None)
    sub.add_argument("--ncoeffs", type=int, default=16, help="truncation of sampled functions")
    _add_ring_flags(sub)
    _add_output_flags(sub)


def _add_heatmap(sub):
    sub.add_argument("--function", required=True)
    sub.add_argument("--quantity", required=True, choices=HEATMAP_QUANTITIES)
    sub.add_argument("--out", required=True)
    sub.add_argument("--rmax", type=float, default=0.995)
    sub.add_argument("--grid", type=_grid_spec, default=(64, 512), help="<n_radial>x<n_angular>")


# subcommand -> (help, handler, function adding its arguments), in help order
_COMMANDS = {
    "gamma0": ("root of 2g + (2/pi)atan(g) = 1 and the composite bound", _cmd_gamma0, _add_output_flags),
    "deltamax": ("root of 2d + (2/pi)atan(d) = 2 and the gap-series bound", _cmd_deltamax, _add_output_flags),
    "alpha": ("implicit alpha chain with majorant column", _cmd_alpha, _add_alpha),
    "verify": ("check one implication for a function file", _cmd_verify, _add_verify),
    "lemma1": ("first-crossing boundary probe for q with q(0)=1", _cmd_lemma1, _add_lemma1),
    "scan": ("randomized counterexample scan for one implication", _cmd_scan, _add_scan),
    "heatmap": ("sample one quantity over the grid as CSV", _cmd_heatmap, _add_heatmap),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads the terminal width once, on first use.
    argparse builds a formatter, which reads the width, for every
    add_argument; only help and error output use it. Sub-parsers are of the
    same class."""

    _width: Optional[int] = None

    def _get_formatter(self):
        if self._width is None:
            self._width = shutil.get_terminal_size().columns - 2  # HelpFormatter's own default
        return self.formatter_class(prog=self.prog, width=self._width)


def _build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The argstar parser with every subcommand, or with just `only`.

    A parser built for one subcommand prints the same usage line as the full
    one: the metavar spells out every choice. The full tree keeps argparse's
    own metavar, whose error messages name the argument `subcommand`.
    """
    parser = _Parser(
        prog="argstar",
        description="Numerical checks of argument-bound starlikeness conditions on the unit disk.",
    )
    parser.add_argument("--version", action="version", version=f"argstar {__version__}")
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else (only,):
        help_text, handler, add_arguments = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        add_arguments(sub)
        sub.set_defaults(handler=handler)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code without exiting.

    Only the invoked subcommand's arguments are built; -h, --version and
    anything that does not start with a subcommand get the full parser."""
    argv = list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else (0 if code is None else EXIT_USAGE)
    try:
        return args.handler(args, argv)
    except FunctionFileError as e:
        print(f"argstar: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ZeroOnGrid, NonFiniteValue, NoConvergence, ArgOfZero, BracketInvalid, CrossingUnresolved,
            np.linalg.LinAlgError) as e:
        print(f"argstar: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except DrawsExhausted as e:
        print(f"argstar: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:  # ParamOutOfRange among them
        print(f"argstar: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # writing the report: a spec file that cannot be read is a FunctionFileError
        if not args.out:
            # what is left in stdout's buffer is flushed again at exit; on the same full disk or
            # closed pipe that would print a second error and make the exit status 120
            with contextlib.suppress(AttributeError, OSError, ValueError):  # a stdout with no file behind it
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print(f"argstar: cannot write {args.out or 'stdout'}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
