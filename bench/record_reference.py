"""Record the worst scan margin of every (workload, config, pool seed) into reference.json.

    python3 bench/record_reference.py

The scan workloads check each scan's worst_margin against this table, so it
is recorded once, from the argstar version the benchmark was introduced with;
re-recording it would hide a numerical change.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, add_sources

add_sources()

import argstar  # noqa: E402
from workloads import POOL, REFERENCE_FILE, SCAN_CONFIGS, SCAN_WORKLOADS, scan_call, scan_grid  # noqa: E402


def main() -> None:
    table = {}
    for name, (_, _, trials, _) in SCAN_WORKLOADS.items():
        grid = scan_grid(name)
        table[name] = {}
        for i, (tid, _) in enumerate(SCAN_CONFIGS):
            margins = []
            for k in range(POOL):
                rep = scan_call(grid, trials, i, k)
                if rep.counts["FAIL"] or len(rep.verdicts) != trials:
                    raise SystemExit(f"{name} {tid} pool={k}: unexpected scan result {rep.counts}")
                margins.append(rep.worst_margin)
            table[name][tid] = margins
            print(f"{name} {tid}: min worst_margin {min(margins)!r}", file=sys.stderr)
    doc = {"argstar_version": argstar.__version__, "worst_margin": table}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
