"""Print the sha256 of the benchmark's scan-pool reports, as tests/pool_digest.txt holds it.

    python -W error tests/pool_digest.py > tests/pool_digest.txt

Run from anywhere; the package is imported from this checkout's ``src``. The
digest covers the 2,048 scans that the scan workloads of ``bench/`` draw
from: for each workload of ``SCAN_WORKLOADS`` in order, each config of
``SCAN_CONFIGS`` in order, and each pool index 0..POOL-1, ``repr`` of the
``ScanReport`` of that scan. The reprs are joined by newlines, with no final
newline, and encoded as UTF-8. Two checkouts whose digests are equal give the
same report bytes on the whole pool. The first line starts with ``#`` and
names the numpy and BLAS that computed the digest, as tests/cli_corpus.txt
does; it is not compared. A change that moves report bytes on the pool
regenerates the file with the command above. pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no cache files under bench/

from cli_corpus import host_line  # noqa: E402
from workloads import POOL, SCAN_CONFIGS, SCAN_WORKLOADS, scan_call, scan_grid  # noqa: E402


def pool_reprs():
    """The repr of every pool scan, in (workload, config, pool index) order."""
    for name, (_, _, trials, _) in SCAN_WORKLOADS.items():
        grid = scan_grid(name)
        for i in range(len(SCAN_CONFIGS)):
            for k in range(POOL):
                yield repr(scan_call(grid, trials, i, k))


def main() -> None:
    reprs = list(pool_reprs())
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    print(host_line())
    print(f"{digest}  {len(reprs)} pool scans")


if __name__ == "__main__":
    main()
