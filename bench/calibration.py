"""Host-speed calibration: a fixed piece of work, timed between the workload's rounds.

On a shared machine the speed of the host drifts by 20% and more within a
run and from one run to the next, with no CPU steal to show for it: another
tenant's load slows the same code for seconds to minutes at a time. A run
cannot leave that out by choosing which calls to count, but it can time a
fixed amount of work that does not touch argstar next to the calls, and
express each call's time in the time of a reference host:

    reported time = measured time * REFERENCE_S / calibration time nearby

A change to argstar moves the measured time and leaves the calibration
alone, so it shows in full; a slow stretch of the host moves both. The work
is a mix of the three kinds the workloads do: 16-coefficient Horner steps on
a 512-point ring (numpy call overhead, like ``scan-ring``), on a 64x512 grid
(array arithmetic, like ``scan-grid``) and a pure-Python loop (interpreter
time, like the CLI layer of ``oneshot``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Calibration time of the reference host: about what ``calibrate`` takes on a
# 2-vCPU x86-64 VM (Python 3.12, numpy 2.4) in a quiet stretch. It only sets
# the scale of the reported times; comparisons between runs do not depend on it.
REFERENCE_S = 0.005
# Calibration samples on each side of a round that its scale is taken from;
# a median over several keeps one stalled sample from skewing a round.
WINDOW = 2

_COEFFS = [complex(0.1 * k, 0.05) for k in range(16)]
_RING = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
_GRID = np.outer(np.linspace(0.01, 0.99, 64), _RING).ravel()


def _horner(z) -> float:
    acc = np.zeros_like(z)
    for c in _COEFFS:
        acc = acc * z + c
    return float(np.abs(np.angle(acc)).max())


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = time.perf_counter()
    for _ in range(20):
        _horner(_RING)
    _horner(_GRID)
    acc = 0.0
    for i in range(20_000):
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def scales(samples: list) -> list:
    """Scale factor of each round, for calibration samples taken before the
    first round and after every round (so one more sample than rounds)."""
    return [
        REFERENCE_S / statistics.median(samples[max(0, j - WINDOW + 1): j + WINDOW + 1])
        for j in range(len(samples) - 1)
    ]
