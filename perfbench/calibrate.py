"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x in phases of a minute or two.  The guest's steal time stays near zero
and process CPU time drifts with wall time: the guest's own instructions
run slower, not less often.  A 25-second run sits inside one phase, so run-to-run
spreads of raw pass times reach 0.35 of their median.

The kernel below uses numpy only, never latticeym, so a change to the
package cannot move it.  It mixes three kinds of work that the workloads
do: many small stacked 3x3 complex products and reductions (the Metropolis
updates), one large copy and reduction (memory bandwidth) and elementwise
transcendental functions on 100k-element arrays (quadrature grids).  The
harness times it before and after every job of a pass and rescales the
pass time towards the speed at which the kernel takes ``REFERENCE_S``:

    normalized = raw * (REFERENCE_S / kernel) ** sensitivity

with ``kernel`` the median of the kernel times sampled around the pass and
``sensitivity`` the share of the kernel's slowdown that the workload's
pass time follows (workloads.SENSITIVITY).  A program change moves ``raw``
and leaves ``kernel`` alone, so it shows in full; a host slowdown moves
both and largely cancels.

Set-up time (interpreter start and imports) slows down differently from
the workloads, so it has its own reference: a fresh interpreter that
imports numpy and nothing of latticeym, started right after each set-up
sample.  ``SPAWN_REFERENCE_S`` is its time at the reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-vCPU Intel Xeon virtual machine the baseline
# in README.md was taken on (Python 3.11.7, numpy 2.4.6, one BLAS thread),
# in one of its fast phases.  It only sets the scale of normalized times.
REFERENCE_S = 0.015

SPAWN_REFERENCE_S = 0.12
SPAWN_CODE = "import time, numpy; print(time.monotonic())"

REPEATS = 5

_SMALL = np.full((40, 3, 3), 0.5 + 0.25j)
_HALF = np.arange(0, 40, 2)
_LARGE = np.ones(1_000_000)
_GRID = np.linspace(0.0, 1.0, 100_000)


def kernel() -> None:
    for _ in range(300):
        x = (_SMALL[_HALF] @ _SMALL[_HALF]).sum(axis=0)
        np.exp(np.minimum(0.0, x.real))
    _LARGE.copy().sum()
    for _ in range(6):
        np.exp(-_GRID * _GRID) * np.cos(_GRID) + np.sin(_GRID)


def sample(repeats: int = REPEATS) -> list:
    """Seconds taken by each of ``repeats`` back-to-back kernel runs."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times


def normalize(raw: float, kernel_s: float, sensitivity: float) -> float:
    """``raw`` seconds rescaled by the median kernel time sampled around them."""
    return raw * (REFERENCE_S / kernel_s) ** sensitivity
