"""How fast the host runs right now, from a fixed calibration kernel.

A small shared host slows every process on it by up to 2x for seconds to
minutes at a time, in CPU time as much as in wall time, so neither the
fastest nor the median repetition of a unit of work is steady from run to
run. The kernel below does a fixed amount of work of the kinds the
workloads do (small numpy calls from Python loops, long FFTs, dict and
integer work) and uses nothing from the package under test. The workloads
run it between consecutive units and rescale each unit's wall time by the
kernel's time around it:

    ref_s = unit_s * REF_S / mean(kernel_s before, kernel_s after)

``ref_s`` is what the unit would take on a host that runs the kernel in
REF_S, so the slowdowns shared by unit and kernel cancel, while a change to
the package moves ``ref_s`` exactly as it moves ``unit_s``. The raw wall
times stay in the run summary.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's fastest wall time on the 2-vCPU Xeon host (Haswell
# build of OpenBLAS) the benchmark was tuned on, so that ref_s reads close
# to wall time there when the host is quiet. Only a scale.
REF_S = 0.035

_SMALL = np.random.default_rng(0).standard_normal((64, 3))
_LONG = np.random.default_rng(1).standard_normal(1 << 16)
_warm = False


def kernel() -> float:
    """A fixed amount of mixed work; returns a checksum so none is skipped."""
    s = 0.0
    for i in range(8000):
        s += float(_SMALL[i % 64] @ _SMALL[(i * 7) % 64])
    for _ in range(12):
        s += float(np.fft.irfft(np.fft.rfft(_LONG) * 0.5)[0])
    d: dict[int, int] = {}
    for i in range(24000):
        d[i & 1023] = d.get(i & 1023, 0) + i * 3 % 7
    return s + len(d)


def sample() -> float:
    """Wall seconds of one kernel run; the first call in a process also
    runs it once untimed, to warm numpy's FFT set-up."""
    global _warm
    if not _warm:
        kernel()
        _warm = True
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rescale(unit_s, kernel_s) -> np.ndarray:
    """Reference seconds of each unit, given the kernel times around the
    units (one more than there are units: before the first, between each
    pair, after the last)."""
    unit_s = np.asarray(unit_s, dtype=np.float64)
    kernel_s = np.asarray(kernel_s, dtype=np.float64)
    if len(kernel_s) != len(unit_s) + 1:
        raise ValueError(f"{len(unit_s)} units need {len(unit_s) + 1} kernel times, "
                         f"got {len(kernel_s)}")
    around = 0.5 * (kernel_s[:-1] + kernel_s[1:])
    return unit_s * REF_S / around

