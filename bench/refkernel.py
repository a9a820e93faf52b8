"""Fixed reference kernel that the benchmark times next to every task.

The kernel mixes the kinds of work capdual does: an interpreted loop,
exact `Fraction` arithmetic, many small numpy calls (3x3 solves, the shape
of one Newton step) and a few medium numpy calls (log-add-exp and an FFT on
2^15 points). Dividing a task's wall time by the kernel's wall time, timed
in the same process right beside it, cancels most of the machine-speed drift
that raw wall seconds carry on a shared host.

R0 is the kernel's nominal time. A calibrated time `wall / kernel * R0`
reads as seconds on a machine where the kernel takes exactly R0.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

R0 = 0.0032  # seconds: the kernel's median on the reference host (bench/README.md)

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_B = np.array([1.0, 2.0, 3.0])
_V = np.linspace(-3.0, 3.0, 1 << 15)


def reference_kernel() -> float:
    """Run the fixed work once and return a checksum, so nothing is skipped."""
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % 1_000_003
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i * i)
    x = _B
    for _ in range(120):
        x = np.linalg.solve(_A, x + _B)
    spec = np.fft.rfft(np.logaddexp(_V, _V[::-1]))
    return float(acc) + float(s) + float(x.sum()) + float(np.abs(spec[:8]).sum())


def time_reference() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
