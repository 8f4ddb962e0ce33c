"""Host-speed probe: a fixed numpy/scipy kernel timed after every op.

The runs share a virtual machine with other tenants, and the same code runs
1.3-1.7x slower while the host is busy, in periods of seconds to minutes.
The probe does the kinds of work an op does, on arrays of an op's size: a
direct convolution of 100k complex samples with 101 taps, quantizer-style
passes over both rails, an FFT convolution with 1001 taps and a loop of
small-array calls that costs mostly dispatch. Its inputs are fixed here and
it runs no cvqkdsim code, so its time changes with the host and not with
the program under test.

An op's time scaled to the reference host is ``op_ms * REF_MS / probe_ms``,
with ``probe_ms`` measured right after that op. ``REF_MS`` is a fixed
scale, the probe's lowest run median seen on the machine named in
``NOTES.md``, so a scaled time reads as milliseconds on that machine when
it is quiet.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy import signal

REF_MS = 10.0


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
        self.short = rng.standard_normal(101)
        self.y = rng.standard_normal(25_000) + 1j * rng.standard_normal(25_000)
        self.long = rng.standard_normal(1001)
        self.small = rng.standard_normal(2_000)
        # the first call pays scipy's lazy imports; freeing its large arrays
        # raises glibc's mmap threshold, so later calls allocate from the heap
        self()

    def __call__(self) -> float:
        """Run the kernel once; return its time in ms."""
        t0 = perf_counter()
        out = signal.convolve(self.x, self.short, mode="full", method="direct")
        rails = np.concatenate([out.real, out.imag])
        levels = np.clip(np.round(rails * (512.0 / np.max(np.abs(rails)))), -512, 511)
        total = float(np.sum(levels)) + float(np.mean((rails - levels) ** 2))
        total += float(np.abs(signal.fftconvolve(self.y, self.long)).sum())
        for k in range(200):
            part = self.small[k:k + 64]
            total += float(np.dot(part, part))
        elapsed = perf_counter() - t0
        if not np.isfinite(total):
            raise FloatingPointError("probe produced a non-finite value")
        return elapsed * 1e3
