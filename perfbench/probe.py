"""Host-speed reference for the benchmark's timings.

On a shared host the speed of one core drifts with what other tenants run:
on the 2-vCPU Xeon VM the baseline was recorded on, by up to a factor of two
over a few minutes.  A whole run sits in one such phase, so no statistic over
the jobs of one run removes the drift.
Every timed interval is therefore paired with this fixed reference, run just
before and just after it in the same process, and reported as

    seconds * REFERENCE_S / mean(reference before, reference after)

that is, in seconds on a host where the reference takes REFERENCE_S.  The
reference mixes the kinds of work the workloads do: 256 x 256 complex FFTs,
array arithmetic, ``np.roll`` shifts and interpreter-bound Python.  It does not
touch the bq2d package, so a change to the package moves the reported times by
as much as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# nominal reference time: about its median on the 2-vCPU Xeon host the baseline was recorded on
REFERENCE_S = 0.2
ROUNDS = 40
_inputs: tuple | None = None


def reference_s() -> float:
    """Wall seconds of one pass of the fixed reference work."""
    global _inputs
    if _inputs is None:
        rng = np.random.default_rng(20121213)
        a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        _inputs = (a, rng.standard_normal((256, 256)), rng.standard_normal((128, 128)))
    a, mult, field = _inputs
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        g = np.fft.ifft2(np.fft.fft2(a) * mult)
        energy = float((g.real**2 + g.imag**2).sum())
        diff = sum(float(np.abs(np.roll(field, k, axis=k % 2) - field).max()) for k in range(1, 9))
        acc = 0.0
        for i in range(2000):
            acc += (i * energy + diff) % 7.0
    return time.perf_counter() - t0
