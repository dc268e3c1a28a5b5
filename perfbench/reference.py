"""A fixed computation that times the machine, not the program.

The host's speed drifts by 20 % and more over minutes, because other
tenants share its cores, and every workload drifts with it.  The timed
phase runs ``seconds()`` before each request, outside the request's
timing.  Times and rates are then scaled by ``slowdown()``, the run's
median reference time over ``NOMINAL_S`` raised to ``EXPONENT``.  It uses
numpy only, never the program, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median of 200 back-to-back calls on one vCPU of a 2-vCPU
# "Intel(R) Xeon(R) Processor" host, one BLAS thread, scipy-openblas 0.3.31.
NOMINAL_S = 0.0060
# The program's times move less than the reference's: across 20 runs per
# workload at 20 s, log run median against log slowdown had slopes from
# 0.45 to 0.85 (median 0.60, correlation 0.75-0.91).  Full scaling
# (exponent 1) would turn a faster machine into a slower program.
EXPONENT = 0.6

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 256)).astype(np.float32)
_B = _rng.standard_normal((256, 1024)).astype(np.float32)
_LEVELS = np.linspace(-1.0, 1.0, 16, dtype=np.float32)


def _work():
    for _ in range(8):  # float32 GEMM, as in the high-precision linears
        h = _A @ _B
    h = np.tanh(h[:, :256])
    for _ in range(8):  # round to a grid and decode by table, as in the 4-bit path
        q = np.clip(np.rint(h * 7.0), -7, 7).astype(np.int8)
        _LEVELS.take(q + 7)
    s = 0
    for i in range(30000):  # interpreter work, as in the per-token Python
        s += i * i % 7
    return s


def seconds() -> float:
    """One timed call, after an untimed one that brings its data back into
    cache, so the request before it does not change its time."""
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def slowdown(samples) -> float:
    """How much slower the machine ran than nominal, as the program feels it."""
    return (statistics.median(samples) / NOMINAL_S) ** EXPONENT
