"""Calibration slice: a fixed mix of the work hkforge spends its time on.

Every timed span of the benchmark is paired with this slice, run right
next to it.  A reported time is the raw seconds scaled by
NOMINAL_SLICE_S / (slice time measured next to the work), i.e. seconds at
the nominal host speed, so drift in the speed of a shared host cancels.
The slice never calls hkforge.  It mixes an interpreter-bound Python loop,
numpy complex exp/log/tanh on ray-sized arrays and 256x256 complex
matmuls, in roughly equal parts.

Re-measure the nominal time on an idle host with

    python3 bench/calib.py
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

# Median slice time on the reference host (2-core x86-64 sandbox,
# Python 3.11, numpy 2.4, one BLAS thread); see bench/README.md.
NOMINAL_SLICE_S = 0.030

_LOOP = 30_000
_EXP_REPS = 6
_MATMUL_REPS = 3

_rng = np.random.default_rng(12345)
_ARR = (_rng.standard_normal((256, 16)) - 1.5) \
    + 1j * _rng.standard_normal((256, 16))
_MAT = (_rng.standard_normal((256, 256))
        + 1j * _rng.standard_normal((256, 256))) / 16.0


def _interpreter_part() -> complex:
    acc = 0j
    table = {}
    for i in range(_LOOP):
        z = complex(i % 17, i % 5)
        acc = 0.5 * acc + z * z
        table[i & 255] = acc
    return acc + table[7]


def _transcendental_part() -> complex:
    total = 0j
    for _ in range(_EXP_REPS):
        x = np.exp(_ARR)
        y = np.log(1.0 - x)
        t = np.tanh(0.5 * _ARR)
        total += complex(y.sum() + t.sum())
    return total


def _matmul_part() -> complex:
    m = _MAT
    for _ in range(_MATMUL_REPS):
        m = (_MAT @ m) / 4.0
    return complex(m[0, 0])


_PARTS = (_interpreter_part, _transcendental_part, _matmul_part)


def slice_parts(reps: int = 1) -> tuple[float, ...]:
    """Raw seconds of each part over ``reps`` slices, scaled to one slice."""
    times = [0.0] * len(_PARTS)
    sink = 0j
    for _ in range(reps):
        for k, part in enumerate(_PARTS):
            start = time.perf_counter()
            sink += part()
            times[k] += time.perf_counter() - start
    if sink != sink:  # NaN would mean the slice computed garbage
        raise RuntimeError("calibration slice produced NaN")
    return tuple(t / reps for t in times)


def main(argv: list[str]) -> int:
    count = int(argv[1]) if len(argv) > 1 else 200
    slice_parts(5)  # warm caches
    samples = [slice_parts() for _ in range(count)]
    totals = [sum(p) for p in samples]
    q = statistics.quantiles(totals, n=4)
    print(f"slices: {count}")
    print(f"median slice: {statistics.median(totals):.5f} s "
          f"(quartiles {q[0]:.5f} / {q[2]:.5f})")
    medians = [statistics.median(p[k] for p in samples)
               for k in range(len(_PARTS))]
    print("median parts: " + ", ".join(
        f"{fn.__name__.strip('_')} {m:.4f} s"
        for fn, m in zip(_PARTS, medians)))
    print(f"NOMINAL_SLICE_S in use: {NOMINAL_SLICE_S}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
