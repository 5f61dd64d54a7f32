"""A fixed pure-Python workload that measures how fast the host runs right now.

The host this benchmark runs on switches, for minutes at a time, between a
fast state and one about 1.5x slower, with CPU time tracking wall time.
A run's times are therefore rescaled to a reference speed: the benchmark
times this workload between verdicts and multiplies each time by
REFERENCE_MS / (the local median of these probe times).  The workload never
imports omdet, so a change to the program cannot move it; it mixes the kinds
of work omdet does (sparse polynomial products over dicts with big-integer
coefficients, Fraction arithmetic, tuples of signs) so that it slows with
the host the way the program does.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

# About the median probe time on the 2-core host the benchmark was tuned on
# (CPython 3.11.7), where probes took 6.5-12 ms; it fixes the scale of every
# rescaled time, so that rescaled figures read close to wall-clock ones.
REFERENCE_MS = 10.0

_rng = random.Random(20031970)
_POLY_A = {_rng.randrange(1 << 20): _rng.randrange(-(10**12), 10**12) for _ in range(40)}
_POLY_B = {_rng.randrange(1 << 20): _rng.randrange(-(10**12), 10**12) for _ in range(40)}
_ROWS = [[Fraction(_rng.randint(-5, 5), _rng.randint(1, 4)) for _ in range(4)] for _ in range(24)]
_SIGNS = [tuple(_rng.choice((-1, 0, 1)) for _ in range(12)) for _ in range(60)]


def _work() -> int:
    product: dict[int, int] = {}
    for ka, ca in _POLY_A.items():
        for kb, cb in _POLY_B.items():
            k = ka + kb
            product[k] = product.get(k, 0) + ca * cb
    check = len(product)
    for i, u in enumerate(_ROWS):  # one Fourier-Motzkin style round of combinations
        for v in _ROWS[i + 1 :]:
            if u[0] * v[0] < 0:
                w = [a * abs(v[0]) + b * abs(u[0]) for a, b in zip(u, v)]
                check += w[1].denominator
    composed = set()
    for x in _SIGNS:  # covector composition
        for y in _SIGNS[:20]:
            composed.add(tuple(a if a else b for a, b in zip(x, y)))
    return check + len(composed)


def probe_ms() -> float:
    """Wall time of one pass of the reference workload, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return (perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()
