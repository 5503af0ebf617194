"""A fixed unit of work that measures the host's current speed.

The shared host's speed moves by 20-40 % in phases of seconds to minutes
(neighbours on the same cores and memory bus), and a phase often covers a
whole run.  A median within a run cannot remove that, so the worker runs
this gauge between its calls and scales its times by how slow the gauge
ran in the same minutes:

    reported time = measured time * REFERENCE_S / median(gauge samples)

The gauge calls nothing in clinspan, so a change to the program leaves it
alone.  It mixes the three kinds of work the program does, in about equal
parts: interpreter work on strings and dicts (tokens, vocabularies), small
numpy operations at batch 1 (a GRU step), and one BLAS matrix product at
batch 256.  Its Python part creates no objects that the cyclic garbage
collector tracks, so the program's heap does not slow it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median of one sample on the 2-core reference VM (Xeon, KVM, Python 3.11,
# numpy 2.4 with OpenBLAS 0.3.31, one BLAS thread) in a quiet phase.  It only
# sets the scale: reported times read as times at the reference speed.
REFERENCE_S = 0.050

# Gauge time per second of measured work.  The worker pays it in whole
# samples (about 50 ms each) between pieces of work shorter than the host's
# speed changes (about 5 s), so the gauge sees the same phases as the calls.
SHARE = 0.2

_WORDS = 400
_WORD_ROUNDS = 110
_STEPS = 1000
_GEMMS = 11


class Gauge:
    def __init__(self) -> None:
        rng = np.random.default_rng(20160406)
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.words = [
            "".join(letters[i] for i in rng.integers(0, 26, size=int(n))).capitalize()
            for n in rng.integers(3, 12, size=_WORDS)
        ]
        self.table = {w.lower(): i for i, w in enumerate(self.words[::2])}
        self.w = rng.standard_normal((150, 230)) * 0.05
        self.u = rng.standard_normal((150, 150)) * 0.05
        self.b = rng.standard_normal(150) * 0.05
        self.x = rng.standard_normal(230)
        self.a = rng.standard_normal((256, 400))
        self.m = rng.standard_normal((400, 300))
        self.samples: list[float] = []
        self.owed = 0.0

    def _work(self) -> float:
        total = 0
        for _ in range(_WORD_ROUNDS):
            for word in self.words:
                key = word.lower()
                total += self.table.get(key, 0) + len(key[1:-1])
        h = np.zeros(self.u.shape[0])
        for _ in range(_STEPS):
            h = np.tanh(self.w @ self.x + self.u @ h + self.b)
        for _ in range(_GEMMS):
            out = self.a @ self.m
        return total + float(h[0]) + float(out[0, 0])

    def sample(self) -> float:
        start = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def after(self, seconds: float) -> None:
        """Gauge for SHARE of ``seconds`` of measured work, in whole samples;
        the remainder carries over to the next call."""
        self.owed += SHARE * seconds
        while self.owed > 0:
            self.owed -= self.sample()

    def slowdown(self) -> float:
        """How much slower than the reference the host ran during the samples."""
        return statistics.median(self.samples) / REFERENCE_S
