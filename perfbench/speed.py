"""The machine-speed probe that puts every time on one reference speed.

A small shared machine does not run at one speed: on a shared 2-vCPU
VM a fixed pure-Python loop took from 21 to 35 ms within a minute, and
the workloads' pass times drifted with it by up to 2x between runs.  So
around every set-up and every timed pass the worker times a fixed piece
of reference work that never touches the program, and scales the
interval's raw times by ``REFERENCE_S / (mean of the two probe times)``.
A change to the program moves the scaled times; a change in machine
speed moves the probe as well, and cancels.  The raw times stay in the
worker's output and the report.

The reference work is the mix the workloads spend their time in: regex
lexing of Verilog-like text, counting token pairs in a dict, and a numpy
modular reduction.
"""

from __future__ import annotations

import gc
import re
import time

import numpy as np

#: what the probe takes at reference speed; scaled times are in seconds
#: at that speed
REFERENCE_S = 0.2

_TEXT = " ".join(
    f"assign w{i} = a{i % 7} ^ (b{i % 5} & 8'h{i % 256:02x}); // n{i}"
    for i in range(3000))
_TOKEN = re.compile(r"\s+|//[^\n]*|[A-Za-z_]\w*|\d+'h[0-9a-fA-F]+|\d+|\S")
_TOKENS = _TOKEN.findall(_TEXT)
_VALUES = np.arange(200_000, dtype=np.uint64)
_STARTS = np.arange(0, 200_000, 1000)


def _reference_work() -> int:
    # Allocates little beyond what it frees at once, so its time does not
    # depend on the allocator state the measured interval left behind.
    pairs = {}
    for _ in range(30):
        for _match in _TOKEN.finditer(_TEXT):
            pass
        for pair in zip(_TOKENS, _TOKENS[1:]):
            pairs[pair] = pairs.get(pair, 0) + 1
    scratch = np.empty_like(_VALUES)
    for p in range(180):
        np.multiply(_VALUES, np.uint64(p + 3), out=scratch)
        np.remainder(scratch, np.uint64(1_000_003), out=scratch)
        np.minimum.reduceat(scratch, _STARTS)
    return len(pairs)


class SpeedProbe:
    """Times the reference work between measured intervals."""

    def __init__(self) -> None:
        _reference_work()  # first call compiles and allocates: not timed
        self._last = self._measure()

    @staticmethod
    def _measure() -> float:
        # Without the cyclic GC, so the probe never pays for collecting
        # what the measured interval left behind.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            _reference_work()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def factor(self) -> float:
        """Scale for the interval since the last call (or construction)."""
        after = self._measure()
        factor = REFERENCE_S / ((self._last + after) / 2)
        self._last = after
        return factor
