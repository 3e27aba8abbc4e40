"""Machine-speed sampling, so that timings can be given at a fixed speed.

On a shared host the speed of a vCPU swings between states (by up to 2.5x
on a 2-vCPU KVM guest) every few seconds, which no number of repeated passes averages out
across runs.  A ``SpeedMeter`` therefore runs a small fixed kernel of
``fractions.Fraction`` and dict work -- the same kind of work as the
package's -- before and after each timed block and, from a ``SIGALRM``
interval timer, every ``INTERVAL`` seconds inside it.  The kernel is the
benchmark's own code and never changes, so its duration measures the
machine alone.

A timed block reports:

* ``seconds``  wall time with the probes' own time taken out;
* ``scaled``   the same work in seconds at reference speed, where the
  kernel takes ``REFERENCE_S``: ``seconds * mean(REFERENCE_S / probe)``
  over the probes in and around the block.  Probes fire at even wall-clock
  intervals, so the mean weighs each speed state by the time spent in it.

No thread or process is started; the timer signal runs the probe between
bytecodes of the main thread.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

INTERVAL = 0.02
# The kernel's duration at reference speed: its usual duration on a
# 2.0 GHz Xeon KVM guest running CPython 3.11, in the guest's fast state.
REFERENCE_S = 0.00014


def kernel() -> int:
    """A fixed piece of rational and dict work; 0.13 to 0.36 ms on that guest."""
    acc = Fraction(0)
    seen: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 24):
        term = Fraction(i, i + 3)
        acc += term * term - Fraction(1, i)
        seen[(i, i % 5)] = acc
    return len(seen) + acc.denominator % 7


@dataclass
class Block:
    seconds: float = 0.0
    probes: list[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Mean speed relative to reference over the block (1.0 = reference)."""
        return statistics.fmean(REFERENCE_S / p for p in self.probes)

    @property
    def scaled(self) -> float:
        return self.seconds * self.speed


class SpeedMeter:
    """Times blocks of code and samples machine speed while they run.

    Blocks may nest (a set-up block holds warm-up calls); a probe counts
    toward every block open at the time.
    """

    def __init__(self) -> None:
        self.paused = 0.0       # total time spent in probes
        self._open: list[Block] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def clock(self) -> float:
        """``perf_counter`` with the time spent in probes taken out."""
        return time.perf_counter() - self.paused

    def _probe(self) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        for block in self._open:
            block.probes.append(took)
        self.paused += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        if self._open:
            self._probe()

    def start(self) -> Block:
        block = Block()
        self._open.append(block)
        self._probe()
        if len(self._open) == 1:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        block.seconds = -self.clock()
        return block

    def stop(self, block: Block) -> Block:
        block.seconds += self.clock()
        self._probe()
        self._open.remove(block)
        if not self._open:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return block
