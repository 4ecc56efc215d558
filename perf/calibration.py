"""Host-speed calibration: why the end-to-end times are *normalised*.

The reference container's speed is not constant: identical single-thread
work runs at one of a few speeds (about 0.8x, 1x, 1.3-1.5x of base) and
the host switches between them every few seconds, sometimes staying in
one for a whole 15 s run.  Raw timings of identical work therefore
spread by 10-25 % from run to run whatever statistic summarises them
(minimum, quartile, median, mean; README.md has the numbers).

What does hold is that a fixed piece of pure-Python work, timed right
before and right after a unit, slows down by the same factor as the unit
it brackets.  So every timed unit is scaled by

    REFERENCE_S / min(calibrate() before, calibrate() after)

i.e. to a host on which the calibration loop takes ``REFERENCE_S``, and
the median over a unit's repeats is reported.  That brings the
run-to-run spread of identical work down to 2-4 %.  The loop shares no
code with the program (builtins only), so a change to the program moves
the normalised time exactly as it moves the raw one.

This module imports nothing heavy: ``run.py`` calls it before the
program is imported, so a probe knows the host speed at process start.
"""

from time import perf_counter

__all__ = ["REFERENCE_S", "calibrate", "normalise"]

#: iterations of the calibration loop (about 4.6 ms at base speed)
LOOPS = 60_000

#: the loop's wall on the notional reference host every time is scaled to
REFERENCE_S = 0.005


def calibrate() -> float:
    """Wall seconds of the fixed calibration loop, right now."""
    table = {}
    started = perf_counter()
    for i in range(LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return perf_counter() - started


def normalise(wall: float, *readings: float) -> float:
    """``wall`` scaled to the reference host speed, given the
    calibration loop's wall just before and just after it (and in
    between, if taken).  The fastest reading counts: a regime change
    mid-unit slows some of them, and dividing by a slowed one would
    overstate the host's speed loss."""
    return wall * REFERENCE_S / min(readings)
