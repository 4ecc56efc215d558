#!/usr/bin/env python3
"""Perf ledger: one command, every metric by name, outputs checked.

    python3 perf/run.py                       # the whole ledger
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload (``--repeats`` untraced runs plus one
traced run each, every run a fresh subprocess of the second form) and
writes ``perf/out/ledger.json``.  The second form is one run: it prints
its metrics and ends with one JSON line — the shape ``BENCHMARK.json``
describes.  See README.md.

This file only boots the process: it notes the start time, pins the
numeric libraries to one thread, puts ``src/`` on the import path, takes
a first host-speed reading (``calibration.py``) and hands over to
``harness.py``.  Everything is measured from outside;
nothing under ``src/`` is edited or timed from within.
"""

import time

_T0 = time.perf_counter()  # process start, before the heavy imports

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: one thread each, so numpy never fans out past the two cores and two
#: ledgers are comparable
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(
            f"perf/run.py: nothing to measure: {SRC / 'repro'} is not in "
            "this checkout",
            file=sys.stderr,
        )
        return 2
    for var in PINNED:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from calibration import calibrate

    speed = calibrate()  # host speed now, before the program is imported
    import harness

    return harness.main(
        sys.argv[1:], process_start=_T0, speed_at_start=speed
    )


if __name__ == "__main__":
    sys.exit(main())
