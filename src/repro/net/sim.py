"""Deterministic discrete-event simulator core.

Events are totally ordered by ``(time, sequence)``; the sequence counter
breaks ties FIFO so runs are bit-reproducible regardless of callback
contents.  Everything in :mod:`repro.net` — link transmission, queueing,
application timers — is expressed as events on one :class:`Simulator`.

Scheduler
---------
The queue is a **two-tier calendar**: a *near* binary heap covering the
window ``[now, near_end)`` plus an unsorted *far* overflow bucket for
everything at or beyond ``near_end``.  Entries are plain
``(time, seq, fn, args)`` tuples, so every heap comparison resolves in C
on the leading float (and on the integer sequence only for exact-time
ties) — the scale tier previously spent a third of its wall clock in a
Python-level ``Event.__lt__`` under ``heapq`` churn.  When the near heap
drains, the calendar *advances*: the earliest far entries are batch-
promoted (one linear partition + one ``heapify``, never per-event
``heappush``) into a fresh window.  Because far entries are only ever
promoted in ``(time, seq)``-sorted position, the processing order is
bit-identical to a single global heap — the tie-break contract is
structural, not incidental, and is pinned by a 100k-event equivalence
test against a reference heap in ``tests/net/test_sim_loop.py``.

The two tiers keep the *working set* small: packet-level events churn
microseconds ahead of ``now`` and never pay log-cost proportional to the
thousands of far-future flow starts, failure injections and background
epoch edges a scale-tier scenario schedules up front.

Two entry shapes
----------------
Most events are never cancelled: a packet hop is two of them
(serialisation done, then delivery), and the periodic timers in
:mod:`repro.net.apps` and :mod:`repro.net.telemetry` discard their
handle too.  :meth:`Simulator.post` queues ``(time, seq, fn, args)``
with no handle at all, and the dispatcher calls ``fn(*args)``, so a hop
builds neither an :class:`Event` nor a ``functools.partial``.  Callers
that may cancel use :meth:`Simulator.schedule` (or ``schedule_at``),
whose entry is ``(time, seq, event, None)``: an
``args`` of ``None`` marks the third field as an :class:`Event` handle,
skipped while cancelled and otherwise run through its ``callback``.  Both
shapes draw from one sequence counter, so their relative order is the
``(time, seq)`` order of issue, exactly as if every entry were a handle.

One loop
--------
:meth:`Simulator.run` is the only dispatcher: it skips cancelled
entries, advances the calendar, checks ``until`` and the budget and
makes the entry's call, all in its own frame, and
:meth:`Simulator.post` / :meth:`Simulator.schedule` build their queue
entries themselves.  There is no single-event ``step()``: one more
Python frame per event on either side of the callback is a measurable
share of every DES and hybrid run (see "What a packet hop costs" in
docs/PERFORMANCE.md).  :meth:`Simulator.peek_time` is for callers that
want to look at the queue without running it.  Times must
be finite: a ``nan`` or ``inf`` entry could never be promoted out of the
far bucket, so scheduling one raises ``ValueError`` instead of hanging
the next ``run``.

Scale hardening
---------------
Two features keep the loop honest under the scale-tier workloads the
hybrid backend drives through it:

- **budget enforcement** — :meth:`Simulator.run` never silently stops at
  ``max_events``: it raises :class:`EventBudgetExceeded` *before*
  processing an event beyond the budget (so a saturated scenario cannot
  report a partial-horizon result as final), or — when the caller opts
  into ``on_budget="truncate"`` — emits a loud :class:`RuntimeWarning`
  and sets :attr:`Simulator.truncated` so the caller can mark its own
  result as partial;
- **event coalescing** — wide simultaneous updates must cost one heap
  operation, not hundreds: the hybrid backend folds all of an epoch's
  link re-weightings into a single callback
  (:func:`repro.net.background.install_background_schedule`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventBudgetExceeded", "Simulator"]


class EventBudgetExceeded(RuntimeError):
    """``max_events`` was spent with events still pending.

    Raised *before* the budget-breaking event is processed, so the
    simulator state is exactly "budget exhausted", never "budget plus
    whatever else happened to be popped".
    """

    def __init__(self, max_events: int, now: float, until: Optional[float]):
        self.max_events = max_events
        self.now = now
        self.until = until
        horizon = "the queue drained" if until is None else f"t={until:g}"
        super().__init__(
            f"simulation spent its budget of {max_events} events at "
            f"t={now:g} before reaching {horizon}; the workload is "
            "saturated or livelocked (raise max_events only if this "
            "scale is intended)"
        )


class Event:
    """A scheduled callback; cancel with :meth:`cancel`.

    Events never participate in queue ordering themselves — the
    scheduler orders ``(time, seq)`` tuple entries and carries the event
    as an opaque payload — so this is a plain slotted handle, not an
    ordered dataclass.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time!r}, seq={self.seq}{state})"


#: One queue entry: ``(time, seq, fn, args)`` from :meth:`Simulator.post`,
#: or ``(time, seq, event, None)`` for a cancellable :class:`Event`.
#: ``seq`` is unique, so tuple comparison never reaches the payload.
_Entry = Tuple[float, int, Any, Optional[Tuple[Any, ...]]]


def _delay_error(delay: float) -> ValueError:
    """What :meth:`Simulator.post` and :meth:`Simulator.schedule` raise
    for a ``delay`` that is negative or makes the time non-finite."""
    if delay < 0:
        return ValueError(f"cannot schedule in the past (delay={delay})")
    return ValueError(f"cannot schedule at a non-finite time (delay={delay})")


class Simulator:
    """Event loop with virtual time in seconds.

    ``near_window`` is the width (in virtual seconds) of the calendar's
    near window: events due within it sit in the sorted near heap,
    everything later waits unsorted in the far bucket until the window
    advances.  The default suits the packet workloads in this repo
    (microsecond event spacing under second-scale horizons); correctness
    never depends on it — any positive width yields the identical event
    order.
    """

    def __init__(self, near_window: float = 0.5) -> None:
        if near_window <= 0:
            raise ValueError(
                f"near_window must be positive, got {near_window}"
            )
        self.now: float = 0.0
        self._near: List[_Entry] = []  # heap; all times < _near_end
        self._far: List[_Entry] = []  # unsorted; all times >= _near_end
        self._near_window = float(near_window)
        self._near_end: float = float(near_window)
        self._seq = itertools.count()
        self.events_processed: int = 0
        #: set by ``run(..., on_budget="truncate")`` when the budget ran
        #: out; callers must surface it (a truncated run is not a result)
        self.truncated: bool = False

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` ``delay`` seconds from now (>= 0, finite).

        No handle, so the call cannot be cancelled: the hot scheduling
        call (every packet hop makes two), which queues the function and
        its arguments as they are instead of building an :class:`Event`
        or a closure."""
        time = self.now + delay
        if not (delay >= 0 and time < math.inf):
            raise _delay_error(delay)
        seq = next(self._seq)
        if time < self._near_end:
            heapq.heappush(self._near, (time, seq, fn, args))
        else:
            self._far.append((time, seq, fn, args))

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` ``delay`` seconds from now (>= 0, finite);
        the returned :class:`Event` cancels it."""
        time = self.now + delay
        if not (delay >= 0 and time < math.inf):
            raise _delay_error(delay)
        seq = next(self._seq)
        event = Event(time, seq, callback)
        if time < self._near_end:
            heapq.heappush(self._near, (time, seq, event, None))
        else:
            self._far.append((time, seq, event, None))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at virtual time ``time`` (>= now, finite)."""
        if not self.now <= time < math.inf:
            if time < self.now:
                raise ValueError(
                    f"cannot schedule at {time} (now is {self.now})"
                )
            raise ValueError(
                f"cannot schedule at a non-finite time (time={time})"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback)
        if time < self._near_end:
            heapq.heappush(self._near, (time, seq, event, None))
        else:
            self._far.append((time, seq, event, None))
        return event

    def _advance(self) -> bool:
        """Promote the earliest far entries into a fresh near window.

        Called only when the near heap is empty.  One linear partition
        of the far bucket plus one ``heapify`` — O(len(far)) — instead
        of a ``heappush`` per event; entries promoted together can never
        be reordered against entries left behind because the window
        boundary separates them strictly by time.  Returns False when
        the far bucket is empty too (the simulator is idle).
        """
        far = self._far
        if not far:
            return False
        lo = min(entry[0] for entry in far)
        end = lo + self._near_window
        if end <= lo:  # float underflow at a huge timestamp
            end = math.nextafter(lo, math.inf)
        near: List[_Entry] = []
        keep: List[_Entry] = []
        for entry in far:
            (near if entry[0] < end else keep).append(entry)
        heapq.heapify(near)
        self._near = near
        self._far = keep
        self._near_end = end
        return True

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None when idle."""
        near = self._near
        while True:
            while near and near[0][3] is None and near[0][2].cancelled:
                heapq.heappop(near)
            if near:
                return near[0][0]
            if not self._advance():
                return None
            near = self._near

    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued (both tiers)."""
        return sum(
            1
            for tier in (self._near, self._far)
            for entry in tier
            if entry[3] is not None or not entry[2].cancelled
        )

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 50_000_000,
        on_budget: str = "raise",
    ) -> None:
        """Drain events, optionally stopping once virtual time passes
        ``until``.

        ``max_events`` bounds the number of events processed by *this
        call*.  Hitting the bound with work still pending is never
        silent: the default raises :class:`EventBudgetExceeded` before
        the budget-breaking event runs, and ``on_budget="truncate"``
        instead warns loudly, sets :attr:`truncated`, and leaves the
        remaining events queued — the caller must then treat any metrics
        it collects as partial-horizon, not final.
        """
        if on_budget not in ("raise", "truncate"):
            raise ValueError(
                f"on_budget must be 'raise' or 'truncate', got {on_budget!r}"
            )
        horizon = math.inf if until is None else until
        heappop = heapq.heappop
        processed = 0
        near = self._near
        while True:
            if not near:
                if self._advance():
                    near = self._near
                    continue
                if until is not None:
                    self.now = max(self.now, until)
                return
            time, _seq, fn, args = near[0]
            if args is None:  # a cancellable handle
                if fn.cancelled:
                    heappop(near)
                    continue
                fn = fn.callback
                args = ()
            if time > horizon:
                self.now = horizon
                return
            if processed >= max_events:
                if on_budget == "truncate":
                    self.truncated = True
                    warnings.warn(
                        f"simulation truncated at t={self.now:g}: "
                        f"{max_events} events spent with work pending; "
                        "metrics collected from this run are partial",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    return
                raise EventBudgetExceeded(max_events, self.now, until)
            heappop(near)
            self.now = time
            self.events_processed += 1
            processed += 1
            fn(*args)
            # a callback may have advanced the calendar (peek_time)
            near = self._near
