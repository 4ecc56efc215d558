"""Event-loop hardening: heap ordering, cancellation, budgets, batches.

The scale tier leans on the simulator loop much harder than the paper
scenarios did, so its contract is pinned down here explicitly: FIFO tie
breaking at equal timestamps, lazy cancelled-event skipping, exact
``until``/``max_events`` boundary semantics (a saturated run must raise,
never silently truncate), and coalesced batch events.
"""

import math

import pytest

from repro.net import EventBudgetExceeded, Simulator


class TestHeapOrdering:
    def test_equal_timestamps_run_fifo(self):
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == list(range(50))

    def test_equal_timestamps_interleaved_with_earlier_events(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("tie-a"))
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(2.0, lambda: log.append("tie-b"))
        sim.schedule(0.5, lambda: log.append("earliest"))
        sim.run()
        assert log == ["earliest", "early", "tie-a", "tie-b"]

    def test_events_scheduled_at_now_run_after_current(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, lambda: log.append("nested"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run()
        # the nested 0-delay event lands after already-queued ties
        assert log == ["first", "second", "nested"]


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        keep = sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(1.0, lambda: fired.append("drop"))
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_cancelled_events_do_not_count_against_the_budget(self):
        sim = Simulator()
        for _ in range(20):
            sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run(max_events=1)  # 20 cancelled + 1 live within budget 1
        assert sim.events_processed == 1

    def test_peek_time_purges_cancelled_heads(self):
        sim = Simulator()
        early = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        early.cancel()
        assert sim.peek_time() == 2.0
        assert sim.pending_events() == 1

    def test_mixed_queue_skips_only_cancelled_handles(self):
        # posted entries carry no handle and are always live; handles
        # on either tier are skipped only while cancelled
        sim = Simulator(near_window=0.5)
        fired = []
        first = sim.schedule(0.1, lambda: fired.append("first"))
        sim.post(0.2, fired.append, "post-near")
        at = sim.schedule_at(0.2, lambda: fired.append("at"))
        far = sim.schedule(3.0, lambda: fired.append("far"))
        sim.post(3.0, fired.append, "post-far")
        first.cancel()
        far.cancel()
        assert sim.pending_events() == 3
        assert sim.peek_time() == 0.2
        at.cancel()
        assert sim.pending_events() == 2
        assert sim.peek_time() == 0.2
        sim.run(until=1.0)
        assert fired == ["post-near"]
        # the far tier holds a cancelled handle ahead of a live post
        assert sim.pending_events() == 1
        assert sim.peek_time() == 3.0
        sim.run()
        assert fired == ["post-near", "post-far"]
        assert sim.events_processed == 2
        assert sim.pending_events() == 0
        assert sim.peek_time() is None


class TestRunBoundaries:
    def test_until_is_inclusive_of_events_at_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("at"))
        sim.schedule(3.0001, lambda: fired.append("past"))
        sim.run(until=3.0)
        assert fired == ["at"]
        assert sim.now == 3.0

    def test_exactly_max_events_completes(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=10)  # budget == workload: no raise
        assert sim.events_processed == 10

    def test_budget_plus_one_raises_before_processing(self):
        sim = Simulator()
        fired = []
        for i in range(11):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        with pytest.raises(EventBudgetExceeded) as excinfo:
            sim.run(max_events=10)
        # the budget-breaking 11th event must NOT have run
        assert fired == list(range(10))
        assert excinfo.value.max_events == 10
        assert excinfo.value.now == 9.0

    def test_budget_error_names_the_horizon(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: sim.schedule(0.1, lambda: None))
        sim.schedule(0.05, lambda: None)
        with pytest.raises(EventBudgetExceeded, match="t=42"):
            sim.run(until=42.0, max_events=1)

    def test_truncate_mode_warns_and_marks(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        with pytest.warns(RuntimeWarning, match="truncated"):
            sim.run(max_events=3, on_budget="truncate")
        assert sim.truncated is True
        assert sim.events_processed == 3
        sim.run()  # the remaining events are still queued, not lost
        assert sim.events_processed == 5

    def test_unknown_on_budget_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="on_budget"):
            sim.run(on_budget="ignore")

    def test_budget_is_per_call_not_per_lifetime(self):
        sim = Simulator()
        for i in range(6):
            sim.schedule(float(i), lambda: None)
        sim.run(until=2.0, max_events=3)
        sim.run(max_events=3)  # fresh budget for the second call
        assert sim.events_processed == 6

    @pytest.mark.parametrize("when", [math.inf, math.nan, -math.inf])
    def test_non_finite_times_are_rejected_at_schedule_time(self, when):
        """An ``inf``/``nan`` entry could never leave the far bucket:
        ``run(until=1.0)`` would spin on it forever."""
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(when, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(when, lambda: None)
        with pytest.raises(ValueError):
            sim.post(when, print, "never")
        assert sim.pending_events() == 0
        sim.run(until=1.0)
        assert sim.now == 1.0


class TestPost:
    def test_post_calls_with_its_arguments(self):
        sim = Simulator()
        calls = []
        sim.post(1.0, lambda: calls.append(()))
        sim.post(1.0, calls.append, ("one",))
        sim.post(1.0, lambda a, b: calls.append((a, b)), "x", 2)
        sim.run()
        assert calls == [(), ("one",), ("x", 2)]
        assert sim.now == 1.0
        assert sim.events_processed == 3

    def test_post_ties_break_fifo_with_handles(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("s0"))
        sim.post(1.0, log.append, "p1")
        sim.schedule_at(1.0, lambda: log.append("a2"))
        sim.post(1.0, log.append, "p3")
        sim.run()
        assert log == ["s0", "p1", "a2", "p3"]

    @pytest.mark.parametrize(
        "delay, message",
        [
            (-1.0, r"cannot schedule in the past \(delay=-1.0\)"),
            (-math.inf, r"cannot schedule in the past \(delay=-inf\)"),
            (math.nan, r"non-finite time \(delay=nan\)"),
            (math.inf, r"non-finite time \(delay=inf\)"),
        ],
    )
    def test_post_rejects_what_schedule_rejects(self, delay, message):
        sim = Simulator()
        for call in (
            lambda: sim.schedule(delay, lambda: None),
            lambda: sim.post(delay, print, "never"),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert sim.pending_events() == 0

    def test_post_counts_against_the_budget(self):
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.post(float(i), fired.append, i)
        with pytest.raises(EventBudgetExceeded):
            sim.run(max_events=2)
        assert fired == [0, 1]
        assert sim.pending_events() == 1


class TestCalendarQueueEquivalence:
    """The two-tier calendar must be indistinguishable from one global
    heap with a ``(time, sequence)`` tie-break.  The reference order is
    therefore a *stable sort by time* over the issue sequence — computed
    independently here, not by another Simulator."""

    def _reference_order(self, entries):
        # entries: (issue_seq, time, key, cancelled); stable sort == the
        # (time, seq) heap contract
        live = [e for e in entries if not e[3]]
        return [key for _, _, key, _ in sorted(live, key=lambda e: e[1])]

    def test_100k_schedule_cancel_batch_round_trip(self):
        """Handles (``schedule``, ``schedule_at``, and ``schedule`` of one
        callback that logs three keys) and handle-free ``post`` entries with 0, 1 and 2 arguments share
        one queue and one sequence counter; ~5 % of handles are
        cancelled."""
        import random

        rng = random.Random(1234)
        sim = Simulator(near_window=0.5)
        log = []
        entries = []  # (issue_seq, time, key, cancelled)
        handles = []

        def record(prefix, n):
            log.append(f"{prefix}.{n}")

        seq = 0
        n = 100_000
        while seq < n:
            # times span ~40 near windows, with heavy duplication so
            # FIFO tie-breaking is exercised at scale, plus exact
            # window-boundary hits (k * near_window)
            roll = rng.random()
            if roll < 0.05:
                time = 0.5 * rng.randrange(0, 40)  # exactly on boundary
            else:
                time = rng.uniform(0.0, 20.0)
                if roll < 0.30:
                    time = round(time, 1)  # duplicate-rich
            kind = rng.random()
            if kind < 0.10 and seq + 3 < n:
                keys = [f"b{seq}.{j}" for j in range(3)]
                event = sim.schedule(time, lambda ks=keys: log.extend(ks))
                entries.append((seq, time, keys, False))
                handles.append((len(entries) - 1, event))
                seq += 3
                continue
            key = f"e{seq}"
            if kind < 0.35:
                event = sim.schedule(time, lambda k=key: log.append(k))
            elif kind < 0.50:
                event = sim.schedule_at(time, lambda k=key: log.append(k))
            else:
                event = None
                if kind < 0.65:
                    sim.post(time, lambda k=key: log.append(k))
                elif kind < 0.80:
                    sim.post(time, log.append, key)
                else:
                    sim.post(time, record, "e", seq)
                    key = f"e.{seq}"
            entries.append((seq, time, [key], False))
            if event is not None:
                handles.append((len(entries) - 1, event))
            seq += 1
        # cancel ~5% of the handles after the fact, spread across the
        # whole horizon
        for idx, event in handles:
            if rng.random() < 0.05:
                event.cancel()
                entry = entries[idx]
                entries[idx] = (entry[0], entry[1], entry[2], True)
        live = sum(not cancelled for *_, cancelled in entries)
        assert sim.pending_events() == live
        sim.run()
        expected = [
            key
            for keys in self._reference_order(entries)
            for key in keys
        ]
        assert log == expected
        assert sim.events_processed == live

    def test_nested_scheduling_across_the_window_boundary(self):
        # a callback running in window [0, 0.5) schedules into the far
        # future and into its own window; both must fire in time order
        sim = Simulator(near_window=0.5)
        log = []

        def burst():
            log.append("t0.1")
            sim.schedule(5.0, lambda: log.append("far"))
            sim.schedule(0.1, lambda: log.append("near"))

        sim.schedule(0.1, burst)
        sim.schedule(3.0, lambda: log.append("mid"))
        sim.run()
        assert log == ["t0.1", "near", "mid", "far"]

    def test_event_exactly_at_near_end_goes_to_far(self):
        # the near heap holds strictly-less-than _near_end; an event at
        # the boundary must still fire, and in the right order
        sim = Simulator(near_window=1.0)
        log = []
        sim.schedule(1.0, lambda: log.append("boundary"))
        sim.schedule(0.999, lambda: log.append("inside"))
        sim.schedule(1.001, lambda: log.append("outside"))
        sim.run()
        assert log == ["inside", "boundary", "outside"]
