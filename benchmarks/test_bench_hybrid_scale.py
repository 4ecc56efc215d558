"""Scale-tier benchmarks: the hybrid backend against pure DES.

The hybrid flow-class backend aggregates the mice into fluid background
load while the elephants stay packet-level, so the packet domain
carries a fraction of the events.  The speedup test below pins that on
the smallest scale scenario (2 000 flows, shortened horizon so the DES
reference stays affordable in CI); the tracked benchmark keeps the
hybrid path itself under the regression gate so the speedup cannot
silently erode from the hybrid side.

The wall-clock floor used to be 10x (~24x measured).  Almost all of
that was not the events: with 2 000 per-flow access-lists, pure DES
re-scanned ~250 lists per edge for every packet (47 s against 1.6 s on
this workload).  Since ``EdgePolicy`` remembers its decision per flow,
DES classifies once per flow and the same 864 784 events take 2.5 s
against 1.0 s; what is left of the ratio is the mechanism itself, which
is asserted on the deterministic event counts.
"""

import time

from repro.scenarios import ScenarioRunner, get_scenario

#: hybrid must beat pure DES on the stopwatch by at least this (~2.4x
#: measured; the two runs are sequential, so the floor leaves room for
#: the host changing speed between them)
SPEEDUP_FLOOR = 1.2
#: ... and because the packet domain carried at most this share of the
#: DES events (405 358 of 864 784; exact, the runs are deterministic)
EVENT_SHARE_CEILING = 0.5


def _scale_2k(horizon=6.0, warmup=1.0):
    return get_scenario("scale-fat-tree-2k").quick(
        horizon=horizon, warmup=warmup
    )


def test_scale_2k_hybrid(run_once, benchmark):
    """The hybrid pipeline end to end on 2 000 flows: classification,
    epoch solving, background installation, packet-level elephants.
    Tracked in baseline.json so regressions in any stage trip the CI
    gate."""
    result = run_once(
        benchmark, ScenarioRunner(_scale_2k(), backend="hybrid").run
    )
    print("\n" + result.summary())
    assert result.offered == 2000
    assert result.placed == 2000
    assert result.total_throughput_mbps > 0.0


def test_scale_2k_hybrid_speedup_vs_des():
    """Hybrid beats pure DES on a 2k-flow scale scenario, by carrying
    less than half the packet events.

    Measured with one run of each backend on the identical workload
    (same seed, same generated flows, same failure plan).  Not a
    pytest-benchmark fixture: one round of each is enough.
    """
    scenario = _scale_2k()

    start = time.perf_counter()
    hybrid = ScenarioRunner(scenario, backend="hybrid").run()
    hybrid_s = time.perf_counter() - start

    start = time.perf_counter()
    des = ScenarioRunner(scenario, backend="des").run()
    des_s = time.perf_counter() - start

    speedup = des_s / hybrid_s
    print(
        f"\nscale-fat-tree-2k: des {des_s:.1f}s "
        f"({des.sim_events} events) vs hybrid {hybrid_s:.1f}s "
        f"({hybrid.sim_events} events) -> {speedup:.1f}x"
    )
    assert des.offered == hybrid.offered == 2000
    assert speedup >= SPEEDUP_FLOOR
    # the mechanism, not just the stopwatch: the packet domain carried
    # fewer events (mice timers and serializations never happened)
    assert hybrid.sim_events <= EVENT_SHARE_CEILING * des.sim_events
