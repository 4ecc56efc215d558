"""Churn-hardening tests: the controller's footprint must track the
*concurrent* population, never lifetime arrivals."""

import pytest

from repro.framework.scheduler import FlowRequest
from repro.framework.service_mode import ServiceDriver, _AUDIT_WINDOW
from repro.scenarios import ChurnSpec, PolicySpec, ServiceWorkload, TopologySpec
from repro.scenarios.registry import get_workload

RING = TopologySpec(
    "ring",
    {
        "n_routers": 6,
        "n_host_pairs": 2,
        "rate_mbps": 50.0,
        "host_rate_mbps": 100.0,
    },
)


def make_driver(churn, duration=10.0, warmup=0.0):
    workload = ServiceWorkload(
        name="churn-test",
        description="bounded-memory fixture",
        topology=RING,
        churn=churn,
        policy=PolicySpec(),
        duration=duration,
        warmup=warmup,
        seed=4,
    )
    return ServiceDriver(workload)


class TestBoundedMemory:
    def test_1k_arrive_depart_cycles_leave_no_residue(self):
        """~1000 full arrive/place/hold/depart cycles: afterwards every
        per-flow structure holds only the still-active population and
        every audit trail respects its retention window.  Before the
        churn-hardening fix, flows, ACLs, scheduler dedup entries and
        group snapshots all grew with lifetime arrivals."""
        driver = make_driver(
            ChurnSpec(
                rate=100.0,
                mean_holding_s=0.3,
                n_pairs=4,
                admission_rate=2000.0,
                admission_burst=256,
            ),
            duration=10.0,
        )
        result = driver.run()
        assert result.offered >= 800  # ~Poisson(1000)
        assert result.placed >= 800
        assert result.retired >= 700  # short holdings: most depart in-run
        assert result.reconciles()

        controller = driver.sdn.controller
        active = result.active_at_end
        # per-flow state tracks concurrency, not lifetime arrivals
        assert len(controller.flows) == active
        assert len(driver.sdn.scheduler._names) == active
        # per-tunnel / per-group state is bounded by the topology
        n_tunnels = len(controller.tunnels)
        assert len(controller._telemetry_cursors) <= n_tunnels
        assert len(controller._group_snapshots) <= len(driver.pairs)
        assert len(driver.sdn.telemetry.path_probes) == n_tunnels
        assert all(
            key[0] in controller.tunnels
            for key in driver.sdn.hecate._forecast_cache
        )
        # audit trails honour their retention windows
        assert len(driver.sdn.bus.log) <= _AUDIT_WINDOW
        assert len(driver.sdn.scheduler.requests) <= _AUDIT_WINDOW
        assert len(controller.decisions) <= _AUDIT_WINDOW

    def test_retired_names_free_for_reuse(self):
        """Scheduler dedup must forget departed flows — resubmitting a
        retired name is a fresh placement, not a duplicate error."""
        driver = make_driver(ChurnSpec(rate=10.0), duration=1.0)
        driver.sdn.network.sim.run(until=0.5)  # first telemetry samples
        request = FlowRequest(
            flow_name="recycled",
            src=driver.pairs[0][0],
            dst=driver.pairs[0][1],
            protocol="udp",
            tos=1,
            duration=5.0,
            rate_mbps=1.0,
        )
        for _ in range(3):
            reply = driver.sdn.scheduler.submit(request)
            assert reply["ok"] and reply["controller"]["ok"]
            driver.sdn.retire_flow("recycled")
        assert "recycled" not in driver.sdn.controller.flows
        # a duplicate while active is still refused
        assert driver.sdn.scheduler.submit(request)["ok"]
        assert not driver.sdn.scheduler.submit(request)["ok"]
        driver.sdn.retire_flow("recycled")


class TestFlowRemoval:
    def test_remove_unknown_flow_raises(self):
        driver = make_driver(ChurnSpec(rate=10.0), duration=1.0)
        with pytest.raises(KeyError):
            driver.sdn.controller.remove_flow("no-such-flow")

    def test_remove_flow_unwinds_the_data_plane(self):
        """Retiring a flow must delete its ingress ACL and PBR binding —
        the edge policy returns to its pre-placement size."""
        driver = make_driver(ChurnSpec(rate=10.0), duration=1.0)
        sdn = driver.sdn
        sdn.network.sim.run(until=0.5)  # first telemetry samples
        record_sizes = {}
        for router, policy in sdn.router_config.policies.items():
            record_sizes[router] = (
                len(policy.access_lists),
                len(policy.entries),
            )
        request = FlowRequest(
            flow_name="unwind",
            src=driver.pairs[0][0],
            dst=driver.pairs[0][1],
            protocol="udp",
            tos=7,
            duration=5.0,
            rate_mbps=1.0,
        )
        assert sdn.scheduler.submit(request)["ok"]
        record = sdn.retire_flow("unwind")
        assert record.request.flow_name == "unwind"
        for router, policy in sdn.router_config.policies.items():
            assert record_sizes[router] == (
                len(policy.access_lists),
                len(policy.entries),
            )
        assert "unwind" not in sdn.controller.flows


class TestDeferredAtTheHorizon:
    def test_request_deferred_in_the_last_batch_tick_stays_pending(self):
        """The perf ledger's ``service_churn`` input at ``--seed 6``
        (program seed 602): one of 1 490 offered flows is deferred by
        admission in the last batch tick and the run ends before the
        defer queue is served again.  That is a ledger state — the
        request is accounted for, nothing was refused or failed — so
        the ledger's ``failed`` reads 1 there on every commit; see
        docs/PERFORMANCE.md, "Reading failed ÷ attempted"."""
        result = ServiceDriver(
            get_workload("fat-tree-churn"),
            rate=500,
            duration=3.0,
            warmup=0.0,
            seed=602,
        ).run()
        assert result.offered == 1490
        assert result.deferred_pending == 1
        assert result.rejected == result.place_failed == 0
        assert result.reconciles()
