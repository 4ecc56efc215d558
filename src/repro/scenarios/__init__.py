"""Declarative scenario suite: spec x registry x runner.

The paper evaluates its framework on one hand-built testbed; this
package turns that into an *evaluation engine*.  A
:class:`~repro.scenarios.spec.Scenario` declares topology, traffic,
failures, policy and flow classes;
:class:`~repro.scenarios.runner.ScenarioRunner` executes it through the
registered execution backend (:mod:`repro.backends`): the packet-level
emulator (``des``), the closed-form max-min model (``fluid``), the
flow-class ``hybrid`` backend (foreground flows packet-level,
background classes as per-epoch fluid load — the scale tier's engine)
or the external-driver emulation bridge (``emulation-mock``) — and
returns a uniform :class:`~repro.scenarios.result.ScenarioResult`:

>>> from repro.scenarios import get_scenario, ScenarioRunner
>>> result = ScenarioRunner(get_scenario("ring-uniform").quick()).run()
>>> result.total_throughput_mbps > 0
True

From the shell: ``repro scenarios list | run | compare``.
"""

from .dynamic import (
    TrafficPhase,
    compile_phases,
    diurnal_phases,
    elephant_schedule_phases,
    flash_crowd_phases,
)
from .failures import FailureEvent, plan_failures
from .hybrid import split_requests
from .registry import (
    SCENARIOS,
    SERVICE_WORKLOADS,
    get_scenario,
    get_workload,
    list_scenarios,
    list_workloads,
    register,
    register_workload,
)
from .runner import (
    ScenarioResult,
    ScenarioRunner,
    derive_tunnels,
    derive_tunnels_for_pairs,
)
from .spec import (
    BACKENDS,
    ChurnSpec,
    FailureSpec,
    FlowClassSpec,
    PolicySpec,
    Scenario,
    ServiceWorkload,
    TopologySpec,
    TrafficSpec,
)
from .traffic import TRAFFIC_PATTERNS, generate_traffic, host_pairs

__all__ = [
    "Scenario",
    "TopologySpec",
    "TrafficSpec",
    "FailureSpec",
    "PolicySpec",
    "FlowClassSpec",
    "ChurnSpec",
    "ServiceWorkload",
    "BACKENDS",
    "split_requests",
    "ScenarioRunner",
    "ScenarioResult",
    "TrafficPhase",
    "compile_phases",
    "diurnal_phases",
    "flash_crowd_phases",
    "elephant_schedule_phases",
    "FailureEvent",
    "register",
    "get_scenario",
    "list_scenarios",
    "SCENARIOS",
    "register_workload",
    "get_workload",
    "list_workloads",
    "SERVICE_WORKLOADS",
    "TRAFFIC_PATTERNS",
    "generate_traffic",
    "host_pairs",
    "plan_failures",
    "derive_tunnels",
    "derive_tunnels_for_pairs",
]
