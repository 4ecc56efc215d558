"""ExecutionBackend protocol, capabilities, and the backend registry.

An *execution backend* is one way of turning a prepared scenario — built
topology, derived tunnels, generated workload, planned failures — into a
:class:`~repro.scenarios.result.ScenarioResult`.  The paper ran its
framework against a real programmable testbed; this repro ships four
in-tree backends (``des``, ``fluid``, ``hybrid``, ``emulation-mock``)
behind one protocol so a backend can just as well live *outside* the
process (a Mininet/FABRIC driver, a remote lab) without the runner, the
sweep engine or the CLI knowing the difference.

The lifecycle is three explicit stages, driven by
:class:`~repro.scenarios.runner.ScenarioRunner`::

    backend = get_backend("fluid")()
    backend.prepare(scenario, network, tunnels, context)   # bind state
    backend.execute()                                      # run it
    result = backend.collect()                             # uniform result

``context`` is the prepared runner (see :class:`RunContext`): the
workload, failure plan, seed and — for packet-level backends — the
assembled framework stack live there, so backends stay stateless until
``prepare`` and one backend instance serves exactly one run.

Registration is declarative::

    @register_backend
    class MyBackend(ExecutionBackend):
        name = "my-backend"
        ...

after which ``Scenario(backend="my-backend")``, ``repro scenarios run
--backend my-backend`` and the sweep grid's backend axis all accept the
name.  This module is intentionally dependency-free (stdlib only) so the
registry can be consulted from anywhere — spec validation, result
deserialisation, CLI parser construction — without import cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework import SelfDrivingNetwork
    from repro.framework.scheduler import FlowRequest
    from repro.net.topology import Network
    from repro.scenarios.failures import FailureEvent
    from repro.scenarios.result import ScenarioResult
    from repro.scenarios.spec import Scenario

__all__ = [
    "BackendCapabilities",
    "ExecutionBackend",
    "RunContext",
    "register_backend",
    "get_backend",
    "backend_names",
    "list_backends",
    "is_registered",
]

#: tunnel triple: (name, tunnel id, router path)
Tunnel = Tuple[str, int, Tuple[str, ...]]


@dataclass(frozen=True)
class BackendCapabilities:
    """What one execution backend is and does.

    The runner keys its setup work off these flags (build the framework
    stack only for packet-level backends, split flow classes only where
    they matter), ``repro backends list`` prints them, and the docs'
    capabilities matrix is generated from the same values — one source
    of truth.
    """

    #: registry name, e.g. ``"des"``.
    name: str
    #: one-line human description.
    description: str
    #: runs the packet-level framework stack (bus, freeRtr, telemetry,
    #: Hecate, controller); the runner assembles ``context.sdn`` for it.
    packet_level: bool = False
    #: solves (part of) the workload with the closed-form fluid model.
    fluid_model: bool = False
    #: splits the offered flows into foreground/background classes
    #: (:class:`~repro.scenarios.spec.FlowClassSpec`).
    uses_flow_classes: bool = False
    #: executes outside this process through an external driver — the
    #: testbed/emulation family.  Deterministic only as far as the
    #: driver is (the in-tree mock driver is fully deterministic).
    external: bool = False
    #: result carries a meaningful ``sim_events`` count.
    reports_sim_events: bool = False
    #: result carries a meaningful ``telemetry_samples`` count.
    reports_telemetry: bool = False


class RunContext(Protocol):
    """What a backend may use from the prepared runner.

    This is structurally the :class:`~repro.scenarios.runner.
    ScenarioRunner` after ``setup()``; the protocol names the supported
    surface so backend authors do not reach into runner internals.
    """

    scenario: "Scenario"
    seed: int
    network: Optional["Network"]
    sdn: Optional["SelfDrivingNetwork"]
    tunnels: Tuple[Tunnel, ...]
    requests: List["FlowRequest"]
    foreground: List["FlowRequest"]
    background: List["FlowRequest"]
    failure_plan: Tuple["FailureEvent", ...]
    placed: int
    rejected: int

    def inject_traffic(self) -> Tuple[int, int]:
        """Offer the packet-level flows through the Dashboard."""
        ...

    def arm_failures(self) -> None:
        """Schedule the failure plan on the simulator."""
        ...

    def collect(self) -> "ScenarioResult":
        """Uniform metrics from a DES run."""
        ...


class ExecutionBackend(abc.ABC):
    """One way of executing a prepared scenario; see the module docstring.

    Subclasses set :attr:`name`, declare :meth:`capabilities`, then
    implement :meth:`execute` and :meth:`collect`.  ``prepare`` binds
    the run's state and may be extended (call ``super().prepare(...)``)
    for backend-specific precomputation.
    """

    #: registry name; ``@register_backend`` requires it.
    name: str = ""

    def __init__(self) -> None:
        self.scenario: Optional["Scenario"] = None
        self.network: Optional["Network"] = None
        self.tunnels: Tuple[Tunnel, ...] = ()
        self.context: Optional[RunContext] = None

    # ------------------------------------------------------------ protocol

    @classmethod
    @abc.abstractmethod
    def capabilities(cls) -> BackendCapabilities:
        """This backend's declared capabilities."""

    def prepare(
        self,
        scenario: "Scenario",
        network: "Network",
        tunnels: Sequence[Tunnel],
        context: RunContext,
    ) -> None:
        """Bind one prepared run's state; called exactly once."""
        if self.context is not None:
            raise RuntimeError(
                f"backend {self.name!r} is single-use; prepare() was "
                "already called on this instance"
            )
        self.scenario = scenario
        self.network = network
        self.tunnels = tuple(tunnels)
        self.context = context

    @abc.abstractmethod
    def execute(self) -> None:
        """Run the scenario (after :meth:`prepare`)."""

    @abc.abstractmethod
    def collect(self) -> "ScenarioResult":
        """The uniform result (after :meth:`execute`)."""

    # ---------------------------------------------------------- convenience

    def _bound_context(self) -> RunContext:
        if self.context is None:
            raise RuntimeError(
                f"backend {self.name!r} is not prepared; call prepare() "
                "before execute()/collect()"
            )
        return self.context


#: name -> backend class, in registration order (builtins first), so
#: CLI choices and listings are stable run to run.
_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}

_B = TypeVar("_B", bound=Type[ExecutionBackend])

#: guards re-entrant builtin loading (``import repro.backends`` runs the
#: registrations; a registry consult made *during* that import must not
#: recurse into it).
_loading_builtins = False


def register_backend(cls: _B) -> _B:
    """Class decorator: add an :class:`ExecutionBackend` to the registry.

    Duplicate names are an error — a plugin shadowing ``des`` would
    silently change every cached sweep's meaning.
    """
    name = getattr(cls, "name", "")
    if not name or not isinstance(name, str):
        raise ValueError(
            f"backend class {cls.__name__} must set a non-empty `name`"
        )
    if name in _REGISTRY:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def _ensure_builtins() -> None:
    """Populate the registry with the in-tree backends (idempotent)."""
    global _loading_builtins
    if _loading_builtins:
        return
    _loading_builtins = True
    try:
        # importing the package registers des/fluid/hybrid/emulation-mock
        import repro.backends  # noqa: F401
    finally:
        _loading_builtins = False


def get_backend(name: str) -> Type[ExecutionBackend]:
    """The registered backend class for ``name``.

    Raises ``KeyError`` with the registered alternatives, mirroring
    ``get_scenario``.
    """
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; "
            f"registered backends: {', '.join(_REGISTRY)}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY)


def list_backends() -> List[BackendCapabilities]:
    """Capabilities of every registered backend, in registration order."""
    _ensure_builtins()
    return [cls.capabilities() for cls in _REGISTRY.values()]


def is_registered(name: Any) -> bool:
    """Whether ``name`` names a registered execution backend."""
    _ensure_builtins()
    return isinstance(name, str) and name in _REGISTRY
