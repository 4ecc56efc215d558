"""Pluggable execution backends (see docs/BACKENDS.md).

Importing this package registers the four in-tree backends — ``des``,
``fluid``, ``hybrid`` and ``emulation-mock``; the registry functions in
:mod:`repro.backends.base` load them lazily, so most callers just use
``get_backend(name)`` / ``backend_names()`` and never import this
package directly.
"""

from .base import (
    BackendCapabilities,
    ExecutionBackend,
    RunContext,
    backend_names,
    get_backend,
    is_registered,
    list_backends,
    register_backend,
)

# isort: off — import order IS registration order: the CLI's --backend
# choices and `repro backends list` present backends in this sequence.
from .des import DesBackend
from .fluid import FluidBackend
from .hybrid import HybridBackend
from .emulation import (
    CommandPlan,
    EmulationBackend,
    EmulationDriver,
    FailureCue,
    FlowCommand,
    MockEmulationDriver,
    compile_plan,
    parse_driver_output,
)

# isort: on

__all__ = [
    "BackendCapabilities",
    "ExecutionBackend",
    "RunContext",
    "register_backend",
    "get_backend",
    "backend_names",
    "list_backends",
    "is_registered",
    "DesBackend",
    "FluidBackend",
    "HybridBackend",
    "EmulationBackend",
    "EmulationDriver",
    "MockEmulationDriver",
    "CommandPlan",
    "FlowCommand",
    "FailureCue",
    "compile_plan",
    "parse_driver_output",
]
