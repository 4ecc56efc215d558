"""Outside-in span tracer: timing wrappers installed from the benchmark.

``src/`` holds no timing (lint rule RL002 forbids wall-clock reads), so
the per-layer numbers come from wrappers this module installs around the
program's public functions and removes afterwards:

- a **method** is wrapped on its class attribute;
- a **module function** is wrapped in every loaded ``repro.*`` module
  namespace that holds the original object — ``from x import f`` binds a
  second name, and the call goes through *that* one
  (``repro.backends.fluid.assign_flows``, not only
  ``repro.hecate.objectives.assign_flows``);
- a **bus topic handler** is wrapped as it is subscribed
  (``MessageBus.subscribe``), one span name per topic.

Each call records one span — name, start, end, parent — in memory.
:func:`summarise` turns a recording into ``<name>.self_s`` (duration
minus the part covered by child spans) and ``<name>.calls``.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "CLASS_TARGETS",
    "FUNCTION_TARGETS",
    "TOPICS",
    "SPAN_NAMES",
    "Spans",
    "Tracer",
    "relative",
    "summarise",
]

#: span name -> (module, class, method)
CLASS_TARGETS: Dict[str, Tuple[str, str, str]] = {
    "scenarios.runner.setup": (
        "repro.scenarios.runner", "ScenarioRunner", "setup"),
    "scenarios.result.to_dict": (
        "repro.scenarios.result", "ScenarioResult", "to_dict"),
    "scenarios.result.from_dict": (
        "repro.scenarios.result", "ScenarioResult", "from_dict"),
    "net.sim.run": ("repro.net.sim", "Simulator", "run"),
    "net.telemetry.append": (
        "repro.net.telemetry", "ColumnGroup", "append"),
    "net.telemetry.series": (
        "repro.net.telemetry", "TimeSeriesDB", "series"),
    "bus.request": ("repro.bus", "MessageBus", "request"),
    "framework.scheduler.submit": (
        "repro.framework.scheduler", "Scheduler", "submit"),
    "framework.controller.place_flow": (
        "repro.framework.controller", "Controller", "place_flow"),
    "framework.controller.remove_flow": (
        "repro.framework.controller", "Controller", "remove_flow"),
    "framework.controller.migrate_flow": (
        "repro.framework.controller", "Controller", "migrate_flow"),
    "framework.controller.reoptimize_now": (
        "repro.framework.controller", "Controller", "reoptimize_now"),
    "hecate.service.forecast_path": (
        "repro.hecate.service", "HecateService", "forecast_path"),
    "hecate.predictor.fit": (
        "repro.hecate.predictor", "QoSPredictor", "fit"),
    "hecate.predictor.forecast": (
        "repro.hecate.predictor", "QoSPredictor", "forecast"),
    "framework.service_mode.run": (
        "repro.framework.service_mode", "ServiceDriver", "run"),
    "sweep.engine.run": ("repro.sweep.engine", "SweepEngine", "run"),
    "sweep.executors.execute": (
        "repro.sweep.executors", "SerialExecutor", "execute"),
    "sweep.cache.get": ("repro.sweep.cache", "ResultCache", "get"),
    "sweep.cache.put": ("repro.sweep.cache", "ResultCache", "put"),
}

#: span name -> (defining module, function)
FUNCTION_TARGETS: Dict[str, Tuple[str, str]] = {
    "scenarios.traffic.generate_traffic": (
        "repro.scenarios.traffic", "generate_traffic"),
    "scenarios.runner.derive_tunnels": (
        "repro.scenarios.runner", "derive_tunnels"),
    "scenarios.hybrid.solve_epochs": (
        "repro.scenarios.hybrid", "solve_epochs"),
    "scenarios.hybrid.assign_class_paths": (
        "repro.scenarios.hybrid", "assign_class_paths"),
    "net.background.install_background_schedule": (
        "repro.net.background", "install_background_schedule"),
    "backends.fluid.assign_fluid": (
        "repro.backends.fluid", "assign_fluid"),
    "hecate.objectives.assign_flows": (
        "repro.hecate.objectives", "assign_flows"),
    "net.fluid.max_min_fair": ("repro.net.fluid", "max_min_fair"),
    "net.fluid.max_min_fair_bounded": (
        "repro.net.fluid", "max_min_fair_bounded"),
    "framework.service_mode.generate_schedule": (
        "repro.framework.service_mode", "generate_schedule"),
}

#: every execution backend's ``execute`` / ``collect`` share one name
BACKEND_SPANS = ("backends.execute", "backends.collect")

#: bus topics the framework subscribes handlers to
TOPICS = (
    "dashboard.insert_new_flow",
    "scheduler.new_flow",
    "hecate.ask_path",
    "hecate.ask_path_batch",
    "hecate.evict_path",
    "telemetry.get",
    "freertr.reconfig",
)

#: every span name a trace can hold, in report order
SPAN_NAMES: Tuple[str, ...] = (
    tuple(CLASS_TARGETS)
    + tuple(FUNCTION_TARGETS)
    + BACKEND_SPANS
    + tuple(f"bus.topic.{topic}" for topic in TOPICS)
)


#: one recorded call: ``[name, start, end, parent]`` — ``parent`` is
#: the index of the enclosing span in the recording (-1 at top level).
#: A recording is a list of these in call-start order.
Span = List[Any]
Spans = List[Span]


def relative(spans: Spans) -> Spans:
    """The recording with times in seconds from its first span's start —
    the shape ``trace-<workload>.json`` stores."""
    origin = spans[0][1] if spans else 0.0
    return [
        [name, round(start - origin, 9), round(end - origin, 9), parent]
        for name, start, end, parent in spans
    ]


def summarise(spans: Spans) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    Self time is the span's duration minus its direct children's
    durations; children nest strictly inside their parent, so self times
    over a tree sum to the root's duration.  Recursive calls are
    therefore counted once, not once per level.
    """
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _), children in zip(spans, child_s):
        row = out.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - children
    return out


class Tracer:
    """Installs the wrappers, records spans, removes the wrappers.

    Use as a context manager around everything that should be wrapped —
    objects built while it is installed keep their (wrapped) bound
    handlers, so build them inside too.  :meth:`begin` starts a fresh
    recording and :meth:`take` returns it; calls made while no
    recording is open run unrecorded.
    """

    def __init__(self) -> None:
        # a recording in progress is four parallel lists, not a list of
        # spans: appending strs, floats and ints allocates no container,
        # so recording does not drive the program's garbage collector
        self._columns: Optional[Tuple[list, list, list, list]] = None
        self._stack: List[int] = []
        #: (owner, attribute, original) for every patched name
        self._patched: List[Tuple[Any, str, Any]] = []

    # ---------------------------------------------------------- recording

    def begin(self) -> None:
        self._columns = ([], [], [], [])
        self._stack = []

    def take(self) -> Spans:
        columns, self._columns = self._columns, None
        if columns is None:
            raise RuntimeError("take() without begin()")
        if self._stack:
            raise RuntimeError("take() inside an open span")
        return [list(span) for span in zip(*columns)]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            columns = tracer._columns
            if columns is None:
                return fn(*args, **kwargs)
            names, starts, ends, parents = columns
            stack = tracer._stack
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------- installation

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self.wrap(name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
        else:
            self._patch(cls, attr, self.wrap(name, raw))

    def _wrap_function(self, name: str, module: str, attr: str) -> None:
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def _wrap_subscribe(self) -> None:
        from repro.bus import MessageBus

        tracer = self
        original = MessageBus.__dict__["subscribe"]

        def subscribe(bus: Any, topic: str, handler: Any) -> None:
            original(bus, topic, tracer.wrap(f"bus.topic.{topic}", handler))

        self._patch(MessageBus, "subscribe", subscribe)

    def _wrap_backends(self) -> None:
        import repro.backends  # noqa: F401  (registers the builtins)
        from repro.backends.base import ExecutionBackend

        todo = list(ExecutionBackend.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for span, attr in zip(BACKEND_SPANS, ("execute", "collect")):
                if attr in cls.__dict__:
                    self._wrap_method(span, cls, attr)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for name, (module, cls, attr) in CLASS_TARGETS.items():
                owner = getattr(importlib.import_module(module), cls)
                self._wrap_method(name, owner, attr)
            # import every defining module first, so each function is
            # patched in all the namespaces that already hold it
            for module, _ in FUNCTION_TARGETS.values():
                importlib.import_module(module)
            for name, (module, attr) in FUNCTION_TARGETS.items():
                self._wrap_function(name, module, attr)
            self._wrap_backends()
            self._wrap_subscribe()
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._columns = None
        self._stack = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()
