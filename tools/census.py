"""Island census: public code in ``src/`` that nothing but tests uses.

An *island* is a module under ``src/`` that only tests, examples or a
package ``__init__`` import, a package that only re-exports other
packages' names (a façade), or a public function, class or method that
only tests name.  Users are the non-``__init__`` modules of ``src/``
plus ``benchmarks/`` and ``perf/``; for symbols, ``examples/`` count
too, since a method an example calls is documented API.

- A module is reached when a user imports it (``import``, ``from ...
  import``, a re-export through a package ``__init__``, or its dotted
  name as a string constant, the form lazy registries use).
- A symbol is referenced when a user or an example names it: a
  ``Name``, an ``Attribute``, an imported name or an equal string
  constant (the ``getattr`` form).  Names inside the symbol's own body
  and inside ``__all__`` do not count.  Matching is by name alone, so a
  method sharing a name with a used one passes; the census misses
  islands, it never invents them.
- A definition under a decorator other than the stdlib wrappers in
  :data:`PASSIVE_DECORATORS` is registered, hence referenced (lint
  rules, execution backends).  A module holding one is reached.

Every finding must be on :data:`ALLOW`, with the reason it stays; an
entry that no longer matches a finding is stale.  Either fails the run.

Usage::

    python tools/census.py

Exit status 0 when every finding is allowed and no entry is stale, 1
otherwise.  Stdlib only.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

#: what stays although nothing but tests reaches it, and why: a seam
#: ROADMAP names for it, or a probe tests observe or steer other
#: behaviour through
ALLOW: Dict[str, str] = {
    "repro.ml.tree.DecisionTreeRegressor.n_nodes_": (
        "probe: tree size under depth and leaf limits"
    ),
    "repro.freertr.tunnel.EdgePolicy.binding_of": (
        "probe: the tunnel a flow's PBR entry points at"
    ),
    "repro.net.devices.Router.inject": (
        "probe: feeds a hand-built packet into forwarding"
    ),
    "repro.net.sim.Simulator.pending_events": (
        "probe: live queue size across cancel and post paths"
    ),
    "repro.net.links.Link.background_from": (
        "probe: the background load a link applies per direction"
    ),
    "repro.net.links.Link.queue_depth_from": (
        "probe: per-direction queue occupancy"
    ),
    "repro.ml.svm.SVR.support_": "probe: the support vectors a fit kept",
    "repro.net.sim.Simulator.peek_time": (
        "probe: the next event time across both calendar tiers"
    ),
    "repro.net.apps.TcpFlow.report": "probe: iperf-style per-flow summary",
    "repro.net.apps.UdpFlow.report": "probe: iperf-style per-flow summary",
    "repro.net.topology.Network.set_link_rate": (
        "probe: the runtime rate impairment telemetry tests inject"
    ),
    "repro.net.topology.Network.set_link_delay": (
        "probe: the tc-style delay impairment the RTT test injects"
    ),
    "repro.polka.crt.verify_crt": (
        "probe: the congruence check CRT tests compare against"
    ),
}

#: decorators that wrap a definition without registering it anywhere
PASSIVE_DECORATORS = frozenset(
    {
        "abstractmethod",
        "cache",
        "cached_property",
        "classmethod",
        "contextmanager",
        "dataclass",
        "lru_cache",
        "overload",
        "property",
        "setter",
        "staticmethod",
        "total_ordering",
        "wraps",
    }
)

ROOT = Path(__file__).resolve().parents[1]

USER_DIRS = ("src", "benchmarks", "perf")
READER_DIRS = ("examples",)


class Source:
    """One parsed file: its dotted module name and syntax tree."""

    def __init__(self, path: Path, name: str):
        self.name = name
        self.is_init = path.name == "__init__.py"
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    @property
    def package(self) -> str:
        return self.name if self.is_init else self.name.rpartition(".")[0]


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def load(
    root: Path,
) -> Tuple[Dict[str, Source], List[Source], List[Source]]:
    """``src/`` modules by dotted name, every user file and every
    example."""
    modules: Dict[str, Source] = {}
    users: List[Source] = []
    readers: List[Source] = []
    for top in USER_DIRS + READER_DIRS:
        base = root / top
        for path in sorted(base.rglob("*.py")) if base.is_dir() else ():
            source = Source(path, _module_name(path, base))
            if top == "src":
                modules[source.name] = source
            if source.is_init:
                continue
            (users if top in USER_DIRS else readers).append(source)
    return modules, users, readers


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _registered(node: ast.AST) -> bool:
    return any(
        _decorator_name(d) not in PASSIVE_DECORATORS
        for d in getattr(node, "decorator_list", ())
    )


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(source: Source) -> Iterator[Tuple[str, ast.AST, bool]]:
    """``(qualified name, node, is_top_level)`` per public definition:
    top-level functions and classes, and the methods of those classes."""
    for node in source.tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield f"{source.name}.{node.name}", node, True
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    yield f"{source.name}.{node.name}.{item.name}", item, False


def _all_strings(tree: ast.AST) -> Set[int]:
    """ids of the string nodes inside ``__all__ = [...]``."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                out.update(id(n) for n in ast.walk(node.value))
    return out


def mentioned_names(tree: ast.AST) -> Counter:
    """Every name a tree mentions, counted."""
    skip = _all_strings(tree)
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update({node.name, node.name.rpartition(".")[2]})
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
        ):
            names[node.value] += 1
    return names


def _resolve_from(source: Source, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    base = source.package.split(".")
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _reexports(modules: Mapping[str, Source]) -> Dict[Tuple[str, str], str]:
    """``(package, name) -> module`` for each ``from .x import name`` in
    a package ``__init__``."""
    table: Dict[Tuple[str, str], str] = {}
    for source in modules.values():
        if not source.is_init:
            continue
        for node in source.tree.body:
            if isinstance(node, ast.ImportFrom):
                home = _resolve_from(source, node)
                for alias in node.names:
                    table[(source.name, alias.asname or alias.name)] = home
    return table


def _home(
    module: str, name: str, modules: Mapping[str, Source], table
) -> Optional[str]:
    """The ``src/`` module that ``from module import name`` reaches."""
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    seen = set()
    while (module, name) in table and (module, name) not in seen:
        seen.add((module, name))
        module = table[(module, name)]
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
    return module if module in modules else None


def imported_modules(
    source: Source, modules: Mapping[str, Source], table
) -> Set[str]:
    """The ``src/`` modules one file imports, re-exports resolved."""
    out: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name in modules)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(source, node)
            for alias in node.names:
                home = _home(base, alias.name, modules, table)
                if home is not None:
                    out.add(home)
        elif isinstance(node, ast.Constant) and node.value in modules:
            out.add(node.value)
    return out


def _facade(source: Source, modules: Mapping[str, Source]) -> bool:
    """A package ``__init__`` with no modules of its own whose body is
    only imports, a docstring and ``__all__``: a re-export layer."""
    prefix = source.name + "."
    return (
        source.is_init
        and not any(name.startswith(prefix) for name in modules)
        and all(
            isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr))
            or (
                isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]
            )
            for node in source.tree.body
        )
    )


def census(root: Path) -> Dict[str, str]:
    """Every island under ``root/src``: qualified name -> kind."""
    modules, users, readers = load(root)
    table = _reexports(modules)
    names: Counter = Counter()
    importers: Dict[str, Set[str]] = {}
    for user in users:
        for module in imported_modules(user, modules, table):
            importers.setdefault(module, set()).add(user.name)
    for source in users + readers:
        names.update(mentioned_names(source.tree))

    findings: Dict[str, str] = {}
    for source in modules.values():
        if _facade(source, modules):
            findings[source.name] = "package that only re-exports"
        defs = list(definitions(source))
        if not (
            source.is_init
            or source.name.endswith(".__main__")
            or importers.get(source.name, set()) - {source.name}
            or any(_registered(node) for _, node, _ in defs)
        ):
            findings[source.name] = "module reached only by tests"
            defs = [d for d in defs if not d[2]]
        for qualname, node, _ in defs:
            own = mentioned_names(node)[node.name]
            if not _registered(node) and names[node.name] <= own:
                findings[qualname] = "no reference outside tests"
    return findings


def main(root: Path = ROOT) -> int:
    findings = census(root)
    failed = False
    for qualname, kind in sorted(findings.items()):
        reason = ALLOW.get(qualname)
        failed |= reason is None
        print(f"{'allowed' if reason else 'ISLAND':8} {qualname}: {kind}")
        if reason:
            print(f"{'':8}   {reason}")
    for qualname in sorted(set(ALLOW) - set(findings)):
        failed = True
        print(f"{'STALE':8} {qualname}: allow-list entry matches no island")
    print(
        f"{len(findings)} islands, "
        f"{sum(q in ALLOW for q in findings)} allowed: "
        f"{'FAIL' if failed else 'ok'}"
    )
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
