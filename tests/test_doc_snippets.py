"""Documented commands must keep parsing: README/docs vs the real CLI.

Every fenced code block in ``README.md`` and ``docs/*.md`` is scanned
for ``repro ...`` command lines (backslash continuations joined,
``#`` comments stripped).  Each one is validated against the *actual*
argument parsers (:func:`repro.cli.build_scenarios_parser` /
:func:`build_service_parser`) and the scenario/workload registries —
without executing the run.  A renamed flag, a dropped subcommand or a
deleted scenario makes the stale snippet a test failure, not a reader's
surprise.  The cheap ``list`` commands are additionally executed end to
end.

The same holds for documented imports: every ``from repro... import``
and ``import repro...`` in a fenced ``python`` block of those files or
in ``examples/*.py`` must resolve — module importable, name present —
checked on the syntax tree, without running the snippet.
"""

import ast
import importlib
import shlex
from pathlib import Path

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_backends_parser,
    build_lint_parser,
    build_objectives_parser,
    build_scenarios_parser,
    build_service_parser,
    main,
)
from repro.scenarios import list_scenarios, list_workloads

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def iter_documented_commands():
    """Yield ``(source, lineno, tokens)`` for every documented
    ``repro ...`` invocation inside a fenced code block."""
    for path in SOURCES:
        in_fence = False
        pending = ""
        start = 0
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1
        ):
            if raw.strip().startswith("```"):
                in_fence = not in_fence
                pending = ""
                continue
            if not in_fence:
                continue
            line = raw.strip()
            if pending:
                line = pending + " " + line
            else:
                start = lineno
            if line.endswith("\\"):
                pending = line[:-1].strip()
                continue
            pending = ""
            tokens = shlex.split(line, comments=True)
            # both documented spellings: bare `repro ...` and
            # `PYTHONPATH=src python -m repro ...`
            if "repro" in tokens and tokens[0] != "repro":
                idx = tokens.index("repro")
                if idx >= 2 and tokens[idx - 2 : idx] == ["python", "-m"]:
                    tokens = tokens[idx:]
            if tokens and tokens[0] == "repro":
                yield f"{path.name}:{start}", tokens[1:]


COMMANDS = list(iter_documented_commands())


def _parse(parser, argv, where):
    try:
        return parser.parse_args(argv)
    except SystemExit:
        pytest.fail(
            f"stale documented command at {where}: "
            f"{parser.prog} {' '.join(argv)} no longer parses"
        )


@pytest.mark.parametrize(
    ("where", "tokens"),
    COMMANDS,
    ids=[f"{where}-{' '.join(tokens[:3])}" for where, tokens in COMMANDS],
)
def test_documented_command_is_valid(where, tokens):
    group = tokens[0]
    if group == "scenarios":
        args = _parse(build_scenarios_parser(), tokens[1:], where)
        known = {s.name for s in list_scenarios(include_scale=True)}
        named = getattr(args, "names", None) or (
            [args.name] if hasattr(args, "name") else []
        )
        for name in named:
            assert name in known, (
                f"{where} references unknown scenario {name!r}"
            )
    elif group == "backends":
        _parse(build_backends_parser(), tokens[1:], where)
    elif group == "objectives":
        _parse(build_objectives_parser(), tokens[1:], where)
    elif group == "lint":
        _parse(build_lint_parser(), tokens[1:], where)
    elif group == "service":
        args = _parse(build_service_parser(), tokens[1:], where)
        if hasattr(args, "name"):
            known = {w.name for w in list_workloads()}
            assert args.name in known, (
                f"{where} references unknown workload {args.name!r}"
            )
    else:
        # top-level experiment ids: repro list / all / fig11 / ...
        assert group in set(EXPERIMENTS) | {"list", "all"}, (
            f"{where} references unknown experiment {group!r}"
        )


def test_documentation_actually_documents_commands():
    # the scan must never silently go blind: the README alone documents
    # a dozen-plus invocations today
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize(
    "argv",
    [
        ["list"],
        ["scenarios", "list"],
        ["backends", "list"],
        ["service", "list"],
        ["objectives", "list"],
        ["lint", "--list-rules"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_cheap_documented_commands_execute(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


def python_blocks(path):
    """Yield ``(lineno, code)`` for every fenced ``python`` block."""
    block = None
    start = 0
    for lineno, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1
    ):
        fence = raw.strip()
        if block is None and fence in ("```python", "```py"):
            block, start = [], lineno + 1
        elif block is not None and fence.startswith("```"):
            yield start, "\n".join(block)
            block = None
        elif block is not None:
            block.append(raw)


BLOCKS = [
    (path, start, code)
    for path in SOURCES
    for start, code in python_blocks(path)
]


@pytest.mark.parametrize(
    ("path", "start", "code"),
    BLOCKS,
    ids=[f"{path.name}:{start}" for path, start, _ in BLOCKS],
)
def test_documented_python_block_parses(path, start, code):
    ast.parse(code, f"{path.name}:{start}")


def repro_imports(tree, where, first_line=1):
    """``(where, module, name)`` per ``repro`` import in ``tree``;
    ``name`` is None for a plain ``import repro...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            found = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found = [(alias.name, None) for alias in node.names]
        else:
            continue
        for module, name in found:
            if module.split(".")[0] == "repro":
                yield f"{where}:{first_line + node.lineno - 1}", module, name


def iter_documented_imports():
    for path, start, code in BLOCKS:
        try:
            tree = ast.parse(code)
        except SyntaxError:
            continue  # test_documented_python_block_parses reports it
        yield from repro_imports(tree, path.name, start)
    for path in EXAMPLES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from repro_imports(tree, f"examples/{path.name}")


IMPORTS = list(iter_documented_imports())


@pytest.mark.parametrize(
    ("where", "module", "name"),
    IMPORTS,
    ids=[f"{where}-{module}.{name}" for where, module, name in IMPORTS],
)
def test_documented_import_resolves(where, module, name):
    try:
        imported = importlib.import_module(module)
    except ImportError as exc:
        pytest.fail(f"stale documented import at {where}: {exc}")
    if name is None or hasattr(imported, name):
        return
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        pytest.fail(
            f"stale documented import at {where}: "
            f"{module} has no {name!r}"
        )


def test_documentation_actually_documents_imports():
    # every example and the README quickstart import from repro
    assert {where.split(":")[0] for where, _, _ in IMPORTS} >= {
        "README.md",
        *(f"examples/{path.name}" for path in EXAMPLES),
    }
