"""The island census (``tools/census.py``) on a small fixture tree."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location(
        "census", ROOT / "tools" / "census.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")


@pytest.fixture
def tree(tmp_path):
    write(tmp_path, "src/pkg/__init__.py", """\
        from .mod import Thing, fresh, registered, used
        from .lonely import alone
    """)
    write(tmp_path, "src/pkg/mod.py", """\
        HANDLERS = {}


        def register(fn):
            HANDLERS[fn.__name__] = fn
            return fn


        def used():
            return 1


        def fresh():
            return fresh() if used() else 0


        @register
        def registered():
            return 2


        class Thing:
            def called(self):
                return 3

            def uncalled(self):
                return self.called()
    """)
    write(tmp_path, "src/pkg/__main__.py", """\
        from pkg import Thing, used

        print(used(), Thing().called())
    """)
    write(tmp_path, "src/pkg/lonely.py", """\
        def alone():
            return 4
    """)
    write(tmp_path, "src/front/__init__.py", """\
        \"""Names from pkg under a shorter path.\"""
        from pkg import Thing, used

        __all__ = ["Thing", "used"]
    """)
    write(tmp_path, "tests/test_pkg.py", """\
        from pkg import Thing, alone, fresh

        def test_all():
            assert fresh() and alone() and Thing().uncalled()
    """)
    return tmp_path


def test_reports_what_only_tests_reach(census, tree):
    # the recursive call inside fresh() is not a use
    assert census.census(tree) == {
        "front": "package that only re-exports",
        "pkg.lonely": "module reached only by tests",
        "pkg.mod.fresh": "no reference outside tests",
        "pkg.mod.Thing.uncalled": "no reference outside tests",
    }


def test_decorator_registration_counts_as_a_use(census, tree):
    findings = census.census(tree)
    assert "pkg.mod.registered" not in findings
    # the registry itself is reached through the decorator
    assert "pkg.mod.register" not in findings


def test_an_example_call_counts_for_symbols_not_modules(census, tree):
    write(tree, "examples/demo.py", """\
        from pkg import Thing, alone

        alone()
        Thing().uncalled()
    """)
    findings = census.census(tree)
    assert "pkg.mod.Thing.uncalled" not in findings
    assert "pkg.lonely" in findings


def test_allow_list_passes_and_stale_entry_fails(
    census, tree, monkeypatch, capsys
):
    allowed = {
        "front": "facade",
        "pkg.lonely": "seam",
        "pkg.mod.fresh": "probe",
        "pkg.mod.Thing.uncalled": "probe",
    }
    monkeypatch.setattr(census, "ALLOW", allowed)
    assert census.main(tree) == 0
    assert "4 islands, 4 allowed: ok" in capsys.readouterr().out

    monkeypatch.setattr(census, "ALLOW", {**allowed, "pkg.mod.gone": "x"})
    assert census.main(tree) == 1
    assert "STALE    pkg.mod.gone" in capsys.readouterr().out

    monkeypatch.setattr(census, "ALLOW", {"pkg.lonely": "seam"})
    assert census.main(tree) == 1
    assert "ISLAND   pkg.mod.fresh" in capsys.readouterr().out

