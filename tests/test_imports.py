"""What a process imports.

A package facade resolves its public names on first access
(:func:`repro._lazy.lazy_facade`), a campaign package imports at load
everything its campaign runs, and the CLI imports inside each handler.
These tests pin the three import boundaries that rule buys, check that
every public name still resolves to the object its defining module
exports whatever was imported first, and keep ``src/repro`` free of
imports nothing uses.  The boundaries run in fresh interpreters, since
this process has imported everything by now.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def _run(code):
    """Run ``code`` in a fresh interpreter; its stdout, parsed as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded_after(statement):
    """The modules in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter."""
    return set(_run(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(sys.modules)))
    """))


# -- import boundaries -----------------------------------------------------

def test_import_repro_loads_only_the_facade():
    loaded = _loaded_after("import repro")
    for module in ("repro.cc", "repro.sim.batch", "repro.dse",
                   "repro.hwmodel", "repro.eval", "repro.core",
                   "multiprocessing", "concurrent.futures"):
        assert module not in loaded, module


@pytest.mark.parametrize("package", ["repro.sim", "repro.eval",
                                     "repro.security", "repro.attacks"])
def test_facade_import_loads_no_submodule(package):
    loaded = _loaded_after(f"import {package}")
    assert sorted(name for name in loaded
                  if name.startswith(package + ".")) == []


def test_attacksynth_loads_no_evaluation_or_other_campaign():
    loaded = _loaded_after("import repro.attacksynth")
    for module in ("repro.eval.experiments", "repro.eval.overhead",
                   "repro.eval.report", "repro.hwmodel", "repro.workloads",
                   "repro.faults", "repro.security.montecarlo",
                   "repro.attacks.harness", "multiprocessing"):
        assert module not in loaded, module


def test_cli_parser_loads_no_command_modules():
    loaded = _loaded_after("import repro.cli; repro.cli.build_parser()")
    for module in ("repro.cc", "repro.core", "repro.sim.batch",
                   "repro.sim.sofia", "repro.transform", "repro.eval",
                   "repro.dse", "repro.hwmodel", "repro.attacks",
                   "repro.attacksynth", "repro.fuzz", "repro.faults",
                   "repro.workloads", "multiprocessing"):
        assert module not in loaded, module


#: per campaign kind: what its set-up imports and builds, then one small
#: campaign with a store and every export it writes
CAMPAIGNS = {
    "fuzz": ("import repro.fuzz",
             "repro.fuzz.run_fuzz(6, seed=3, batch=3, "
             "corpus_dir=out / 'corpus', store_dir=out / 'store')"),
    "fault": ("import repro.faults\n"
              "from repro.workloads import make_workload\n"
              "victim = make_workload('crc32', 'tiny')\n"
              "program = victim.compile().program",
              "repro.faults.run_campaign(program, keys, "
              "victim.expected_output, per_model=1, seed=3, "
              "store_dir=out / 'store', export_path=out / 'fault.json')"),
    "attacksynth": ("import repro.attacksynth",
                    "repro.attacksynth.run_attacksynth(2, seed=3, "
                    "per_program=4, store_dir=out / 'store', "
                    "export_path=out / 'synth.json', "
                    "csv_path=out / 'synth.csv')"),
}


@pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
def test_campaign_imports_nothing_after_its_setup(kind, tmp_path):
    """A campaign pays every import at set-up, as the benchmark's
    ``prepare`` does it: its package (and the fault victim's workload)
    loaded and the device keys built, one small campaign, its store and
    its exports load no further ``repro`` module."""
    setup, campaign = CAMPAIGNS[kind]
    new = _run(f"""
        import json, sys
        from pathlib import Path
        from repro.crypto.keys import DeviceKeys
        {textwrap.indent(setup, " " * 8).lstrip()}
        out = Path({str(tmp_path)!r})
        keys = DeviceKeys.from_seed(7)
        before = set(sys.modules)
        {campaign}
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert [module for module in new if module.startswith("repro")] == []


# -- public names ----------------------------------------------------------

def _packages():
    return sorted(".".join(path.parent.relative_to(SRC).parts)
                  for path in PACKAGE.rglob("__init__.py"))


def test_public_names_survive_any_import_order():
    """Import every submodule of every package first (the import system
    binds each one on its package), then resolve every ``__all__`` name:
    a name that is also its submodule's name (``repro.sim.trace``,
    ``repro.fuzz.minimize``) must still be the function, and every name
    the object a submodule of its package defines."""
    problems = _run(f"""
        import importlib, json, pkgutil, sys

        packages = {_packages()!r}
        for package in packages:
            module = importlib.import_module(package)
            for info in pkgutil.iter_modules(module.__path__):
                if info.name != "__main__":
                    importlib.import_module(f"{{package}}.{{info.name}}")
        problems = []
        for package in packages:
            module = sys.modules[package]
            children = [sys.modules[name] for name in sys.modules
                        if name.rpartition(".")[0] == package]
            for name in module.__all__:
                value = getattr(module, name)
                submodule = sys.modules.get(f"{{package}}.{{name}}")
                if submodule is not None and hasattr(submodule, name):
                    expected = [getattr(submodule, name)]
                elif submodule is not None:
                    expected = [submodule]
                else:  # defined by a submodule, or by the package itself
                    expected = [getattr(child, name) for child in children
                                if hasattr(child, name)] or [
                        vars(module)[name]]
                if not any(value is candidate for candidate in expected):
                    problems.append(f"{{package}}.{{name}} is {{value!r}}")
                if name not in dir(module):
                    problems.append(f"{{package}}.{{name}} not in dir()")
        print(json.dumps(problems))
    """)
    assert problems == []


# -- unused imports --------------------------------------------------------

def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(text):
    """``(line, name)`` of every import in ``text`` that nothing reads,
    except on a ``noqa`` line (an import made for its effect)."""
    tree = ast.parse(text)
    lines = text.splitlines()
    kept = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} | _exported(tree)
    return [(node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            and "noqa" not in lines[node.lineno - 1]
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in kept]


def test_no_module_imports_a_name_it_never_uses():
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in sorted(PACKAGE.rglob("*.py"))
              for line, name in _unused_imports(path.read_text())]
    assert unused == []


def test_unused_import_scan_sees_an_unused_import():
    text = ("from typing import List, Optional\n"
            "import os\n"
            "import sys  # noqa: F401\n\n"
            "def f(x: Optional[int]) -> int:\n"
            "    return x\n")
    assert _unused_imports(text) == [(1, "List"), (2, "os")]
