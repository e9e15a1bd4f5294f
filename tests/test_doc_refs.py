"""Docstring cross-references must point at names that exist.

A ``:mod:`repro.x.y``` reference in a docstring is a promise to the
reader; a stale one (e.g. the ``repro.hwmodel.timing`` reference that
survived a rename) silently rots.  This suite walks every module under
``src/repro`` and imports every ``repro.*`` module referenced from any
docstring in the file, and resolves every fully qualified ``repro.*``
:func:, :class:, :meth:, :data:, :attr: and :exc: target to the object
it names.
"""

import functools
import importlib
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

_MOD_REF = re.compile(r":mod:`~?(repro(?:\.\w+)*)`")
_OBJ_REF = re.compile(
    r":(?:func|class|meth|data|attr|exc):`~?(repro(?:\.\w+)+)`")


def _references(pattern):
    """Yield (source file, target) for every ``pattern`` match."""
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for target in pattern.findall(text):
            refs.append((str(path.relative_to(SRC.parent)), target))
    return refs


REFS = _references(_MOD_REF)
OBJ_REFS = _references(_OBJ_REF)


def test_scan_finds_references():
    # the scan itself must not silently match nothing
    assert len(REFS) > 10
    assert len(OBJ_REFS) > 50


@pytest.mark.parametrize("source,target",
                         REFS, ids=[f"{s}->{t}" for s, t in REFS])
def test_mod_reference_imports(source, target):
    try:
        importlib.import_module(target)
    except ImportError as exc:
        pytest.fail(f"{source} references :mod:`{target}` "
                    f"which does not import: {exc}")


def _resolve(target):
    """The object ``target`` names: its longest importable module
    prefix, then attribute lookups for the rest."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        return functools.reduce(getattr, parts[cut:], module)
    raise ImportError(f"no module prefix of {target} imports")


@pytest.mark.parametrize("source,target",
                         OBJ_REFS, ids=[f"{s}->{t}" for s, t in OBJ_REFS])
def test_object_reference_resolves(source, target):
    try:
        _resolve(target)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{source} references `{target}` "
                    f"which does not resolve: {exc}")
