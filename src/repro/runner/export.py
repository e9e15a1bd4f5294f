"""Structured JSON export of campaign runs.

Every campaign — fault injection, attack matrix, Monte-Carlo security,
overhead sweep — can serialize its parameters and per-task results to
one self-describing JSON document, so downstream tooling (plotting,
regression tracking, distributed aggregation) consumes campaigns without
parsing the human-readable tables.

``to_jsonable`` converts the repo's result types generically: dataclasses
become objects, enums become their values, tuples become arrays.  A
campaign record looks like::

    {
      "campaign": "fault-injection",
      "parameters": {"workload": "crc32", "seed": 2016, ...},
      "jobs": 4,
      "elapsed_seconds": 1.93,
      "num_results": 90,
      "results": [{"model": "CodeBitFlip", "outcome": "detected", ...}]
    }
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence


def to_jsonable(value: Any) -> Any:
    """Recursively convert campaign data into JSON-serializable types."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        # canonical order: Python set iteration follows the per-interpreter
        # hash salt for strings, which would break the byte-identical
        # export invariant (and the shard-merge proof) across processes
        converted = [to_jsonable(v) for v in value]
        return sorted(converted,
                      key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _temp_beside(target: Path) -> "tuple[int, str]":
    """A fresh temp file in ``target``'s directory: (fd, name)."""
    try:
        return tempfile.mkstemp(dir=target.parent,
                                prefix=target.name + ".", suffix=".tmp")
    except OSError as exc:
        # name the path being written, not a random temp file beside it
        raise type(exc)(exc.errno, exc.strerror, str(target)) from None


def check_writable(path) -> None:
    """Raise the :class:`OSError` an :func:`atomic_write` to ``path``
    would, by making and removing the temp file it would write."""
    fd, tmp_name = _temp_beside(Path(path))
    os.close(fd)
    os.unlink(tmp_name)


def atomic_write(path, data) -> Path:
    """Write ``data`` (bytes, or text as UTF-8) to ``path`` atomically
    (temp file + ``os.replace``).

    A writer killed mid-call leaves either the previous content or
    nothing at the final path — never a truncated file that a later
    ``--resume`` or ``--corpus`` run would try to parse.
    """
    target = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp_name = _temp_beside(target)
    try:
        # mkstemp makes the file private: give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def campaign_record(name: str, parameters: Dict[str, Any],
                    results: Sequence[Any], *,
                    jobs: Optional[int] = None,
                    elapsed_seconds: Optional[float] = None
                    ) -> Dict[str, Any]:
    """The canonical JSON document for one campaign run."""
    record: Dict[str, Any] = {
        "campaign": name,
        "parameters": to_jsonable(parameters),
        "jobs": jobs,
        "num_results": len(results),
        "results": [to_jsonable(r) for r in results],
    }
    if elapsed_seconds is not None:
        record["elapsed_seconds"] = round(elapsed_seconds, 6)
    return record


def write_campaign(path, record: Dict[str, Any]) -> Path:
    """Write a campaign record as pretty-printed JSON; returns the path.

    The write is atomic: a campaign killed mid-export never leaves a
    truncated JSON document at the final path.
    """
    return atomic_write(
        path, json.dumps(record, indent=2, sort_keys=False) + "\n")
