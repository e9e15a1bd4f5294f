"""Deduplicated specimen corpus with a deterministic on-disk form.

The corpus keeps every specimen that contributed new coverage, keyed by
the SHA-256 of its (language, source) — so two genomes that happen to
grow the same program occupy one slot, and re-running a campaign with
the same seed reproduces byte-identical corpus files.

On disk a corpus is a directory of one JSON document per entry, named
``<sha16>.json`` (content-addressed: the name *is* the dedup key), plus
the campaign's ``coverage.json`` summary written next to them by
:mod:`repro.fuzz.campaign`.  Loading ignores unknown files, so a corpus
directory can be shared with triage artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..runner.export import atomic_write
from .generators import Genome, Specimen

_SHA_CHARS = 16


def specimen_sha(language: str, source: str) -> str:
    """Content identity of a specimen (dedup + filename key)."""
    digest = hashlib.sha256(
        f"{language}\x00{source}".encode("utf-8")).hexdigest()
    return digest[:_SHA_CHARS]


@dataclasses.dataclass
class CorpusEntry:
    """One kept specimen and the coverage keys it contributed."""

    sha: str
    genome: Genome
    language: str
    source: str
    new_keys: List[str]

    def to_json(self) -> str:
        record = {"sha": self.sha,
                  "genome": dataclasses.asdict(self.genome),
                  "language": self.language,
                  "source": self.source,
                  "new_keys": sorted(self.new_keys)}
        return json.dumps(record, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CorpusEntry":
        record = json.loads(text)
        return cls(sha=record["sha"], genome=Genome(**record["genome"]),
                   language=record["language"], source=record["source"],
                   new_keys=list(record["new_keys"]))


class Corpus:
    """In-memory corpus with optional directory persistence."""

    def __init__(self) -> None:
        self._entries: Dict[str, CorpusEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sha: str) -> bool:
        return sha in self._entries

    def entries(self) -> List[CorpusEntry]:
        """Entries in deterministic (sha) order."""
        return [self._entries[sha] for sha in sorted(self._entries)]

    def add(self, specimen: Specimen, new_keys: List[str]) -> Optional[str]:
        """Keep a specimen; returns its sha, or ``None`` if deduplicated."""
        sha = specimen_sha(specimen.language, specimen.source)
        if sha in self._entries:
            return None
        self._entries[sha] = CorpusEntry(
            sha=sha, genome=specimen.genome, language=specimen.language,
            source=specimen.source, new_keys=list(new_keys))
        return sha

    def entries_with_key(self, key: str) -> List[CorpusEntry]:
        """Entries that contributed ``key``, in sha order."""
        return [entry for entry in self.entries() if key in entry.new_keys]

    def shas(self) -> List[str]:
        return sorted(self._entries)

    def genomes(self) -> List[Genome]:
        """Entry genomes in deterministic (sha) order.

        The corpus doubles as a *program source* for downstream
        campaigns — :mod:`repro.attacksynth` replays coverage-selected
        specimens as attack victims instead of drawing fresh ones.
        """
        return [entry.genome for entry in self.entries()]

    # -- persistence -----------------------------------------------------

    def save(self, root) -> Path:
        """Write one ``<sha>.json`` per entry under ``root``."""
        directory = Path(root)
        directory.mkdir(parents=True, exist_ok=True)
        for entry in self.entries():
            atomic_write(directory / f"{entry.sha}.json", entry.to_json())
        return directory

    @classmethod
    def load(cls, root) -> "Corpus":
        """Read every ``<sha>.json`` under ``root`` (missing dir = empty)."""
        corpus = cls()
        directory = Path(root)
        if not directory.is_dir():
            return corpus
        for path in sorted(directory.glob("*.json")):
            if path.name == "coverage.json" or path.name == "report.json":
                continue
            try:
                entry = CorpusEntry.from_json(path.read_text())
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # foreign file sharing the directory
            corpus._entries[entry.sha] = entry
        return corpus
