"""Append-only JSONL run journal enabling crash recovery and resume.

Every journaled :func:`~repro.experiments.parallel.execute_cells` run
writes one ``<run-id>.jsonl`` file under the journal directory
(``$REPRO_JOURNAL_DIR`` or ``<result-cache-dir>/journals``), recording one
JSON object per line:

* ``run-start``  — schema version, run id, cell count and every cell key.
* ``dispatch``   — a cell attempt was handed to a worker (or run inline).
* ``ok``         — a cell completed; carries the **encoded result payload**
  (the same encoding as the result cache), so a journal is a self-contained
  recovery store: ``--resume <run-id>`` restores completed cells
  bit-identically even with the result cache disabled.
* ``fail``       — a cell exhausted its retries; carries the failure kind.
* ``run-end``    — summary counts (absent if the supervisor was killed).

The file is append-only and flushed per record, so a run killed at any
instant leaves at worst one torn final line, which the loader skips, as
it skips records of events it does not know (such as the ``lease``
records older runs wrote).  A
resumed run writes a *new* journal (fresh run id) re-recording carried
results, so resumes chain indefinitely.

Run ids derive from the sorted cell keys (``run-<digest12>``), suffixed
``-2``, ``-3``… when the same grid is journaled repeatedly — deterministic,
content-addressed, and free of clock or entropy reads (det-* clean).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from ..common.hashing import stable_digest
from .result_cache import decode_result, default_cache_dir, encode_result

__all__ = [
    "JOURNAL_DIR_ENV",
    "JOURNAL_SCHEMA_VERSION",
    "JournalRun",
    "JournalState",
    "RunJournal",
    "default_journal_dir",
    "derive_run_id",
]

#: Environment variable overriding the default journal directory.
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

#: Bump when the record grammar changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1


def default_journal_dir(cache_dir: Union[str, Path, None] = None) -> Path:
    """``$REPRO_JOURNAL_DIR``, else ``<cache_dir>/journals``.

    ``cache_dir`` is the run's result-cache directory (``--cache-dir``);
    omitted, the default result-cache directory.
    """
    override = os.environ.get(JOURNAL_DIR_ENV)
    if override:
        return Path(override)
    return Path(cache_dir or default_cache_dir()) / "journals"


def derive_run_id(keys: Sequence[str]) -> str:
    """Content-addressed run id over the (sorted) cell keys."""
    return "run-" + stable_digest(sorted(keys))[:12]


@dataclass
class JournalState:
    """Replayable view of one (or several merged) journal files."""

    run_id: str
    #: key -> decoded result object for every cell that completed.
    completed: Dict[str, object] = field(default_factory=dict)
    #: key -> final failure record for cells that never completed.
    failed: Dict[str, dict] = field(default_factory=dict)


class JournalRun:
    """An open, append-only journal file for one execute_cells run."""

    def __init__(self, path: Path, run_id: str):
        self.path = path
        self.run_id = run_id
        self.ok = 0
        self.failed = 0
        self._file = open(path, "a", encoding="utf-8")

    def _write(self, record: dict) -> None:
        if self._file is None:
            return
        self._file.write(json.dumps(record, sort_keys=True) + "\n")
        self._file.flush()

    def record_start(self, keys: Sequence[str]) -> None:
        self._write({"event": "run-start", "v": JOURNAL_SCHEMA_VERSION,
                     "run_id": self.run_id, "cells": len(keys),
                     "keys": list(keys)})

    def record_dispatch(self, key: str, attempt: int) -> None:
        self._write({"event": "dispatch", "key": key, "attempt": attempt})

    def record_ok(self, key: str, attempts: int, duration: float,
                  source: str, result: object) -> None:
        """``source`` is ``computed``, ``cache`` or ``journal`` (resume)."""
        self.ok += 1
        self._write({"event": "ok", "key": key, "attempts": attempts,
                     "duration": round(duration, 6), "source": source,
                     "result": encode_result(result)})

    def record_fail(self, key: str, attempts: int, kind: str,
                    message: str) -> None:
        self.failed += 1
        self._write({"event": "fail", "key": key, "attempts": attempts,
                     "kind": kind, "message": message})

    def finish(self) -> None:
        """Write the run-end summary and close the file (idempotent)."""
        if self._file is None:
            return
        self._write({"event": "run-end", "ok": self.ok,
                     "failed": self.failed})
        self._file.close()
        self._file = None


class RunJournal:
    """Factory/loader for run journals under one directory."""

    def __init__(self, directory: Union[str, Path, None] = None):
        self.directory = (Path(directory) if directory
                          else default_journal_dir())
        #: Run id of the most recent :meth:`begin` on this instance; lets
        #: callers (CLI, tests) name the run they just produced.
        self.last_run_id: Optional[str] = None

    def path_for(self, run_id: str) -> Path:
        return self.directory / f"{run_id}.jsonl"

    def probe_writable(self) -> Optional[str]:
        """None when the directory is writable, else the failure reason."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            probe = self.directory / f".probe-{os.getpid()}"
            probe.write_text("ok")
            probe.unlink()
        except OSError as error:
            return str(error)
        return None

    def begin(self, keys: Sequence[str]) -> JournalRun:
        """Open a new journal for a run over cells with these keys."""
        self.directory.mkdir(parents=True, exist_ok=True)
        base = derive_run_id(keys)
        run_id, counter = base, 1
        while self.path_for(run_id).exists():
            counter += 1
            run_id = f"{base}-{counter}"
        run = JournalRun(self.path_for(run_id), run_id)
        run.record_start(keys)
        self.last_run_id = run_id
        return run

    def load(self, run_id: str) -> JournalState:
        """Replay a journal file into a :class:`JournalState`.

        Undecodable lines (a torn tail from a killed run) and records for
        unknown events are skipped; an ``ok`` record supersedes any earlier
        ``fail`` for the same key.
        """
        path = self.path_for(run_id)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise FileNotFoundError(
                f"no journal {run_id!r} under {self.directory} "
                f"({error})") from None
        state = JournalState(run_id=run_id)
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail of a killed run
            if not isinstance(record, dict):
                continue
            event = record.get("event")
            try:
                if event == "ok":
                    state.completed[record["key"]] = decode_result(
                        record["result"])
                    state.failed.pop(record["key"], None)
                elif event == "fail":
                    if record["key"] not in state.completed:
                        state.failed[record["key"]] = record
            except (KeyError, TypeError, ValueError):
                continue  # malformed record: skip, never abort a resume
        return state

    def load_many(self, run_ids: Sequence[str]) -> JournalState:
        """Union of several runs' states; later runs win on conflicts."""
        merged = JournalState(run_id="+".join(run_ids))
        for run_id in run_ids:
            state = self.load(run_id)
            merged.completed.update(state.completed)
            merged.failed.update(state.failed)
        for key in merged.completed:
            merged.failed.pop(key, None)
        return merged
