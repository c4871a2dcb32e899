"""Content-addressed on-disk cache of suite cell results.

A *cell* is the atomic unit of suite work — one ``(benchmark, predictor,
core config)`` simulation (see :mod:`repro.experiments.parallel`).  Cells
are pure functions of their parameters plus the simulator's code, so their
results can be memoised on disk: re-running a sweep on an unchanged source
tree recomputes nothing.

Keying
------
Each cell's key is :func:`repro.common.hashing.stable_digest` over:

* every trace-generation parameter (benchmark, length, seeds, windows),
* the run parameters (mode, warmup, F1 period, sampling policy),
* the **predictor spec** — name, class and construction keywords
  (:meth:`~repro.predictors.registry.PredictorSpec.to_dict`; a
  ``MascotConfig`` by its fields); the salt covers every default a spec
  leaves unsaid, so a variant derived with ``with_`` is its own cell,
* the core configuration (timing mode), and
* a **code-version salt** — one SHA-256 over every ``*.py`` file under the
  package root, by sorted relative path plus file bytes
  (:func:`shared_code_salt`, computed once per process).

The salt covers the whole package, so no module that shapes a result —
the predictor registry in ``predictors/registry.py``, the cell runner in
``parallel.py``, a predictor, the trace generator — can be left out of
it.  The price is paid on purpose: an edit to *any* package source file,
including ones no cell reads (``figures.py``, ``cli.py``, ``lint/``),
re-keys every cell, and the next sweep recomputes the whole grid.  Old
entries are never read again; they are plain misses.

Storage
-------
One JSON file per cell under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-mascot/``), named ``<key>.json`` and carrying the key
again in its body plus a digest of the result payload, so truncated,
bit-flipped or misnamed files verifiably fail decode.  Entries are
written atomically (temp file + ``os.replace``), so a worker killed
mid-store can never leave a torn entry.  On read, a *corrupt* file
(unparsable, wrong key, digest mismatch, undecodable result) is moved to
a ``corrupt/`` quarantine subdirectory and treated as a miss — never an
error, and never rescanned; a *stale* file (older schema version) is a
plain miss that the recomputed result overwrites.  All cached payloads
are integers (or exact-round-trip floats for F1 profiles), so a cache
hit is bit-identical to recomputation.

Because every entry verifies itself, hosts share results by copying or
merging cache directories (``cp -r``, ``rsync``): a copied entry that
arrived damaged is quarantined on load and recomputed like any miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..common.hashing import stable_digest
from ..core.stats import PipelineStats
from .runner import PredictionRunResult

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "cell_key",
    "decode_result",
    "default_cache_dir",
    "encode_result",
    "shared_code_salt",
]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bump to invalidate every existing cache entry (e.g. when the meaning of
#: a keyed field changes without its value changing).  v2 added the stored
#: result digest verified on every read.
CACHE_SCHEMA_VERSION = 2

#: Root of the installed ``repro`` package (``.../src/repro``).
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mascot``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mascot"


@lru_cache(maxsize=None)
def shared_code_salt() -> str:
    """Code-version salt every cell key shares: a SHA-256 over every
    ``*.py`` file under the package root, each as its relative path, its
    length and its bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        data = path.read_bytes()
        rel = path.relative_to(_PACKAGE_ROOT).as_posix()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def encode_result(result: Union[PipelineStats, PredictionRunResult]) -> Dict:
    """JSON-serialisable envelope for a cell result."""
    if isinstance(result, PipelineStats):
        return {"kind": "timing", "data": result.to_dict()}
    if isinstance(result, PredictionRunResult):
        return {"kind": "accuracy", "data": result.to_dict()}
    raise TypeError(f"uncacheable result type {type(result).__name__}")


def decode_result(payload: Dict) -> Union[PipelineStats, PredictionRunResult]:
    """Inverse of :func:`encode_result`."""
    kind = payload["kind"]
    if kind == "timing":
        return PipelineStats.from_dict(payload["data"])
    if kind == "accuracy":
        return PredictionRunResult.from_dict(payload["data"])
    raise ValueError(f"unknown cached result kind {kind!r}")


class ResultCache:
    """One JSON file per cell key under a cache directory.

    ``hits`` / ``misses`` / ``stores`` / ``quarantined`` counters
    instrument test assertions ("a warm sweep performs zero re-runs",
    "corruption never propagates") and ``verbose`` suite output.

    ``read_only`` degrades the cache to load-only: hits are still served
    (a warm shared or CI-mounted cache keeps performing zero simulations)
    while :meth:`store` and quarantine moves become no-ops.  Set by
    :func:`~repro.experiments.parallel.resolve_cache` when the directory
    is not writable.
    """

    def __init__(self, directory: Union[str, Path, None] = None,
                 read_only: bool = False):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.read_only = read_only
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved; never consulted on load."""
        return self.directory / "corrupt"

    def probe_writable(self) -> Optional[str]:
        """None when the directory is writable, else the failure reason.

        Used by :func:`~repro.experiments.parallel.resolve_cache` to
        degrade to read-only mode *before* a sweep starts rather than
        failing on the first ``store`` hours in, and by ``repro doctor``.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            probe = self.directory / f".probe-{os.getpid()}"
            probe.write_text("ok")
            probe.unlink()
        except OSError as error:
            return str(error)
        return None

    def load(self, key: str) -> Optional[object]:
        """Verified, decoded result for ``key``, or None.

        A missing file or an entry from an older schema version is a plain
        miss (the recomputed result overwrites it).  A *corrupt* file —
        not UTF-8, unparsable, wrong embedded key, digest mismatch,
        undecodable result — is quarantined to ``corrupt/`` so it is never
        rescanned and remains available for post-mortems.  Every entry
        carries its own key and digest, so one copied in from another
        host's cache directory is verified here like any other.  Counts
        the hit/miss either way.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(data)  # bad UTF-8 is a ValueError here
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
            if payload.get("v") != CACHE_SCHEMA_VERSION:
                self.misses += 1  # stale schema: plain miss, no quarantine
                return None
            if payload.get("key") != key:
                raise ValueError("embedded key does not match filename")
            encoded = payload["result"]
            if payload.get("digest") != stable_digest(encoded):
                raise ValueError("result digest mismatch")
            result = decode_result(encoded)  # undecodable results are corrupt
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside; best-effort, never raises.

        Two processes quarantining the same entry race harmlessly: the
        loser's ``os.replace`` finds the entry gone and it stays a miss.
        """
        if self.read_only:
            return  # the entry simply stays a miss
        try:
            qdir = self.quarantine_dir
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            counter = 0
            while target.exists():
                counter += 1
                target = qdir / f"{path.name}.{counter}"
            os.replace(path, target)
            self.quarantined += 1
        except OSError:
            pass  # read-only cache or a lost race: the entry stays a miss

    def store(self, key: str, result: object) -> None:
        """Atomically persist ``result`` under ``key``.

        The temp-file + ``os.replace`` dance guarantees a reader (or a
        writer killed mid-write) can never observe a torn entry.  The
        temp name is unique per writer (``<key>.json.tmp<pid>-<thread
        id>``), so any number of processes and threads on one host may
        store the same key at once: each renames its own complete file
        over the entry and the last rename wins with bit-identical bytes.
        Hosts share a cache by copying the directory (``cp -r``,
        ``rsync``), never through a shared filesystem; :meth:`load`
        verifies every copied entry.  A read-only cache skips the store
        silently (the warning was issued once, at resolve time).  A write
        that fails partway (disk full, killed writer) removes its temp
        file on the way out instead of stranding it forever.
        """
        if self.read_only:
            return
        encoded = encode_result(result)
        payload = {
            "v": CACHE_SCHEMA_VERSION,
            "key": key,
            "digest": stable_digest(encoded),
            "result": encoded,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}")
        try:
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()  # no-op after a successful os.replace
            except OSError:
                pass
        self.stores += 1

    @property
    def counters(self) -> Dict[str, int]:
        """Counter snapshot for metrics sweep records and doctor output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
        }

    def orphan_tmp_files(self) -> List[Path]:
        """Stranded ``<key>.json.tmp*`` files in the cache directory.

        Pre-fix writers (and writers killed between ``write_text`` and
        ``os.replace``, which no ``finally`` can save) leave temp files
        that are never looked at again.  ``repro doctor`` counts and
        sweeps them.
        """
        try:
            return sorted(p for p in self.directory.glob("*.json.tmp*")
                          if p.is_file())
        except OSError:
            return []

    def sweep_orphan_tmp(self, min_age: float = 60.0) -> int:
        """Unlink orphaned temp files older than ``min_age`` seconds.

        The age guard avoids racing a live writer mid-store (stores
        complete in milliseconds; a minute-old temp file has no owner).
        Returns the number removed.
        """
        removed = 0
        for path in self.orphan_tmp_files():
            try:
                # repro-lint: allow(det-time) -- temp-file age gates cleanup only
                age = time.time() - path.stat().st_mtime
                if age >= min_age:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed


def cell_key(spec) -> str:
    """Content-address of one :class:`~repro.experiments.parallel.CellSpec`.

    Any single-field change — trace seed, window, warmup, predictor
    keyword, core config, any package source file — yields a different
    key.
    """
    core = spec.config
    return stable_digest({
        "v": CACHE_SCHEMA_VERSION,
        "mode": spec.mode,
        "trace": {
            "benchmark": spec.benchmark,
            "num_uops": spec.num_uops,
            "program_seed": spec.program_seed,
            "trace_seed": spec.trace_seed,
            "store_window": spec.store_window,
            "instr_window": spec.instr_window,
        },
        "run": {
            "warmup": spec.warmup,
            "f1_period": spec.f1_period,
            "telemetry": spec.telemetry,
            # Sampled cells are keyed by the full policy: any knob change
            # (interval length, k bound, warmup, seed, CI parameters)
            # selects different regions or reconstructs differently, so it
            # must be a different cell.  The *outcome* digest of the
            # selection lives in the result's sampling metadata — the
            # coordinator keying a cell may not have generated the trace.
            "sampling": (spec.sampling.to_dict()
                         if spec.sampling is not None else None),
        },
        "predictor": spec.predictor.to_dict(),
        "core": asdict(core) if core is not None else None,
        "code": shared_code_salt(),
    })
