"""Content-addressed on-disk cache of suite cell results.

A *cell* is the atomic unit of suite work — one ``(benchmark, predictor,
core config)`` simulation (see :mod:`repro.experiments.parallel`).  Cells
are pure functions of their parameters plus the simulator's code, so their
results can be memoised on disk: a full-suite sweep re-run after editing
one predictor only recomputes that predictor's cells.

Keying
------
Each cell's key is :func:`repro.common.hashing.stable_digest` over:

* every trace-generation parameter (benchmark, length, seeds, windows),
* the run parameters (mode, warmup, F1 period),
* a **predictor fingerprint** — the registry name, the defining class, a
  dump of its config dataclass when it has one, and a hash of the source
  of its defining module plus the shared predictor machinery
  (``predictors/base|configs|tables.py``),
* the core configuration (timing mode), and
* a **code-version salt** — a hash of every source file of the shared
  simulation substrate (``trace``, ``core``, ``memory``, ``branch``,
  ``analysis``, ``common`` and the runner itself).

Editing shared machinery therefore invalidates everything; editing one
predictor module invalidates only cells naming a predictor defined there.
Changes that the fingerprint cannot see (e.g. constructor arguments passed
by a factory registered in ``suite.py`` for a predictor without a config
dataclass) are not detected — bump :data:`CACHE_SCHEMA_VERSION` or use
``--no-cache`` when in doubt.

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

import ast
import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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
    "predictor_fingerprint",
    "predictor_sources",
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

#: Source trees/files every cell result depends on, relative to the
#: package root.  ``predictors/`` is deliberately absent: predictor code is
#: salted per predictor by :func:`predictor_fingerprint` so editing one
#: predictor module leaves other predictors' cells valid.
_SHARED_SOURCES = (
    "trace", "core", "memory", "branch", "analysis", "common", "sampling",
    "experiments/runner.py",
    # Telemetry counters flow into cached PredictionRunResults, so their
    # semantics are part of the result; the rest of repro.obs (cycle
    # accounting, profile rendering, metrics emission) never touches
    # cacheable payloads and deliberately stays out of the salt.
    "obs/telemetry.py",
)

#: Predictor machinery shared by every predictor implementation.
_PREDICTOR_COMMON_SOURCES = (
    "predictors/base.py", "predictors/configs.py", "predictors/tables.py",
)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mascot``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-mascot"


@lru_cache(maxsize=None)
def _source_digest(relative_parts: tuple) -> str:
    """Hash the named source files/trees under the package root.

    A missing or typo'd entry is a hard error: ``rglob`` on a nonexistent
    directory yields nothing, so before this check a bad entry silently
    contributed *zero bytes* to the salt — exactly the failure mode
    (stale cache hits after edits) the salt exists to prevent.
    """
    digest = hashlib.sha256()
    for rel in relative_parts:
        path = _PACKAGE_ROOT / rel
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:
            raise ValueError(
                f"cache-salt source entry {rel!r} does not exist under "
                f"{_PACKAGE_ROOT}; fix the entry (it would otherwise "
                "contribute nothing to the code-version salt)"
            )
        if not files:
            raise ValueError(
                f"cache-salt source entry {rel!r} matches no Python files "
                f"under {_PACKAGE_ROOT}; it contributes nothing to the "
                "code-version salt"
            )
        for source in files:
            digest.update(str(source.relative_to(_PACKAGE_ROOT)).encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()


def shared_code_salt() -> str:
    """Code-version salt over the shared simulation substrate."""
    return _source_digest(_SHARED_SOURCES)


def _predictor_imports(rel: str) -> List[str]:
    """Sibling ``predictors`` modules imported (``from .x import ...``) by
    the predictor module at ``rel``, as paths relative to the package."""
    tree = ast.parse((_PACKAGE_ROOT / rel).read_text(encoding="utf-8"))
    return [f"predictors/{node.module}.py" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module]


def predictor_sources(name: str) -> Tuple[str, ...]:
    """Source files (relative to the package root) salting the cells of
    the registered predictor ``name``: the module defining the class the
    registry constructs plus every ``repro.predictors`` module it imports,
    transitively, plus :data:`_PREDICTOR_COMMON_SOURCES` — so an edit to
    IDist's Store Sets half, or to any shared helper module, re-keys the
    cells that run it."""
    from .suite import make_predictor  # local import: suite imports us

    package, *module = type(make_predictor(name)).__module__.split(".")
    pending = list(_PREDICTOR_COMMON_SOURCES)
    if package == _PACKAGE_ROOT.name and module[:1] == ["predictors"]:
        pending.append("/".join(module) + ".py")
    covered = set()
    while pending:
        rel = pending.pop()
        if rel not in covered:
            covered.add(rel)
            pending.extend(_predictor_imports(rel))
    return tuple(sorted(covered))


@lru_cache(maxsize=None)
def predictor_fingerprint(name: str) -> Dict[str, object]:
    """Identity of a registered predictor for cache keying.

    Builds the predictor once (cheap — table allocation only) to observe
    the class the registry actually constructs and the config it was
    given, then hashes every source file that class's behaviour depends
    on (:func:`predictor_sources`).
    """
    from .suite import make_predictor  # local import: suite imports us

    predictor = make_predictor(name)
    cls = type(predictor)
    config = getattr(predictor, "config", None)
    return {
        "name": name,
        "class": f"{cls.__module__}.{cls.__qualname__}",
        "config": asdict(config) if is_dataclass(config) else None,
        "code": _source_digest(predictor_sources(name)),
    }


def encode_result(result: Union[PipelineStats, PredictionRunResult]) -> Dict:
    """JSON-serialisable envelope for a cell result (cache and journal)."""
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

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no verification).

        Cheap presence probe used to skip redundant stores; a corrupt
        entry that would fail :meth:`load` still counts as present (the
        next load quarantines it).
        """
        return self.path_for(key).exists()

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
    config, core config, simulator source — yields a different key.
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
            "track_f1": spec.track_f1,
            "telemetry": spec.telemetry,
            "engine": getattr(spec, "engine", "scalar"),
            # Sampled cells are keyed by the full policy: any knob change
            # (interval length, k bound, warmup, seed, CI parameters)
            # selects different regions or reconstructs differently, so it
            # must be a different cell.  The *outcome* digest of the
            # selection lives in the result's sampling metadata — the
            # coordinator keying a cell may not have generated the trace.
            "sampling": (spec.sampling.to_dict()
                         if getattr(spec, "sampling", None) is not None
                         else None),
        },
        "predictor": predictor_fingerprint(spec.predictor),
        "core": asdict(core) if core is not None else None,
        "code": shared_code_salt(),
    })
