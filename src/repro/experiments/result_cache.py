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
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import os
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
    "CacheLock",
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


class CacheLock:
    """Advisory cross-process lock file for shared cache directories.

    ``os.replace`` already makes each local store atomic, but a
    multi-host sweep (``WorkerBackend`` coordinators on several machines
    pointed at one NFS-mounted cache) can race two writers on the same
    key: rename atomicity across NFS clients is weaker, and concurrent
    quarantine moves can collide.  The lock is an ``O_CREAT | O_EXCL``
    file next to the entry — the one creation primitive that is atomic on
    NFS — holding a per-acquire ownership token (``pid:nonce``).

    Ownership discipline: every unlink is conditional on the lock file
    still holding the token the unlinker observed.  ``release`` only
    removes the file when it still carries *this* acquire's token (a
    stale-breaker may have removed our lock and a third party re-acquired
    it — unconditional unlink would steal theirs), and a stale-break only
    removes the file when it still carries the token whose age was judged
    stale (the holder may have released and someone else re-acquired
    between ``stat`` and ``unlink``).

    Deliberately *best-effort*: if the lock cannot be acquired within
    ``timeout`` seconds the caller proceeds unlocked (counted by the
    owner, surfaced in doctor/metrics) rather than stalling a sweep —
    losing the race costs at worst one redundant store of bit-identical
    bytes.  A lock file older than ``stale_after`` seconds is broken: its
    holder died between acquire and release, and no store ever takes
    anywhere near that long.

    This lock-file discipline is the *filesystem-only legacy path* for
    sharing a cache directory across hosts; the network cache service
    (:mod:`repro.experiments.cache_service`) serialises writers in one
    process and needs none of it.
    """

    #: Per-process nonce source making each acquire's token unique even
    #: when one process re-acquires the same lock path (deterministic —
    #: no entropy reaches any result payload).
    _NONCES = itertools.count()

    def __init__(self, path: Union[str, Path], timeout: float = 2.0,
                 stale_after: float = 30.0):
        self.path = Path(path)
        self.timeout = float(timeout)
        self.stale_after = float(stale_after)
        self.acquired = False
        self.token: Optional[str] = None

    def acquire(self) -> bool:
        """Try to take the lock; False means *proceed unlocked*."""
        deadline = time.monotonic() + self.timeout
        token = f"{os.getpid()}:{next(self._NONCES)}"
        while True:
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_if_stale()
                if time.monotonic() >= deadline:
                    return False
                time.sleep(0.05)
                continue
            except OSError:
                return False  # unwritable directory: proceed unlocked
            try:
                os.write(fd, token.encode())
            finally:
                os.close(fd)
            self.acquired = True
            self.token = token
            return True

    def _read_state(self) -> Optional[Tuple[str, float]]:
        """Current ``(token, age_seconds)`` of the lock file, or None."""
        try:
            token = self.path.read_text()
            # Wall-clock age of the lock file vs its mtime: gates crash
            # cleanup only, never results.
            # repro-lint: allow(det-time) -- lock-file age for stale-break
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return None  # raced another breaker, or the holder released
        return token, age

    def _unlink_if_token(self, token: str) -> bool:
        """Remove the lock file iff it still holds ``token``.

        The token check closes the ownership races: a lock that changed
        hands between our last observation and now presents a different
        token and is left alone.  (A raced re-acquire *between* the check
        and the unlink remains theoretically possible with plain POSIX
        primitives, but requires a full release+re-acquire cycle inside
        that microsecond window — compared to the seconds-wide stat/unlink
        window this replaces.)
        """
        try:
            if self.path.read_text() != token:
                return False
            self.path.unlink()
            return True
        except OSError:
            return False

    def _break_if_stale(self) -> None:
        """Remove a lock whose holder evidently died; best-effort."""
        observed = self._read_state()
        if observed is None:
            return
        token, age = observed
        if age > self.stale_after:
            self._unlink_if_token(token)

    def release(self) -> None:
        if not self.acquired:
            return
        self.acquired = False
        token, self.token = self.token, None
        if token is not None:
            self._unlink_if_token(token)

    def __enter__(self) -> "CacheLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


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
        #: Stores/quarantines that proceeded unlocked after losing the
        #: lock race past its timeout (harmless locally; a signal that a
        #: shared cache directory is congested or its FS is slow).
        self.lock_timeouts = 0

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

    def probe_lock(self) -> Optional[str]:
        """None when a lock file can be taken and released, else the reason.

        ``repro doctor`` preflight for shared cache directories: some
        network filesystems advertise writability yet break ``O_EXCL``
        creation semantics, which would silently disable the concurrent
        -writer discipline below.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            return str(error)
        lock = CacheLock(self.directory / f".probe-{os.getpid()}.lock",
                         timeout=0.5)
        if not lock.acquire():
            return "could not create an O_EXCL lock file"
        if lock.acquire():  # a second grab must fail while held
            lock.release()
            return "lock file was not exclusive (O_EXCL not honoured)"
        lock.release()
        return None

    def _lock_for(self, path: Path) -> CacheLock:
        return CacheLock(path.with_name(path.name + ".lock"))

    def contains(self, key: str) -> bool:
        """Whether an entry file exists for ``key`` (no verification).

        Cheap presence probe used to skip redundant stores; a corrupt
        entry that would fail :meth:`load` still counts as present (the
        next load quarantines it).
        """
        return self.path_for(key).exists()

    def load_encoded(self, key: str) -> Optional[Dict]:
        """Verified *encoded* payload for ``key``, or None.

        The shared verification half of :meth:`load` — also the server
        side of the network cache service, which ships encoded payloads
        over the wire without decoding them.  A missing file or an entry
        from an older schema version is a plain miss (the recomputed
        result overwrites it).  A *corrupt* file — unparsable, wrong
        embedded key, digest mismatch, undecodable result — is
        quarantined to ``corrupt/`` so it is never rescanned and remains
        available for post-mortems.  Counts the hit/miss either way.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(text)
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
            decode_result(encoded)  # undecodable results are corrupt too
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return encoded

    def load(self, key: str) -> Optional[object]:
        """Decoded result for ``key``, or None on miss/staleness/corruption."""
        encoded = self.load_encoded(key)
        if encoded is None:
            return None
        return decode_result(encoded)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside; best-effort, never raises."""
        if self.read_only:
            return  # the entry simply stays a miss
        try:
            lock = self._lock_for(path)
            if not lock.acquire():
                self.lock_timeouts += 1
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
            finally:
                lock.release()
        except OSError:
            pass  # read-only cache: the entry simply stays a miss

    def store_encoded(self, key: str, encoded: Dict) -> None:
        """Atomically persist an already-encoded payload under ``key``.

        The writing half of :meth:`store` — also the server side of the
        network cache service.  The temp-file + ``os.replace`` dance
        guarantees a reader (or a worker killed mid-write) can never
        observe a torn entry, and a per-entry :class:`CacheLock`
        serialises concurrent writers of the same key on shared
        filesystems (several coordinators warming one NFS cache).  Losing
        the lock race past its timeout downgrades to the unlocked store —
        still atomic locally — and bumps ``lock_timeouts``.  A read-only
        cache skips the store silently (the warning was issued once, at
        resolve time).  A write that fails partway (disk full, killed
        writer) removes its temp file on the way out instead of stranding
        ``<key>.json.tmp<pid>`` forever.
        """
        if self.read_only:
            return
        payload = {
            "v": CACHE_SCHEMA_VERSION,
            "key": key,
            "digest": stable_digest(encoded),
            "result": encoded,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        lock = self._lock_for(path)
        if not lock.acquire():
            self.lock_timeouts += 1
        try:
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            try:
                tmp.write_text(json.dumps(payload))
                os.replace(tmp, path)
            finally:
                try:
                    tmp.unlink()  # no-op after a successful os.replace
                except OSError:
                    pass
            self.stores += 1
        finally:
            lock.release()

    def store(self, key: str, result: object) -> None:
        """Atomically persist ``result`` under ``key`` (see store_encoded)."""
        if self.read_only:
            return
        self.store_encoded(key, encode_result(result))

    @property
    def counters(self) -> Dict[str, int]:
        """Counter snapshot for metrics sweep records and doctor output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "lock_timeouts": self.lock_timeouts,
        }

    def orphan_tmp_files(self) -> List[Path]:
        """Stranded ``<key>.json.tmp<pid>`` files in the cache directory.

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
