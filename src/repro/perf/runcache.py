"""Content-addressed on-disk cache of simulation results.

Every paper figure is a ``(workload, policy, config)`` sweep over the
cycle-level model, and benchmark suites re-simulate mostly identical
points run after run.  The run cache memoizes
:func:`repro.harness.api.execute` on disk:

* **Key** — SHA-256 over the canonicalized request (workload identity,
  instrument mode, policy, resolved instruction/warmup budgets,
  fast-forward flag, time-shard count, the full
  :class:`~repro.core.config.CoreConfig`) plus a *code-version
  fingerprint* hashing every ``repro`` source file, so any simulator
  change invalidates the whole cache.
* **Value** — the pickled :class:`~repro.harness.api.RunResult`
  (stats + metadata; only untraced runs are cached, so no collector
  rides along).

The store also holds *derived functional quantities* — values the
experiments compute from a generated program without the timing core,
such as Fig. 4's useful-instruction fraction.  :func:`memoized` keys
them with :func:`derived_key`::

    (tag,                      # e.g. "useful-fraction-v1"
     canonicalize(part), ...,  # workload identity, mode, sample size
     code_fingerprint())

and reads/writes them through the same :meth:`RunCache.get` /
:meth:`RunCache.put`, so they count as hits and misses like any run.

The simulator is deterministic, which is what makes this sound: the
same key can only ever map to one result.  ``REPRO_CACHE=0`` opts out,
``REPRO_CACHE_DIR`` relocates the store, and the ``repro cache`` CLI
reports/clears it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pickle
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from .envflag import env_flag


def cache_enabled() -> bool:
    """The cache is on unless ``REPRO_CACHE`` says otherwise."""
    return env_flag("REPRO_CACHE", default=True)


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/runcache``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro" / "runcache"


# -- canonicalization ------------------------------------------------------


def canonicalize(value):
    """Reduce *value* to a deterministic tree of primitives.

    Handles the request vocabulary: dataclasses (CoreConfig,
    WorkloadProfile, TraceOptions, cache geometries), enums, and plain
    containers.  Anything else — bound methods, generated programs,
    open handles — raises, which :func:`derived_key` treats as
    "not cacheable"."""
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, canonicalize(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple(
            sorted((key, canonicalize(item)) for key, item in value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonicalize(item) for item in value)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def fingerprint_files() -> List[Path]:
    """Every source file :func:`code_fingerprint` hashes, sorted.

    Exposed so tests can assert specific execution-semantics modules
    (e.g. the block translation codegen) are covered by invalidation.
    """
    root = Path(__file__).resolve().parents[1]
    return sorted(root.rglob("*.py"))


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (path + contents).

    Computed once per process; any edit to the simulator produces new
    cache keys, so stale results can never be served across code
    versions.  That sweep includes every module that *generates* code
    rather than being the code — in particular the basic-block
    translation cache (:mod:`repro.isa.blockcache`), whose emitted
    block functions define functional-execution semantics: an edit to
    its codegen templates invalidates the cache exactly like an edit to
    the interpreter it mirrors."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in fingerprint_files():
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:20]


def cache_key(request) -> Optional[str]:
    """Content hash of a :class:`~repro.harness.api.RunRequest`.

    Returns None when the request is not cacheable: traced runs (the
    collector is not worth pickling and its ring contents depend on
    capacities anyway) and pre-built :class:`GeneratedWorkload` objects
    (no canonical identity).  Workload labels and
    :class:`WorkloadProfile` values canonicalize field-by-field, so a
    modified profile under an existing label still misses.
    """
    if request.trace.enabled:
        return None
    # v3: the resolved time-shard count K is part of the identity —
    # sharded results carry a bounded microarchitectural error, so a
    # K=4 result must never satisfy an exact K=1 request (or a K=8 one:
    # boundary effects differ per K).  The per-shard warmup length
    # matters only when sharding is active, so K=1 pins it to 0 and a
    # plain request hashes identically whatever REPRO_SHARD_WARMUP says.
    shards = request.resolved_time_shards()
    return derived_key(
        "runrequest-v3",
        request.workload,
        request.mode,
        request.policy,
        request.resolved_instructions(),
        request.resolved_warmup(),
        bool(request.fastforward),
        bool(request.resolved_metrics()),
        request.config,
        shards,
        request.resolved_shard_warmup() if shards > 1 else 0,
    )


def derived_key(tag: str, *parts) -> Optional[str]:
    """SHA-256 of ``(tag, canonicalize(part) ..., code_fingerprint())``.

    The one key layout of the store: *tag* names what is stored and
    its version (``"runrequest-v3"`` for :func:`cache_key`, e.g.
    ``"useful-fraction-v1"`` for a derived functional quantity), the
    *parts* are the inputs it is a deterministic function of.  None
    when a part does not canonicalize (e.g. a pre-built workload).
    """
    try:
        canonical = (
            tag,
            *(canonicalize(part) for part in parts),
            code_fingerprint(),
        )
    except TypeError:
        return None
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


# -- the store -------------------------------------------------------------


class RunCache:
    """Pickle-per-key store under one directory.

    Hit/miss counters are kept twice: per-process attributes (``hits``
    / ``misses``) and a persistent ``counters.json`` in the store
    directory that accumulates across processes — ``repro cache
    stats`` reports both, so the lifetime effectiveness of the store
    survives short-lived CLI invocations.
    """

    COUNTERS_FILE = "counters.json"

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(
            directory if directory is not None else default_cache_dir()
        )
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str):
        """The cached RunResult for *key*, or None on a miss.

        Unreadable/corrupt entries (killed writer, unpicklable after a
        refactor) count as misses; the subsequent put overwrites them.
        """
        try:
            with open(self._path(key), "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            self.misses += 1
            self._bump("misses")
            return None
        self.hits += 1
        self._bump("hits")
        return result

    def peek(self, key: str):
        """Like :meth:`get`, but an absent entry counts nothing.

        The batch service probes the store before dispatching a claimed
        job; on absence the subsequent ``execute`` records the miss
        itself, so counting it here too would double every miss (one
        hit *or* one miss per job, never both).
        """
        try:
            with open(self._path(key), "rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        self.hits += 1
        self._bump("hits")
        return result

    def absorb(self, hits: int, misses: int) -> None:
        """Fold lookups a pool worker made into the in-process counts.

        The worker's own ``get`` already bumped the persistent
        counters; this only makes the submitting process's ``hits`` /
        ``misses`` — what ``repro report`` prints — include them.
        """
        self.hits += hits
        self.misses += misses

    # -- persistent counters ----------------------------------------------

    def _counters_path(self) -> Path:
        return self.directory / self.COUNTERS_FILE

    def persistent_counters(self) -> Dict[str, int]:
        """Lifetime hit/miss counts accumulated across processes."""
        try:
            data = json.loads(self._counters_path().read_text())
            return {
                "hits": int(data.get("hits", 0)),
                "misses": int(data.get("misses", 0)),
            }
        except (OSError, ValueError):
            return {"hits": 0, "misses": 0}

    def _bump(self, field: str) -> None:
        """Increment one persistent counter.

        The read-modify-write is serialized by an advisory
        ``fcntl.flock`` on a sidecar lock file — one lock per increment
        across processes *and* threads (each call opens its own file
        description, so same-process threads also exclude each other).
        The value itself is still written via temp-file + ``os.replace``
        so a killed writer can never leave a torn ``counters.json``.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            lock_path = self._counters_path().with_suffix(".lock")
            with open(lock_path, "w") as lock:
                if fcntl is not None:
                    fcntl.flock(lock, fcntl.LOCK_EX)
                counters = self.persistent_counters()
                counters[field] += 1
                temp = self._counters_path().with_name(
                    f".counters.{os.getpid()}.{threading.get_ident()}.tmp"
                )
                temp.write_text(json.dumps(counters))
                os.replace(temp, self._counters_path())
        except OSError:
            pass  # unwritable store: keep the in-process counts only

    def put(self, key: str, result) -> None:
        """Store *result*; atomic rename so readers never see a torn file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self._path(key)
        temp = final.with_name(f".{key}.{os.getpid()}.tmp")
        with open(temp, "wb") as handle:
            pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, final)

    def entries(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def stats(self) -> Dict[str, object]:
        """Store-wide numbers for ``repro cache stats``."""
        files = list(self.directory.glob("*.pkl"))
        lifetime = self.persistent_counters()
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "bytes": sum(path.stat().st_size for path in files),
            "hits": self.hits,
            "misses": self.misses,
            "lifetime_hits": lifetime["hits"],
            "lifetime_misses": lifetime["misses"],
        }

    def clear(self) -> int:
        """Delete every entry (and the lifetime counters); returns how
        many entries were removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self._counters_path().unlink()
        except OSError:
            pass
        return removed


#: Shared instances per resolved directory, so hit/miss counters
#: accumulate across calls while tests can redirect via
#: ``REPRO_CACHE_DIR`` monkeypatching.
_instances: Dict[str, RunCache] = {}


def default_cache() -> RunCache:
    """The process-wide cache for the currently resolved directory."""
    directory = default_cache_dir()
    key = str(directory)
    cache = _instances.get(key)
    if cache is None:
        cache = _instances[key] = RunCache(directory)
    return cache


def memoized(tag: str, compute: Callable[[], object], *parts):
    """``compute()``, memoized in the default store.

    The entry lives under :func:`derived_key` ``(tag, *parts)`` and is
    read through :meth:`RunCache.get`, so a lookup counts as a hit or a
    miss and a corrupt entry is a miss that gets recomputed and
    overwritten.  With ``REPRO_CACHE=0``, or parts that have no
    canonical form, *compute* simply runs.
    """
    key = derived_key(tag, *parts) if cache_enabled() else None
    if key is None:
        return compute()
    cache = default_cache()
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value
