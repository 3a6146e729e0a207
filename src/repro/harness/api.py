"""The typed harness API: request in, result out.

Every figure, benchmark and CLI command funnels through one call::

    from repro.harness import RunRequest, TraceOptions, execute

    result = execute(RunRequest(
        workload="520.omnetpp_r (SS)",
        policy=WrpkruPolicy.SPECMPK,
        trace=TraceOptions(enabled=True),
    ))
    result.stats          # SimStats (steady-state counters)
    result.trace          # TraceCollector or None
    result.topdown()      # top-down CPI report (traced runs)

:class:`RunRequest` replaces ``run_workload``'s six loosely-typed
parameters; it is frozen (hashable, comparable) and picklable, so the
parallel sweep ships request objects to worker processes instead of
ad-hoc tuples.  The legacy keyword API in :mod:`repro.harness.runner`
remains as a thin wrapper over :func:`execute`.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Dict, List, Optional, Union

from ..core.config import CoreConfig, WrpkruPolicy
from ..core.pipeline import Simulator
from ..core.stats import SimStats
from ..isa.emulator import make_emulator
from ..obs.collect import collect_run_metrics, metrics_enabled
from ..obs.snapshot import MetricsSnapshot
from ..perf.envflag import env_float, env_int
from ..perf.runcache import cache_enabled, default_cache
from ..perf.runcache import cache_key as _compute_cache_key
from ..report.provenance import ProvenanceRecord, make_record
from ..state import WarmTouch, fast_forward
from ..trace import (
    TopDownReport,
    TraceCollector,
    TraceConfig,
    topdown_from_collector,
)
from ..workloads.generator import GeneratedWorkload, build_workload
from ..workloads.instrument import InstrumentMode
from ..workloads.profiles import WorkloadProfile, profile_by_label

#: Default measurement budget (instructions); scaled by REPRO_SCALE.
DEFAULT_INSTRUCTIONS = 12_000
DEFAULT_WARMUP = 4_000


class RequestError(ValueError):
    """An invalid :class:`RunRequest` — raised at construction time.

    One error type for every malformed request: unknown workload
    labels, negative budgets, and (in the batch service) requests that
    cannot be spooled.  Before this existed the same mistakes surfaced
    late and inconsistently from runner internals (``KeyError`` from
    the profile table, budget errors deep in ``Simulator.run``).
    """


def measurement_budget() -> int:
    """Instruction budget, scalable via the ``REPRO_SCALE`` env var.

    ``REPRO_SCALE=5`` runs five times more instructions per point for
    higher-fidelity (slower) reproductions.
    """
    scale = env_float("REPRO_SCALE", 1.0)
    return max(2_000, int(DEFAULT_INSTRUCTIONS * scale))


@dataclasses.dataclass(frozen=True)
class TraceOptions:
    """Observability knobs of a :class:`RunRequest`.

    Tracing is off by default; when enabled, a
    :class:`~repro.trace.TraceCollector` with the given ring capacities
    is attached to the simulator and returned on the
    :class:`RunResult`.
    """

    enabled: bool = False
    capacity: int = 1 << 16
    cycle_capacity: int = 1 << 16

    def make_collector(self) -> Optional[TraceCollector]:
        if not self.enabled:
            return None
        return TraceCollector(
            TraceConfig(capacity=self.capacity,
                        cycle_capacity=self.cycle_capacity)
        )


@dataclasses.dataclass(frozen=True)
class RunRequest:
    """One simulation: a workload, a policy, and the measurement knobs."""

    workload: Union[str, WorkloadProfile, GeneratedWorkload]
    policy: WrpkruPolicy
    mode: InstrumentMode = InstrumentMode.PROTECTED
    #: Measured instructions after warmup; None = ``measurement_budget()``.
    instructions: Optional[int] = None
    #: Warmup instructions before the measurement; None = ``DEFAULT_WARMUP``.
    warmup: Optional[int] = None
    #: Core configuration; None = Table III with :attr:`policy` applied.
    config: Optional[CoreConfig] = None
    trace: TraceOptions = TraceOptions()
    #: Run the warmup window on the functional emulator (with warm-touch
    #: cache/TLB/predictor replay) instead of the timing core.  The
    #: measurement then starts from the checkpointed state, so warmup
    #: instructions never enter the pipeline — and never pollute the
    #: top-down CPI buckets of a traced run.
    fastforward: bool = False
    #: Collect a :class:`~repro.obs.MetricsSnapshot` for this run.
    #: None defers to the ``REPRO_METRICS`` env flag (default on).
    metrics: Optional[bool] = None
    #: Split the measured window into K time shards simulated in
    #: parallel (:mod:`repro.perf.timeshard`).  ``K=1`` is the exact
    #: monolithic path, byte-identical to ``time_shards=None``; ``K>1``
    #: trades a documented microarchitectural error bound for
    #: near-linear wall-clock speedup (architectural counters still
    #: merge exactly).  None defers to ``REPRO_TIME_SHARDS`` (default
    #: 1, so every figure-generating path stays on exact mode).
    time_shards: Optional[int] = None
    #: Detailed-warmup instructions simulated (stats-excluded) before
    #: each shard's measurement window; None defers to
    #: ``REPRO_SHARD_WARMUP`` (default
    #: :data:`repro.perf.timeshard.DEFAULT_SHARD_WARMUP`).
    shard_warmup: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate at construction (one :class:`RequestError` type).

        A string workload must name a known profile — the empty string
        is exempt, as the documented placeholder for sweep templates
        whose workload is filled in per grid point via :meth:`replace`
        (which re-runs this validation on the real label).
        """
        if isinstance(self.workload, str) and self.workload:
            try:
                profile_by_label(self.workload)
            except KeyError:
                raise RequestError(
                    f"unknown workload label {self.workload!r}; see "
                    "repro.workloads.labels() for the known profiles"
                ) from None
        for name in ("instructions", "warmup", "shard_warmup"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise RequestError(
                    f"{name} budget must be >= 0, got {value!r}"
                )
        if self.time_shards is not None and self.time_shards < 1:
            raise RequestError(
                f"time_shards must be >= 1, got {self.time_shards!r}"
            )
        if (
            self.time_shards is not None and self.time_shards > 1
            and self.trace.enabled
        ):
            raise RequestError(
                "traced runs cannot be time-sharded: a TraceCollector "
                "records one contiguous pipeline history and per-shard "
                "rings cannot be merged"
            )

    def replace(self, **overrides) -> "RunRequest":
        """A copy with *overrides* applied (workload/policy sweeps)."""
        return dataclasses.replace(self, **overrides)

    def cache_key(self) -> Optional[str]:
        """The request's canonical content hash, or None if uncacheable.

        This is *the* identity of a run everywhere: the on-disk run
        cache stores results under it and the batch service names
        spool jobs with it, so service-level deduplication and result
        memoization can never disagree.  Traced runs and pre-built
        workload objects have no canonical identity and return None.
        """
        return _compute_cache_key(self)

    def resolved_instructions(self) -> int:
        return (
            measurement_budget() if self.instructions is None
            else self.instructions
        )

    def resolved_warmup(self) -> int:
        return DEFAULT_WARMUP if self.warmup is None else self.warmup

    def resolved_metrics(self) -> bool:
        return metrics_enabled() if self.metrics is None else self.metrics

    def resolved_config(self) -> CoreConfig:
        """The :class:`CoreConfig` the run executes under: the explicit
        config with :attr:`policy` applied, else Table III defaults."""
        config = self.config
        if config is None:
            return CoreConfig(wrpkru_policy=self.policy)
        if config.wrpkru_policy is not self.policy:
            return config.replace(wrpkru_policy=self.policy)
        return config

    def resolved_time_shards(self) -> int:
        """Effective shard count K (>= 1).

        Traced runs always resolve to 1 — a ``REPRO_TIME_SHARDS``
        environment default must not break tracing, which cannot shard
        (explicitly requesting both is a :class:`RequestError`).
        """
        if self.trace.enabled:
            return 1
        if self.time_shards is not None:
            return self.time_shards
        return max(1, env_int("REPRO_TIME_SHARDS", 1))

    def resolved_shard_warmup(self) -> int:
        if self.shard_warmup is not None:
            return self.shard_warmup
        from ..perf.timeshard import default_shard_warmup

        return default_shard_warmup()


@dataclasses.dataclass(frozen=True)
class RunMetadata:
    """What was actually run (resolved from the request)."""

    label: str
    policy: WrpkruPolicy
    mode: InstrumentMode
    instructions: int
    warmup: int
    fastforward: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "policy": self.policy.value,
            "mode": self.mode.value,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "fastforward": self.fastforward,
        }


@dataclasses.dataclass
class RunResult:
    """Outcome of :func:`execute`: stats, trace handle, metadata."""

    stats: SimStats
    metadata: RunMetadata
    trace: Optional[TraceCollector] = None
    #: Hierarchical telemetry snapshot (``repro.obs``); None when the
    #: run was executed with metrics collection off.
    metrics: Optional[MetricsSnapshot] = None
    #: Where this result came from (:mod:`repro.report.provenance`):
    #: cache key, code fingerprint, resolved ``REPRO_*`` knobs, host
    #: info and wall time, stamped by :func:`execute`.  A memoized
    #: return carries the *original* execution's record with only the
    #: ``from_cache`` flag flipped.
    provenance: Optional[ProvenanceRecord] = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def topdown(self) -> Optional[TopDownReport]:
        """Top-down CPI report for a traced run; None when untraced."""
        if self.trace is None:
            return None
        return topdown_from_collector(self.trace, self.stats)


#: ``hook(cache_key, result)`` — fired by :func:`execute` for every
#: result it returns (fresh, sharded or memoized) and by the batch
#: scheduler for results that settle without reaching ``execute`` in
#: this process (pre-dispatch cache dedup, spool resume, parallel
#: workers).  The report pipeline's RunRecorder subscribes here to map
#: artifacts to the runs behind them; hooks must be cheap and must not
#: raise.
RunObserver = Callable[[Optional[str], "RunResult"], None]

_RUN_OBSERVERS: List[RunObserver] = []


def add_run_observer(hook: RunObserver) -> None:
    """Subscribe *hook* to every run outcome observed in this process."""
    _RUN_OBSERVERS.append(hook)


def remove_run_observer(hook: RunObserver) -> None:
    """Unsubscribe a hook added with :func:`add_run_observer`."""
    _RUN_OBSERVERS.remove(hook)


def notify_run_observers(key: Optional[str], result: "RunResult") -> None:
    """Fan one run outcome out to the registered observers.

    Public so the batch scheduler can notify for results that settle
    without an in-process ``execute`` call; observers deduplicate by
    cache key, so a result reported from both paths is recorded once.
    """
    for hook in list(_RUN_OBSERVERS):
        hook(key, result)


@functools.lru_cache(maxsize=64)
def _build_cached(
    workload: Union[str, WorkloadProfile], mode: InstrumentMode
) -> GeneratedWorkload:
    """Workload build cache, keyed on (label or profile, instrument mode).

    ``build_workload`` is deterministic and the result is never mutated
    by a run (every simulator maps its own address space from the
    program's regions), so one build serves a whole ``sweep_policies``
    grid — each label/mode pair is assembled once, not once per policy
    — and Fig. 4's functional probe reuses the build its timing run
    used.  Seed-varied profiles are frozen (hashable) and key the same
    way.
    """
    return build_workload(profile_by_label(workload), mode)


def resolve_workload(request: RunRequest) -> GeneratedWorkload:
    """The built workload a request runs (label/profile/object forms)."""
    workload = request.workload
    if isinstance(workload, (str, WorkloadProfile)):
        return _build_cached(workload, request.mode)
    return workload


def execute(request: RunRequest, *, cache: Optional[bool] = None) -> RunResult:
    """Simulate one :class:`RunRequest` and return its :class:`RunResult`.

    Builds the synthetic workload (deterministically, so every policy
    executes identical code), pre-warms the TLB, runs the warmup
    window, then measures the requested instruction budget.  With
    ``request.fastforward`` the warmup window runs on the functional
    emulator and the timing core starts from the resulting
    architectural state.

    Untraced runs of canonical workloads are memoized in the on-disk
    run cache (:mod:`repro.perf.runcache`): the simulator is
    deterministic, so an identical request under the same code version
    returns the stored :class:`RunResult` without simulating.  *cache*
    overrides the ``REPRO_CACHE`` env default per call (the batch
    service threads its ``cache=`` flag through here).
    """
    started = time.perf_counter()
    use_cache = cache_enabled() if cache is None else bool(cache)
    key = request.cache_key() if use_cache else None
    if key is not None:
        cached = default_cache().get(key)
        if cached is not None:
            # Flip only the from_cache flag: the stored record keeps
            # the original execution's host/knobs/wall time.  A copy,
            # so the pickled store entry itself is never mutated.
            if cached.provenance is not None:
                cached = dataclasses.replace(
                    cached,
                    provenance=dataclasses.replace(
                        cached.provenance, from_cache=True
                    ),
                )
            else:  # entry predates provenance stamping
                cached = dataclasses.replace(
                    cached,
                    provenance=make_record(
                        key, time.perf_counter() - started,
                        snapshot=cached.metrics, from_cache=True,
                    ),
                )
            notify_run_observers(key, cached)
            return cached
    if request.resolved_time_shards() > 1:
        # Time-sharded run: checkpoint pass + pool dispatch + fold.
        # K=1 never takes this branch, so the monolithic path below
        # stays byte-identical to the unsharded code.
        from ..perf.timeshard import execute_sharded

        run_result = execute_sharded(request)
        run_result.provenance = make_record(
            key, time.perf_counter() - started,
            snapshot=run_result.metrics,
        )
        if key is not None:
            default_cache().put(key, run_result)
        notify_run_observers(key, run_result)
        return run_result
    workload = resolve_workload(request)
    instructions = request.resolved_instructions()
    warmup = request.resolved_warmup()
    config = request.resolved_config()

    collector = request.trace.make_collector()
    if request.fastforward and warmup:
        emulator = make_emulator(workload)
        warm = WarmTouch()
        fast_forward(emulator, warmup, warm=warm)
        sim = Simulator(
            workload.program, config,
            start_state=emulator.state,
            trace=collector,
        )
        sim.prewarm_tlb()
        warm.summary().apply(sim)
        timed_warmup = 0
    else:
        sim = Simulator(
            workload.program, config,
            initial_pkru=workload.initial_pkru,
            trace=collector,
        )
        sim.prewarm_tlb()
        timed_warmup = warmup
    result = sim.run(
        max_cycles=200 * (instructions + warmup),
        max_instructions=instructions,
        warmup_instructions=timed_warmup,
    )
    if result.fault is not None:
        raise RuntimeError(
            f"workload {workload.profile.label} faulted: {result.fault}"
        )
    metadata = RunMetadata(
        label=workload.profile.label,
        policy=config.wrpkru_policy,
        mode=request.mode,
        instructions=instructions,
        warmup=warmup,
        fastforward=request.fastforward,
    )
    snapshot = None
    if request.resolved_metrics():
        snapshot = collect_run_metrics(sim, meta=metadata.as_dict())
    run_result = RunResult(
        stats=result.stats, metadata=metadata, trace=collector,
        metrics=snapshot,
        provenance=make_record(
            key, time.perf_counter() - started, snapshot=snapshot,
        ),
    )
    if key is not None:
        default_cache().put(key, run_result)
    notify_run_observers(key, run_result)
    return run_result
