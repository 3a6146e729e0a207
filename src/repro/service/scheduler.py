"""The sweep service: job queue, scheduler, and ``execute_batch``.

:class:`SweepService` composes the three building blocks the ROADMAP
names into one batch engine:

* the **on-disk spool** (:mod:`repro.service.spool`) gives durable,
  atomically-transitioned job state, so a killed worker or restarted
  service resumes without recomputing finished runs;
* the **content-addressed run cache** (:mod:`repro.perf.runcache`)
  dedupes work *before dispatch* — a claimed job whose key is already
  stored completes from the cache without ever reaching a worker;
* the **shared worker pool** (:mod:`repro.perf.pool`) fans dispatched
  jobs across processes with LPT (longest-first) scheduling, streaming
  each result back the moment its shard finishes.

The public entry point is :func:`execute_batch`, which returns a
:class:`~repro.service.batch.BatchHandle` (poll / stream / await).
``sweep_policies``, ``weighted_ipc``'s grid drivers and the
``figN_*``/``tableN_*`` experiments are thin clients of this one
submission path via :func:`repro.harness.execute_many`.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..core.config import WrpkruPolicy
from ..core.stats import SimStats
from ..harness.api import (
    RunMetadata,
    RunRequest,
    RunResult,
    execute,
    notify_run_observers,
)
from ..obs.progress import ProgressReporter
from ..obs.snapshot import MetricsSnapshot
from ..perf.envflag import env_flag
from ..perf.pool import run_longest_first
from ..perf.runcache import cache_enabled, default_cache
from ..perf.timeshard import fold_outcomes, prepare_request, shard_weight
from ..workloads.instrument import InstrumentMode
from .batch import BatchHandle
from .spool import JobState, SpoolDir, decode_request

#: Expected serialization overhead per policy, used only to order LPT
#: submission (longest first).  SERIALIZED drains the pipeline around
#: every WRPKRU and SPECMPK adds check/replay stalls, so those grid
#: points take the most wall-clock per instruction.
_POLICY_WEIGHT = {
    WrpkruPolicy.SERIALIZED: 1.3,
    WrpkruPolicy.SPECMPK: 1.2,
    WrpkruPolicy.NONSECURE_SPEC: 1.0,
}


def lpt_weight(request: RunRequest) -> float:
    """Expected relative wall-clock of one request (LPT ordering)."""
    return (
        request.resolved_instructions()
        * _POLICY_WEIGHT.get(request.policy, 1.0)
    )


def _worker(job: Tuple[RunRequest, bool]):
    """Module-level worker so the process pool can pickle it.

    Errors are *captured*, not raised: one faulting grid point must not
    tear down the whole shard, so the scheduler gets ``("err", msg)``
    back and applies the retry budget instead.
    """
    request, cache = job
    try:
        # cache=True means "not disabled": defer to the REPRO_CACHE env
        # default; only an explicit service-level cache=False forces off.
        return ("ok", execute(request, cache=None if cache else False))
    except Exception as error:  # noqa: BLE001 - the job boundary
        return ("err", f"{type(error).__name__}: {error}")


def _dispatch(task: Tuple):
    """One schedulable unit: a whole run or a single time shard.

    The scheduler mixes both in one LPT submission — ``("run",
    request, cache)`` simulates a complete request, ``("shard",
    shard_job)`` measures one window of a time-sharded request
    (:mod:`repro.perf.timeshard`) — so a batch of short whole runs and
    a few long sharded ones packs the pool with no idle tails.
    """
    if task[0] == "run":
        return _worker((task[1], task[2]))
    from ..perf.timeshard import measure_shard

    try:
        return ("ok", measure_shard(task[1]))
    except Exception as error:  # noqa: BLE001 - the shard boundary
        return ("err", f"{type(error).__name__}: {error}")


def _dispatch_counted(task: Tuple):
    """:func:`_dispatch` in a pool worker, plus the run-cache lookups
    it made there: ``(outcome, hits, misses)``, folded back into the
    submitting process's counters by :meth:`RunCache.absorb`."""
    cache = default_cache()
    hits, misses = cache.hits, cache.misses
    outcome = _dispatch(task)
    return outcome, cache.hits - hits, cache.misses - misses


# -- result payloads --------------------------------------------------------


_DERIVED_STATS = ("ipc", "wrpkru_per_kilo", "rename_stall_fraction")


def stats_from_dict(doc: Dict[str, float]) -> SimStats:
    """Rebuild a scalar :class:`SimStats` from ``SimStats.as_dict()``.

    Derived rates (``ipc`` etc.) are read-only properties recomputed
    from the counters, so they are skipped rather than set.
    """
    stats = SimStats()
    for name, value in doc.items():
        if name in _DERIVED_STATS:
            continue
        setattr(stats, name, value)
    return stats


def result_payload(result: RunResult, cached: bool) -> Dict[str, object]:
    """The JSON document persisted under ``results/`` for a done job."""
    return {
        "stats": result.stats.as_dict(),
        "metadata": result.metadata.as_dict(),
        "metrics": (
            result.metrics.as_dict() if result.metrics is not None else None
        ),
        "cached": cached,
    }


def result_from_payload(payload: Dict[str, object]) -> RunResult:
    """A :class:`RunResult` rebuilt from a persisted payload.

    Scalar-complete: stats counters, metadata and the metrics snapshot
    round-trip exactly; the trace handle (never spooled) is None.
    """
    meta = payload["metadata"]
    metadata = RunMetadata(
        label=meta["label"],
        policy=WrpkruPolicy(meta["policy"]),
        mode=InstrumentMode(meta["mode"]),
        instructions=meta["instructions"],
        warmup=meta["warmup"],
        fastforward=bool(meta.get("fastforward", False)),
    )
    metrics = payload.get("metrics")
    return RunResult(
        stats=stats_from_dict(payload["stats"]),
        metadata=metadata,
        metrics=(
            MetricsSnapshot.from_dict(metrics) if metrics is not None
            else None
        ),
    )


# -- the service ------------------------------------------------------------


#: ``on_result(job_id, result, error)`` — exactly one of result/error
#: is None; fired in completion order from the scheduling thread.
ResultHook = Callable[[str, Optional[RunResult], Optional[str]], None]


class SweepService:
    """Batch scheduler over one spool directory.

    One instance per spool; safe to restart — :meth:`serve` first
    requeues jobs a dead worker left in ``running``.  ``max_retries``
    bounds how often a job is redispatched after a worker error before
    it parks in ``failed``.
    """

    def __init__(
        self,
        spool: Union[str, SpoolDir, None] = None,
        *,
        cache: bool = True,
        max_retries: int = 1,
    ) -> None:
        if spool is None:
            spool = SpoolDir(tempfile.mkdtemp(prefix="repro-spool-"))
        elif not isinstance(spool, SpoolDir):
            spool = SpoolDir(spool)
        self.spool = spool.ensure()
        self.cache = cache
        self.max_retries = max_retries
        #: Dispatch accounting since construction (CLI summary).
        self.counters: Dict[str, int] = {
            "executed": 0,       # simulated in a worker / inline
            "from_cache": 0,     # completed by pre-dispatch cache dedup
            "from_spool": 0,     # already done when the batch arrived
            "retried": 0,
            "failed": 0,
        }

    # -- submission --------------------------------------------------------

    def submit(
        self,
        requests: Iterable[RunRequest],
        batch_id: Optional[str] = None,
    ) -> BatchHandle:
        """Spool a batch of requests and return its handle.

        Requests whose job already exists (any state) are deduplicated
        at submission: the new batch simply references the existing
        job, so two overlapping batches never queue the same work
        twice.
        """
        requests = list(requests)
        job_ids: List[str] = []
        deduped = 0
        for request in requests:
            job_id, _state, created = self.spool.add_job(request)
            job_ids.append(job_id)
            if not created:
                deduped += 1
        batch_id = self.spool.create_batch(job_ids, batch_id)
        return BatchHandle(
            self, batch_id, job_ids, requests, deduped=deduped
        )

    # -- scheduling --------------------------------------------------------

    def process(
        self,
        job_ids: Optional[Iterable[str]] = None,
        *,
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
        on_result: Optional[ResultHook] = None,
        progress: Optional[ProgressReporter] = None,
    ) -> Dict[str, Optional[RunResult]]:
        """Drain *job_ids* (default: every pending job) to completion.

        Jobs already ``done`` resolve from their persisted payload
        (resume / cross-batch dedup); pending jobs are claimed, deduped
        against the run cache, and the remainder dispatched — across
        the shared pool in LPT order with *parallel* (default: the
        ``REPRO_PARALLEL`` env flag), else inline.  Worker errors
        consume one retry each until ``max_retries`` is exhausted.

        Returns ``{job_id: RunResult}`` (None for failed jobs);
        *on_result* streams the same outcomes in completion order.
        """
        if parallel is None:
            parallel = env_flag("REPRO_PARALLEL", default=False)
        if job_ids is None:
            job_ids = self.spool.jobs(JobState.PENDING)
        ordered = list(dict.fromkeys(job_ids))
        results: Dict[str, Optional[RunResult]] = {}

        def settle(job_id: str, result: Optional[RunResult],
                   error: Optional[str]) -> None:
            results[job_id] = result
            if result is not None:
                # Report observers see every settled outcome, including
                # the paths that never call execute() in this process
                # (pre-dispatch cache dedup, spool resume, parallel
                # workers).  The job id is the run-cache key, and
                # observers dedupe on it, so results that *did* flow
                # through an in-process execute() are not double-counted.
                notify_run_observers(job_id, result)
            if on_result is not None:
                on_result(job_id, result, error)
            if progress is not None:
                progress.advance(job_id[:12])

        # Phase 0: jobs a previous batch / service run already settled.
        for job_id in ordered:
            state = self.spool.state_of(job_id)
            if state is JobState.DONE:
                payload = self.spool.result_payload(job_id)
                if payload is None:  # pragma: no cover - corrupt spool
                    settle(job_id, None, "done job has no result payload")
                    continue
                self.counters["from_spool"] += 1
                settle(job_id, result_from_payload(payload), None)
            elif state is JobState.FAILED:
                doc = self.spool.job_doc(job_id) or {}
                settle(job_id, None, doc.get("error") or "failed")

        # Claim/dispatch rounds: retried jobs reappear as pending and
        # are picked up by the next round until the budget runs out.
        while True:
            claimed: List[Tuple[str, Dict[str, object], RunRequest]] = []
            for job_id in ordered:
                if job_id in results:
                    continue
                doc = self.spool.claim(job_id)
                if doc is None:
                    continue  # lost the claim race (another worker)
                request = decode_request(doc["request"])
                # Pre-dispatch dedup: the job id is the run-cache key,
                # so a stored result completes the job with no worker.
                if self.cache and cache_enabled():
                    key = request.cache_key()
                    cached = (
                        default_cache().peek(key) if key is not None else None
                    )
                    if cached is not None:
                        self.counters["from_cache"] += 1
                        self.spool.complete(
                            job_id, result_payload(cached, cached=True)
                        )
                        settle(job_id, cached, None)
                        continue
                claimed.append((job_id, doc, request))
            if not claimed:
                break

            def settle_claim(claim_index: int, outcome) -> None:
                job_id, doc, request = claimed[claim_index]
                status, value = outcome
                if status == "ok":
                    self.counters["executed"] += 1
                    self.spool.complete(
                        job_id, result_payload(value, cached=False)
                    )
                    settle(job_id, value, None)
                    return
                doc = dict(doc)
                doc["attempts"] = int(doc.get("attempts", 0)) + 1
                doc["error"] = value
                if doc["attempts"] > self.max_retries:
                    self.counters["failed"] += 1
                    self.spool.fail(job_id, doc)
                    settle(job_id, None, value)
                else:
                    self.counters["retried"] += 1
                    self.spool.retry(job_id, doc)

            # One mixed dispatch list: whole runs and the individual
            # time shards of sharded requests are peer tasks in a
            # single LPT submission, so long sharded jobs interleave
            # with short whole runs instead of serializing behind them.
            tasks: List[Tuple] = []
            weights: List[float] = []
            slots: List[Tuple[int, Optional[int]]] = []
            shard_ctx: Dict[int, Dict[str, object]] = {}
            for claim_index, (job_id, doc, request) in enumerate(claimed):
                if request.resolved_time_shards() > 1:
                    try:
                        shard_jobs, metadata, shards = (
                            prepare_request(request)
                        )
                    except Exception as error:  # noqa: BLE001
                        settle_claim(claim_index, (
                            "err", f"{type(error).__name__}: {error}"
                        ))
                        continue
                    if not shard_jobs:
                        settle_claim(claim_index, (
                            "err", "no shard window is reachable"
                        ))
                        continue
                    shard_ctx[claim_index] = {
                        "metadata": metadata, "shards": shards,
                        "outcomes": [], "error": None,
                        "pending": len(shard_jobs), "total": len(shard_jobs),
                    }
                    policy_weight = _POLICY_WEIGHT.get(request.policy, 1.0)
                    for shard_job in shard_jobs:
                        tasks.append(("shard", shard_job))
                        weights.append(
                            shard_weight(shard_job) * policy_weight
                        )
                        slots.append((claim_index, shard_job.window.index))
                else:
                    tasks.append(("run", request, self.cache))
                    weights.append(lpt_weight(request))
                    slots.append((claim_index, None))

            def finish(slot: int, outcome) -> None:
                claim_index, shard_index = slots[slot]
                if shard_index is None:
                    settle_claim(claim_index, outcome)
                    return
                job_id, _doc, request = claimed[claim_index]
                ctx = shard_ctx[claim_index]
                status, value = outcome
                if status == "ok":
                    ctx["outcomes"].append(value)
                elif ctx["error"] is None:
                    # First shard error wins; the job retries whole (a
                    # shard has no durable identity of its own).
                    ctx["error"] = f"shard {shard_index}: {value}"
                ctx["pending"] -= 1
                done = ctx["total"] - ctx["pending"]
                self.spool.note_shards(job_id, done, ctx["total"])
                if progress is not None:
                    progress.heartbeat(
                        f"{job_id[:12]} shard {done}/{ctx['total']}"
                    )
                if ctx["pending"]:
                    return
                if ctx["error"] is not None:
                    settle_claim(claim_index, ("err", ctx["error"]))
                    return
                try:
                    stats, metrics = fold_outcomes(
                        ctx["outcomes"], ctx["shards"]
                    )
                    result = RunResult(
                        stats=stats, metadata=ctx["metadata"],
                        metrics=metrics,
                    )
                except Exception as error:  # noqa: BLE001
                    settle_claim(claim_index, (
                        "err", f"{type(error).__name__}: {error}"
                    ))
                    return
                # Memoize like execute() would have, so resubmission
                # and cross-batch dedup see the folded result.
                if self.cache and cache_enabled():
                    key = request.cache_key()
                    if key is not None:
                        default_cache().put(key, result)
                settle_claim(claim_index, ("ok", result))

            if parallel and len(tasks) > 1:
                def finish_remote(slot: int, reply) -> None:
                    outcome, hits, misses = reply
                    default_cache().absorb(hits, misses)
                    finish(slot, outcome)

                run_longest_first(
                    _dispatch_counted, tasks, weights=weights,
                    max_workers=max_workers, on_result=finish_remote,
                )
            else:
                for slot, task in enumerate(tasks):
                    finish(slot, _dispatch(task))
        return results

    def serve(
        self,
        *,
        once: bool = True,
        poll_interval: float = 1.0,
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
        on_result: Optional[ResultHook] = None,
        progress: Optional[ProgressReporter] = None,
        max_iterations: Optional[int] = None,
    ) -> Dict[str, Optional[RunResult]]:
        """Recover interrupted jobs, then drain the whole spool.

        With ``once`` (the default, and ``repro serve --once``) one
        drain pass runs and returns; otherwise the service polls the
        spool for newly submitted jobs every *poll_interval* seconds
        until interrupted (or *max_iterations* passes, for tests).
        """
        self.spool.recover()
        settled: Dict[str, Optional[RunResult]] = {}
        iterations = 0
        while True:
            settled.update(self.process(
                parallel=parallel, max_workers=max_workers,
                on_result=on_result, progress=progress,
            ))
            iterations += 1
            if once:
                return settled
            if max_iterations is not None and iterations >= max_iterations:
                return settled
            time.sleep(poll_interval)


# -- the front door ---------------------------------------------------------


def execute_batch(
    requests: Iterable[RunRequest],
    *,
    spool: Union[str, SpoolDir, None] = None,
    cache: bool = True,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    max_retries: int = 1,
    batch_id: Optional[str] = None,
    on_result: Optional[Callable] = None,
    background: bool = False,
) -> BatchHandle:
    """Submit *requests* as one batch; returns its :class:`BatchHandle`.

    The redesigned batch API: every multi-run driver funnels through
    this single submission path.  With *spool* the batch is durable —
    a second submission of the same requests (or a restart after a
    crash) reuses finished jobs instead of recomputing them; without
    it, an ephemeral spool backs the batch and is removed once the
    handle completes (run-cache dedup still applies across batches).

    The handle supports all three consumption styles::

        handle = execute_batch(reqs)
        handle.wait()              # await: results in submit order
        for i, r, err in handle.stream():   # stream: completion order
            ...
        handle.status()            # poll: per-state counts

    *background* starts processing on a daemon thread immediately, so
    ``status()`` advances while the caller does other work; by default
    processing runs inline on the first ``wait()``/``stream()`` call.
    Worker failures consume *max_retries* redispatches per job before
    the job parks as failed; ``wait(raise_on_error=False)`` opts into
    partial results (None per failed request) instead of the default
    :class:`~repro.service.batch.BatchError`.
    """
    ephemeral = spool is None
    service = SweepService(spool, cache=cache, max_retries=max_retries)
    handle = service.submit(list(requests), batch_id=batch_id)
    handle.configure(
        parallel=parallel, max_workers=max_workers, on_result=on_result,
        ephemeral=ephemeral,
    )
    if background:
        handle.start_background()
    return handle
