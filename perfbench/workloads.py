"""The benchmark's workloads: what each runs, times and checks.

A workload is driven in rounds.  ``setup_round`` (untimed, counted as
set-up) prepares the inputs; ``run_round`` is the timed part and
returns one :class:`Op` per operation with a digest of its output;
``end_round`` (untimed) releases what the round started.  ``prepare``
runs once per process before the first round.

``kernel`` and ``longrun`` repeat their rounds within one process; each
round rebuilds its workloads, so no round reuses another's schedules or
block caches.  Both run the canonical programs and apply the seed
(modulo :data:`SEED_PERIOD`) as the start of their measured windows, so
every seed does about the same amount of work.  The report workloads
are defined by cold state, which only a fresh interpreter has:
``report-cold`` runs one round per process, and ``report-warm`` fills
its run cache in ``prepare`` and then repeats warm rounds against it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple


@dataclasses.dataclass
class Op:
    """One operation of a round: its name, output digest, or error."""

    name: str
    digest: Optional[str] = None
    error: Optional[str] = None


def stats_digest(stats) -> str:
    """Digest of ``SimStats.as_dict()``: every counter, exactly."""
    text = json.dumps(stats.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _attempt(name: str, body) -> Op:
    try:
        return Op(name, digest=body())
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        return Op(name, error=traceback.format_exc(limit=3))


@dataclasses.dataclass(frozen=True)
class Budget:
    """Sizes of one workload; :data:`FULL` is the benchmark, ``SMOKE``
    the tiny set the schema self-check runs."""

    kernel_labels: Tuple[str, ...]
    kernel_instructions: Optional[int]
    kernel_warmup: Optional[int]
    simpoint_labels: Tuple[str, ...]
    simpoint_interval: int
    simpoint_profile: int
    shard_label: str
    shard_warmup: int
    shard_instructions: int
    report_artifacts: Tuple[str, ...]
    report_instructions: Optional[int]


FULL = Budget(
    # WRPKRU-dense vs sparse, large vs small footprint, SS vs CPI.
    kernel_labels=(
        "520.omnetpp_r (SS)", "453.povray (CPI)", "505.mcf_r (SS)",
        "548.exchange2_r (SS)",
    ),
    kernel_instructions=None,   # the harness default (12k)
    kernel_warmup=None,         # the harness default (4k detailed)
    simpoint_labels=(
        "520.omnetpp_r (SS)", "505.mcf_r (SS)", "453.povray (CPI)",
    ),
    simpoint_interval=10_000,   # simpoint_ipc defaults
    simpoint_profile=200_000,
    shard_label="557.xz_r (SS)",
    shard_warmup=1_000_000,
    shard_instructions=24_000,
    report_artifacts=("fig4", "fig9", "fig13", "table1"),
    report_instructions=4_000,
)

SMOKE = Budget(
    kernel_labels=("557.xz_r (SS)",),
    kernel_instructions=1_000,
    kernel_warmup=500,
    simpoint_labels=("557.xz_r (SS)",),
    simpoint_interval=2_000,
    simpoint_profile=20_000,
    shard_label="557.xz_r (SS)",
    shard_warmup=20_000,
    shard_instructions=2_000,
    report_artifacts=("table1", "table3"),
    report_instructions=1_000,
)

#: Seeds ``n`` and ``n + SEED_PERIOD`` give the same inputs; references
#: are stored for seeds ``0 .. SEED_PERIOD - 1``.
SEED_PERIOD = 64

#: The paper's SpecMPK geomean speedup over serialized WRPKRU, in
#: percent (EXPERIMENTS.md, "Paper vs Measured").
PAPER_FIG9_SPEEDUP_PCT = 12.21


class Workload:
    name = ""
    #: True when the process runs exactly one (cold) round.
    single_round = False

    def __init__(self, seed: int, budget: Budget, work: Path) -> None:
        self.seed = seed
        self.budget = budget
        self.work = work

    def prepare(self) -> List[Op]:
        """Once per process, before the first round (counted as set-up)."""
        return []

    def setup_round(self) -> None:
        pass

    def run_round(self) -> List[Op]:
        raise NotImplementedError

    def end_round(self) -> None:
        pass

    def worker_detailed_insts(self) -> int:
        """Detailed instructions a round simulates inside pool workers."""
        return 0

    def round_checks(self, ops: List[Op]) -> List[str]:
        """Failures of round-level properties beyond per-op digests."""
        return []

    def fig9_gap_pp(self) -> float:
        return 0.0

    def reference_key(self) -> str:
        """The section of ``references.json`` that holds this seed."""
        return f"{self.name}/seed{self.seed % SEED_PERIOD}"


def _build(label_or_profile):
    from repro.core.schedule import shared_schedule
    from repro.workloads.generator import build_workload
    from repro.workloads.instrument import InstrumentMode
    from repro.workloads.profiles import profile_by_label

    workload = build_workload(
        profile_by_label(label_or_profile), InstrumentMode.PROTECTED
    )
    shared_schedule(workload.program)
    return workload


class Kernel(Workload):
    """4 profiles x 3 WRPKRU policies through ``execute(cache=False)``.

    The seed moves the measured window: the detailed warmup grows by
    ``WARMUP_STEP`` instructions per seed, modulo ``SEED_PERIOD``.  It
    is not applied through ``seed_variant``: seed-varied programs
    simulate between 108k and 159k cycles per round over seeds 0-9, so
    the round's work would follow the seed.
    """

    name = "kernel"
    WARMUP_STEP = 10

    def setup_round(self) -> None:
        self.built = [_build(label) for label in self.budget.kernel_labels]

    def _warmup(self) -> int:
        from repro.harness.api import DEFAULT_WARMUP

        base = self.budget.kernel_warmup
        return (
            (DEFAULT_WARMUP if base is None else base)
            + self.WARMUP_STEP * (self.seed % SEED_PERIOD)
        )

    def run_round(self) -> List[Op]:
        from repro.core.config import WrpkruPolicy
        from repro.harness.api import RunRequest, execute

        ops = []
        for workload in self.built:
            for policy in WrpkruPolicy:
                request = RunRequest(
                    workload=workload, policy=policy,
                    instructions=self.budget.kernel_instructions,
                    warmup=self._warmup(),
                )
                ops.append(_attempt(
                    f"{workload.profile.label}/{policy.value}",
                    lambda: stats_digest(execute(request, cache=False).stats),
                ))
        return ops

    def end_round(self) -> None:
        self.built = []


class Longrun(Workload):
    """Fused SimPoint flows plus one fast-forwarded, time-sharded run.

    The seed moves the sharded run's measured window: its functional
    warmup grows by ``SHARD_WARMUP_STEP`` per seed, modulo
    ``SEED_PERIOD``.  It is
    not applied through ``seed_variant``.  A seed-varied program gives
    each SimPoint flow 1 to 5 intervals, so the round's work would
    follow the seed.  And pool dispatch cannot pickle a seed-varied
    workload (see README, "Known defects").
    """

    name = "longrun"
    SHARD_WARMUP_STEP = 1_000

    def setup_round(self) -> None:
        self.built = [_build(label) for label in self.budget.simpoint_labels]

    def _shard_request(self):
        from repro.core.config import WrpkruPolicy
        from repro.harness.api import RunRequest

        return RunRequest(
            workload=self.budget.shard_label,
            policy=WrpkruPolicy.SPECMPK,
            fastforward=True,
            warmup=(
                self.budget.shard_warmup
                + self.SHARD_WARMUP_STEP * (self.seed % SEED_PERIOD)
            ),
            instructions=self.budget.shard_instructions,
            time_shards=2,
        )

    def run_round(self) -> List[Op]:
        from repro.core.config import CoreConfig, WrpkruPolicy
        from repro.harness.api import execute
        from repro.simpoint.simpoint import simpoint_ipc

        config = CoreConfig(wrpkru_policy=WrpkruPolicy.SPECMPK)
        ops = []
        for workload in self.built:
            ops.append(_attempt(
                f"simpoint/{workload.profile.label}",
                lambda: repr(simpoint_ipc(
                    workload.program, config,
                    initial_pkru=workload.initial_pkru,
                    interval_length=self.budget.simpoint_interval,
                    profile_instructions=self.budget.simpoint_profile,
                )),
            ))
        request = self._shard_request()
        ops.append(_attempt(
            f"sharded/{self.budget.shard_label}",
            lambda: stats_digest(execute(request, cache=False).stats),
        ))
        return ops

    def end_round(self) -> None:
        from repro.perf.pool import shutdown_pool

        shutdown_pool()
        self.built = []

    def worker_detailed_insts(self) -> int:
        from repro.perf.timeshard import plan_shards

        request = self._shard_request()
        windows = plan_shards(
            request.resolved_warmup(), request.resolved_instructions(),
            request.resolved_time_shards(), request.resolved_shard_warmup(),
        )
        return sum(w.length + w.detailed_warmup for w in windows)


class Report(Workload):
    """``generate_report`` on a fixed artifact subset, repeats = 1.

    The workload seed does not apply: the report regenerates the
    canonical artifacts.
    """

    #: The manifest of the latest report; None until one succeeds.
    manifest = None

    def _generate(self, out: Path) -> List[Op]:
        from repro.report.pipeline import ReportConfig, generate_report

        config = ReportConfig(
            out=out, repeats=1,
            instructions=self.budget.report_instructions,
            only=set(self.budget.report_artifacts),
        )
        try:
            manifest, _counters = generate_report(config)
        except Exception:  # noqa: BLE001
            error = traceback.format_exc(limit=3)
            return [Op(name, error=error)
                    for name in self.budget.report_artifacts]
        self.manifest = manifest
        return [
            Op(entry.name, digest=hashlib.sha256(
                (out / entry.path).read_bytes()
            ).hexdigest())
            for entry in manifest.artifacts.values()
        ]

    def fig9_gap_pp(self) -> float:
        if self.manifest is None or "fig9" not in self.manifest.artifacts:
            return 0.0
        entry = self.manifest.artifacts["fig9"]
        speedup = entry.metrics["specmpk[geomean]"].ci.mean
        return abs(100.0 * (speedup - 1.0) - PAPER_FIG9_SPEEDUP_PCT)

    def reference_key(self) -> str:
        return "report"


class ReportCold(Report):
    """One cold report per process, into an empty private run cache."""

    name = "report-cold"
    single_round = True

    def run_round(self) -> List[Op]:
        return self._generate(self.work / "out")


class ReportWarm(Report):
    """The same report again, against the cache ``prepare`` filled."""

    name = "report-warm"

    #: Directory of an already filled run cache to copy instead of
    #: filling one (the call-count passes reuse the parent's fill).
    fill_from: Optional[Path] = None

    def prepare(self) -> List[Op]:
        from repro.perf.runcache import default_cache_dir

        if self.fill_from is not None:
            shutil.copytree(
                self.fill_from, default_cache_dir(), dirs_exist_ok=True
            )
            self.fill = {}
            return []
        ops = self._generate(self.work / "fill")
        self.fill = {op.name: op.digest for op in ops}
        return ops

    def setup_round(self) -> None:
        from repro.perf.runcache import default_cache

        self.counters_before = default_cache().persistent_counters()

    def run_round(self) -> List[Op]:
        return self._generate(self.work / "out")

    def round_checks(self, ops: List[Op]) -> List[str]:
        from repro.perf.runcache import default_cache

        failures = []
        after = default_cache().persistent_counters()
        misses = after["misses"] - self.counters_before["misses"]
        if misses:
            failures.append(
                f"warm report missed the run cache {misses} time(s)"
            )
        for op in ops:
            if self.fill and op.digest != self.fill.get(op.name):
                failures.append(f"{op.name} differs from the cold fill")
        return failures


WORKLOADS = {
    cls.name: cls for cls in (Kernel, ReportCold, ReportWarm, Longrun)
}


def make(name: str, seed: int, budget: Budget, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, budget, work)


def load_references(path: Path) -> Dict[str, Dict[str, str]]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def round_failures(
    ops: List[Op], first: Dict[str, Optional[str]],
    reference: Optional[Dict[str, str]],
) -> List[str]:
    """Why each failing op failed: an error, a digest that differs from
    the stored reference, or one that differs from the first round."""
    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(f"{op.name} raised: {op.error.strip()}")
        elif reference is not None and reference.get(op.name) != op.digest:
            failures.append(
                f"{op.name}: {op.digest} != reference "
                f"{reference.get(op.name)}"
            )
        elif first.get(op.name, op.digest) != op.digest:
            failures.append(f"{op.name}: differs from the first round")
    return failures

