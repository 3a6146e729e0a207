"""Span tracing and call counting, applied from outside the program.

Nothing here edits ``src/``: :class:`Tracer` replaces the public
functions and methods named in :data:`TARGETS` with timing wrappers for
the duration of a traced round and restores them afterwards.  A
function imported by name into another module (``from .pool import
run_longest_first``) is replaced in every loaded ``repro`` module that
holds it, so call sites resolve to the wrapper wherever they live.

Spans are kept in memory (name, layer, start, end, parent) and written
out by the caller when the benchmark ends.  A layer's self time is its
spans' durations minus the part their child spans cover; whatever the
round spent outside every wrapped call is the explicit ``other`` bucket,
so the layer self times plus ``other`` sum to the traced round's wall
time exactly.

Work inside pool workers cannot be wrapped by patching the parent.  The
wrapper around :func:`repro.perf.pool.run_longest_first` therefore hands
the pool a picklable shim (:func:`timed_task`) that times each task
inside the worker and returns the timing beside the result; those
worker spans are kept apart from the parent's self-time accounting and
feed ``pool.busy_frac`` only.

:func:`profile_calls` is the deterministic work counter: cProfile call
counts of one round, attributed to the same layers by the file that
defines each called function (built-in calls go to their caller's
layer).
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import pstats
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Layers in report order; ``other`` collects untraced time and calls.
LAYERS = (
    "core", "isa", "workloads", "state", "simpoint", "timeshard", "pool",
    "runcache", "service", "harness", "obs", "report", "attacks", "other",
)

#: ``repro`` subpackages (or ``perf`` modules) -> layer, for call counts.
_PACKAGE_LAYER = {
    "core": "core", "memory": "core", "mpk": "core",
    "isa": "isa", "workloads": "workloads", "state": "state",
    "simpoint": "simpoint", "service": "service", "harness": "harness",
    "obs": "obs", "trace": "obs", "report": "report", "attacks": "attacks",
    "perf/timeshard.py": "timeshard", "perf/pool.py": "pool",
    "perf/runcache.py": "runcache", "perf/envflag.py": "harness",
}


def _bound(signature: inspect.Signature, args, kwargs) -> Dict[str, object]:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# -- per-call counters -------------------------------------------------------
#
# ``before(arguments)`` runs ahead of the call; ``after(arguments, result,
# before_value)`` returns the counts recorded on the span.  ``after`` also
# runs when the call raises, with ``result`` None: the step interpreter's
# budget error (``EmulatorLimitExceeded``) ends a counted run normally.


def _sim_insts(arguments, result, _before):
    if result is None:
        return {}
    warmup = arguments.get("warmup_instructions") or 0
    return {"insts": warmup + result.stats.instructions_retired}


def _emulator_before(arguments):
    return arguments["self"].instructions_executed


def _emulator_insts(arguments, _result, before):
    return {"insts": arguments["self"].instructions_executed - before}


def _intervals(arguments, _result, _before):
    return {"count": len(arguments["selection"].points)}


def _shards(_arguments, result, _before):
    if result is None:
        return {}
    jobs = result[0]
    return {
        "count": len(jobs),
        "insts": sum(
            job.window.length + job.window.detailed_warmup for job in jobs
        ),
    }


def _service_before(arguments):
    return dict(arguments["self"].counters)


def _service_counts(arguments, result, before):
    if result is None:
        return {}
    after = arguments["self"].counters
    delta = {name: after[name] - before.get(name, 0) for name in after}
    return {
        "jobs": len(result),
        "deduped": delta["from_cache"] + delta["from_spool"],
        "retries": delta["retried"],
        "failed": delta["failed"],
    }


def _artifacts(_arguments, result, _before):
    if result is None:
        return {}
    return {"count": result[1]["artifacts"]}


#: (module, attribute path, layer, before, after); the span is named
#: by the attribute path.
TARGETS: Tuple[Tuple, ...] = (
    ("repro.core.pipeline", "Simulator.__init__", "core", None, None),
    ("repro.core.pipeline", "Simulator.prewarm_tlb", "core", None, None),
    ("repro.core.pipeline", "Simulator.run", "core", None, _sim_insts),
    ("repro.core.pipeline", "Simulator.run_window", "core", None, _sim_insts),
    ("repro.core.schedule", "shared_schedule", "core", None, None),
    ("repro.isa.emulator", "Emulator.run", "isa",
     _emulator_before, _emulator_insts),
    ("repro.isa.emulator", "Emulator.run_fast", "isa",
     _emulator_before, _emulator_insts),
    ("repro.workloads.generator", "build_workload", "workloads", None, None),
    ("repro.state.fastforward", "fast_forward", "state", None, None),
    ("repro.state.checkpoint", "take_checkpoint", "state", None, None),
    ("repro.state.checkpoint", "resume_simulator", "state", None, None),
    ("repro.simpoint.profiler", "profile_program", "simpoint", None, None),
    ("repro.simpoint.simpoint", "select_simpoints", "simpoint", None, None),
    ("repro.simpoint.simpoint", "weighted_ipc", "simpoint", None, _intervals),
    ("repro.perf.timeshard", "prepare_request", "timeshard", None, _shards),
    ("repro.perf.timeshard", "execute_sharded", "timeshard", None, None),
    ("repro.perf.timeshard", "fold_outcomes", "timeshard", None, None),
    ("repro.perf.pool", "get_pool", "pool", None, None),
    ("repro.perf.runcache", "RunCache.get", "runcache", None, None),
    ("repro.perf.runcache", "RunCache.peek", "runcache", None, None),
    ("repro.perf.runcache", "RunCache.put", "runcache", None, None),
    ("repro.harness.runner", "execute_many", "service", None, None),
    ("repro.service.scheduler", "SweepService.process", "service",
     _service_before, _service_counts),
    ("repro.harness.api", "execute", "harness", None, None),
    ("repro.harness.runner", "run_workload", "harness", None, None),
    ("repro.obs.collect", "collect_run_metrics", "obs", None, None),
    ("repro.report.pipeline", "generate_report", "report", None, _artifacts),
    ("repro.report.bootstrap", "summarize_series", "report", None, None),
    ("repro.report.ledger", "Manifest.save", "report", None, None),
    ("repro.report.ledger", "render_manifest_md", "report", None, None),
    ("repro.obs.exporters", "write_jsonl", "report", None, None),
    ("repro.attacks.flush_reload", "run_attack", "attacks", None, None),
)

#: The detailed-instruction counters every round installs, traced or not.
COUNT_TARGETS = tuple(t for t in TARGETS if t[3:] == (None, _sim_insts))

#: Calls whose entry and exit tick the running host-speed clock
#: (``hostclock.Calibration.tick``); together they punctuate every
#: workload's work at intervals well under a second.
TICK_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.pipeline", "Simulator.run"),
    ("repro.core.pipeline", "Simulator.run_window"),
    ("repro.isa.emulator", "Emulator.run"),
    ("repro.isa.emulator", "Emulator.run_fast"),
    ("repro.workloads.generator", "build_workload"),
    ("repro.state.checkpoint", "take_checkpoint"),
    ("repro.state.checkpoint", "resume_simulator"),
    ("repro.simpoint.profiler", "profile_program"),
    ("repro.harness.api", "execute"),
    ("repro.attacks.flush_reload", "run_attack"),
)

#: Modules whose import makes every call site of the targets visible.
_ENTRY_MODULES = (
    "repro.harness", "repro.report.pipeline", "repro.service",
    "repro.simpoint", "repro.perf.timeshard", "repro.attacks",
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` of a dotted target."""
    for module in _ENTRY_MODULES:
        importlib.import_module(module)
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, getattr(owner, attr)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts")

    def __init__(self, name: str, layer: str, start: float,
                 parent: Optional[int]) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Dict[str, float] = {}

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "layer": self.layer, "start": self.start,
            "end": self.end, "parent": self.parent, "counts": self.counts,
        }


def timed_task(fn: Callable, task):
    """Pool-side shim: run ``fn(task)`` and return its timing with it."""
    start = time.perf_counter()
    result = fn(task)
    return result, start, time.perf_counter(), os.getpid()


class Tracer:
    """Records spans of one traced round on the main thread.

    Calls made on other threads pass straight through, so every span
    nests under the round's root span and the self-time identity holds.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(start, end, pid)`` of every task timed inside a pool worker.
        self.worker_spans: List[Tuple[float, float, int]] = []
        #: Summed ``span duration x pool size`` of every pool dispatch.
        self.dispatch_capacity = 0.0
        self._stack: List[int] = []
        self._main = threading.get_ident()
        #: ``(owner, attribute, original or None if it was inherited)``.
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # -- installing wrappers -------------------------------------------------

    def install(self, targets=TARGETS, dispatch: bool = True) -> None:
        for module_name, path, layer, before, after in targets:
            owner, attr, original = _resolve(module_name, path)
            self._replace(owner, attr, original,
                          self._wrap(original, path, layer, before, after))
        if not dispatch:
            return
        pool = importlib.import_module("repro.perf.pool")
        original = pool.run_longest_first
        self._replace(pool, "run_longest_first", original,
                      self._wrap_dispatch(original))

    def install_ticks(self, tick: Callable[[], None],
                      targets=TICK_TARGETS) -> None:
        """Make every main-thread entry to and exit from *targets* call
        ``tick()``; no span is recorded."""
        for module_name, path in targets:
            owner, attr, original = _resolve(module_name, path)
            self._replace(owner, attr, original,
                          self._wrap_tick(original, tick))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # Re-point every ``from x import name`` binding of a function.
        for module in list(sys.modules.values()):
            if module is owner or not getattr(
                module, "__name__", ""
            ).startswith("repro"):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, binding, original))
                    setattr(module, binding, wrapper)

    def _wrap(self, original, name, layer, before, after):
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return original(*args, **kwargs)
            arguments = (
                _bound(signature, args, kwargs)
                if before is not None or after is not None else None
            )
            prior = before(arguments) if before is not None else None
            index = tracer.open(name, layer)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(index)
                if after is not None:
                    tracer.spans[index].counts = after(
                        arguments, result, prior
                    )

        return wrapper

    def _wrap_tick(self, original, tick):
        main = self._main

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return original(*args, **kwargs)
            tick()
            try:
                return original(*args, **kwargs)
            finally:
                tick()

        return wrapper

    def _wrap_dispatch(self, original):
        """``run_longest_first`` with worker-side task timing."""
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return original(*args, **kwargs)
            arguments = _bound(signature, args, kwargs)
            fn = arguments.pop("fn")
            on_result = arguments.pop("on_result")
            forward = None
            if on_result is not None:
                def forward(index, packed):
                    on_result(index, packed[0])
            index = tracer.open("run_longest_first", "pool")
            try:
                packed = original(
                    functools.partial(timed_task, fn),
                    on_result=forward, **arguments,
                )
            finally:
                tracer.close(index)
            span = tracer.spans[index]
            span.counts = {"count": len(packed)}
            if packed:
                from repro.perf.pool import resolve_workers

                workers = (
                    resolve_workers(arguments["max_workers"])
                    or os.cpu_count() or 1
                )
                tracer.dispatch_capacity += (span.end - span.start) * workers
            tracer.worker_spans.extend(item[1:] for item in packed)
            return [item[0] for item in packed]

        return wrapper

    # -- summaries -----------------------------------------------------------
    #
    # The first span is the round itself; every later one nests inside it.

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time; the round's own self time is ``other``."""
        totals = {layer: 0.0 for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        for span in self.spans[1:]:
            child_time[span.parent] += span.end - span.start
        for index, span in enumerate(self.spans):
            layer = "other" if index == 0 else span.layer
            totals[layer] += span.end - span.start - child_time[index]
        return totals

    def outermost(self, names) -> List[Span]:
        """Spans named in *names* with no ancestor also named in *names*."""
        found = []
        for span in self.spans[1:]:
            if span.name not in names:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name not in names:
                parent = self.spans[parent].parent
            if parent is None:
                found.append(span)
        return found

    def inclusive(self, *names: str) -> float:
        return sum(s.end - s.start for s in self.outermost(set(names)))

    def calls(self, name: str) -> int:
        """How many spans are named *name*."""
        return sum(1 for span in self.spans[1:] if span.name == name)

    def count(self, key: str, *names: str) -> float:
        return sum(
            span.counts.get(key, 0) for span in self.outermost(set(names))
        )


# -- deterministic call counts -----------------------------------------------


def _layer_of_file(filename: str, source_root: Path) -> str:
    try:
        relative = Path(filename).resolve().relative_to(source_root)
    except ValueError:
        return "other"
    parts = relative.parts
    if len(parts) >= 2 and parts[0] == "perf":
        return _PACKAGE_LAYER.get(f"perf/{parts[1]}", "other")
    return _PACKAGE_LAYER.get(parts[0], "other") if len(parts) > 1 else "other"


def profile_calls(
    body: Callable[[], object], source_root: Path,
) -> Tuple[object, Dict[str, int]]:
    """Run *body* under cProfile; return its result and calls per layer.

    A Python function's calls count towards the layer of the file that
    defines it; a built-in's calls are split over its callers' layers.
    ``total`` is cProfile's own total, so the layers sum to it.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = body()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    calls = {layer: 0 for layer in LAYERS}
    for (filename, _line, _name), entry in stats.stats.items():
        _cc, ncalls, _tt, _ct, callers = entry
        if filename != "~":
            calls[_layer_of_file(filename, source_root)] += ncalls
            continue
        attributed = 0
        for (caller_file, _l, _n), caller_entry in callers.items():
            calls[_layer_of_file(caller_file, source_root)] += caller_entry[0]
            attributed += caller_entry[0]
        calls["other"] += ncalls - attributed
    calls["total"] = stats.total_calls
    return result, calls
