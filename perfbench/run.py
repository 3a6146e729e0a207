#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kernel --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, in
reference-speed seconds (``hostclock.py``); ``--trace 1`` is the
separate traced run that gives the per-layer split (see
``perfbench/README.md``).  Every metric is printed by name and
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is the checkout's own ``src/`` tree; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock
import layers
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space and trace files, inside the checkout.
OUTPUT = ROOT / ".perfbench"
#: Set in the re-executed process, whose environment is pinned.
PINNED = "PERFBENCH_PINNED"
#: A child process that runs longer than this fails the run.
CHILD_TIMEOUT_S = 170


def _pin_environment() -> None:
    """Re-execute under a fixed hash seed with no inherited REPRO_ knob.

    The benchmark measures the defaults a user gets, so any ``REPRO_*``
    variable of the calling shell is dropped; the private run cache is
    the only knob it sets (per process, in :func:`_private_dirs`).
    """
    if os.environ.get(PINNED) == "1":
        return
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env.update({"PYTHONHASHSEED": "0", PINNED: "1"})
    sys.stdout.flush()
    script = os.path.abspath(sys.argv[0])
    os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


def _private_dirs() -> Path:
    """This process's scratch directory; run cache and temp files go there."""
    work = OUTPUT / "work" / str(os.getpid())
    for sub in ("runcache", "tmp", "xdg"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "runcache")
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["XDG_CACHE_HOME"] = str(work / "xdg")
    return work


def bootstrap() -> Path:
    """Check the checkout, pin the environment, put ``src`` on the path.

    Returns this process's private scratch directory.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: nothing to measure, {SRC / 'repro'} is missing "
            "(run from the root of a full checkout)\n"
        )
        sys.exit(2)
    _pin_environment()
    sys.path.insert(0, str(SRC))
    return _private_dirs()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets, for the schema self-check")
    # Internal: one cProfile call-count pass (a child of --trace 1).
    parser.add_argument("--count-pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--fill-from", type=Path, help=argparse.SUPPRESS)
    # Internal: the untraced twin of a traced cold round (raw wall only).
    parser.add_argument("--twin", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@dataclasses.dataclass
class Round:
    """One round: set-up and timed wall time, its ops, what it recorded.

    ``setup_s`` and ``wall_s`` are reference-speed seconds on untraced
    rounds and raw seconds on traced ones; ``raw_wall_s`` is always raw.
    """

    setup_s: float
    wall_s: float
    raw_wall_s: float
    ops: list
    failures: list
    #: Spans of the round; the first is the round itself.
    tracer: tracing.Tracer
    #: ``(cache key, RunResult)`` of every run (traced rounds only).
    results: list
    cache_before: dict
    cache_after: dict
    #: Run-cache store size after the round (traced rounds only).
    cache_bytes: int

    @property
    def core_insts(self) -> float:
        return self.tracer.count(
            "insts", "Simulator.run", "Simulator.run_window"
        )


def run_round(workload, calibration, *, traced: bool, first,
              reference) -> Round:
    """Set up, time and check one round.

    Untraced rounds wrap only ``Simulator.run``/``run_window`` to count
    detailed instructions for ``sim_kips`` and time their set-up and
    timed parts with a clock of *calibration*; traced
    rounds wrap every target in ``tracer.TARGETS``, collect the run
    results and keep raw times.
    """
    from repro.harness.api import add_run_observer, remove_run_observer
    from repro.perf.runcache import default_cache

    clock = hostclock.Clock(None if traced else calibration).start()
    workload.setup_round()
    _, setup_s = clock.stop()
    cache = default_cache()
    cache_before = cache.persistent_counters()
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    else:
        tracer.install(tracing.COUNT_TARGETS, dispatch=False)
    results = []

    def observe(key, result):
        results.append((key, result))

    if traced:
        add_run_observer(observe)
    clock = hostclock.Clock(None if traced else calibration).start()
    tracer.open("round", "other")
    try:
        ops = workload.run_round()
    finally:
        tracer.close(0)
        raw_wall_s, wall_s = clock.stop()
        if traced:
            remove_run_observer(observe)
        tracer.uninstall()
    if traced:
        # The layer self times sum to the root span exactly.
        raw_wall_s = wall_s = tracer.spans[0].end - tracer.spans[0].start
    cache_after = cache.persistent_counters()
    cache_bytes = cache.stats()["bytes"] if traced else 0
    workload.end_round()
    failures = workloads.round_failures(ops, first, reference)
    failures += workload.round_checks(ops)
    return Round(
        setup_s=setup_s, wall_s=wall_s, raw_wall_s=raw_wall_s,
        ops=ops, failures=failures,
        tracer=tracer, results=results,
        cache_before=cache_before, cache_after=cache_after,
        cache_bytes=cache_bytes,
    )


def run_rounds(args, workload, reference, calibration):
    """Prepare, then run rounds until ``--seconds`` have been measured.

    A traced invocation alternates untraced and traced rounds, so both
    see the same host conditions; the tracing overhead is the difference
    of their medians.  Returns ``(prepare_s, prepare_ops, untraced,
    traced, failures)``, ``prepare_s`` in reference-speed seconds.
    """
    prepare_ops, _, prepare_s = calibration.measure(workload.prepare)
    failures = workloads.round_failures(prepare_ops, {}, reference)
    wanted = 1 if args.smoke else (2 if args.trace else 4)
    untraced, traced = [], []
    first = {}
    measured = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and (
            workload.single_round or len(traced) < len(untraced)
        )
        current = run_round(workload, calibration, traced=trace_this,
                            first=first, reference=reference)
        first = first or {op.name: op.digest for op in current.ops}
        (traced if trace_this else untraced).append(current)
        failures += current.failures
        if workload.single_round:
            break
        enough = len(untraced) >= wanted and (
            not args.trace or len(traced) >= wanted
        )
        if enough and time.perf_counter() - measured >= args.seconds:
            break
    return prepare_s, prepare_ops, untraced, traced, failures


def _untraced_median(rounds) -> float:
    """Median raw wall time, for comparison with raw traced rounds."""
    return statistics.median(r.raw_wall_s for r in rounds)


def _child(args, *extra) -> subprocess.Popen:
    command = [
        sys.executable, __file__, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", *(["--smoke"] if args.smoke else []), *extra,
    ]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)


def _reap(*processes: subprocess.Popen) -> None:
    """Stop and wait for every child that is still running."""
    for process in processes:
        if process.poll() is None:
            process.kill()
        process.wait()


def _child_result(process: subprocess.Popen) -> dict:
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError("benchmark child process timed out")
    if process.returncode != 0:
        raise RuntimeError(
            f"benchmark child process exited with {process.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def count_calls(args, traced_ops):
    """Two concurrent cProfile passes that must agree with each other.

    Each pass runs one round in a fresh interpreter.  Returns the calls
    per layer and the failures: counts that differ between the passes,
    or simulated outputs that differ from the traced round's.
    """
    extra = ["--count-pass"]
    if args.workload == "report-warm":
        extra += ["--fill-from", os.environ["REPRO_CACHE_DIR"]]
    processes = [_child(args, *extra) for _ in range(2)]
    try:
        passes = [_child_result(process) for process in processes]
    finally:
        _reap(*processes)
    failures = []
    # ``other`` (and so ``total``) holds the standard library's calls,
    # among them the waits on pool futures, whose number depends on
    # timing; every repro layer's count must repeat exactly.
    exact = [layer for layer in tracing.LAYERS if layer != "other"]
    first, second = ({layer: p["calls"][layer] for layer in exact}
                     for p in passes)
    if first != second:
        failures.append(
            f"call counts differ between two passes: {first} vs {second}"
        )
    digests = {op.name: op.digest for op in traced_ops}
    for index, counted in enumerate(passes):
        if counted["digests"] != digests:
            failures.append(f"simulated outputs of call-count pass {index} "
                            "differ from the traced round")
    return passes[0]["calls"], failures


def count_pass(workload) -> dict:
    """Child side of :func:`count_calls`: one round under cProfile.

    Repeated-round workloads first run one unprofiled round, so the
    count covers a steady round like the ones the timings take their
    median over, not the process's one-time lazy initialisation.
    """
    workload.prepare()
    if not workload.single_round:
        workload.setup_round()
        workload.run_round()
        workload.end_round()
    workload.setup_round()
    ops, calls = tracing.profile_calls(workload.run_round, SRC / "repro")
    workload.end_round()
    return {"calls": calls, "digests": {op.name: op.digest for op in ops}}


def end_to_end(import_s, prepare_s, untraced, workload) -> layers.Metrics:
    """The end-to-end metrics: medians over the untraced rounds, with
    times in reference-speed seconds."""
    wall_s = statistics.median(r.wall_s for r in untraced)
    setup_s = (
        import_s + prepare_s + statistics.median(r.setup_s for r in untraced)
    )
    detailed = untraced[0].core_insts + workload.worker_detailed_insts()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "sim_kips": (detailed / 1000.0 / wall_s, "kinst/s"),
        "peak_rss_mb": ((own + children) / 1024.0, "MB"),
    }


def _import_program() -> None:
    import repro.harness  # noqa: F401
    import repro.report.pipeline  # noqa: F401
    import repro.service  # noqa: F401
    import repro.simpoint.simpoint  # noqa: F401
    import repro.perf.timeshard  # noqa: F401


def main() -> int:
    args = parse_args(sys.argv[1:])
    work = bootstrap()
    calibration = hostclock.Calibration()
    _, _, import_s = calibration.measure(_import_program)
    from repro.perf.pool import shutdown_pool
    from repro.report.provenance import host_info, repro_knobs

    if not args.count_pass:
        tracing.Tracer().install_ticks(calibration.tick)
    budget = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.make(args.workload, args.seed, budget, work)
    twin = None
    try:
        if args.count_pass:
            workload.fill_from = args.fill_from
            print(json.dumps(count_pass(workload)))
            return 0
        references = workloads.load_references(HERE / "references.json")
        reference = (
            None if args.smoke
            else references.get(workload.reference_key())
        )
        if args.trace and workload.single_round:
            # A cold round has no untraced twin in this process; one
            # runs in a fresh interpreter alongside the traced round, on
            # the other core, so both see the same host conditions.
            twin = _child(args, "--twin")
        prepare_s, prepare_ops, untraced, traced, failures = run_rounds(
            args, workload, reference, calibration
        )
        if args.twin:
            print(json.dumps({"raw_wall_s": _untraced_median(untraced)}))
            return 0
        stamp = {"host": host_info(), "knobs": repro_knobs()}
        attempted = len(prepare_ops) + sum(
            len(r.ops) for r in untraced + traced
        ) + args.trace  # the traced run's call-count check is one op
        if args.trace:
            chosen = layers.median_round(traced)
            untraced_wall = (
                _child_result(twin)["raw_wall_s"]
                if twin is not None
                else _untraced_median(untraced)
            )
            calls, count_failures = count_calls(args, chosen.ops)
            failures += count_failures
            metrics = layers.per_layer(
                chosen, untraced_wall, calls, workload.fig9_gap_pp()
            )
            layers.write_trace(
                OUTPUT / "traces" / f"{args.workload}-seed{args.seed}.json",
                chosen, metrics, stamp,
            )
            shown = metrics
        else:
            metrics = end_to_end(import_s, prepare_s, untraced, workload)
            shown = dict(metrics)
            shown["raw_wall_s"] = (_untraced_median(untraced), "s")
            shown["ops_failed_frac"] = (
                min(len(failures), attempted) / attempted, "ratio"
            )
            if isinstance(workload, workloads.Report):
                shown["fig9_gap_pp"] = (workload.fig9_gap_pp(), "pp")
        print(f"perfbench {args.workload} seed={args.seed} "
              f"trace={args.trace} rounds={len(untraced) + len(traced)}")
        for name, value in stamp.items():
            print(f"{name} {json.dumps(value, sort_keys=True)}")
        if reference is None:
            print(f"note: no stored reference for {workload.reference_key()}"
                  "; outputs are checked for repeatability only")
        width = max(len(name) for name in shown)
        for name, (value, unit) in shown.items():
            print(f"  {name:<{width}}  {value:.6g} {unit}")
        for failure in failures:
            print(f"FAILED {failure}")
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": min(len(failures), attempted),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
        return 0
    finally:
        if twin is not None:
            _reap(twin)
        shutdown_pool()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
