"""Environment-flag parsing, including the REPRO_PARALLEL regression.

``REPRO_PARALLEL=false`` used to enable the parallel sweep (any
non-"0" string parsed truthy); :func:`repro.perf.envflag.env_flag` now
recognises the usual falsy spellings, and both ``REPRO_PARALLEL`` and
``REPRO_CACHE`` share it.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.perf.envflag import FALSY, env_flag, env_int


@pytest.mark.parametrize(
    "raw", ["", "0", "false", "no", "off", "FALSE", "No", " OFF ", "False"]
)
def test_falsy_spellings_disable(monkeypatch, raw):
    monkeypatch.setenv("X_FLAG", raw)
    assert env_flag("X_FLAG", default=True) is False


@pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "TRUE", "anything"])
def test_truthy_spellings_enable(monkeypatch, raw):
    monkeypatch.setenv("X_FLAG", raw)
    assert env_flag("X_FLAG", default=False) is True


def test_unset_returns_default(monkeypatch):
    monkeypatch.delenv("X_FLAG", raising=False)
    assert env_flag("X_FLAG") is False
    assert env_flag("X_FLAG", default=True) is True


def test_falsy_set_is_lowercase():
    assert all(spelling == spelling.lower() for spelling in FALSY)


def test_env_int(monkeypatch):
    monkeypatch.delenv("X_INT", raising=False)
    assert env_int("X_INT") is None
    assert env_int("X_INT", default=3) == 3
    monkeypatch.setenv("X_INT", " 7 ")
    assert env_int("X_INT") == 7
    monkeypatch.setenv("X_INT", "")
    assert env_int("X_INT", default=2) == 2


def test_repro_parallel_false_runs_serially(monkeypatch):
    """``REPRO_PARALLEL=false`` must take the serial path (the old
    parser treated it as enabled).  The sweep dispatches through the
    service scheduler, so that is where the pool call is stubbed."""
    from repro.core.config import WrpkruPolicy
    from repro.harness import runner
    from repro.service import scheduler

    def _boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("parallel path taken with REPRO_PARALLEL=false")

    monkeypatch.setenv("REPRO_PARALLEL", "false")
    monkeypatch.setattr(scheduler, "run_longest_first", _boom)
    results = runner.sweep_policies(
        labels=["429.mcf (CPI)"],
        policies=[WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK],
        instructions=300,
    )
    assert set(results["429.mcf (CPI)"]) == {
        WrpkruPolicy.SERIALIZED, WrpkruPolicy.SPECMPK
    }


def test_repro_parallel_truthy_uses_pool(monkeypatch):
    """A truthy REPRO_PARALLEL fans the grid out over the shared pool
    (stubbed here so the test stays single-process).  The run cache is
    disabled so pre-dispatch dedup cannot swallow the grid points."""
    from repro.core.config import WrpkruPolicy
    from repro.harness import runner
    from repro.service import scheduler

    calls = {}

    def _serial(fn, tasks, weights=None, max_workers=None, on_result=None):
        calls["weights"] = list(weights)
        calls["max_workers"] = max_workers
        results = [fn(task) for task in tasks]
        if on_result is not None:
            for index, result in enumerate(results):
                on_result(index, result)
        return results

    monkeypatch.setenv("REPRO_PARALLEL", "yes")
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setattr(scheduler, "run_longest_first", _serial)
    results = runner.sweep_policies(
        labels=["429.mcf (CPI)"],
        policies=[WrpkruPolicy.SERIALIZED, WrpkruPolicy.NONSECURE_SPEC],
        instructions=300,
        max_workers=2,
    )
    assert calls["max_workers"] == 2
    # SERIALIZED is weighted heavier than NONSECURE_SPEC at equal budget.
    assert calls["weights"][0] > calls["weights"][1]
    assert len(results["429.mcf (CPI)"]) == 2


def _knobs_read_by_source():
    """Every ``REPRO_*`` name spelled out under ``src/repro``.  The
    bare prefix ``repro_knobs()`` filters on does not match the
    pattern, which needs at least one character after the underscore."""
    pattern = re.compile(r"REPRO_[A-Z0-9_]+")
    names = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        names.update(pattern.findall(path.read_text()))
    return names


def _knobs_in_docs_table():
    """The first-column knobs of docs/performance.md's
    "Environment knobs" table."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "performance.md"
    section = doc.read_text().split("## Environment knobs", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M))


def test_knob_inventory():
    """The documented knob table names exactly the knobs the source
    reads: a new knob needs a row, a deleted one loses its row."""
    assert _knobs_read_by_source() == _knobs_in_docs_table()
