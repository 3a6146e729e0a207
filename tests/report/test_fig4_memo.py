"""Fig. 4's useful-fraction probe is memoized in the run cache.

The probe is a deterministic function of the generated program, so a
warm report must neither rebuild a workload nor single-step one, and
the memo must never change a byte of the artifact.
"""

import dataclasses
import pickle

import pytest

from repro.harness import api
from repro.harness.experiments import _useful_fraction
from repro.isa.emulator import Emulator
from repro.perf.runcache import default_cache, derived_key
from repro.report import ReportConfig, generate_report
from repro.report import pipeline
from repro.workloads import generator
from repro.workloads.instrument import InstrumentMode
from repro.workloads.profiles import seed_variant

LABELS = ("557.xz_r (SS)", "520.omnetpp_r (SS)")
TAG = "useful-fraction-v1"


@pytest.fixture
def fig4_subset(monkeypatch, tmp_path):
    """Fig. 4 over two labels, against a private, empty run cache."""
    monkeypatch.setattr(pipeline, "ARTIFACTS", tuple(
        dataclasses.replace(spec, labels=LABELS)
        if spec.name == "fig4" else spec
        for spec in pipeline.ARTIFACTS
    ))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    api._build_cached.cache_clear()
    yield
    api._build_cached.cache_clear()


def _config(out, repeats=1):
    return ReportConfig(
        out=out, repeats=repeats, instructions=1_000, seed=0,
        only={"fig4"},
    )


def test_warm_fig4_neither_builds_nor_steps(fig4_subset, tmp_path,
                                            monkeypatch):
    calls = {"build": 0, "step": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(generator, "build_workload",
                        counted("build", generator.build_workload))
    monkeypatch.setattr(api, "build_workload",
                        counted("build", api.build_workload))
    monkeypatch.setattr(Emulator, "step", counted("step", Emulator.step))

    _, cold = generate_report(_config(tmp_path / "cold"))
    # Each (label, mode) is built once, shared by its timing run and
    # its probe; the probe steps the two protected modes.
    assert calls["build"] == len(LABELS) * len(InstrumentMode)
    assert calls["step"] > 0
    assert cold["cache_misses"] > 0

    api._build_cached.cache_clear()
    calls.update(build=0, step=0)
    _, warm = generate_report(_config(tmp_path / "warm"))
    assert calls == {"build": 0, "step": 0}
    assert warm["cache_misses"] == 0
    assert warm["cache_hits"] == cold["cache_hits"] + cold["cache_misses"]


def test_fig4_bytes_identical_uncached_cold_and_warm(fig4_subset, tmp_path,
                                                     monkeypatch):
    texts = {}
    for name, flag in (("uncached", "0"), ("cold", "1"), ("warm", "1")):
        monkeypatch.setenv("REPRO_CACHE", flag)
        config = _config(tmp_path / name, repeats=2)
        manifest, _ = generate_report(config)
        texts[name] = (
            (config.out / "fig4_breakdown.txt").read_bytes(),
            manifest.artifacts["fig4"].metrics,
        )
        if name == "uncached":
            # REPRO_CACHE=0 recomputes the probe and stores nothing.
            assert default_cache().entries() == 0
    assert texts["uncached"] == texts["cold"] == texts["warm"]


def test_memo_keys_differ_by_every_input():
    base = ("557.xz_r (SS)", InstrumentMode.PROTECTED, 20_000)
    variants = [
        base,
        ("520.omnetpp_r (SS)",) + base[1:],
        (base[0], InstrumentMode.PROTECTED_NOP, base[2]),
        base[:2] + (10_000,),
        (seed_variant(base[0], 1),) + base[1:],
        (seed_variant(base[0], 2),) + base[1:],
    ]
    keys = [derived_key(TAG, *parts) for parts in variants]
    assert None not in keys
    assert len(set(keys)) == len(keys)
    assert derived_key(TAG, *base) == keys[0]
    assert derived_key("other-quantity-v1", *base) != keys[0]


def test_corrupt_memo_entry_is_a_miss_and_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    label, mode = "520.omnetpp_r (SS)", InstrumentMode.PROTECTED
    fresh = _useful_fraction(label, mode, sample=2_000)
    assert 0.0 < fresh < 1.0
    (entry,) = tmp_path.glob("*.pkl")
    assert entry.stem == derived_key(TAG, label, mode, 2_000)

    entry.write_bytes(b"not a pickle")
    cache = default_cache()
    hits, misses = cache.hits, cache.misses
    assert _useful_fraction(label, mode, sample=2_000) == fresh
    assert (cache.hits, cache.misses) == (hits, misses + 1)
    assert pickle.loads(entry.read_bytes()) == fresh
    assert _useful_fraction(label, mode, sample=2_000) == fresh
    assert (cache.hits, cache.misses) == (hits + 1, misses + 1)
