"""The execution engine's contract: parallel == serial, bit for bit.

Every parallel entry point (``compare``, ``run_scenario_repeats``,
``Sweep.run``) is pinned against its serial output — identical
``LifetimeResult``/``SweepResult`` fields, not approximately equal
ones.  Also covered: the on-disk result cache (hit/miss semantics,
exact round-trip) and failure surfacing (a crashing worker produces a
failed point, never a hung pool).
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.core import (
    AgingAwareFramework,
    FrameworkConfig,
    LifetimeConfig,
    ParallelExecutor,
    ResultCache,
    Sweep,
    Task,
    fingerprint,
)
from repro.data import make_blobs
from repro.device import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.training import SkewedTrainingConfig, TrainConfig, build_mlp
from repro.tuning import TuningConfig


def _make_framework():
    """A fresh, fast framework (fixed seed) — one per equivalence arm."""
    data = make_blobs(n_samples=200, n_classes=3, n_features=4, spread=0.4, seed=3)
    config = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=100, write_noise=0.05),
        train=TrainConfig(epochs=8),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=8),
            skew_epochs=4,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=3,
            tuning=TuningConfig(max_iterations=20),
        ),
        tune_samples=64,
        target_fraction=0.9,
    )
    return AgingAwareFramework(
        lambda seed: build_mlp(4, 3, hidden=(12,), seed=seed), data, config, seed=7
    )


@pytest.fixture(scope="module")
def framework():
    return _make_framework()


# -- fingerprinting -----------------------------------------------------------
class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint(1, "a", 2.5) == fingerprint(1, "a", 2.5)

    def test_discriminates(self):
        assert fingerprint(1) != fingerprint(2)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(1.0) != fingerprint(1)

    def test_arrays_by_content(self):
        a = np.arange(6, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))
        assert fingerprint(a) != fingerprint(a.astype(np.float32))

    def test_dataclasses_by_fields(self):
        a = DeviceConfig(pulses_to_collapse=100)
        b = DeviceConfig(pulses_to_collapse=100)
        c = DeviceConfig(pulses_to_collapse=200)
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_dict_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})


# -- result cache -------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        from repro.core.executor import _MISS

        cache = ResultCache(tmp_path / "c")
        assert cache.get("k") is _MISS
        cache.put("k", {"x": 1.5})
        assert cache.get("k") == {"x": 1.5}
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.core.executor import _MISS

        cache = ResultCache(tmp_path)
        cache.put("k", [1, 2])
        cache.path("k").write_text("{not json")
        assert cache.get("k") is _MISS

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0


# -- generic executor ---------------------------------------------------------
def _square(x):
    return x * x


def _maybe_boom(x):
    if x == 2:
        raise RuntimeError("boom")
    return x


def _die(x):
    os._exit(3)  # simulate a hard worker crash (segfault/OOM-kill)


def _draw(x):
    return float(np.random.default_rng(x).random())


def _slow_draw(x):
    time.sleep(1.0)
    return _draw(x)


def _die_soon(x):
    time.sleep(0.1)
    os._exit(3)


def _draw_or_die_at_20(x):
    if x == 20:
        os._exit(3)
    return _draw(x)


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


class TestParallelExecutor:
    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=-1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_results_in_task_order(self, workers):
        tasks = [Task(key=str(i), fn=_square, args=(i,)) for i in range(6)]
        outcomes = ParallelExecutor(workers=workers).run(tasks)
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok and not o.cached for o in outcomes)

    def test_closures_cross_the_process_boundary(self):
        offset = 10  # captured by the lambda: needs cloudpickle transport
        tasks = [Task(key=str(i), fn=lambda i=i: i + offset) for i in range(3)]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        assert [o.value for o in outcomes] == [10, 11, 12]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_isolation(self, workers):
        tasks = [Task(key=str(i), fn=_maybe_boom, args=(i,)) for i in (1, 2, 3)]
        outcomes = ParallelExecutor(workers=workers).run(tasks)
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "boom" in outcomes[1].error
        assert [outcomes[0].value, outcomes[2].value] == [1, 3]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_reraise_propagates_original_exception(self, workers):
        tasks = [Task(key=str(i), fn=_maybe_boom, args=(i,)) for i in (1, 2)]
        with pytest.raises(RuntimeError, match="boom"):
            ParallelExecutor(workers=workers).run(tasks, reraise=True)

    def test_worker_crash_surfaces_not_hangs(self):
        tasks = [Task(key="crash", fn=_die, args=(0,))]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        assert not outcomes[0].ok
        assert "Broken" in outcomes[0].error or "abruptly" in outcomes[0].error

    def test_crash_fails_only_the_crasher(self):
        # The innocent task is still running when the crasher breaks the
        # pool; it must be re-run, not blamed.
        tasks = [
            Task(key="innocent", fn=_slow_draw, args=(5,)),
            Task(key="crasher", fn=_die_soon, args=(0,)),
        ]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        serial = ParallelExecutor(workers=1).run([tasks[0]])
        assert [o.ok for o in outcomes] == [True, False]
        assert "Broken" in outcomes[1].error or "abruptly" in outcomes[1].error
        assert outcomes[0].value == serial[0].value

    def test_crash_in_chunked_grid_fails_only_the_crasher(self):
        # 40 tasks over 2 workers travel in chunks of 5: the crash loses
        # t20's whole chunk, but only t20 may fail.
        tasks = [
            Task(key=f"t{i}", fn=_draw_or_die_at_20, args=(i,)) for i in range(40)
        ]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        innocents = [t for t in tasks if t.key != "t20"]
        serial = ParallelExecutor(workers=1).run(innocents)
        assert [o.key for o in outcomes if not o.ok] == ["t20"]
        assert [o.value for o in outcomes if o.ok] == [o.value for o in serial]

    def test_parallel_seconds_are_per_task(self):
        tasks = [
            Task(key="short", fn=_sleep, args=(0.1,)),
            Task(key="long", fn=_sleep, args=(1.5,)),
        ]
        short, long = ParallelExecutor(workers=2).run(tasks)
        assert short.ok and long.ok
        assert short.seconds < 0.5 * long.seconds

    def test_cache_short_circuits(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [Task(key="t", fn=_square, args=(4,), cache_key=fingerprint("sq", 4))]
        first = ParallelExecutor(workers=1, cache=cache).run(tasks)
        second = ParallelExecutor(workers=1, cache=cache).run(tasks)
        assert first[0].value == second[0].value == 16
        assert not first[0].cached and second[0].cached

    def test_failed_tasks_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [
            Task(key="t", fn=_maybe_boom, args=(2,), cache_key=fingerprint("boom"))
        ]
        ParallelExecutor(workers=1, cache=cache).run(tasks)
        assert len(cache) == 0


# -- framework equivalence: the headline guarantee ----------------------------
def test_framework_rejects_negative_workers(framework):
    with pytest.raises(ConfigurationError):
        framework.run_scenario_repeats("t+t", repeats=2, workers=-1)
    with pytest.raises(ConfigurationError):
        framework.compare(("t+t",), workers=-3)


@pytest.mark.parametrize("workers", [1, 4])
def test_run_scenario_repeats_parallel_equals_serial(framework, workers):
    serial = framework.run_scenario_repeats("t+t", repeats=2)
    parallel = framework.run_scenario_repeats("t+t", repeats=2, workers=workers)
    assert serial == parallel  # dataclass equality: every field, bit for bit


@pytest.mark.parametrize("workers", [1, 4])
def test_compare_parallel_equals_serial(framework, workers):
    serial = framework.compare(("t+t", "st+at"))
    parallel = framework.compare(("t+t", "st+at"), workers=workers)
    assert serial.workload == parallel.workload
    assert serial.results == parallel.results


def test_parallel_equivalence_from_fresh_framework(framework):
    """A brand-new framework run parallel-first matches the shared one:
    no hidden dependence on which arm populated the training cache."""
    fresh = _make_framework()
    parallel = fresh.run_scenario_repeats("t+t", repeats=2, workers=4)
    serial = framework.run_scenario_repeats("t+t", repeats=2)
    assert parallel == serial


def test_scenario_cache_roundtrip_is_exact(framework, tmp_path):
    cache = ResultCache(tmp_path)
    fresh = framework.run_scenario("t+t", cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    cached = framework.run_scenario("t+t", cache=cache)
    assert cache.hits == 1
    assert cached == fresh  # JSON round trip preserves every field exactly

    # A different repeat is a different key — miss, not a stale hit.
    other = framework.run_scenario("t+t", repeat=1, cache=cache)
    assert other != fresh
    assert len(cache) == 2


def test_scenario_cache_key_covers_config(framework):
    key = framework.scenario_cache_key("t+t", 0)
    assert key != framework.scenario_cache_key("t+t", 1)
    assert key != framework.scenario_cache_key("st+at", 0)
    altered = dataclasses.replace(
        framework.config, target_fraction=framework.config.target_fraction * 0.99
    )
    original = framework.config
    try:
        framework.config = altered
        assert framework.scenario_cache_key("t+t", 0) != key
    finally:
        framework.config = original


def test_compare_through_cache_equals_direct(framework, tmp_path):
    cache = ResultCache(tmp_path)
    direct = framework.compare(("t+t", "st+at"))
    populated = framework.compare(("t+t", "st+at"), workers=2, cache=cache)
    replayed = framework.compare(("t+t", "st+at"), workers=2, cache=cache)
    assert populated.results == direct.results
    assert replayed.results == direct.results
    assert cache.hits >= 2


def test_config_not_mutated_by_runs(framework):
    """Resolving the per-scenario tuning target must not leak back into
    the shared config (it would poison cache keys between runs)."""
    before = dataclasses.replace(framework.config.lifetime.tuning)
    framework.run_scenario("t+t")
    assert framework.config.lifetime.tuning == before


# -- sweep equivalence --------------------------------------------------------
def _draw_metrics(v, rng):
    return {"draw": float(rng.integers(0, 10**9)), "square": float(v) ** 2}


def _sweep_boom(v, rng):
    if v == 2:
        raise RuntimeError("boom")
    return {"v": float(v)}


def _sweep_die(v, rng):
    if v == 2:
        os._exit(3)
    return {"v": float(v)}


class TestSweepParallel:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_metrics_bit_identical(self, workers):
        serial = Sweep("x", _draw_metrics, seed=5).run([1, 2, 3, 4])
        parallel = Sweep("x", _draw_metrics, seed=5).run([1, 2, 3, 4], workers=workers)
        assert [p.value for p in serial.points] == [p.value for p in parallel.points]
        assert [p.metrics for p in serial.points] == [p.metrics for p in parallel.points]
        assert [p.ok for p in serial.points] == [p.ok for p in parallel.points]

    def test_error_isolation_parallel(self):
        result = Sweep("x", _sweep_boom, seed=1).run([1, 2, 3], workers=4)
        assert [p.ok for p in result.points] == [True, False, True]
        assert "boom" in result.points[1].error
        assert result.metric("v") == [1.0, 3.0]

    def test_error_text_matches_serial(self):
        serial = Sweep("x", _sweep_boom, seed=1).run([2])
        parallel = Sweep("x", _sweep_boom, seed=1).run([2], workers=2)
        assert serial.points[0].error == parallel.points[0].error

    def test_worker_crash_becomes_failed_point(self):
        result = Sweep("x", _sweep_die, seed=1).run([1, 2], workers=2)
        assert len(result.points) == 2
        assert not result.points[1].ok  # crashed, surfaced — pool not hung

    def test_fail_fast_parallel_raises_original(self):
        with pytest.raises(RuntimeError, match="boom"):
            Sweep("x", _sweep_boom, seed=1).run([1, 2, 3], workers=4, fail_fast=True)

    def test_cache_hit_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = Sweep("x", _draw_metrics, seed=9)
        first = sweep.run([1, 2], cache=cache, cache_token="v1")
        second = sweep.run([1, 2, 3], cache=cache, cache_token="v1")
        assert [p.cached for p in first.points] == [False, False]
        assert [p.cached for p in second.points] == [True, True, False]
        assert [p.metrics for p in second.points[:2]] == [
            p.metrics for p in first.points
        ]
        # A different token invalidates everything.
        third = sweep.run([1, 2], cache=cache, cache_token="v2")
        assert [p.cached for p in third.points] == [False, False]

    def test_cached_sweep_result_serializes(self, tmp_path):
        from repro.io import load_sweep_result, save_sweep_result

        result = Sweep("x", _draw_metrics, seed=9).run([1, 2])
        path = tmp_path / "sweep.json"
        save_sweep_result(result, path)
        loaded = load_sweep_result(path)
        assert loaded == result
