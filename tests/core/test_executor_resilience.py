"""Executor hardening: retries with backoff, timeouts, crash isolation.

Complements ``test_executor.py`` (which pins parallel == serial
equivalence and basic failure surfacing) with the resilience contract:
a transiently failing task is re-run and succeeds, a permanently
crashing worker fails after ``max_retries`` without hanging or taking
its siblings down, a hung task is reclaimed by its timeout, and corrupt
cache entries are quarantined rather than silently re-missed forever.
"""

import multiprocessing
import os
import time

import pytest

from repro.core import ParallelExecutor, ResultCache, RetryPolicy, Task
from repro.exceptions import ConfigurationError


# -- task bodies (module-level so the pool can ship them) ---------------------
def _square(x):
    return x * x


def _flaky(counter_path, succeed_on):
    """Fail until the ``succeed_on``-th invocation (file-based counter,
    so the count survives worker process boundaries)."""
    count = 1
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            count = int(handle.read()) + 1
    with open(counter_path, "w") as handle:
        handle.write(str(count))
    if count < succeed_on:
        raise RuntimeError(f"transient failure #{count}")
    return f"ok after {count}"


def _die(_x):
    os._exit(3)  # simulate a hard worker crash (segfault/OOM-kill)


def _hang(_x):
    time.sleep(300)


FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_max=0.05)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-0.1)

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.1, backoff_max=0.35)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped
        assert policy.delay(10) == pytest.approx(0.35)

    def test_executor_rejects_bad_timeout(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(task_timeout=0.0)
        with pytest.raises(ConfigurationError):
            ParallelExecutor(max_pool_rebuilds=-1)


class TestTransientRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fails_twice_succeeds_third(self, tmp_path, workers):
        counter = str(tmp_path / f"counter-{workers}")
        executor = ParallelExecutor(workers=workers, retry=FAST_RETRY)
        tasks = [
            Task(key="flaky", fn=_flaky, args=(counter, 3)),
            Task(key="square", fn=_square, args=(7,)),
        ]
        start = time.perf_counter()
        outcomes = executor.run(tasks)
        elapsed = time.perf_counter() - start
        assert outcomes[0].ok and outcomes[0].value == "ok after 3"
        assert outcomes[0].attempts == 3
        assert outcomes[1].ok and outcomes[1].value == 49
        # Backoff actually slept between attempts (0.01 + 0.02 at least).
        assert elapsed >= 0.03

    def test_without_retry_first_failure_is_final(self, tmp_path):
        counter = str(tmp_path / "counter")
        outcomes = ParallelExecutor(workers=1).run(
            [Task(key="flaky", fn=_flaky, args=(counter, 3))]
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert "transient failure #1" in outcomes[0].error

    def test_retried_success_is_not_double_counted(self, tmp_path):
        """A first-attempt success consumes exactly one attempt."""
        counter = str(tmp_path / "counter")
        outcomes = ParallelExecutor(workers=1, retry=FAST_RETRY).run(
            [Task(key="flaky", fn=_flaky, args=(counter, 1))]
        )
        assert outcomes[0].ok and outcomes[0].attempts == 1


class TestPermanentCrasher:
    def test_crasher_fails_after_max_retries_siblings_survive(self):
        retry = RetryPolicy(max_retries=1, backoff_base=0.01)
        executor = ParallelExecutor(workers=2, retry=retry)
        tasks = [
            Task(key="good-1", fn=_square, args=(2,)),
            Task(key="poison", fn=_die, args=(0,)),
            Task(key="good-2", fn=_square, args=(3,)),
        ]
        outcomes = executor.run(tasks)
        assert outcomes[0].ok and outcomes[0].value == 4
        assert outcomes[2].ok and outcomes[2].value == 9
        poison = outcomes[1]
        assert not poison.ok
        assert poison.attempts == 2  # 1 + max_retries
        assert "Broken" in poison.error or "abruptly" in poison.error

    def test_reraise_propagates_after_retries(self):
        retry = RetryPolicy(max_retries=1, backoff_base=0.01)
        executor = ParallelExecutor(workers=2, retry=retry)
        with pytest.raises(Exception):
            executor.run([Task(key="poison", fn=_die, args=(0,))], reraise=True)


class TestTimeout:
    def test_hung_task_reclaimed_siblings_complete(self):
        executor = ParallelExecutor(workers=2)
        tasks = [
            Task(key="hung", fn=_hang, args=(0,), timeout=1.0),
            Task(key="good", fn=_square, args=(5,)),
        ]
        start = time.perf_counter()
        outcomes = executor.run(tasks)
        elapsed = time.perf_counter() - start
        assert elapsed < 60  # nowhere near the 300s sleep
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error.lower()
        assert outcomes[1].ok and outcomes[1].value == 25

    def test_timed_out_worker_does_not_outlive_run(self):
        executor = ParallelExecutor(workers=2)
        outcomes = executor.run(
            [
                Task(key="hung", fn=_hang, args=(0,), timeout=1.0),
                Task(key="good", fn=_square, args=(3,)),
            ]
        )
        assert not outcomes[0].ok and outcomes[1].value == 9
        assert multiprocessing.active_children() == []

    def test_executor_wide_timeout_applies_to_all_tasks(self):
        executor = ParallelExecutor(workers=2, task_timeout=1.0)
        outcomes = executor.run([Task(key="hung", fn=_hang, args=(0,))])
        assert not outcomes[0].ok
        assert "timeout" in outcomes[0].error.lower()

    def test_per_task_timeout_overrides_executor_default(self):
        # Generous executor default, tight per-task override.
        executor = ParallelExecutor(workers=2, task_timeout=200.0)
        start = time.perf_counter()
        outcomes = executor.run(
            [Task(key="hung", fn=_hang, args=(0,), timeout=1.0)]
        )
        assert time.perf_counter() - start < 60
        assert not outcomes[0].ok

    def test_serial_mode_ignores_timeout(self):
        """Documented: in-process execution cannot be preempted."""
        outcomes = ParallelExecutor(workers=1).run(
            [Task(key="quick", fn=_square, args=(4,), timeout=0.001)]
        )
        assert outcomes[0].ok and outcomes[0].value == 16


class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_logged(self, tmp_path, caplog):
        from repro.core.executor import _MISS

        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1})
        cache.path("k").write_text("{not json")
        with caplog.at_level("WARNING"):
            assert cache.get("k") is _MISS
        assert cache.quarantined == 1
        assert not cache.path("k").exists()
        quarantined = cache.path("k").with_name(cache.path("k").name + ".corrupt")
        assert quarantined.exists()
        assert "{not json" in quarantined.read_text()
        assert any("quarantined" in rec.getMessage() for rec in caplog.records)

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", {"x": 1})
        cache.path("k").write_text("garbage")
        cache.get("k")
        cache.put("k", {"x": 2})
        assert cache.get("k") == {"x": 2}

    def test_wrong_schema_is_quarantined(self, tmp_path):
        from repro.core.executor import _MISS
        from repro.io import save_json_atomic

        cache = ResultCache(tmp_path)
        save_json_atomic(
            {"schema": "bogus/v99", "payload": 1}, cache.path("k")
        )
        assert cache.get("k") is _MISS
        assert cache.quarantined == 1
