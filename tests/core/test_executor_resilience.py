"""Executor failure policy: one attempt per task, crash isolation.

Complements ``test_executor.py`` (which pins parallel == serial
equivalence and basic failure surfacing) with the failure contract: a
raising task runs once and fails alone, a task that kills its worker
fails alone with a ``BrokenProcessPool`` error while its siblings
complete, no worker process outlives the run, and corrupt cache entries
are quarantined rather than silently re-missed forever.
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import ParallelExecutor, ResultCache, Task


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


class TestSingleAttempt:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failure_is_final(self, tmp_path, workers):
        counter = tmp_path / "counter"
        outcomes = ParallelExecutor(workers=workers).run(
            [Task(key="flaky", fn=_flaky, args=(str(counter), 3))]
        )
        assert not outcomes[0].ok
        assert "transient failure #1" in outcomes[0].error
        assert counter.read_text() == "1"  # ran exactly once


class TestCrashIsolation:
    def test_crasher_fails_siblings_survive(self):
        executor = ParallelExecutor(workers=2)
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
        assert "Broken" in poison.error or "abruptly" in poison.error

    def test_reraise_propagates_crash(self):
        executor = ParallelExecutor(workers=2)
        with pytest.raises(BrokenProcessPool):
            executor.run([Task(key="poison", fn=_die, args=(0,))], reraise=True)

    def test_crashed_worker_does_not_outlive_run(self):
        executor = ParallelExecutor(workers=2)
        outcomes = executor.run(
            [
                Task(key="poison", fn=_die, args=(0,)),
                Task(key="good", fn=_square, args=(3,)),
            ]
        )
        assert not outcomes[0].ok and outcomes[1].value == 9
        assert multiprocessing.active_children() == []


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
