"""Chunked submission, seeded retry jitter, and shared-journal draining.

The three scheduling upgrades behind the campaign service, each pinned
to the engine's core invariant: scheduling may change, results may not.

* :func:`adaptive_chunk_size` + chunked pool submission — outcomes,
  ordering and error isolation identical to a serial run, for grids
  small enough to get one task per chunk and large enough to share;
* :class:`RetryPolicy` seeded jitter — deterministic, bounded,
  per-worker decorrelated backoff delays;
* two executors draining one grid through a shared ``RunJournal`` /
  ``ResultCache`` — every point lands exactly once, results
  bit-identical to a lone serial run.
"""

import threading

import pytest

from repro.core import (
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    RunJournal,
    Task,
    adaptive_chunk_size,
)
from repro.exceptions import ConfigurationError


def _square(x):
    return x * x


def _boom_on_two(x):
    if x == 2:
        raise RuntimeError("boom at 2")
    return x


def _tasks(n, fn=_square):
    return [Task(key=f"t{i}", fn=fn, args=(i,)) for i in range(n)]


# -- adaptive chunk sizing ----------------------------------------------------
class TestAdaptiveChunkSize:
    def test_empty_and_tiny_grids_stay_unchunked(self):
        assert adaptive_chunk_size(0, workers=4) == 1
        assert adaptive_chunk_size(1, workers=4) == 1
        assert adaptive_chunk_size(7, workers=4) == 1  # the 7-point bench grid

    def test_large_grid_amortizes(self):
        # 64 points / (4 workers * 4-deep oversubscription) = 4 per chunk
        assert adaptive_chunk_size(64, workers=4) == 4
        assert adaptive_chunk_size(256, workers=4) == 16

    def test_max_chunk_cap(self):
        assert adaptive_chunk_size(100_000, workers=1) == 32
        assert adaptive_chunk_size(100_000, workers=1, max_chunk=8) == 8

    def test_oversubscription_keeps_tail_balanced(self):
        # Every worker gets multiple chunks, so one slow chunk cannot
        # serialize the whole grid behind it.
        n, workers = 64, 4
        chunk = adaptive_chunk_size(n, workers)
        assert n / chunk >= workers * 4


# -- chunked execution equivalence --------------------------------------------
class TestChunkedEquivalence:
    # Grid sizes on both sides of the chunk-size choice: with 2 workers,
    # 1 and 3 tasks get one task per chunk, 40 and 64 get 5 and 8.
    @pytest.mark.parametrize("n_tasks", [1, 3, 40, 64])
    def test_results_match_serial_in_order(self, n_tasks):
        serial = [o.value for o in ParallelExecutor(workers=0).run(_tasks(n_tasks))]
        chunked = [o.value for o in ParallelExecutor(workers=2).run(_tasks(n_tasks))]
        assert chunked == serial == [i * i for i in range(n_tasks)]

    def test_failure_isolated_within_chunk(self):
        # Task 2 raises; its chunk-mates (same pool submission) succeed.
        assert adaptive_chunk_size(40, workers=2) == 5
        outcomes = ParallelExecutor(workers=2).run(_tasks(40, fn=_boom_on_two))
        assert not outcomes[2].ok
        assert "boom at 2" in str(outcomes[2].error)
        assert [o.value for o in outcomes if o.ok] == [
            i for i in range(40) if i != 2
        ]

    def test_chunked_cache_hits_short_circuit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert adaptive_chunk_size(24, workers=2) == 3
        tasks = [
            Task(key=f"t{i}", fn=_square, args=(i,), cache_key=f"ck{i}")
            for i in range(24)
        ]
        ParallelExecutor(workers=2, cache=cache).run(tasks)
        again = ParallelExecutor(workers=2, cache=cache).run(tasks)
        assert [o.value for o in again] == [i * i for i in range(24)]
        assert all(o.cached for o in again)


# -- seeded retry jitter ------------------------------------------------------
class TestSeededJitter:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(max_retries=5, backoff_base=0.1, backoff_max=10.0)
        assert [policy.delay(i) for i in range(4)] == pytest.approx(
            [0.0, 0.1, 0.2, 0.4]
        )

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_retries=5, backoff_base=0.1, backoff_max=10.0,
            jitter=0.5, jitter_seed=7,
        )
        for failures in (1, 2, 3):
            base = 0.1 * 2 ** (failures - 1)
            d1 = policy.delay(failures, token="task-a")
            d2 = policy.delay(failures, token="task-a")
            assert d1 == d2  # same schedule every time
            assert base * 0.5 <= d1 <= base  # bounded shrink, never grow

    def test_schedule_varies_by_seed_token_and_attempt(self):
        kw = dict(max_retries=5, backoff_base=0.1, jitter=0.5)
        a = RetryPolicy(jitter_seed=1, **kw)
        b = RetryPolicy(jitter_seed=2, **kw)
        assert a.delay(1, token="t") != b.delay(1, token="t")
        assert a.delay(1, token="t1") != a.delay(1, token="t2")
        # Attempts are decorrelated too (not one scale factor reused).
        assert a.delay(1, token="t") * 2 != pytest.approx(a.delay(2, token="t"))

    def test_jitter_without_token_still_works(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=1.0, jitter_seed=3)
        assert 0.0 <= policy.delay(1) <= 0.1


# -- two executors, one journal -----------------------------------------------
class TestSharedJournalDrain:
    def _journal_tasks(self, n):
        return [
            Task(
                key=f"t{i}",
                fn=_square,
                args=(i,),
                journal_key=f"jk{i}",
            )
            for i in range(n)
        ]

    def test_two_executors_complete_grid_exactly_once(self, tmp_path):
        """Satellite contract: two executors draining the same grid via
        a shared journal complete every point exactly once, with
        results bit-identical to a lone serial run."""
        path = tmp_path / "shared.jsonl"
        n = 12
        serial = [o.value for o in ParallelExecutor(workers=0).run(self._journal_tasks(n))]

        results = {}
        errors = []

        def drain(name):
            try:
                journal = RunJournal(path)
                executor = ParallelExecutor(workers=0, journal=journal)
                outcomes = executor.run(self._journal_tasks(n))
                results[name] = [o.value for o in outcomes]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=drain, args=(name,)) for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        # Both drains observed the full, identical result set...
        assert results["a"] == results["b"] == serial
        # ...and the journal holds each point exactly once.
        final = RunJournal(path)
        assert len(final) == n
        assert len(path.read_text().splitlines()) == n
        assert final.dropped_lines == 0

    def test_second_executor_replays_instead_of_recomputing(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        first = RunJournal(path)
        ParallelExecutor(workers=0, journal=first).run(self._journal_tasks(6))

        executed = []

        def traced(x):
            executed.append(x)
            return x * x

        tasks = [
            Task(key=f"t{i}", fn=traced, args=(i,), journal_key=f"jk{i}")
            for i in range(6)
        ]
        second = RunJournal(path)
        outcomes = ParallelExecutor(workers=0, journal=second).run(tasks)
        assert executed == []  # pure replay
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert second.skipped == 6

    def test_sibling_progress_picked_up_mid_run(self, tmp_path):
        """An executor's per-task journal check sees entries a sibling
        process appended *after* this executor loaded the journal."""
        path = tmp_path / "shared.jsonl"
        mine = RunJournal(path)

        sibling = RunJournal(path)

        executed = []

        def traced(x):
            # While "running" task 0, a sibling finishes tasks 3..5.
            if x == 0:
                for i in (3, 4, 5):
                    sibling.record(f"jk{i}", i * i)
            executed.append(x)
            return x * x

        tasks = [
            Task(key=f"t{i}", fn=traced, args=(i,), journal_key=f"jk{i}")
            for i in range(6)
        ]
        outcomes = ParallelExecutor(workers=0, journal=mine).run(tasks)
        assert executed == [0, 1, 2]  # 3..5 replayed from the sibling
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
