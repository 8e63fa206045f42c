"""Process-parallel execution engine with deterministic seeding and caching.

Every experiment in this repository — the Table-I scenario comparison,
per-scenario repeats and the ablation sweeps — decomposes into
independent *tasks* whose randomness is derived purely from an
``(entropy, purpose-key)`` pair (see :mod:`repro.rng`).  Because no task
consumes shared generator state, the set of results is independent of
execution order, which is exactly the property that makes process
parallelism safe: fanning tasks out across a
:class:`concurrent.futures.ProcessPoolExecutor` yields **bit-identical**
results to running them serially.  The equivalence is enforced by
``tests/core/test_executor.py``, not left to convention.

Three pieces live here:

* :func:`fingerprint` — a stable content hash of (nested) configs,
  datasets and arrays, used to build cache keys;
* :class:`ResultCache` — an on-disk JSON store keyed by fingerprint, so
  re-running an unchanged scenario configuration is instant;
* :class:`ParallelExecutor` — runs a list of :class:`Task` objects
  serially (``workers <= 1``) or across worker processes, consulting
  the cache first and capturing per-task failures.

Failure policy: every task runs once.  A raising task fails alone.  A
task that kills its worker process fails alone too: when the pool
breaks, every task whose result was lost is re-run by itself in a
one-worker pool, and only a task that breaks that pool again is charged
with the ``BrokenProcessPool`` error.  Retrying is left to the campaign
service (:class:`RetryPolicy` and the lease board), never done here.

Tasks are shipped to workers with :mod:`cloudpickle` when available, so
closures and lambdas (ubiquitous in presets and test fixtures) work;
plain :mod:`pickle` is the fallback.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.checkpoint import RunJournal

logger = logging.getLogger(__name__)

try:  # cloudpickle serializes lambdas/closures; stdlib pickle cannot.
    import cloudpickle as _serializer
except Exception:  # pragma: no cover - exercised only without cloudpickle
    import pickle as _serializer

#: Cache-format version; bump when payload semantics change.
CACHE_SCHEMA = 1

#: Sentinel distinguishing "cache miss" from a cached ``None`` payload.
_MISS = object()

#: Seconds a terminated pool worker gets to exit before it is killed.
_TERMINATE_GRACE_S = 5.0


# -- fingerprinting -----------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """JSON-ready canonical form of ``obj`` for stable hashing.

    Numpy arrays are folded to a digest of their bytes (shape/dtype
    included), dataclasses to their field dict, callables to a digest of
    their serialized form.  Objects with no stable representation fall
    back to ``repr`` — such keys are safe (they simply never match) but
    useless for caching, so config objects should be dataclasses.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)  # exact shortest round-trip, no JSON float quirks
    if isinstance(obj, np.generic):
        return _canonical(obj.item())
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return {"__ndarray__": digest, "dtype": str(obj.dtype), "shape": list(obj.shape)}
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj)},
        }
    if isinstance(obj, dict):
        return {"__dict__": sorted((str(k), _canonical(v)) for k, v in obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(repr(v) for v in obj)}
    if callable(obj):
        try:
            return {"__callable__": hashlib.sha256(_serializer.dumps(obj)).hexdigest()}
        except Exception:
            return {"__callable__": getattr(obj, "__qualname__", repr(obj))}
    return {"__repr__": repr(obj)}


def fingerprint(*parts: Any) -> str:
    """Stable SHA-256 hex digest of arbitrarily nested configuration.

    >>> fingerprint(1, "a") == fingerprint(1, "a")
    True
    >>> fingerprint(1, "a") == fingerprint(1, "b")
    False
    """
    blob = json.dumps(
        [_canonical(p) for p in parts], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- on-disk result cache -----------------------------------------------------
class ResultCache:
    """JSON file per cache key under one root directory.

    Payloads must be JSON-serializable (use ``Task.encode``/``decode``
    to convert rich results).  Corrupt or unreadable entries degrade to
    cache misses, never to errors — but they are *quarantined* (renamed
    to ``<key>.json.corrupt`` with a logged warning) rather than left in
    place, so recurring disk corruption stays visible instead of
    silently re-missing forever.
    """

    def __init__(self, root) -> None:
        import pathlib

        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries renamed aside since this cache was opened.
        self.quarantined = 0

    def path(self, key: str):
        return self.root / f"{key}.json"

    def get(self, key: str) -> Any:
        """Cached payload for ``key``, or the module-level miss sentinel."""
        from repro.io import load_json

        path = self.path(key)
        if not path.exists():
            self.misses += 1
            return _MISS
        try:
            entry = load_json(path)
            if entry.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"unknown cache schema {entry.get('schema')!r}")
            payload = entry["payload"]
        except Exception as exc:
            self.misses += 1
            self._quarantine(path, exc)
            return _MISS
        self.hits += 1
        return payload

    def _quarantine(self, path, exc: Exception) -> None:
        """Rename a corrupt entry aside so the damage stays observable."""
        quarantine = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantine)
        except OSError:  # pragma: no cover - raced/unwritable directory
            return
        self.quarantined += 1
        logger.warning(
            "quarantined corrupt cache entry %s -> %s (%s)",
            path.name,
            quarantine.name,
            exc,
        )

    def put(self, key: str, payload: Any) -> None:
        from repro.io import save_json_atomic

        save_json_atomic(
            {"schema": CACHE_SCHEMA, "key": key, "saved_unix": time.time(),
             "payload": payload},
            self.path(key),
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __bool__(self) -> bool:
        # An *empty* cache is still a cache: never let `if cache:`
        # silently disable caching through __len__.
        return True

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


# -- retry policy -------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff, for in-process calls.

    :meth:`call` re-runs a raising callable up to ``max_retries``
    further times; before the *n*-th retry it sleeps
    ``min(backoff_max, backoff_base * 2**(n-1))`` seconds.  The campaign
    service uses it for point execution and for its HTTP client; the
    :class:`ParallelExecutor` never retries.  Retries re-run the
    identical payload, so for derivation-seeded work a retried success
    is bit-identical to a first-attempt success — retrying can only
    recover *transient* infrastructure failures (flaky filesystem,
    dropped connection), never change a result.

    ``jitter`` (a fraction in ``[0, 1]``) spreads the delays of
    simultaneous retriers: the backoff is scaled by a factor drawn
    deterministically from ``(jitter_seed, token, failures)``, landing
    in ``[1 - jitter, 1]`` of the nominal delay.  Give each worker of a
    fleet a distinct ``jitter_seed`` (or pass a per-worker ``token`` to
    :meth:`delay`) so a shared-cache hiccup does not make every worker
    retry in lock-step — the thundering herd that knocked the cache
    over in the first place.  The schedule stays fully deterministic:
    the same (seed, token, failure count) always yields the same delay.
    """

    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_max: float = 5.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def _jitter_factor(self, failures: int, token: Optional[str]) -> float:
        blob = f"{self.jitter_seed}/{token}/{failures}".encode("utf-8")
        unit = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2.0**64
        return 1.0 - self.jitter * unit

    def delay(self, failures: int, token: Optional[str] = None) -> float:
        """Backoff before the retry following the ``failures``-th failure.

        ``token`` (e.g. a worker id or task key) decorrelates the jitter
        of concurrent retriers without sacrificing determinism.
        """
        if failures < 1:
            return 0.0
        base = min(self.backoff_max, self.backoff_base * (2.0 ** (failures - 1)))
        if self.jitter <= 0.0 or base <= 0.0:
            return base
        return base * self._jitter_factor(failures, token)

    def call(
        self,
        fn: Callable[[], Any],
        token: Optional[str] = None,
        retryable: Optional[Callable[[BaseException], bool]] = None,
    ) -> Any:
        """Run ``fn()`` with this policy's retry schedule applied.

        Shared by the service worker (point execution) and the HTTP
        client (transient network errors).  ``retryable`` filters
        which exceptions are worth another attempt — anything it
        rejects (or every exception, once ``max_retries`` is exhausted)
        propagates unchanged.
        """
        failures = 0
        while True:
            try:
                return fn()
            except Exception as exc:
                if retryable is not None and not retryable(exc):
                    raise
                failures += 1
                if failures > self.max_retries:
                    raise
                time.sleep(self.delay(failures, token=token))




# -- tasks --------------------------------------------------------------------
@dataclass
class Task:
    """One unit of work: ``fn(*args, **kwargs)``, optionally cached.

    ``key`` is a human-readable purpose key (also the outcome label);
    ``cache_key`` is the full content-hash key (``None`` disables
    caching for this task).  ``encode``/``decode`` convert the result to
    and from a JSON-serializable payload for the cache.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    cache_key: Optional[str] = None
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None
    #: Content-hash key under which a completed result is journaled
    #: (crash-safe resume of campaign/sweep grids); falls back to
    #: ``cache_key``.  ``None`` on both disables journaling for the task.
    journal_key: Optional[str] = None


@dataclass
class TaskOutcome:
    """Result of one task: a value or a captured error, never both."""

    key: str
    value: Any = None
    error: Optional[str] = None
    #: Time the task itself ran (0.0 when its worker process died).
    seconds: float = 0.0
    cached: bool = False
    #: True when the value was replayed from a crash-safe run journal.
    journaled: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


def adaptive_chunk_size(
    n_tasks: int,
    workers: int,
    oversubscribe: int = 4,
    max_chunk: int = 32,
) -> int:
    """Tasks per pool submission for an ``n_tasks``-point fan-out.

    One future per task pays serialization + IPC + scheduling per
    *point*; for large grids of short points that overhead eats the
    parallel win (BENCH_campaign's historical 0.99x).  Chunking
    amortizes it while still leaving each worker ``oversubscribe``
    chunks on average, so the tail of an uneven grid stays balanced.
    Small grids degrade to one point per task.
    """
    if n_tasks <= 0:
        return 1
    per_worker = max(1, workers) * max(1, oversubscribe)
    return max(1, min(max_chunk, -(-n_tasks // per_worker)))


def _run_task_chunk(blobs: List[bytes]) -> List[bytes]:
    """Worker-side trampoline: run a chunk of serialized tasks in order.

    Module-level so the stdlib pool can always pickle *it*; each task's
    ``(fn, args, kwargs)`` travels inside its blob via cloudpickle, and
    its entry travels back the same way: ``(True, value, seconds, None)``
    or ``(False, exception, seconds, traceback_text)``.  Failures are
    captured per task, so one raising task cannot poison its
    chunk-mates, and ``seconds`` times the task alone.  An exception
    that refuses to serialize is downgraded to a ``RuntimeError``
    carrying its repr, keeping the entry transportable.
    """
    out: List[bytes] = []
    for blob in blobs:
        start = time.perf_counter()
        try:
            fn, args, kwargs = _serializer.loads(blob)
            value = fn(*args, **kwargs)
            out.append(
                _serializer.dumps((True, value, time.perf_counter() - start, None))
            )
        except Exception as exc:
            seconds = time.perf_counter() - start
            text = traceback.format_exc(limit=8)
            exc.__traceback__ = None  # frames are not transportable
            try:
                _serializer.dumps(exc)
            except Exception:
                exc = RuntimeError(f"unserializable task exception: {exc!r}")
            out.append(_serializer.dumps((False, exc, seconds, text)))
    return out


# -- the executor -------------------------------------------------------------
class ParallelExecutor:
    """Run tasks serially or across processes, with identical results.

    ``workers <= 1`` runs in-process (the reference semantics);
    ``workers > 1`` fans out over a process pool.  Both paths execute
    the same task functions, and because every task derives its
    randomness from ``(entropy, purpose-key)`` the outputs are
    bit-identical.  Results are returned in task order regardless of
    completion order.

    Every task runs once.  In parallel mode the pending tasks are
    grouped into chunks of :func:`adaptive_chunk_size` (one task per
    chunk for small grids) and each chunk is one pool submission.  If a
    worker dies hard, chunks that already finished keep their results;
    every member of a lost chunk is a *suspect* and is re-run alone in a
    one-worker pool.  A suspect that breaks that pool is the crasher and
    fails with the ``BrokenProcessPool`` error; the pool is rebuilt for
    the next suspect, so the rebuilds are bounded by the suspects.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        journal: Optional["RunJournal"] = None,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.workers = int(workers)
        self.cache = cache
        #: Optional :class:`repro.core.checkpoint.RunJournal`.  Tasks
        #: whose journal key (``Task.journal_key`` or ``cache_key``) is
        #: already journaled are replayed without executing; completed
        #: tasks are appended durably as they finish, so a killed run
        #: re-executes only the points that never completed.
        self.journal = journal

    def run(self, tasks: Sequence[Task], reraise: bool = False) -> List[TaskOutcome]:
        """Execute all tasks; returns one outcome per task, in order.

        With ``reraise=False`` a failing task's exception is captured in
        its outcome's ``error`` (traceback text) and the other tasks
        still complete — including when a worker process dies, which
        surfaces as a ``BrokenProcessPool`` error on the task that
        killed it rather than a hang.  With ``reraise=True`` the first
        failure (in task order) propagates to the caller.
        """
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        pending: List[int] = []
        for idx, task in enumerate(tasks):
            payload = (
                self.cache.get(task.cache_key)
                if self.cache is not None and task.cache_key
                else _MISS
            )
            if payload is not _MISS:
                value = task.decode(payload) if task.decode else payload
                outcomes[idx] = TaskOutcome(task.key, value=value, cached=True)
                continue
            journal_key = self._journal_key(task)
            if journal_key is not None and journal_key in self.journal:
                payload = self.journal.get(journal_key)
                value = task.decode(payload) if task.decode else payload
                self.journal.skipped += 1
                outcomes[idx] = TaskOutcome(task.key, value=value, journaled=True)
                continue
            pending.append(idx)

        if pending:
            # workers > 1 always means worker processes — even for one
            # task — so a crashing task can never take the parent down.
            if self.workers > 1:
                self._run_parallel(tasks, pending, outcomes, reraise)
            else:
                self._run_serial(tasks, pending, outcomes, reraise)

        for idx in pending:
            task, outcome = tasks[idx], outcomes[idx]
            if outcome.ok and self.cache is not None and task.cache_key:
                payload = task.encode(outcome.value) if task.encode else outcome.value
                self.cache.put(task.cache_key, payload)
        return outcomes  # type: ignore[return-value]

    def _journal_key(self, task: Task) -> Optional[str]:
        if self.journal is None:
            return None
        return task.journal_key or task.cache_key

    def _journal_record(self, task: Task, value: Any) -> None:
        """Durably append a completed task.

        Called per task (serial) or once the pool round is collected
        (parallel), not after the whole ``run`` — the crash-safety
        granularity the journal exists for.
        """
        journal_key = self._journal_key(task)
        if journal_key is None:
            return
        payload = task.encode(value) if task.encode else value
        self.journal.record(journal_key, payload)

    def _journal_replay(self, task: Task) -> Optional[TaskOutcome]:
        """Re-check the (refreshed) journal for a concurrently completed task.

        The journal is shared state: with several executor processes
        draining the same grid, a sibling may have completed and
        journaled a point after this run() started.  Re-checking before
        executing turns the journal into a coarse work-sharing channel —
        late joiners skip instead of recomputing.
        """
        journal_key = self._journal_key(task)
        if journal_key is None:
            return None
        self.journal.refresh()
        if journal_key not in self.journal:
            return None
        payload = self.journal.get(journal_key)
        value = task.decode(payload) if task.decode else payload
        self.journal.skipped += 1
        return TaskOutcome(task.key, value=value, journaled=True)

    def _run_serial(self, tasks, pending, outcomes, reraise) -> None:
        for idx in pending:
            task = tasks[idx]
            replayed = self._journal_replay(task)
            if replayed is not None:
                outcomes[idx] = replayed
                continue
            start = time.perf_counter()
            try:
                value = task.fn(*task.args, **task.kwargs)
            except Exception:
                if reraise:
                    raise
                outcomes[idx] = TaskOutcome(
                    task.key,
                    error=traceback.format_exc(limit=8),
                    seconds=time.perf_counter() - start,
                )
                continue
            outcomes[idx] = TaskOutcome(
                task.key, value=value, seconds=time.perf_counter() - start
            )
            self._journal_record(task, value)

    # -- parallel path ----------------------------------------------------
    def _make_pool(self, n_chunks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=min(self.workers, max(1, n_chunks)))

    @staticmethod
    def _destroy_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a broken pool down without blocking.

        Worker processes are terminated explicitly: after one worker
        dies, its siblings may still be busy with chunks whose results
        are already lost, and ``shutdown`` alone would leave them
        running until interpreter exit.  The process table is
        snapshotted first because ``shutdown`` drops it; survivors of
        ``terminate`` are killed after a short grace.
        """
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already gone
                pass
        deadline = time.monotonic() + _TERMINATE_GRACE_S
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - ignored SIGTERM
                proc.kill()
                proc.join()
        manager = getattr(pool, "_executor_manager_thread", None)
        if manager is not None:
            manager.join(_TERMINATE_GRACE_S)

    @staticmethod
    def _submit(pool: ProcessPoolExecutor, tasks, chunk: List[int]) -> Future:
        blobs = [
            _serializer.dumps((tasks[i].fn, tasks[i].args, tasks[i].kwargs))
            for i in chunk
        ]
        try:
            return pool.submit(_run_task_chunk, blobs)
        except BrokenExecutor as exc:  # the pool died while still submitting
            future: Future = Future()
            future.set_exception(exc)
            return future

    def _collect(self, pool, tasks, chunks, entries) -> List[int]:
        """Submit every chunk to ``pool`` and wait for all of them.

        Fills ``entries`` with one :func:`_run_task_chunk` entry per
        task.  Returns the members of chunks lost to a broken pool (each
        entered as failed with the pool's error) after destroying the
        pool; a healthy pool is left running for the caller.
        """
        lost: List[int] = []
        try:
            futures = [self._submit(pool, tasks, chunk) for chunk in chunks]
            for chunk, future in zip(chunks, futures):
                try:
                    raws = future.result()
                except BrokenExecutor as exc:
                    lost.extend(chunk)
                    text = "".join(traceback.format_exception(exc))
                    entries.update((idx, (False, exc, 0.0, text)) for idx in chunk)
                    continue
                for idx, raw in zip(chunk, raws):
                    entries[idx] = _serializer.loads(raw)
        except BaseException:
            self._destroy_pool(pool)
            raise
        if lost:
            self._destroy_pool(pool)
        return lost

    def _run_parallel(self, tasks, pending, outcomes, reraise) -> None:
        todo: List[int] = []
        for idx in pending:
            # Work sharing: skip tasks a sibling executor journaled
            # since this run() started.
            replayed = self._journal_replay(tasks[idx])
            if replayed is None:
                todo.append(idx)
            else:
                outcomes[idx] = replayed
        if not todo:
            return
        size = adaptive_chunk_size(len(todo), self.workers)
        chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
        entries: Dict[int, Tuple[bool, Any, float, Optional[str]]] = {}
        pool = self._make_pool(len(chunks))
        suspects = self._collect(pool, tasks, chunks, entries)
        if suspects:
            logger.warning(
                "worker pool broke; re-running %d suspect task(s) one at a time",
                len(suspects),
            )
        else:
            pool.shutdown(wait=True)
        pool = None
        for idx in suspects:
            pool = pool or self._make_pool(1)
            if self._collect(pool, tasks, [[idx]], entries):
                pool = None  # broke a pool alone: the crasher keeps its error
        if pool is not None:
            pool.shutdown(wait=True)

        first_error: Optional[BaseException] = None
        for idx in todo:
            task = tasks[idx]
            ok, result, seconds, text = entries[idx]
            if ok:
                outcomes[idx] = TaskOutcome(task.key, value=result, seconds=seconds)
                self._journal_record(task, result)
                continue
            if first_error is None:
                first_error = result
            outcomes[idx] = TaskOutcome(task.key, error=text, seconds=seconds)
        if reraise and first_error is not None:
            raise first_error
