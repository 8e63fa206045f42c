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
  serially (``workers <= 1``) or across worker processes.  It is the one
  place that makes that choice, and the one place that consults and
  fills the result cache and the run journal, captures per-task
  failures and captures per-task perf counters.

Every executed task runs under a :data:`~repro.core.profiling.PROFILER`
capture whose :class:`~repro.core.profiling.PerfDelta` comes back as
:attr:`TaskOutcome.perf`.  A pool worker ships its delta back with the
task's result and the parent merges it into its own ``PROFILER``, so a
parent's counters account for pooled work exactly as for serial work
(serial deltas are already in the parent's registry and are not merged
again).  Cached and journal-replayed tasks execute nothing and carry no
perf.

Failure policy: every task runs once.  A raising task fails alone.  A
task that kills its worker process fails alone too: when the pool
breaks, every task whose result was lost is re-run by itself in a
one-worker pool, and only a task that breaks that pool again is charged
with the ``BrokenProcessPool`` error.  Nothing is retried.

Crash safety: each completed task's result is cached and journaled as
soon as it comes back (per task serially, per pool submission in
parallel), so neither a failing sibling task nor a killed parent loses
completed work; and every pool worker exits on its own once its parent
is gone, so a killed parent leaves no orphaned workers.

Tasks are shipped to workers with :mod:`cloudpickle` when available, so
closures and lambdas (ubiquitous in presets and test fixtures) work;
plain :mod:`pickle` is the fallback.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
import traceback
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.profiling import PROFILER, PerfDelta
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

#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_S = 0.5


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


# -- tasks --------------------------------------------------------------------
@dataclass
class Task:
    """One unit of work: ``fn(*args, **kwargs)``, optionally cached.

    ``key`` is a human-readable purpose key (also the outcome label);
    ``cache_key`` is the full content-hash key under which the result is
    cached and journaled, in whichever of the two stores the executor
    has (``None`` disables both for this task).  ``encode``/``decode``
    convert the result to and from a JSON-serializable payload.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    cache_key: Optional[str] = None
    encode: Optional[Callable[[Any], Any]] = None
    decode: Optional[Callable[[Any], Any]] = None


@dataclass
class TaskOutcome:
    """Result of one task: a value or a captured error, never both."""

    key: str
    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    #: True when the value was replayed from a crash-safe run journal.
    journaled: bool = False
    #: Perf counters captured around the task's execution, wherever it
    #: ran; ``None`` when nothing executed (cache hit, journal replay)
    #: or the task's worker process died.
    perf: Optional[PerfDelta] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def seconds(self) -> float:
        """Time the task itself ran (0.0 when it did not execute)."""
        return self.perf.elapsed_s if self.perf is not None else 0.0


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


def _exit_with_parent() -> None:
    """Pool initializer: end this worker once its parent process is gone.

    A parent killed by SIGKILL cannot shut its pool down, and the
    orphaned workers would be reparented and keep running.  A daemon
    thread polls ``os.getppid()`` and exits the worker as soon as it
    changes.  The parent is the pid seen at start-up, so the check also
    holds for start methods whose workers are forked by a helper.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _execute(
    fn: Callable[..., Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[bool, Any, Optional[str], PerfDelta]:
    """Run one task under a ``PROFILER`` capture, on either path.

    Returns the entry ``(True, value, None, perf)`` or ``(False,
    exception, traceback_text, perf)``; the exception keeps its
    traceback so a serial ``reraise`` shows where it came from.
    """
    with PROFILER.capture() as perf:
        try:
            return True, fn(*args, **(kwargs or {})), None, perf
        except Exception as exc:
            return False, exc, traceback.format_exc(limit=8), perf


def _call_serialized(blob: bytes) -> Any:
    fn, args, kwargs = _serializer.loads(blob)
    return fn(*args, **kwargs)


def _run_task_chunk(blobs: List[bytes]) -> List[bytes]:
    """Worker-side trampoline: run a chunk of serialized tasks in order.

    Module-level so the stdlib pool can always pickle *it*; each task's
    ``(fn, args, kwargs)`` travels inside its blob via cloudpickle, and
    its :func:`_execute` entry — perf delta included — travels back the
    same way.  Failures are captured per task, so one raising task
    cannot poison its chunk-mates.  An exception that refuses to
    serialize is downgraded to a ``RuntimeError`` carrying its repr,
    keeping the entry transportable.
    """
    out: List[bytes] = []
    for blob in blobs:
        ok, result, text, perf = _execute(_call_serialized, (blob,))
        if not ok:
            result.__traceback__ = None  # frames are not transportable
            try:
                _serializer.dumps(result)
            except Exception:
                result = RuntimeError(f"unserializable task exception: {result!r}")
        out.append(_serializer.dumps((ok, result, text, perf)))
    return out


def _outcome(task: Task, entry: Tuple[bool, Any, Optional[str], Any]) -> TaskOutcome:
    ok, result, text, perf = entry
    if ok:
        return TaskOutcome(task.key, value=result, perf=perf)
    return TaskOutcome(task.key, error=text, perf=perf)


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
    Successful results are cached and journaled chunk by chunk as they
    come back, and pool workers exit when their parent dies.
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
        #: whose ``cache_key`` is already journaled are replayed without
        #: executing; completed tasks are appended durably as they
        #: finish, so a killed run re-executes only the points that
        #: never completed.
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
            if payload is _MISS:
                pending.append(idx)  # journal replay is checked per task
                continue
            value = task.decode(payload) if task.decode else payload
            outcomes[idx] = TaskOutcome(task.key, value=value, cached=True)

        if pending:
            # workers > 1 always means worker processes — even for one
            # task — so a crashing task can never take the parent down.
            if self.workers > 1:
                self._run_parallel(tasks, pending, outcomes, reraise)
            else:
                self._run_serial(tasks, pending, outcomes, reraise)
        return outcomes  # type: ignore[return-value]

    def _store(self, task: Task, value: Any) -> None:
        """Cache and journal one completed task.

        Called per task (serial) or per chunk as its pool submission
        comes back (parallel), never after the whole ``run``: a failing
        sibling task or a killed run loses no completed result.
        """
        if task.cache_key is None:
            return
        payload = task.encode(value) if task.encode else value
        if self.cache is not None:
            self.cache.put(task.cache_key, payload)
        if self.journal is not None:
            self.journal.record(task.cache_key, payload)

    def _journal_replay(self, task: Task) -> Optional[TaskOutcome]:
        """Replay ``task`` if the journal, refreshed first, holds it.

        The journal is shared state: with several executor processes
        draining the same grid, a sibling may have completed and
        journaled a point after this run() started.  Checking right
        before executing turns the journal into a coarse work-sharing
        channel — late joiners skip instead of recomputing.
        """
        if self.journal is None or task.cache_key is None:
            return None
        self.journal.refresh()
        if task.cache_key not in self.journal:
            return None
        payload = self.journal.get(task.cache_key)
        self.journal.skipped += 1
        value = task.decode(payload) if task.decode else payload
        return TaskOutcome(task.key, value=value, journaled=True)

    def _run_serial(self, tasks, pending, outcomes, reraise) -> None:
        for idx in pending:
            task = tasks[idx]
            replayed = self._journal_replay(task)
            if replayed is not None:
                outcomes[idx] = replayed
                continue
            entry = _execute(task.fn, task.args, task.kwargs)
            ok, result = entry[:2]
            if not ok and reraise:
                raise result
            outcomes[idx] = _outcome(task, entry)
            if ok:
                self._store(task, result)

    # -- parallel path ----------------------------------------------------
    def _make_pool(self, n_chunks: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, n_chunks)),
            initializer=_exit_with_parent,
        )

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
        task, merging each task's perf delta into ``PROFILER`` and
        storing each chunk's successes as soon as that chunk comes
        back.  Returns the members of chunks lost to a broken pool
        (each entered as failed with the pool's error) after destroying
        the pool; a healthy pool is left running for the caller.
        """
        lost: List[int] = []
        try:
            futures = {self._submit(pool, tasks, chunk): chunk for chunk in chunks}
            for future in as_completed(futures):
                chunk = futures[future]
                try:
                    raws = future.result()
                except BrokenExecutor as exc:
                    lost.extend(chunk)
                    text = "".join(traceback.format_exception(exc))
                    entries.update((idx, (False, exc, text, None)) for idx in chunk)
                    continue
                for idx, raw in zip(chunk, raws):
                    entries[idx] = ok, result, _, perf = _serializer.loads(raw)
                    PROFILER.merge(perf)
                    if ok:
                        self._store(tasks[idx], result)
        except BaseException:
            self._destroy_pool(pool)
            raise
        if lost:
            self._destroy_pool(pool)
        return sorted(lost)  # task order, whatever order chunks broke in

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
        entries: Dict[int, Tuple[bool, Any, Optional[str], Optional[PerfDelta]]] = {}
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

        for idx in todo:
            ok, result = entries[idx][:2]
            if not ok and reraise:
                raise result  # the first failure in task order
            outcomes[idx] = _outcome(tasks[idx], entries[idx])
