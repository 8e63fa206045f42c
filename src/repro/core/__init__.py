"""The paper's contribution: the aging-aware lifetime framework.

* :class:`Scenario` — the three evaluation pipelines of Table I:
  ``T+T`` (traditional training + tuning), ``ST+T`` (skewed training +
  tuning) and ``ST+AT`` (skewed training + aging-aware mapping +
  tuning).
* :class:`LifetimeSimulator` — drives a mapped network through
  application windows (inference → drift → remap → online tune) until
  the tuning budget is exceeded: the crossbar's end of life.
* :class:`AgingAwareFramework` — the Fig. 5 workflow glue: train, map,
  simulate, compare scenarios.
* :class:`ParallelExecutor` / :class:`ResultCache` — the process-parallel
  execution engine with deterministic seeding and on-disk caching that
  scenario comparisons, repeats and sweeps fan out through.
* :class:`NodalSolver` / :class:`FactorizationCache` / :data:`PROFILER`
  — the hot-path kernel layer (cached sparse factorization, batched
  nodal solves) and its perf counters (DESIGN.md §9).
* :class:`CheckpointManager` / :class:`RunJournal` — durable
  checkpoint/resume for lifetime runs and crash-safe journaling of
  campaign/sweep grids (DESIGN.md §10).
* :func:`vectorized_enabled` / :func:`set_vectorized_enabled` — switch
  between the vectorized lifetime hot loop and the scalar reference
  path (``REPRO_SCALAR_TUNER``, DESIGN.md §11).
"""

from repro.core.checkpoint import (
    CheckpointInfo,
    CheckpointManager,
    RunJournal,
    inspect_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.executor import (
    ParallelExecutor,
    ResultCache,
    RetryPolicy,
    Task,
    TaskOutcome,
    adaptive_chunk_size,
    fingerprint,
)
from repro.core.fastpath import set_vectorized_enabled, vectorized_enabled
from repro.core.framework import AgingAwareFramework, FrameworkConfig
from repro.core.kernels import (
    FactorizationCache,
    NodalSolver,
    cache_enabled,
    set_cache_enabled,
)
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.core.profiling import PROFILER, PerfDelta, PerfRegistry
from repro.core.presets import (
    PRESETS,
    ExperimentPreset,
    blobs_mini,
    lenet_glyphs,
    vggnet_shapes,
)
from repro.core.results import LifetimeResult, ScenarioComparison, WindowRecord
from repro.core.scenarios import SCENARIOS, Scenario
from repro.core.sweep import Sweep, SweepPoint, SweepResult

__all__ = [
    "AgingAwareFramework",
    "CheckpointInfo",
    "CheckpointManager",
    "ExperimentPreset",
    "FactorizationCache",
    "FrameworkConfig",
    "LifetimeConfig",
    "LifetimeResult",
    "LifetimeSimulator",
    "NodalSolver",
    "PRESETS",
    "PROFILER",
    "ParallelExecutor",
    "PerfDelta",
    "PerfRegistry",
    "ResultCache",
    "RetryPolicy",
    "RunJournal",
    "SCENARIOS",
    "Scenario",
    "ScenarioComparison",
    "Sweep",
    "SweepPoint",
    "SweepResult",
    "Task",
    "TaskOutcome",
    "WindowRecord",
    "adaptive_chunk_size",
    "blobs_mini",
    "cache_enabled",
    "fingerprint",
    "inspect_checkpoint",
    "lenet_glyphs",
    "load_checkpoint",
    "save_checkpoint",
    "set_cache_enabled",
    "set_vectorized_enabled",
    "vectorized_enabled",
    "vggnet_shapes",
]
