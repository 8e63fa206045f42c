"""End-to-end workflow of the paper's Fig. 5.

:class:`AgingAwareFramework` glues the pieces: software training (plain
or skewed), hardware mapping (fresh or aging-aware), online tuning, and
the lifetime simulation — and runs the three Table-I scenarios on one
workload for a like-for-like comparison (each scenario gets its own
freshly seeded hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.executor import ParallelExecutor, ResultCache, Task, fingerprint
from repro.core.lifetime import LifetimeConfig, LifetimeSimulator
from repro.core.results import LifetimeResult, ScenarioComparison
from repro.core.scenarios import SCENARIOS, Scenario
from repro.data.dataset import Dataset
from repro.device.config import DeviceConfig
from repro.exceptions import ConfigurationError
from repro.mapping.aging_aware import AgingAwareMapper
from repro.mapping.network import MappedNetwork, clone_model
from repro.nn.model import Sequential
from repro.rng import SeedLike, derive_rng, ensure_rng
from repro.training.skewed import SkewedTrainingConfig, skewed_train
from repro.training.trainer import TrainConfig, train_baseline


@dataclass
class FrameworkConfig:
    """Everything the framework needs besides network and data."""

    device: DeviceConfig = field(default_factory=DeviceConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    skewed: SkewedTrainingConfig = field(default_factory=SkewedTrainingConfig)
    lifetime: LifetimeConfig = field(default_factory=LifetimeConfig)
    tile_rows: int = 128
    tile_cols: int = 128
    trace_block: int = 3
    #: Tuning-set size drawn from the training partition.
    tune_samples: int = 256
    #: Target accuracy rule: fraction of the software accuracy that
    #: online tuning must restore (overridden by an explicit
    #: ``lifetime.tuning.target_accuracy`` when ``absolute_target``).
    target_fraction: float = 0.95
    absolute_target: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction <= 1.0:
            raise ConfigurationError(
                f"target_fraction must be in (0, 1], got {self.target_fraction}"
            )
        if self.tune_samples < 1:
            raise ConfigurationError(f"tune_samples must be >= 1, got {self.tune_samples}")


class AgingAwareFramework:
    """Train → map → tune → simulate lifetime, per scenario."""

    def __init__(
        self,
        network_builder: Callable[[SeedLike], Sequential],
        dataset: Dataset,
        config: Optional[FrameworkConfig] = None,
        seed: SeedLike = None,
    ) -> None:
        self.network_builder = network_builder
        self.dataset = dataset
        self.config = config if config is not None else FrameworkConfig()
        # One fixed entropy value; every subsystem stream is derived
        # from (entropy, purpose-key) so results are independent of the
        # order in which scenarios are run.
        self._entropy = int(ensure_rng(seed).integers(0, 2**63 - 1))
        #: Trained models cached per training style so T+T and T+AT (or
        #: ST+T and ST+AT) share identical software weights.
        self._trained: Dict[bool, Sequential] = {}
        self._software_accuracy: Dict[bool, float] = {}

    # -- training ---------------------------------------------------------
    def trained_model(self, skewed: bool) -> Sequential:
        """Train (once) and cache the model for a training style."""
        if skewed not in self._trained:
            model = self.network_builder(derive_rng(self._entropy, f"train-{skewed}"))
            if skewed:
                skewed_train(model, self.dataset, self.config.skewed)
            else:
                train_baseline(model, self.dataset, self.config.train)
            self._trained[skewed] = model
            self._software_accuracy[skewed] = model.score(
                self.dataset.x_test, self.dataset.y_test
            )
        return self._trained[skewed]

    def software_accuracy(self, skewed: bool) -> float:
        """Test accuracy of the (cached) software model."""
        self.trained_model(skewed)
        return self._software_accuracy[skewed]

    # -- tuning set ----------------------------------------------------------
    def _tuning_set(self):
        n = min(self.config.tune_samples, self.dataset.n_train)
        return self.dataset.x_train[:n], self.dataset.y_train[:n]

    def _resolve_target(self, skewed: bool) -> float:
        if self.config.absolute_target:
            return self.config.lifetime.tuning.target_accuracy
        return self.config.target_fraction * self.software_accuracy(skewed)

    # -- scenario execution -----------------------------------------------------
    def _resolve_scenario(self, scenario: Scenario | str) -> Scenario:
        if isinstance(scenario, str):
            try:
                return SCENARIOS[scenario]
            except KeyError:
                raise ConfigurationError(
                    f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
                ) from None
        return scenario

    def scenario_cache_key(
        self, scenario: Scenario | str, repeat: int = 0, extra=None
    ) -> str:
        """Content-hash cache key of one scenario run.

        Covers everything the run depends on: the scenario, the repeat
        index, the framework entropy (which seeds training, hardware and
        tuning streams), the full configuration tree and the dataset
        arrays — so any change to any of them is a cache miss.

        ``extra`` carries additional run inputs (e.g. a fault schedule
        and degradation policy); it is folded into the key only when
        present, so plain scenario runs keep their historical keys.
        """
        scenario = self._resolve_scenario(scenario)
        parts = [
            "scenario-run/v1",
            scenario,
            int(repeat),
            self._entropy,
            self.config,
            self.dataset,
        ]
        if extra is not None:
            parts.append(extra)
        return fingerprint(*parts)

    def run_scenario(
        self,
        scenario: Scenario | str,
        repeat: int = 0,
        fault_schedule=None,
        degradation=None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir=None,
    ) -> LifetimeResult:
        """Run one scenario's full lifetime simulation.

        ``repeat`` selects an independent hardware/tuning seed stream
        (the trained software weights are shared across repeats);
        lifetime is a heavy-tailed quantity, so experiments should
        aggregate a few repeats — see :meth:`run_scenario_repeats`.
        This is a plain run: to consult a result cache or a journal,
        run :meth:`scenario_task` through a
        :class:`~repro.core.executor.ParallelExecutor`.

        ``fault_schedule`` (a :class:`repro.robustness.FaultSchedule`)
        injects field faults during the run; ``degradation`` (a
        :class:`repro.robustness.DegradationPolicy`) switches the
        graceful-degradation levers of tuning and mapping.

        ``checkpoint_every``/``checkpoint_dir`` make the lifetime run
        resumable (see :mod:`repro.core.checkpoint`): a durable snapshot
        lands after every N windows under the run id
        ``<scenario>-r<repeat>``; resume with
        :meth:`LifetimeSimulator.resume`.  Snapshots never affect the
        result, so cache keys are unchanged.
        """
        scenario = self._resolve_scenario(scenario)
        if repeat < 0:
            raise ConfigurationError(f"repeat must be >= 0, got {repeat}")
        cfg = self.config
        model = clone_model(self.trained_model(scenario.skewed_training))
        network = MappedNetwork(
            model,
            device_config=cfg.device,
            tile_rows=cfg.tile_rows,
            tile_cols=cfg.tile_cols,
            trace_block=cfg.trace_block,
            seed=derive_rng(self._entropy, f"hw-{scenario.key}-{repeat}"),
        )
        x_tune, y_tune = self._tuning_set()

        lifetime_cfg = cfg.lifetime.with_target(
            min(0.999, max(1e-6, self._resolve_target(scenario.skewed_training)))
        )
        if degradation is not None and degradation.mask_dead_devices:
            lifetime_cfg.tuning = replace(lifetime_cfg.tuning, mask_dead_devices=True)

        mapper = None
        if scenario.aging_aware_mapping:
            fault_aware = degradation is not None and degradation.fault_aware_mapping
            mapper = AgingAwareMapper(fault_aware=fault_aware)

        simulator = LifetimeSimulator(
            network,
            x_tune,
            y_tune,
            config=lifetime_cfg,
            aging_aware=scenario.aging_aware_mapping,
            mapper=mapper,
            seed=derive_rng(self._entropy, f"tune-{scenario.key}-{repeat}"),
            fault_schedule=fault_schedule,
        )
        # Stamped before the run (not patched on afterwards) so mid-run
        # snapshots carry it and a resumed run reports it identically.
        simulator.software_accuracy = self.software_accuracy(scenario.skewed_training)
        return simulator.run(
            scenario.key,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            run_id=f"{scenario.key}-r{repeat}",
        )

    def scenario_task(
        self,
        scenario: Scenario | str,
        repeat: int = 0,
        fault_schedule=None,
        degradation=None,
        keyed: bool = False,
        **checkpointing,
    ) -> Task:
        """Executor task for one :meth:`run_scenario` call.

        Every batch of runs — :meth:`compare`, :meth:`run_scenario_repeats`,
        fault campaigns, ``repro run`` — is a list of these run
        through one :class:`~repro.core.executor.ParallelExecutor`, which
        alone decides serial vs pooled execution and cache/journal use.

        ``keyed`` sets the task's content-hash key, :meth:`scenario_cache_key`
        with the fault schedule and degradation policy folded in when
        present; pass it only when a cache or journal will consult the
        key, since fingerprinting hashes the whole dataset.
        ``checkpointing`` (``checkpoint_every``/``checkpoint_dir``) is
        forwarded to :meth:`run_scenario`; it never changes the result,
        so it is not part of the key.
        """
        scenario = self._resolve_scenario(scenario)
        extra = (
            None
            if fault_schedule is None and degradation is None
            else ("robustness/v1", fault_schedule, degradation)
        )
        return Task(
            key=f"{scenario.key}#r{repeat}",
            fn=_ScenarioRun(
                self,
                scenario,
                repeat=repeat,
                fault_schedule=fault_schedule,
                degradation=degradation,
                **checkpointing,
            ),
            cache_key=(
                self.scenario_cache_key(scenario, repeat, extra=extra) if keyed else None
            ),
            encode=LifetimeResult.to_dict,
            decode=LifetimeResult.from_dict,
        )

    def run_scenario_repeats(
        self,
        scenario: Scenario | str,
        repeats: int = 3,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> list[LifetimeResult]:
        """Run ``repeats`` independent hardware instantiations.

        The software training is shared (cached); only the hardware and
        tuning randomness differ, mirroring one chip design deployed on
        several dies.  The repeats run through a
        :class:`~repro.core.executor.ParallelExecutor` with ``workers``
        and ``cache``; any worker count gives bit-identical results
        (every repeat's streams are derived from ``(entropy,
        purpose-key)``, never consumed from a shared generator).
        """
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        tasks = [
            self.scenario_task(scenario, i, keyed=cache is not None)
            for i in range(repeats)
        ]
        executor = ParallelExecutor(workers=workers, cache=cache)
        return [o.value for o in executor.run(tasks, reraise=True)]

    def compare(
        self,
        scenario_keys=("t+t", "st+t", "st+at"),
        repeats: int = 1,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
    ) -> ScenarioComparison:
        """Run several scenarios and collect a Table-I-style comparison.

        With ``repeats > 1`` each scenario's stored result is the one
        with the **median** lifetime among its repeats.  All (scenario,
        repeat) pairs form one batch for a
        :class:`~repro.core.executor.ParallelExecutor` with ``workers``
        and ``cache`` — with ``workers > 1`` they run concurrently, not
        scenario by scenario — and are reassembled in deterministic
        order, so the comparison is bit-identical at any worker count.
        """
        if repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
        scenarios = [self._resolve_scenario(k) for k in scenario_keys]
        tasks = [
            self.scenario_task(s, i, keyed=cache is not None)
            for s in scenarios
            for i in range(repeats)
        ]
        outcomes = ParallelExecutor(workers=workers, cache=cache).run(tasks, reraise=True)
        comparison = ScenarioComparison(workload=self.dataset.name)
        for j in range(len(scenarios)):
            results = [o.value for o in outcomes[j * repeats:(j + 1) * repeats]]
            results.sort(key=lambda r: r.lifetime_applications)
            comparison.add(results[len(results) // 2])
        return comparison


class _ScenarioRun:
    """Task body of :meth:`AgingAwareFramework.scenario_task`.

    A module-level callable so the executor can ship it to workers.
    Pickling it, which happens only when the executor ships it to a pool
    worker, first trains the scenario's software model in the parent, so
    every worker inherits the same weights instead of retraining (which
    would be bit-identical, since the training stream is derived from
    ``(entropy, "train-<style>")``, just wasteful).  A task served from the
    cache or the journal is never pickled and trains nothing.
    """

    def __init__(self, framework: AgingAwareFramework, scenario: Scenario, **kwargs):
        self.framework = framework
        self.scenario = scenario
        self.kwargs = kwargs

    def __call__(self) -> LifetimeResult:
        return self.framework.run_scenario(self.scenario, **self.kwargs)

    def __getstate__(self) -> dict:
        self.framework.trained_model(self.scenario.skewed_training)
        return self.__dict__
