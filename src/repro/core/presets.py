"""Calibrated experiment presets shared by benchmarks and examples.

The paper's two test cases are LeNet-5/Cifar10 and VGG-16/Cifar100.
This module pins down their scaled-down counterparts (see DESIGN.md §2)
with parameters calibrated so that, on one CPU core:

* the software models train to useful accuracy in seconds–minutes;
* the T+T baseline fails within tens of application windows;
* the ST+T and ST+AT scenarios clearly outlive it (the Table I shape).

``fast=True`` variants shrink everything further for test-suite use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.framework import FrameworkConfig
from repro.core.lifetime import LifetimeConfig
from repro.data.dataset import Dataset
from repro.data.glyphs import make_glyph_digits
from repro.data.shapes import make_textured_shapes
from repro.data.synthetic import make_blobs
from repro.device.config import DeviceConfig
from repro.nn.model import Sequential
from repro.rng import SeedLike
from repro.training.networks import build_lenet, build_mlp, build_vggnet
from repro.training.skewed import SkewedTrainingConfig
from repro.training.trainer import TrainConfig
from repro.tuning.online import TuningConfig


@dataclass
class ExperimentPreset:
    """A named, reproducible workload: dataset + network + config."""

    name: str
    make_dataset: Callable[[], Dataset]
    build_network: Callable[[SeedLike], Sequential]
    framework_config: FrameworkConfig
    #: Seed for the framework (training + hardware instantiation).
    seed: int = 42


def _device(pulses_to_collapse: float = 30.0) -> DeviceConfig:
    """The compressed-endurance device class used in the experiments.

    Real RRAM endurance is 1e5–1e10 pulses; simulating that many
    maintenance windows is pointless, so endurance is compressed while
    keeping every mechanism (per-pulse current-dependent stress, level
    loss from the top, tuning spiral) intact.  Lifetime *ratios* — what
    the paper reports — are preserved (DESIGN.md §2).
    """
    return DeviceConfig(pulses_to_collapse=pulses_to_collapse, write_noise=0.1, n_levels=32)


def lenet_glyphs(fast: bool = False) -> ExperimentPreset:
    """The LeNet-5/Cifar10 role: small CNN on the glyph-digit task."""
    if fast:
        cfg = FrameworkConfig(
            device=_device(18),
            train=TrainConfig(epochs=20),
            skewed=SkewedTrainingConfig(pretrain=TrainConfig(epochs=20), skew_epochs=15),
            lifetime=LifetimeConfig(
                apps_per_window=10_000,
                drift_magnitude=0.05,
                max_windows=200,
                tuning=TuningConfig(max_iterations=100, batch_size=64, patience_evals=10),
            ),
            tune_samples=192,
            target_fraction=0.92,
        )
        return ExperimentPreset(
            name="lenet-glyphs-fast",
            make_dataset=lambda: make_glyph_digits(n_train=1200, n_test=300, seed=11),
            build_network=lambda seed: build_lenet(seed=seed),
            framework_config=cfg,
        )
    cfg = FrameworkConfig(
        device=_device(30),
        train=TrainConfig(epochs=20),
        skewed=SkewedTrainingConfig(pretrain=TrainConfig(epochs=20), skew_epochs=20),
        lifetime=LifetimeConfig(
            apps_per_window=10_000,
            drift_magnitude=0.05,
            max_windows=500,
            tuning=TuningConfig(max_iterations=150, batch_size=64, patience_evals=12),
        ),
        tune_samples=256,
        target_fraction=0.93,
    )
    return ExperimentPreset(
        name="lenet-glyphs",
        make_dataset=lambda: make_glyph_digits(n_train=1200, n_test=300, seed=11),
        build_network=lambda seed: build_lenet(seed=seed),
        framework_config=cfg,
    )


def vggnet_shapes(fast: bool = False) -> ExperimentPreset:
    """The VGG-16/Cifar100 role: deeper CNN on the textured-shapes task."""
    if fast:
        cfg = FrameworkConfig(
            device=_device(12),
            train=TrainConfig(epochs=3),
            skewed=SkewedTrainingConfig(pretrain=TrainConfig(epochs=3), skew_epochs=3),
            lifetime=LifetimeConfig(
                apps_per_window=10_000,
                drift_magnitude=0.05,
                max_windows=25,
                tuning=TuningConfig(
                    max_iterations=60, batch_size=48, eval_every=2, patience_evals=6
                ),
            ),
            tune_samples=96,
            target_fraction=0.9,
        )
        return ExperimentPreset(
            name="vggnet-shapes-fast",
            make_dataset=lambda: make_textured_shapes(n_train=600, n_test=200, seed=21),
            build_network=lambda seed: build_vggnet(width=6, seed=seed),
            framework_config=cfg,
        )
    cfg = FrameworkConfig(
        device=_device(30),
        train=TrainConfig(epochs=10),
        # The paper sets lambda1 = lambda2 for its (much larger) VGG-16;
        # on this scaled-down VGG the symmetric penalty fails to place
        # the weight mass at the low end of the range, so the asymmetric
        # setting is used here as well — it keeps (indeed improves)
        # accuracy while producing the required skew.  See
        # EXPERIMENTS.md (Table II) for the measured sweep.
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=5e-2,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=10),
            skew_epochs=8,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=10_000,
            drift_magnitude=0.05,
            max_windows=300,
            tuning=TuningConfig(
                max_iterations=150, batch_size=64, eval_every=2, patience_evals=10
            ),
        ),
        tune_samples=192,
        target_fraction=0.93,
    )
    return ExperimentPreset(
        name="vggnet-shapes",
        make_dataset=lambda: make_textured_shapes(n_train=2000, n_test=400, seed=21),
        build_network=lambda seed: build_vggnet(seed=seed),
        framework_config=cfg,
    )


def blobs_mini(fast: bool = False) -> ExperimentPreset:
    """Miniature MLP-on-blobs workload for service/bench smoke runs.

    Matches the campaign benchmark's workload: lifetimes are seconds,
    not minutes, so multi-worker service campaigns and CI smoke jobs
    can drain real grids end-to-end.  ``fast=True`` shrinks the horizon
    further for the test suite.
    """
    if fast:
        cfg = FrameworkConfig(
            device=DeviceConfig(pulses_to_collapse=30, write_noise=0.1),
            train=TrainConfig(epochs=6),
            skewed=SkewedTrainingConfig(
                beta_scale=-1.0,
                lambda1=0.05,
                lambda2=1e-3,
                pretrain=TrainConfig(epochs=6),
                skew_epochs=4,
            ),
            lifetime=LifetimeConfig(
                apps_per_window=1000,
                max_windows=8,
                tuning=TuningConfig(max_iterations=25),
            ),
            tune_samples=96,
            target_fraction=0.9,
        )
        return ExperimentPreset(
            name="blobs-mini-fast",
            make_dataset=lambda: make_blobs(
                n_samples=240, n_classes=3, n_features=6, spread=0.4, seed=3
            ),
            build_network=lambda seed: build_mlp(6, 3, hidden=(24,), seed=seed),
            framework_config=cfg,
            seed=7,
        )
    cfg = FrameworkConfig(
        device=DeviceConfig(pulses_to_collapse=30, write_noise=0.1),
        train=TrainConfig(epochs=15),
        skewed=SkewedTrainingConfig(
            beta_scale=-1.0,
            lambda1=0.05,
            lambda2=1e-3,
            pretrain=TrainConfig(epochs=15),
            skew_epochs=8,
        ),
        lifetime=LifetimeConfig(
            apps_per_window=1000,
            max_windows=30,
            tuning=TuningConfig(max_iterations=40),
        ),
        tune_samples=160,
        target_fraction=0.92,
    )
    return ExperimentPreset(
        name="blobs-mini",
        make_dataset=lambda: make_blobs(
            n_samples=400, n_classes=3, n_features=6, spread=0.4, seed=3
        ),
        build_network=lambda seed: build_mlp(6, 3, hidden=(24,), seed=seed),
        framework_config=cfg,
        seed=7,
    )


PRESETS = {
    "blobs-mini": blobs_mini,
    "lenet-glyphs": lenet_glyphs,
    "vggnet-shapes": vggnet_shapes,
}
