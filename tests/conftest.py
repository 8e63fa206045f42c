"""Shared fixtures for the test suite.

Everything is seeded and sized for speed: the full suite must run in a
couple of minutes on one CPU core, so fixtures build the smallest
objects that still exercise real behaviour (e.g. a trained MLP rather
than an untrained one, a crossbar big enough to have interior 3x3
blocks).
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.crossbar import Crossbar
from repro.data import make_blobs, make_glyph_digits
from repro.device import DeviceConfig
from repro.mapping import MappedNetwork
from repro.nn import Activation, Adam, Dense, Sequential
from repro.training import TrainConfig, train_baseline


#: Seconds a test's child processes and threads get to finish on their own.
LEAK_GRACE_S = 2.0


@pytest.fixture(autouse=True)
def no_leaked_processes_or_threads():
    """Fail any test that leaves a child process or non-daemon thread alive.

    Whatever a test starts must be reaped before it returns; a straggler
    gets a short join grace, then counts as a leak.
    """
    procs_before = set(multiprocessing.active_children())
    threads_before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + LEAK_GRACE_S
    procs = [p for p in multiprocessing.active_children() if p not in procs_before]
    threads = [
        t
        for t in threading.enumerate()
        if t not in threads_before and not t.daemon
    ]
    for worker in procs + threads:
        worker.join(max(0.0, deadline - time.monotonic()))
    leaked = [w for w in procs + threads if w.is_alive()]
    if leaked:
        pytest.fail(f"test leaked live child processes/threads: {leaked!r}")


@pytest.fixture(scope="session")
def blob_dataset():
    """A small, linearly separable 3-class vector dataset."""
    return make_blobs(n_samples=240, n_classes=3, n_features=4, spread=0.4, seed=3)


@pytest.fixture(scope="session")
def glyph_dataset():
    """A small glyph-digit image dataset (10 classes, 12x12)."""
    return make_glyph_digits(n_train=300, n_test=100, seed=7)


@pytest.fixture(scope="session")
def trained_mlp(blob_dataset):
    """An MLP trained to high accuracy on the blob dataset."""
    model = Sequential(
        [Dense(16), Activation("relu"), Dense(3)],
        optimizer=Adam(0.01),
        seed=5,
    ).build((4,))
    train_baseline(model, blob_dataset, TrainConfig(epochs=25, l2_lambda=1e-4))
    return model


@pytest.fixture()
def device_config():
    """A deterministic (noise-free) device class with fast aging."""
    return DeviceConfig(pulses_to_collapse=100, write_noise=0.0, read_noise=0.0)


@pytest.fixture()
def noisy_device_config():
    """A device class with write noise and fast aging."""
    return DeviceConfig(pulses_to_collapse=100, write_noise=0.1, read_noise=0.01)


@pytest.fixture()
def small_crossbar(device_config):
    """A 9x9 deterministic crossbar (exactly 3x3 trace blocks)."""
    return Crossbar(9, 9, device_config, seed=11)


@pytest.fixture()
def mapped_mlp(trained_mlp, device_config):
    """The trained MLP mapped onto deterministic hardware (fresh map)."""
    network = MappedNetwork(trained_mlp, device_config, seed=13)
    network.map_network()
    return network


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
