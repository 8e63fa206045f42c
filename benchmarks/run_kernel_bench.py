"""Measure the kernel-layer speedups and prove result identity.

Two parts (see DESIGN.md §9):

* **batch** — exact IR-drop evaluation on a single conductance state
  (default 64x64, batch 32).  The legacy path assembled and
  sparse-factorized the full nodal system once **per input vector**;
  the kernel path factorizes once and answers the whole batch with one
  dense transfer product (:class:`repro.core.kernels.NodalSolver`).
  Target: >= 5x.  Batched, per-vector, and cached solves through the
  new kernels are asserted **bit-identical** (the einsum reduction is
  row-stable); the legacy ``spsolve`` reference is compared at machine
  precision (different factorization internals round differently).
* **reads** — a programmed crossbar answering a read-heavy workload
  with the state-version caches enabled vs disabled; outputs asserted
  bit-identical, speedup recorded.

Writes ``BENCH_kernels.json`` at the repository root and exits nonzero
if any mode diverges.

Usage::

    PYTHONPATH=src python benchmarks/run_kernel_bench.py

Environment overrides (CI smoke uses a reduced configuration):
``REPRO_KBENCH_SIZE`` (array side, default 64), ``REPRO_KBENCH_BATCH``
(default 32), ``REPRO_KBENCH_REPS`` (timing repetitions, default 5).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import numpy as np
from scipy.sparse.linalg import spsolve

from bench_history import append_history

from repro.core import set_cache_enabled
from repro.core.kernels import NodalSolver
from repro.crossbar import Crossbar
from repro.crossbar.parasitics import ParasiticModel, _assemble_nodal_system
from repro.device import DeviceConfig

SIZE = int(os.environ.get("REPRO_KBENCH_SIZE", "64"))
BATCH = int(os.environ.get("REPRO_KBENCH_BATCH", "32"))
REPS = int(os.environ.get("REPRO_KBENCH_REPS", "5"))
R_WIRE = 2.0


def legacy_exact_vmm(g: np.ndarray, v_batch: np.ndarray, r_wire: float) -> np.ndarray:
    """The pre-kernel exact path: assemble + spsolve per input vector."""
    rows, cols = g.shape
    g_wire = 1.0 / r_wire
    bottom = rows * cols + (rows - 1) * cols + np.arange(cols)
    out = []
    for v in v_batch:
        matrix, rhs = _assemble_nodal_system(g, v, g_wire)
        voltages = spsolve(matrix, rhs)
        out.append(voltages[bottom] * g_wire)
    return np.stack(out)


def bench_batch() -> dict:
    rng = np.random.default_rng(42)
    g = 1.0 / rng.uniform(1e3, 1e4, size=(SIZE, SIZE))
    v_batch = rng.uniform(0.0, 1.0, size=(BATCH, SIZE))

    # Legacy: factorize per vector.
    t0 = time.perf_counter()
    for _ in range(REPS):
        legacy = legacy_exact_vmm(g, v_batch, R_WIRE)
    t_legacy = (time.perf_counter() - t0) / REPS

    # Kernel, cold: build (assemble + factorize + transfer) every rep.
    t0 = time.perf_counter()
    for _ in range(REPS):
        batched = NodalSolver(g, R_WIRE).solve(v_batch)
    t_cold = (time.perf_counter() - t0) / REPS

    # Kernel, cached: factorization reused across reads (the state
    # between reprogramming events).
    solver = NodalSolver(g, R_WIRE)
    t0 = time.perf_counter()
    for _ in range(REPS):
        cached = solver.solve(v_batch)
    t_warm = (time.perf_counter() - t0) / REPS

    serial = np.stack([solver.solve(v) for v in v_batch])

    bitwise = (
        np.array_equal(batched, cached)
        and np.array_equal(batched, serial)
    )
    denom = np.maximum(np.abs(legacy), 1e-30)
    max_rel_diff = float(np.max(np.abs(batched - legacy) / denom))

    return {
        "array": f"{SIZE}x{SIZE}",
        "batch": BATCH,
        "repetitions": REPS,
        "legacy_per_vector_seconds": round(t_legacy, 5),
        "kernel_cold_seconds": round(t_cold, 5),
        "kernel_cached_seconds": round(t_warm, 5),
        "speedup_cold_vs_legacy": round(t_legacy / t_cold, 2),
        "speedup_cached_vs_legacy": round(t_legacy / t_warm, 2),
        "bitwise_identical_batched_serial_cached": bitwise,
        "max_rel_diff_vs_legacy_spsolve": max_rel_diff,
    }


def read_workload(xbar: Crossbar, v_batch: np.ndarray, model: ParasiticModel):
    """A read-heavy episode: ideal reads + exact IR-drop reads."""
    outs = [xbar.vmm(v_batch)]
    for _ in range(8):
        outs.append(xbar.vmm_ir_drop(v_batch, model, exact=True))
    outs.append(xbar.conductances().copy())
    return outs


def bench_reads() -> dict:
    model = ParasiticModel(r_wire=R_WIRE)
    rng = np.random.default_rng(7)
    v_batch = rng.uniform(0.0, 1.0, size=(BATCH, SIZE))
    targets = rng.uniform(2e3, 8e3, size=(SIZE, SIZE))

    def run(enabled: bool):
        prior = set_cache_enabled(enabled)
        try:
            xbar = Crossbar(SIZE, SIZE, DeviceConfig(), seed=11)
            xbar.program(targets)
            start = time.perf_counter()
            outs = []
            for _ in range(REPS):
                outs = read_workload(xbar, v_batch, model)
            return outs, (time.perf_counter() - start) / REPS
        finally:
            set_cache_enabled(prior)

    outs_on, t_on = run(True)
    outs_off, t_off = run(False)
    identical = all(
        np.array_equal(a, b) for a, b in zip(outs_on, outs_off)
    )
    return {
        "workload": "1 ideal vmm + 8 exact IR-drop vmms + 1 conductance "
        f"read, batch {BATCH}, per repetition",
        "repetitions": REPS,
        "cache_on_seconds": round(t_on, 5),
        "cache_off_seconds": round(t_off, 5),
        "speedup_cache_on_vs_off": round(t_off / t_on, 2),
        "bitwise_identical": identical,
    }


def main() -> int:
    repo_root = pathlib.Path(__file__).resolve().parent.parent

    batch = bench_batch()
    reads = bench_reads()

    identical = (
        batch["bitwise_identical_batched_serial_cached"]
        and reads["bitwise_identical"]
    )
    payload = {
        "benchmark": "hot-path kernels: cached factorization, batched nodal "
        "solves, state-versioned conductance caching",
        "cpu_count": os.cpu_count(),
        "exact_ir_drop_batch": batch,
        "cached_read_workload": reads,
        "results_identical_across_modes": identical,
        "target_batch_speedup": 5.0,
        "meets_batch_speedup_target": batch["speedup_cached_vs_legacy"] >= 5.0,
    }
    out = repo_root / "BENCH_kernels.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    append_history(
        repo_root,
        "kernels",
        {
            "speedup_cached_vs_legacy": batch["speedup_cached_vs_legacy"],
            "speedup_cache_on_vs_off": reads["speedup_cache_on_vs_off"],
            "results_identical": identical,
        },
    )
    if not identical:
        print("ERROR: kernel modes disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
