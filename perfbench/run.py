"""Host time of lifetime runs to failure, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload lenet-stat --seed 0 --seconds 20 --trace 0

A workload is a preset and a scenario (:data:`WORKLOADS`).  One
invocation is a closed loop in a single process with BLAS pinned to one
thread:

1. It refuses to run off the production default path (scalar tuner,
   non-numpy backend, chaos injection, disabled value caches).
2. ``--trace 0``: it sets the workload up :data:`SETUP_REPEATS` times
   (dataset plus training of the model the scenario needs) and reports
   the median as ``setup_s``.  It then runs
   ``AgingAwareFramework.run_scenario`` to failure once per repeat of
   the seed's run set, and repeats whole passes over that set while the
   next pass still fits in ``--seconds``.  Training is never timed as
   part of a run.  The timed figures are rates per simulated event
   (see :func:`phase_metrics`), so they do not depend on how long the
   seed's hardware happens to live.
3. ``--trace 1``: it sets up once under tracing, then runs the first
   half of the seed's run set twice each, once untraced and once with
   every layer entry point wrapped (see ``spans.py``), alternating which
   goes first.  The per-layer metrics come from the traced runs; the
   untraced twins give ``run_s``, the window percentiles and, against
   the traced runs, ``trace.overhead_pct``.

The seed selects the hardware and tuning streams: seed ``n`` runs the
repeats ``n*runs .. n*runs+runs-1`` of ``run_scenario``.  Training is
fixed by the preset, so every seed shares one trained model.

Every run is checked.  It must end in failure before the window
horizon; its result digest, and the trained-weight digest, must equal
``references.json`` where that file holds the seed; its simulated
statistics and ``PROFILER`` counts must repeat exactly wherever the
same repeat runs again, traced or not.  A run that raises or fails a
check counts in ``failed``.  The last stdout line is the result JSON;
the environment, per-run figures and span dumps land in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"

SETUP_REPEATS = 3
#: Window horizon of every workload.  ``vggnet-shapes-fast`` stops at
#: 25 windows, which some hardware repeats outlive; a run must end in
#: failure, and the horizon does not change any window before it.
MAX_WINDOWS = 500
MIN_ATTRIBUTED_PCT = 95.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: PROFILER counters that must repeat exactly between runs of one repeat.
COUNTERS = (
    "tuning.iterations",
    "tuning.pulses",
    "programming.batched",
    "network.effective_model_reuse",
    "network.hardware_reads",
)
_TRUTHY = ("1", "true", "yes", "on")
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    preset: str
    fast: bool
    scenario: str
    #: Lifetime runs (hardware repeats) per pass.
    runs: int

    def repeats(self, seed: int) -> list:
        return [seed * self.runs + j for j in range(self.runs)]


WORKLOADS = {
    "lenet-stat": Workload("lenet-glyphs", False, "st+at", 2),
    "lenet-tt": Workload("lenet-glyphs", False, "t+t", 6),
    "vgg-tt": Workload("vggnet-shapes", True, "t+t", 3),
}

#: Per-layer time metrics: (span name, "total_s" inclusive | "self_s").
LAYER_TIMES = {
    "mapping.at_score_s": ("mapping.select", "total_s"),
    "mapping.map_s": ("mapping.map", "self_s"),
    "mapping.program_s": ("mapping.program", "self_s"),
    "mapping.read_s": ("mapping.read", "self_s"),
    "tuning.tune_s": ("tuning.tune", "total_s"),
    "tuning.eval_s": ("tuning.eval", "total_s"),
    "tuning.grad_s": ("tuning.grad", "total_s"),
    "tuning.sweep_s": ("tuning.sweep", "total_s"),
    "nn.forward_s": ("nn.forward", "total_s"),
    "nn.backward_s": ("nn.backward", "total_s"),
    "nn.conv2d.forward_s": ("nn.Conv2D.forward", "self_s"),
    "nn.conv2d.backward_s": ("nn.Conv2D.backward", "self_s"),
    "nn.maxpool2d.forward_s": ("nn.MaxPool2D.forward", "self_s"),
    "nn.maxpool2d.backward_s": ("nn.MaxPool2D.backward", "self_s"),
    "nn.dense.forward_s": ("nn.Dense.forward", "self_s"),
    "nn.dense.backward_s": ("nn.Dense.backward", "self_s"),
    "nn.activation.forward_s": ("nn.Activation.forward", "self_s"),
    "crossbar.drift_s": ("crossbar.drift", "self_s"),
    "crossbar.pulse_s": ("crossbar.pulse", "self_s"),
    "crossbar.read_s": ("crossbar.read", "self_s"),
    "crossbar.aged_bounds_s": ("crossbar.aged_bounds", "self_s"),
}
#: Per-layer counts: metric -> PROFILER counter or tracer count.
LAYER_COUNTS = {
    "mapping.at_candidates": "mapping.at_candidates",
    "mapping.program_pulses": "programming.batched",
    "tuning.iterations": "tuning.iterations",
    "tuning.pulses": "tuning.pulses",
    "nn.forward_samples": "nn.forward_samples",
}


# -- environment ------------------------------------------------------------
def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def hygiene_problems(env=os.environ) -> list:
    """Reasons the process would not measure the production default path."""
    problems = []
    if env.get("REPRO_SCALAR_TUNER", "").strip().lower() in _TRUTHY:
        problems.append("REPRO_SCALAR_TUNER selects the scalar reference tuner")
    if env.get("REPRO_BACKEND", "numpy").strip().lower() not in ("", "numpy"):
        problems.append("REPRO_BACKEND selects a non-numpy backend")
    if env.get("REPRO_CHAOS", "").strip():
        problems.append("REPRO_CHAOS injects faults")
    if problems:
        return problems
    from repro.core import backend
    from repro.core.fastpath import vectorized_enabled
    from repro.core.kernels import cache_enabled

    if not vectorized_enabled():
        problems.append("the vectorized hot loop is disabled")
    if not cache_enabled():
        problems.append("the kernel value caches are disabled")
    if backend.active().name != "numpy":
        problems.append(f"active backend is {backend.active().name}")
    return problems


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


# -- digests ------------------------------------------------------------------
def weights_digest(model) -> str:
    """SHA-256 over every parameter array of ``model``, in layer order."""
    import numpy as np

    h = hashlib.sha256()
    for params in model.get_weights():
        for name in sorted(params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def result_digest(result_dict: dict) -> str:
    """SHA-256 of a ``LifetimeResult.to_dict()`` (floats print exactly)."""
    return hashlib.sha256(json.dumps(result_dict, sort_keys=True).encode()).hexdigest()


def run_stats(result) -> dict:
    """The simulated statistics of one lifetime run."""
    return {
        "failed": bool(result.failed),
        "windows": len(result.windows),
        "lifetime_applications": int(result.lifetime_applications),
        "tuning_iterations": sum(w.tuning_iterations for w in result.windows),
        "pulses": result.windows[-1].pulses_total if result.windows else 0,
    }


def check_run(record: dict, reference) -> list:
    """Problems with one run's output (empty when it is correct)."""
    problems = []
    stats = record["stats"]
    if not stats["failed"]:
        problems.append("stopped at the window horizon instead of failing")
    if stats["tuning_iterations"] != record["counts"]["tuning.iterations"]:
        problems.append("PROFILER tuning.iterations disagrees with the result")
    if reference is not None:
        if record["digest"] != reference["digest"]:
            problems.append("result digest differs from the reference")
        if stats != reference["stats"]:
            problems.append("simulated statistics differ from the reference")
    return problems


# -- measurement ------------------------------------------------------------
@contextmanager
def phase_clock():
    """Host time of every maintenance window and of its tuning session.

    Window ``i`` runs from its drift step to the next window's (the last
    one to the end of the run); ``tune_s`` holds each tuning session's
    duration.  Three clock reads per window, no spans.
    """
    from repro.mapping.network import MappedNetwork
    from repro.tuning.online import OnlineTuner

    drift, tune = MappedNetwork.apply_drift, OnlineTuner.tune
    clocked: dict = {"starts": [], "tune_s": []}

    def stamped_drift(network, magnitude):
        clocked["starts"].append(clock())
        return drift(network, magnitude)

    def timed_tune(tuner, *args, **kwargs):
        start = clock()
        try:
            return tune(tuner, *args, **kwargs)
        finally:
            clocked["tune_s"].append(clock() - start)

    MappedNetwork.apply_drift, OnlineTuner.tune = stamped_drift, timed_tune
    try:
        yield clocked
    finally:
        MappedNetwork.apply_drift, OnlineTuner.tune = drift, tune


class Bench:
    """One workload at one seed: set-up, checked runs, failure counts."""

    def __init__(self, name: str, workload: Workload, seed: int, references=None):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.references = (references or {}).get(name, {})
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self._first: dict = {}  # repeat -> (stats, counts, digest)
        self.last_result = None
        self.weights = None

    @property
    def skewed(self) -> bool:
        from repro.core.scenarios import SCENARIOS

        return SCENARIOS[self.workload.scenario].skewed_training

    def setup(self, tracer=None):
        """Dataset plus trained model; returns ``(framework, seconds)``."""
        from repro.core.framework import AgingAwareFramework
        from repro.core.presets import PRESETS

        preset = PRESETS[self.workload.preset](fast=self.workload.fast)
        config = preset.framework_config
        config = replace(
            config, lifetime=replace(config.lifetime, max_windows=MAX_WINDOWS)
        )
        start = clock()
        with tracer.span("data.make") if tracer else nullcontext():
            dataset = preset.make_dataset()
        framework = AgingAwareFramework(
            preset.build_network, dataset, config, seed=preset.seed
        )
        framework.software_accuracy(self.skewed)
        seconds = clock() - start
        digest = weights_digest(framework.trained_model(self.skewed))
        expected = self.references.get("weights")
        if expected is not None and digest != expected:
            self.problems.append("trained-weight digest differs from the reference")
        self.weights = digest
        return framework, seconds

    def run(self, framework, repeat: int, tracer=None):
        """One checked lifetime run to failure; ``None`` if it raised."""
        from repro.core.profiling import PROFILER

        self.attempted += 1
        timing = tracer.span("run") if tracer else phase_clock()
        try:
            with PROFILER.capture() as perf, timing as clocked:
                start = clock()
                result = framework.run_scenario(self.workload.scenario, repeat=repeat)
                seconds = clock() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self._fail(repeat, ["raised"])
            return None
        self.last_result = result
        starts = [] if tracer else clocked["starts"] + [start + seconds]
        record = {
            "repeat": repeat,
            "seconds": seconds,
            "windows_s": [b - a for a, b in zip(starts, starts[1:])],
            "tune_s": [] if tracer else clocked["tune_s"],
            "iterations": [w.tuning_iterations for w in result.windows],
            "stats": run_stats(result),
            "counts": {k: int(perf.counters.get(k, 0)) for k in COUNTERS},
            "digest": result_digest(result.to_dict()),
        }
        reference = self.references.get("runs", {}).get(str(repeat))
        problems = check_run(record, reference)
        signature = (record["stats"], record["counts"], record["digest"])
        if self._first.setdefault(repeat, signature) != signature:
            problems.append("statistics or counts differ from an earlier run")
        if problems:
            self._fail(repeat, problems)
        return record

    def _fail(self, repeat: int, problems: list) -> None:
        self.failed += 1
        self.problems += [f"repeat {repeat}: {p}" for p in problems]


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase_metrics(records: list) -> dict:
    """Window time outside tuning, and tuning time per step.

    ``window_ms_excl_tuning`` is the median over all windows: the AT
    cost of a window climbs for the first few windows and then holds,
    so the median is that plateau whatever the lifetime, and a window
    the host preempted does not move it.  ``tuning_ms_per_step`` pools
    all sessions; a session of ``I`` iterations counts ``I + 1`` steps,
    its initial accuracy check plus one gradient/pulse/evaluate step per
    iteration.  Both are rates per simulated event, so they do not
    depend on how long the seed's hardware happens to live.
    """
    untuned = [
        1e3 * (window - tune)
        for r in records
        for window, tune in zip(r["windows_s"], r["tune_s"])
    ]
    tune_s = sum(sum(r["tune_s"]) for r in records)
    steps = sum(sum(r["iterations"]) + len(r["tune_s"]) for r in records)
    return {
        "window_ms_excl_tuning": statistics.median(untuned),
        "tuning_ms_per_step": 1e3 * tune_s / steps,
    }


def measure(bench: Bench, seconds: float):
    """End-to-end metrics (tracing off) and the per-run records."""
    setup_s = []
    framework = None
    for _ in range(SETUP_REPEATS):
        framework = None  # let the previous set-up go before the next
        framework, took = bench.setup()
        setup_s.append(took)
    records = []
    start = clock()
    while True:
        pass_start = clock()
        for repeat in bench.workload.repeats(bench.seed):
            records.append(bench.run(framework, repeat))
        now = clock()
        if now - start + (now - pass_start) > seconds:
            break
    records = [r for r in records if r is not None]
    if not records:
        return None, records
    metrics = phase_metrics(records)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setup_s)
    return metrics, records


def measure_traced(bench: Bench):
    """Per-layer metrics from traced runs, paired with untraced ones."""
    from spans import Tracer, check_nesting, instrument, summarize, wrapper_cost_s

    tracer = Tracer()
    with instrument(tracer):
        framework, _ = bench.setup(tracer)
    setup = summarize(tracer.spans)
    prefix = f"{bench.name}-seed{bench.seed}"
    tracer.write(OUT_DIR / f"{prefix}-setup.spans.json")
    n_layers = len(framework.trained_model(bench.skewed).weighted_layers())

    repeats = bench.workload.repeats(bench.seed)[: max(1, bench.workload.runs // 2)]
    totals: dict = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
    counts: dict = defaultdict(int)
    traced_s = attributed_s = 0.0
    n_spans = 0
    plain, records = [], []
    for j, repeat in enumerate(repeats):
        for traced in (j % 2 == 1, j % 2 == 0):
            if not traced:
                record = bench.run(framework, repeat)
                plain += [record] if record else []
                continue
            tracer = Tracer()
            with instrument(tracer):
                record = bench.run(framework, repeat, tracer)
            if record is None:
                continue
            records.append(record)
            summary = summarize(tracer.spans)
            for name, entry in summary.items():
                totals[name]["total_s"] += entry["total_s"]
                totals[name]["self_s"] += entry["self_s"]
            for name, value in [*tracer.counts.items(), *record["counts"].items()]:
                counts[name] += value
            n_spans += len(tracer.spans)
            root = tracer.spans[0]
            traced_s += root[3] - root[2]
            attributed_s += root[3] - root[2] - summary["run"]["self_s"]
            bench.problems += check_nesting(tracer.spans)
            if min(e["self_s"] for e in summary.values()) < -1e-9:
                bench.problems.append("a span has negative self time")
            tracer.write(OUT_DIR / f"{prefix}-r{repeat}.spans.json")
    if not records or not plain:
        return None, records + plain
    n = len(records)
    metrics = {m: totals[s][kind] / n for m, (s, kind) in LAYER_TIMES.items()}
    metrics.update({m: counts[c] for m, c in LAYER_COUNTS.items()})
    reused = counts["network.effective_model_reuse"]
    rebuilt = counts["network.hardware_reads"] / n_layers
    metrics["tuning.read_reuse_ratio"] = reused / (reused + rebuilt)
    scored_s = totals["mapping.at_score"]["total_s"]
    prefix_s = totals["mapping.at_prefix"]["total_s"]
    metrics["mapping.at_prefix_pct"] = 100.0 * prefix_s / scored_s if scored_s else 0.0
    metrics["training.train_s"] = setup["training.train"]["total_s"]
    metrics["data.make_s"] = setup["data.make"]["total_s"]
    plain_s = sum(r["seconds"] for r in plain)
    window_ms = [1e3 * w for r in plain for w in r["windows_s"]]
    metrics["run_s"] = plain_s / len(plain)
    metrics["window_ms_p50"] = percentile(window_ms, 50)
    metrics["window_ms_p90"] = percentile(window_ms, 90)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    metrics["trace.overhead_est_pct"] = (
        100.0 * n_spans * wrapper_cost_s() / (plain_s * n / len(plain))
    )
    metrics["trace.attributed_pct"] = 100.0 * attributed_s / traced_s
    if metrics["trace.attributed_pct"] < MIN_ATTRIBUTED_PCT:
        bench.problems.append(
            f"spans attribute {metrics['trace.attributed_pct']:.1f}% of the run "
            f"(< {MIN_ATTRIBUTED_PCT}%)"
        )
    return metrics, records + plain


def load_units() -> dict:
    """Metric -> unit, from ``BENCHMARK.json`` beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def record_references(bench: Bench, records: list) -> None:
    """Store this seed's digests and statistics in ``references.json``."""
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    entry = refs.setdefault(bench.name, {"weights": None, "runs": {}})
    entry["weights"] = bench.weights
    for r in records:
        entry["runs"][str(r["repeat"])] = {"digest": r["digest"], "stats": r["stats"]}
    entry["runs"] = dict(sorted(entry["runs"].items(), key=lambda kv: int(kv[0])))
    refs = dict(sorted(refs.items()))
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="store this seed's digests in references.json instead of checking",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pin_threads()
    use_source_tree()
    problems = hygiene_problems()
    if problems:
        print("perfbench: refusing to run: " + "; ".join(problems), file=sys.stderr)
        return 2
    units = load_units()
    env = environment(args.seed)
    print(json.dumps({"environment": env}), flush=True)
    OUT_DIR.mkdir(exist_ok=True)

    references = {}
    if REFERENCES.exists() and not args.record_references:
        references = json.loads(REFERENCES.read_text())
    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, references)
    if args.trace:
        metrics, records = measure_traced(bench)
    else:
        metrics, records = measure(bench, args.seconds)
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if metrics is None:
        print("perfbench: no run completed", file=sys.stderr)
        return 1
    if args.record_references and not bench.problems:
        record_references(bench, records)

    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / out_name, "w") as handle:
        json.dump({"environment": env, "metrics": metrics, "runs": records}, handle)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
