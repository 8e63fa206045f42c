"""Unit tests for the command-line interface.

The heavy subcommands run against the fast presets; assertions check
wiring (arguments reach the framework, files land on disk) rather than
simulation quality, which the benchmarks own.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.profiling import PROFILER


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.preset == "lenet-glyphs"
        assert args.scenario == "st+at"
        assert not args.fast

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--preset", "nope"])

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])

    def test_checkpoint_flag_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.checkpoint_every is None
        assert args.checkpoint_dir == ".repro-checkpoints"
        assert args.resume is None
        args = build_parser().parse_args(
            ["run", "--checkpoint-every", "5", "--checkpoint-dir", "c"]
        )
        assert args.checkpoint_every == 5 and args.checkpoint_dir == "c"

    def test_campaign_journal_flags(self):
        args = build_parser().parse_args(["campaign"])
        assert args.journal is None and not args.resume
        args = build_parser().parse_args(
            ["campaign", "--journal", "j.jsonl", "--resume"]
        )
        assert args.journal == "j.jsonl" and args.resume

    def test_checkpoints_subcommands_parse(self):
        ls = build_parser().parse_args(["checkpoints", "ls", "--dir", "d"])
        assert ls.ckpt_command == "ls" and ls.dir == "d"
        gc = build_parser().parse_args(["checkpoints", "gc", "--keep", "2"])
        assert gc.ckpt_command == "gc" and gc.keep == 2
        ins = build_parser().parse_args(["checkpoints", "inspect", "x.ckpt.json"])
        assert ins.ckpt_command == "inspect" and ins.path == "x.ckpt.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["checkpoints"])

    def test_profile_flag_variants(self):
        assert build_parser().parse_args(["run"]).profile is None
        assert build_parser().parse_args(["run", "--profile"]).profile == "-"
        args = build_parser().parse_args(["run", "--profile", "perf.json"])
        assert args.profile == "perf.json"
        assert build_parser().parse_args(["compare", "--profile"]).profile == "-"
        assert build_parser().parse_args(["campaign", "--profile"]).profile == "-"


class TestCommands:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "lenet-glyphs" in out and "vggnet-shapes" in out

    def test_train_writes_weights(self, tmp_path, capsys):
        weights = tmp_path / "model.npz"
        code = main(
            ["train", "--preset", "lenet-glyphs", "--fast", "--weights", str(weights)]
        )
        assert code == 0
        assert weights.exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_report_from_saved_comparison(self, tmp_path, capsys):
        from repro.core.results import LifetimeResult, ScenarioComparison
        from repro.io import save_comparison

        cmp_path = tmp_path / "cmp.json"
        comparison = ScenarioComparison(workload="glyphs")
        comparison.add(
            LifetimeResult(scenario_key="t+t", lifetime_applications=1000, failed=True)
        )
        save_comparison(comparison, cmp_path)
        out_path = tmp_path / "report.md"
        assert main(["report", str(cmp_path), "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("# Lifetime comparison")

    def test_report_to_stdout(self, tmp_path, capsys):
        from repro.core.results import LifetimeResult, ScenarioComparison
        from repro.io import save_comparison

        cmp_path = tmp_path / "cmp.json"
        comparison = ScenarioComparison(workload="glyphs")
        comparison.add(
            LifetimeResult(scenario_key="t+t", lifetime_applications=1000, failed=True)
        )
        save_comparison(comparison, cmp_path)
        assert main(["report", str(cmp_path)]) == 0
        assert "# Lifetime comparison" in capsys.readouterr().out

    def test_run_writes_result(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        code = main(
            [
                "run",
                "--preset",
                "lenet-glyphs",
                "--fast",
                "--no-cache",
                "--scenario",
                "t+t",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["scenario_key"] == "t+t"
        assert "lifetime" in capsys.readouterr().out

    def test_run_profile_to_stdout_and_file(self, tmp_path, capsys):
        argv = [
            "run",
            "--preset",
            "lenet-glyphs",
            "--fast",
            "--no-cache",
            "--scenario",
            "t+t",
            "--profile",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "perf counters" in out
        assert "network.hardware_reads" in out

        perf_file = tmp_path / "perf.json"
        assert main(argv + [str(perf_file)]) == 0
        snapshot = json.loads(perf_file.read_text())
        assert snapshot["counters"]["lifetime.runs"] >= 1
        assert "timers" in snapshot

    def test_compare_profile_counts_pooled_runs(self, tmp_path, capsys):
        """--profile accounts for the runs pool workers executed: a
        --workers 2 compare reports the same lifetime counters as a
        --workers 1 one."""

        def lifetime_counters(workers):
            before = PROFILER.snapshot()["counters"]
            path = tmp_path / f"perf-{workers}.json"
            argv = [
                "compare", "--preset", "blobs-mini", "--fast", "--no-cache",
                "--workers", str(workers), "--profile", str(path),
            ]
            assert main(argv) == 0
            after = json.loads(path.read_text())["counters"]
            return {
                name: after.get(name, 0) - before.get(name, 0)
                for name in ("lifetime.runs", "lifetime.windows")
            }

        pooled = lifetime_counters(2)
        assert pooled["lifetime.runs"] == 3
        assert pooled == lifetime_counters(1)

    def test_run_populates_and_reuses_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = [
            "run",
            "--preset",
            "lenet-glyphs",
            "--fast",
            "--scenario",
            "t+t",
            "--cache-dir",
            str(cache_dir),
            "--out",
            str(tmp_path / "first.json"),
        ]
        assert main(argv) == 0
        entries = list(cache_dir.glob("*.json"))
        assert len(entries) == 1
        # Second run must be served from the cache: same result JSON,
        # no new cache entries.
        argv[-1] = str(tmp_path / "second.json")
        assert main(argv) == 0
        assert list(cache_dir.glob("*.json")) == entries
        first = json.loads((tmp_path / "first.json").read_text())
        second = json.loads((tmp_path / "second.json").read_text())
        assert first == second

    def test_campaign_resume_requires_journal(self, capsys):
        assert main(["campaign", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().out

    def test_checkpoints_ls_empty_dir(self, tmp_path, capsys):
        assert main(["checkpoints", "ls", "--dir", str(tmp_path)]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_compare_accepts_workers(self, tmp_path, capsys):
        args = build_parser().parse_args(
            ["compare", "--workers", "4", "--no-cache"]
        )
        assert args.workers == 4
        assert args.no_cache
