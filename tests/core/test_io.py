"""Unit tests for persistence (weights, results, comparisons)."""

import numpy as np
import pytest

from repro.core.results import LifetimeResult, ScenarioComparison, WindowRecord
from repro.exceptions import ConfigurationError
from repro.io import (
    load_comparison,
    load_result,
    load_weights,
    result_from_dict,
    result_to_dict,
    save_comparison,
    save_result,
    save_weights,
)
from repro.nn import Activation, Dense, Sequential


def make_result() -> LifetimeResult:
    result = LifetimeResult(
        scenario_key="st+at",
        lifetime_applications=120_000,
        failed=True,
        software_accuracy=0.91,
        target_accuracy=0.85,
    )
    result.windows.append(
        WindowRecord(
            window_index=0,
            applications_total=10_000,
            tuning_iterations=12,
            converged=True,
            accuracy_after=0.9,
            pulses_total=400,
            dead_fraction=0.01,
            aged_upper_by_layer={0: 99_000.0, 2: 98_500.0},
        )
    )
    return result


class TestWeights:
    def test_round_trip(self, tmp_path, trained_mlp, blob_dataset):
        path = tmp_path / "weights.npz"
        save_weights(trained_mlp, path)
        fresh = Sequential(
            [Dense(16), Activation("relu"), Dense(3)], seed=99
        ).build((4,))
        assert not np.allclose(
            fresh.layers[0].params["W"], trained_mlp.layers[0].params["W"]
        )
        load_weights(fresh, path)
        np.testing.assert_array_equal(
            fresh.layers[0].params["W"], trained_mlp.layers[0].params["W"]
        )
        assert fresh.score(blob_dataset.x_test, blob_dataset.y_test) == pytest.approx(
            trained_mlp.score(blob_dataset.x_test, blob_dataset.y_test)
        )

    def test_missing_key_rejected(self, tmp_path, trained_mlp):
        path = tmp_path / "weights.npz"
        save_weights(trained_mlp, path)
        bigger = Sequential(
            [Dense(16), Activation("relu"), Dense(3), Dense(2)], seed=1
        ).build((4,))
        with pytest.raises(ConfigurationError):
            load_weights(bigger, path)


class TestResults:
    def test_dict_round_trip(self):
        result = make_result()
        back = result_from_dict(result_to_dict(result))
        assert back.scenario_key == result.scenario_key
        assert back.lifetime_applications == result.lifetime_applications
        assert back.windows[0].aged_upper_by_layer == {0: 99_000.0, 2: 98_500.0}

    def test_file_round_trip(self, tmp_path):
        result = make_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.iteration_trace() == result.iteration_trace()
        assert back.failed is True

    def test_comparison_round_trip(self, tmp_path):
        comparison = ScenarioComparison(workload="glyphs")
        comparison.add(make_result())
        path = tmp_path / "cmp.json"
        save_comparison(comparison, path)
        back = load_comparison(path)
        assert back.workload == "glyphs"
        assert set(back.results) == {"st+at"}
        assert back.results["st+at"].lifetime_applications == 120_000
