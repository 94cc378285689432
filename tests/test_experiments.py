"""Integration tests for the experiment harnesses (miniature scale)."""

import pytest

from repro.experiments import fig4, fig6, table2
from repro.experiments.setup import (
    detection_curve,
    make_experiment_data,
    train_eedn_classifier,
    train_svm_detector,
    window_feature_matrix,
)
from repro.hog import HogDescriptor
from repro.napprox import NApproxDescriptor


class TestSetup:
    def test_split_shapes(self, small_split):
        assert small_split.positive_windows.shape[1:] == (128, 64)
        assert len(small_split.test_scenes) == 6
        assert len(small_split.ground_truth()) == 6

    def test_feature_matrix(self, small_split):
        features = window_feature_matrix(
            HogDescriptor(), small_split.positive_windows[:3]
        )
        assert features.shape == (3, 3780)

    def test_svm_detector_trains(self, small_split):
        detector, miner = train_svm_detector(
            HogDescriptor(), small_split, mining_rounds=0
        )
        assert miner.model is not None
        curve = detection_curve(detector, small_split)
        assert 0.0 <= curve.log_average_miss_rate() <= 1.0

    def test_eedn_classifier_trains(self, small_split):
        network, result = train_eedn_classifier(
            NApproxDescriptor(), small_split, hidden=64, epochs=8
        )
        assert result.train_accuracy[-1] > 0.6
        assert network.layers[0].n_in == 2304


class TestTable2Harness:
    def test_runs_and_reports(self):
        result = table2.run(measure_corelet=True)
        assert result.measured_napprox_cores == 22
        report = table2.format_report(result)
        assert "40.0" in report  # the paper column
        assert "6.5x-208x" in report

    def test_ratios(self):
        result = table2.run(measure_corelet=False)
        assert 6.0 <= result.ratio_32 <= 7.5
        assert 190 <= result.ratio_1 <= 230


class TestFig6Harness:
    @pytest.fixture(scope="class")
    def result(self):
        # fig6.run trains the parrot; both tests read one sweep.
        return fig6.run(spike_windows=(8, 1), n_validation=80, rng=0)

    def test_sweep_shapes(self, result):
        assert len(result.points) == 2
        assert result.points[0].spikes == 8
        assert result.points[0].throughput_cells_per_second == 125
        report = fig6.format_report(result)
        assert "8-spike" in report

    def test_throughput_monotone(self, result):
        assert (
            result.points[1].throughput_cells_per_second
            > result.points[0].throughput_cells_per_second
        )


@pytest.mark.slow
class TestFig4Harness:
    def test_small_run(self):
        data = make_experiment_data(
            n_positive=30,
            n_negative=60,
            n_negative_images=2,
            n_test_scenes=5,
            scene_shape=(176, 224),
            rng=3,
        )
        result = fig4.run(data, mining_rounds=0)
        assert set(result.curves) == {"FPGA-HoG", "NApprox(fp)", "NApprox"}
        rates = result.log_average_miss_rates()
        assert all(0.0 <= v <= 1.0 for v in rates.values())
        report = fig4.format_report(result)
        assert "Figure 4" in report
