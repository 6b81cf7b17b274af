"""SweepRunner tests with tiny budgets (plumbing-level)."""

import numpy as np
import pytest

from repro import core
from repro.core.sweep import SweepConfig
from repro.data import DATASET_BUILDERS, synthetic_digits
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import SweepRunner
from repro.zoo import build_network, network_info


@pytest.fixture(scope="module")
def runner():
    config = ExperimentConfig(
        n_train=200,
        n_test=120,
        sweep=SweepConfig(float_epochs=3, qat_epochs=1, float_lr=0.02),
    )
    return SweepRunner(config)


def test_quick_mode_uses_proxy_networks(runner):
    point = runner.evaluate_point("lenet", core.get_precision("float32"))
    assert point.network == "lenet"
    assert point.trained_network == "lenet_small"


def test_energy_always_from_paper_architecture(runner):
    point = runner.evaluate_point("lenet", core.get_precision("float32"))
    # LeNet float32 per-image energy (paper: 60.74 uJ)
    assert point.energy_uj == pytest.approx(60.74, rel=0.10)


def test_accuracy_results_cached(runner):
    first = runner.accuracy_result("lenet", core.get_precision("fixed8"))
    second = runner.accuracy_result("lenet", core.get_precision("fixed8"))
    assert first is second


def test_energy_reports_cached(runner):
    first = runner.energy_report("lenet", core.get_precision("fixed8"))
    second = runner.energy_report("lenet", core.get_precision("fixed8"))
    assert first is second


def test_energy_reports_are_the_models_own_memo(runner):
    spec = core.get_precision("fixed8")
    report = runner.energy_report("lenet", spec)
    assert runner.energy_model.evaluate_cached(
        build_network("lenet"), network_info("lenet").input_shape, spec
    ) is report


def test_datasets_cached(runner, monkeypatch):
    builds = []

    def counted(**kwargs):
        builds.append(kwargs)
        return synthetic_digits(**kwargs)

    # a new builder is a new memo key: the first split_for synthesizes
    monkeypatch.setitem(DATASET_BUILDERS, "digits", counted)
    first, second = runner.split_for("digits"), runner.split_for("digits")
    assert len(builds) == 1
    for mine, theirs in zip((first.train, first.val, first.test),
                            (second.train, second.val, second.test)):
        assert mine.images is theirs.images
        assert mine.labels is theirs.labels


def test_savings_reference_network(runner):
    """Table V references enlarged networks to plain ALEX float32."""
    point = runner.evaluate_point(
        "alex+", core.get_precision("float32"), energy_baseline_network="alex"
    )
    assert point.energy_saving_pct < 0  # ALEX+ float costs more than ALEX float


def test_evaluate_network_covers_requested_specs(runner):
    specs = [core.get_precision(k) for k in ("float32", "binary")]
    points = runner.evaluate_network("lenet", precisions=specs)
    assert [p.spec.key for p in points] == ["float32", "binary"]
    assert all(0.0 <= p.accuracy <= 1.0 for p in points)


def test_full_mode_uses_paper_networks():
    config = ExperimentConfig.full()
    assert config.accuracy_network("alex++") == "alex++"
    quick = ExperimentConfig.quick()
    assert quick.accuracy_network("alex++") == "alex_small++"


def test_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FULL", "1")
    assert ExperimentConfig.from_environment().mode == "full"
    monkeypatch.delenv("REPRO_FULL")
    assert ExperimentConfig.from_environment().mode == "quick"
