"""Deployer: zero-downtime rollout, bitwise rollback, fault recovery."""

import threading

import numpy as np
import pytest

from repro import registry, serve
from repro.data import load_dataset
from repro.errors import RegistryError
from repro.nn.serialization import network_state, save_network_weights
from repro.obs.metrics import get_metrics
from repro.resilience import FaultInjector, use_injector
from repro.zoo import build_network


@pytest.fixture(scope="module")
def calibration():
    split = load_dataset("digits", n_train=64, n_test=32, seed=0)
    return {"digits": split.train.images}


@pytest.fixture
def store(tmp_path):
    return registry.ArtifactStore(str(tmp_path / "reg"))


def publish(store, seed, accuracy, energy):
    return store.publish(
        network_state(build_network("lenet_small", seed=seed)),
        network="lenet_small",
        precision="fixed8",
        dataset="digits",
        accuracy=accuracy,
        energy_uj_per_image=energy,
    )


def make_model_store(calibration):
    return serve.ModelStore(calibration_data=calibration)


def test_rollout_installs_registry_servable(store, calibration):
    manifest = publish(store, 0, 0.90, 2.0)
    chan = registry.Channel(store, "prod")
    chan.promote(manifest.digest)
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)

    report = deployer.rollout(chan)
    assert report.digest == manifest.digest
    assert report.version == 1
    assert report.previous_digest is None
    assert report.swap_ms < report.build_ms  # swap is the cheap locked part

    servable = model_store.get("lenet_small", "fixed8")
    assert servable.registry_digest == manifest.digest
    assert servable.registry_version == 1
    assert model_store.hits == 1  # install pre-populated the cache


def test_rollout_replaces_previous_servable(store, calibration):
    a = publish(store, 0, 0.90, 2.0)
    b = publish(store, 1, 0.95, 1.5)
    chan = registry.Channel(store, "prod")
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)

    chan.promote(a.digest)
    deployer.rollout(chan)
    chan.promote(b.digest)
    report = deployer.rollout(chan)
    assert report.previous_digest == a.digest
    assert model_store.get("lenet_small", "fixed8").registry_digest == b.digest


def test_empty_channel_cannot_roll_out(store, calibration):
    chan = registry.Channel(store, "prod")
    deployer = registry.Deployer(store, make_model_store(calibration))
    with pytest.raises(RegistryError, match="nothing to roll out"):
        deployer.rollout(chan)


def test_per_layer_rollout_serves_what_the_store_builds(store, calibration,
                                                       tmp_path):
    """A per-layer artifact serves at its own widths: the rollout's
    logits are the ones a store miss builds from the same weights, and
    not uniform fixed8's."""
    key = "fixed:2,4,8,8:8"
    network = build_network("lenet_small", seed=1)
    weights = str(tmp_path / "w.npz")
    save_network_weights(network, weights)
    manifest = store.publish(
        network_state(network), network="lenet_small", precision=key,
        dataset="digits", accuracy=0.9, energy_uj_per_image=1.0,
    )
    chan = registry.Channel(store, "prod")
    chan.promote(manifest.digest)
    model_store = make_model_store(calibration)
    registry.Deployer(store, model_store).rollout(chan)
    rolled_out = model_store.get("lenet_small", key)
    assert rolled_out.registry_digest == manifest.digest

    reference = serve.ModelStore(
        calibration_data=calibration, weight_paths={"lenet_small": weights}
    )
    batch = calibration["digits"][:16]
    logits = rolled_out.forward(batch)
    np.testing.assert_array_equal(
        logits, reference.get("lenet_small", key).forward(batch)
    )
    assert rolled_out.weights_digest == reference.get(
        "lenet_small", key).weights_digest
    assert not np.array_equal(
        logits, reference.get("lenet_small", "fixed8").forward(batch)
    )


def test_rollback_restores_bitwise_identical_outputs(store, calibration):
    a = publish(store, 0, 0.90, 2.0)
    b = publish(store, 1, 0.95, 1.5)
    chan = registry.Channel(store, "prod")
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)
    batch = calibration["digits"][:4]

    chan.promote(a.digest)
    deployer.rollout(chan)
    v1_logits = model_store.get("lenet_small", "fixed8").forward(batch)

    chan.promote(b.digest)
    deployer.rollout(chan)
    v2_logits = model_store.get("lenet_small", "fixed8").forward(batch)
    assert not np.array_equal(v1_logits, v2_logits)

    report = deployer.rollback(chan)
    assert report.rolled_back
    assert report.digest == a.digest
    restored = model_store.get("lenet_small", "fixed8").forward(batch)
    np.testing.assert_array_equal(restored, v1_logits)


def test_live_rollout_drops_no_requests(store, calibration):
    """Swap artifacts mid-load: every request completes, none are lost."""
    a = publish(store, 0, 0.90, 2.0)
    b = publish(store, 1, 0.95, 1.5)
    chan = registry.Channel(store, "prod")
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)
    chan.promote(a.digest)
    deployer.rollout(chan)

    server = serve.InferenceServer(
        model_store, workers=2, max_batch_size=8, max_delay_ms=1.0
    )
    results = {}

    def drive():
        results["load"] = serve.run_closed_loop(
            server,
            calibration["digits"],
            "lenet_small",
            "fixed8",
            n_requests=200,
            concurrency=16,
        )

    with server:
        loader = threading.Thread(target=drive)
        loader.start()
        chan.promote(b.digest)
        report = deployer.rollout(chan)  # swap while traffic is flowing
        loader.join(timeout=120)
    assert not loader.is_alive()

    load = results["load"]
    assert load.lost == 0
    assert load.client_errors == 0
    assert load.accounted == load.submitted == 200
    assert report.previous_digest == a.digest
    served = server.stats.report().served_artifacts["lenet_small@fixed8"]
    assert served["digest"] in (a.digest, b.digest)


def test_transient_load_fault_is_retried(store, calibration):
    manifest = publish(store, 0, 0.90, 2.0)
    chan = registry.Channel(store, "prod")
    chan.promote(manifest.digest)
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)

    injector = FaultInjector(seed=0).arm(
        "registry.load", mode="raise", rate=1.0, max_fires=2
    )
    before = get_metrics().counter("registry.build_retries").value
    with use_injector(injector):
        report = deployer.rollout(chan)
    assert report.digest == manifest.digest
    assert get_metrics().counter("registry.build_retries").value - before == 2
    assert injector.counts()["registry.load"] == 2


def test_failed_deploy_auto_rolls_back_the_channel(store, calibration):
    a = publish(store, 0, 0.90, 2.0)
    b = publish(store, 1, 0.95, 1.5)
    chan = registry.Channel(store, "prod")
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)
    chan.promote(a.digest)
    deployer.rollout(chan)

    injector = FaultInjector(seed=0).arm("registry.load", rate=1.0)
    with use_injector(injector):
        with pytest.raises(RegistryError, match="restored to v1"):
            deployer.deploy(chan, b.digest)

    # channel points back at what is actually serving
    assert chan.active().digest == a.digest
    assert registry.Channel(store, "prod").active().digest == a.digest
    assert model_store.get("lenet_small", "fixed8").registry_digest == a.digest
    # history still records the attempted promotion
    assert [v.digest for v in chan.history()] == [a.digest, b.digest]


def test_registry_operations_land_in_obs_snapshot(store, calibration):
    a = publish(store, 0, 0.90, 2.0)
    b = publish(store, 1, 0.95, 1.5)
    chan = registry.Channel(store, "prod")
    model_store = make_model_store(calibration)
    deployer = registry.Deployer(store, model_store)
    chan.promote(a.digest)
    deployer.rollout(chan)
    chan.promote(b.digest)
    deployer.rollout(chan)
    chan.rollback()

    snap = get_metrics().snapshot()
    for name in ("registry.publishes", "registry.promotions",
                 "registry.rollbacks", "registry.rollouts"):
        assert snap["counters"].get(name, 0) >= 1, name
    assert snap["histograms"]["registry.swap_ms"]["count"] >= 2


def test_failed_first_deploy_reports_nothing_running(store, calibration):
    manifest = publish(store, 0, 0.90, 2.0)
    chan = registry.Channel(store, "prod")
    deployer = registry.Deployer(store, make_model_store(calibration))

    injector = FaultInjector(seed=0).arm("registry.load", rate=1.0)
    with use_injector(injector):
        with pytest.raises(RegistryError, match="nothing was previously"):
            deployer.deploy(chan, manifest.digest)
