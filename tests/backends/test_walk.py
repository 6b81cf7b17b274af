"""The one unit walk in ``Backend.run``: its ``observe`` hook and empty batches."""

import pytest

from repro import backends, core
from tests.conftest import make_tiny_cnn

BACKENDS = ("reference", "fused")


@pytest.fixture
def qnet(tiny_digits):
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:32])
    return qnet


def test_observe_sees_every_unit_once_in_plan_order(qnet, tiny_digits):
    x = tiny_digits.test.images[:6]
    expected_units = backends.compile_units(qnet.pipeline)
    logits = {}
    with qnet.quantized_weights():
        for name in BACKENDS:
            impl = backends.get(name)
            seen = []
            observed = impl.run(
                qnet.pipeline, x, observe=lambda unit, s: seen.append((unit, s))
            )
            assert [unit for unit, _ in seen] == expected_units, name
            assert all(s >= 0.0 for _, s in seen), name
            plain = impl.run(qnet.pipeline, x)
            assert observed.tobytes() == plain.tobytes(), name
            logits[name] = plain
    assert logits["fused"].tobytes() == logits["reference"].tobytes()


def test_training_mode_reports_no_units(qnet, tiny_digits):
    seen = []
    qnet.pipeline.train_mode()
    backends.get("fused").run(qnet.pipeline, tiny_digits.train.images[:2],
                              observe=lambda unit, s: seen.append(unit))
    assert seen == []


def test_empty_batches_agree_everywhere(qnet, tiny_digits):
    empty = tiny_digits.test.images[:0]
    outputs = {name: qnet.infer(empty, backend=name) for name in BACKENDS}
    with qnet.quantized_weights():
        for name in BACKENDS:
            outputs[f"{name}.run"] = backends.get(name).run(qnet.pipeline, empty)
    frozen = qnet.freeze()
    outputs["frozen"] = frozen.predict(empty)
    frozen.thaw()
    outputs["sequential"] = make_tiny_cnn().predict(empty)
    for name, out in outputs.items():
        assert out.shape == (0, 10), name
        assert out.dtype == outputs["reference"].dtype, name
