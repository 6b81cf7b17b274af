"""QuantizedNetwork quantizer-override hooks (used by the ablations)."""

import numpy as np

from repro import core
from repro.core.fixed_point import FixedPointQuantizer
from tests.conftest import make_micro_net


def test_weight_quantizer_override():
    net = make_micro_net()
    fixed_radix = FixedPointQuantizer(8, frac_bits=6)
    qnet = core.QuantizedNetwork(
        net, core.get_precision("fixed8"), weight_quantizer=fixed_radix
    )
    assert all(
        qnet.weight_quantizer_for(param) is fixed_radix
        for param in net.weight_parameters()
    )
    with qnet.quantized_weights():
        for param in net.weight_parameters():
            # every value sits on the fixed Q1.6 grid
            scaled = param.data * 64.0
            assert np.allclose(scaled, np.round(scaled), atol=1e-5)


def test_activation_factory_override():
    net = make_micro_net()
    created = []

    def factory():
        quantizer = FixedPointQuantizer(4)
        created.append(quantizer)
        return quantizer

    qnet = core.QuantizedNetwork(
        net, core.get_precision("fixed8"), activation_factory=factory
    )
    # one quantizer per insertion point, all from the custom factory
    fq_layers = [
        layer for layer in qnet.pipeline.layers
        if type(layer).__name__ == "FakeQuantLayer"
    ]
    assert len(created) == len(fq_layers)
    assert all(layer.quantizer in created for layer in fq_layers)


def test_default_used_when_not_overridden():
    net = make_micro_net()
    qnet = core.QuantizedNetwork(net, core.get_precision("pow2"))
    assert all(
        isinstance(qnet.weight_quantizer_for(param), core.PowerOfTwoQuantizer)
        for param in net.weight_parameters()
    )


def test_per_channel_override_integrates():
    from repro.core.per_channel import PerChannelFixedPointQuantizer

    net = make_micro_net()
    qnet = core.QuantizedNetwork(
        net,
        core.get_precision("fixed4"),
        weight_quantizer=PerChannelFixedPointQuantizer(4),
    )
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 1, 6, 6)).astype(np.float32)
    qnet.calibrate(x)
    logits = qnet.predict(x)
    assert np.all(np.isfinite(logits))
