"""FLOP / byte-traffic models."""

import numpy as np
import pytest

from repro import nn
from repro.obs import layer_bytes, layer_flops
from tests.conftest import make_tiny_cnn


def test_conv_flops_match_hand_count():
    conv = nn.Conv2D(1, 2, kernel_size=3, name="conv", rng=np.random.default_rng(0))
    # 8x8 input, no padding -> 6x6 output; per output pixel one
    # 1x3x3 window per output channel.
    macs = 2 * 6 * 6 * (1 * 3 * 3)
    assert conv.macs((1, 8, 8)) == macs
    assert layer_flops(conv, (1, 8, 8)) == 2 * macs
    assert layer_flops(conv, (1, 8, 8), batch=4) == 2 * macs * 4


def test_dense_flops_match_hand_count():
    dense = nn.Dense(4, 3, name="fc", rng=np.random.default_rng(0))
    assert layer_flops(dense, (4,)) == 2 * 4 * 3
    assert layer_flops(dense, (4,), batch=2) == 2 * 4 * 3 * 2


def test_elementwise_layers_cost_one_flop_per_output():
    relu = nn.ReLU(name="relu")
    assert layer_flops(relu, (2, 6, 6)) == 72
    assert layer_flops(relu, (2, 6, 6), batch=3) == 216


def test_flatten_is_free():
    flatten = nn.Flatten(name="flatten")
    assert layer_flops(flatten, (2, 6, 6), batch=8) == 0


def test_dense_bytes_match_hand_count():
    dense = nn.Dense(4, 3, name="fc", rng=np.random.default_rng(0))
    # weights 4*3 + bias 3 = 15 params; 4 in + 3 out activations.
    assert layer_bytes(dense, (4,), batch=1,
                       weight_bits=8, activation_bits=8) == 7 + 15
    assert layer_bytes(dense, (4,), batch=2,
                       weight_bits=8, activation_bits=8) == 14 + 15
    # 32-bit everything scales activations and weights by 4
    assert layer_bytes(dense, (4,), batch=1,
                       weight_bits=32, activation_bits=32) == 4 * (7 + 15)


def test_byte_model_shrinks_with_bit_width():
    network = make_tiny_cnn()
    totals = {}
    for bits in (32, 8):
        shape, total = (1, 28, 28), 0
        for layer in network.layers:
            total += layer_bytes(layer, shape, weight_bits=bits,
                                 activation_bits=bits)
            shape = layer.output_shape(shape)
        totals[bits] = total
    assert totals[8] * 4 == pytest.approx(totals[32], rel=0.01)
