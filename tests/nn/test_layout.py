"""The memory-order contract of ``repro.nn`` layers.

NCHW is the shape at every layer boundary, not the memory order: conv
and pool layers hand on NCHW views of channel-major ``(C, H, W, N)``
buffers, and only ``Flatten`` copies to C order.  So every layer must
give the same bits for an input (and an incoming gradient) in either
memory order, and no layer may quietly copy a channel-major input back
to NCHW memory.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core import FakeQuantLayer, FixedPointQuantizer
from repro.core.binary import BinaryQuantizer
from repro.core.power_of_two import PowerOfTwoQuantizer
from tests.nn.test_pooling import _pool_case, _windows


def channel_major(x):
    """``x``'s values in channel-major memory, as an NCHW view."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _run(layer, x, grad, training):
    """Output, input gradient and parameter gradients, as bytes."""
    if training:
        layer.train_mode()
    else:
        layer.eval_mode()
    out = layer.forward(x)
    if not training:
        return out.tobytes()
    grad_in = layer.backward(grad)
    return out.tobytes(), grad_in.tobytes(), [p.grad.tobytes() for p in layer.parameters()]


def assert_layout_free(make_layer, x, seed=0):
    """A fresh ``make_layer()`` gives the same bits for ``x`` and its
    incoming gradient in C and in channel-major memory, both modes."""
    out_shape = make_layer().forward(x).shape
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal(out_shape) * 10.0 ** rng.integers(-5, 6, out_shape)
    grad = grad.astype(np.float32)
    grads = [grad, channel_major(grad)] if grad.ndim == 4 else [grad]
    for training in (True, False):
        want = _run(make_layer(), x, grad, training)
        for grad_in in grads:
            assert _run(make_layer(), channel_major(x), grad_in, training) == want


def _input(rng, n, c, h, w):
    x = rng.standard_normal((n, c, h, w)) * 10.0 ** rng.integers(-3, 4, (n, c, h, w))
    return x.astype(np.float32)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3), c_in=st.integers(1, 3), c_out=st.integers(1, 4),
    height=st.integers(1, 9), width=st.integers(1, 9), kernel=st.integers(1, 4),
    stride=st.integers(1, 3), padding=st.integers(0, 2), seed=st.integers(0, 2**16),
)
def test_conv_is_layout_free(n, c_in, c_out, height, width, kernel, stride, padding, seed):
    if min(height, width) + 2 * padding < kernel:
        return
    x = _input(np.random.default_rng(seed), n, c_in, height, width)
    assert_layout_free(
        lambda: nn.Conv2D(c_in, c_out, kernel, stride=stride, padding=padding,
                          rng=np.random.default_rng(seed)),
        x, seed,
    )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(pool_cls=st.sampled_from([nn.MaxPool2D, nn.AvgPool2D]), **_windows)
def test_pools_are_layout_free(pool_cls, **case):
    """Ceil mode, padding, and the NaN, ±inf and tie inputs of the
    stacked-window oracle tests."""
    pool, x = _pool_case(pool_cls, **case)
    if pool is None:
        return
    assert_layout_free(
        lambda: pool_cls(pool.kernel_size, stride=pool.stride, padding=pool.padding,
                         ceil_mode=pool.ceil_mode),
        x, case["seed"],
    )


_elementwise = {
    "relu": lambda: nn.ReLU(),
    "leaky_relu": lambda: nn.LeakyReLU(0.1),
    "dropout": lambda: nn.Dropout(0.3, rng=np.random.default_rng(7)),
    "fixed8": lambda: FakeQuantLayer(FixedPointQuantizer(8)),
    "fixed4_f2": lambda: FakeQuantLayer(FixedPointQuantizer(4, frac_bits=2)),
    "pow2": lambda: FakeQuantLayer(PowerOfTwoQuantizer()),
    "binary": lambda: FakeQuantLayer(BinaryQuantizer()),
}


@settings(max_examples=60, deadline=None)
@given(
    layer=st.sampled_from(sorted(_elementwise)),
    n=st.integers(1, 3), c=st.integers(1, 4), height=st.integers(1, 7),
    width=st.integers(1, 7), seed=st.integers(0, 2**16),
)
# the binary scale is a mean: numpy sums it in memory order
@example(layer="binary", n=3, c=4, height=7, width=7, seed=1)
def test_elementwise_layers_are_layout_free(layer, n, c, height, width, seed):
    x = _input(np.random.default_rng(seed), n, c, height, width)
    assert_layout_free(_elementwise[layer], x, seed)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4), c=st.integers(1, 4), height=st.integers(1, 7),
    width=st.integers(1, 7), seed=st.integers(0, 2**16),
)
@example(n=3, c=4, height=7, width=7, seed=1)
def test_batchnorm_is_layout_free(n, c, height, width, seed):
    """numpy orders BatchNorm's mean/var/sum reductions by memory
    layout, so the layer reduces over a C-ordered copy."""
    x = _input(np.random.default_rng(seed), n, c, height, width)
    assert_layout_free(lambda: nn.BatchNorm(c), x, seed)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4), c=st.integers(1, 4), height=st.integers(1, 6),
    width=st.integers(1, 6), out=st.integers(1, 5), seed=st.integers(0, 2**16),
)
@example(n=4, c=4, height=6, width=6, out=5, seed=1)
def test_flatten_then_dense_is_layout_free(n, c, height, width, out, seed):
    """Flatten's C-ordered copy hands Dense the matmul operand a
    C-ordered input gives; BLAS rounds a transposed one differently."""
    x = _input(np.random.default_rng(seed), n, c, height, width)
    assert_layout_free(
        lambda: nn.Sequential([
            nn.Flatten(), nn.Dense(c * height * width, out, rng=np.random.default_rng(seed)),
        ]),
        x, seed,
    )


def test_each_layer_of_a_conv_chain_receives_channel_major_memory(monkeypatch):
    """conv -> relu -> quant -> pool -> conv: after the first conv,
    activations and gradients stay channel-major both ways, so no
    layer pays a transpose-copy."""
    rng = np.random.default_rng(0)
    net = nn.Sequential([
        nn.Conv2D(2, 3, 3, padding=1, name="conv1", rng=rng),
        nn.ReLU(name="relu"),
        FakeQuantLayer(FixedPointQuantizer(8), name="quant"),
        nn.MaxPool2D(2, name="pool"),
        nn.Conv2D(3, 4, 3, name="conv2", rng=rng),
    ])
    received = []
    for layer in net.layers:
        for method in ("forward", "backward"):
            inner = getattr(layer, method)

            def spy(x, inner=inner, key=(layer.name, method)):
                received.append((key, x.transpose(1, 2, 3, 0).flags.c_contiguous))
                return inner(x)

            monkeypatch.setattr(layer, method, spy)
    x = rng.standard_normal((5, 2, 10, 10)).astype(np.float32)
    out = net.forward(x)
    net.backward(channel_major(np.ones(out.shape, np.float32)))
    assert [key for key, _ in received] == (
        [(layer.name, "forward") for layer in net.layers]
        + [(layer.name, "backward") for layer in reversed(net.layers)]
    )
    assert out.transpose(1, 2, 3, 0).flags.c_contiguous
    assert all(ok for key, ok in received if key != ("conv1", "forward"))
