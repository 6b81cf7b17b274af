"""Pooling semantics: values, Caffe ceil-mode shapes, gradients.

The oracles are the original stacked-window forward (``argmax`` /
``take_along_axis`` / ``mean`` over a ``(k*k, N, C, OH, OW)`` stack)
and its ``np.add.at`` max-pool backward; the running-view walks must
reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.errors import ConfigurationError, ShapeError


def _oracle_windows(pool, x, fill):
    n, c, h, w = x.shape
    out_h, out_w = pool.output_shape((c, h, w))[1:]
    k, s, p = pool.kernel_size, pool.stride, pool.padding
    pad_h = (p, max(0, (out_h - 1) * s + k - h - p))
    pad_w = (p, max(0, (out_w - 1) * s + k - w - p))
    x_pad = np.pad(x, ((0, 0), (0, 0), pad_h, pad_w), constant_values=fill)
    views = [
        x_pad[:, :, ki : ki + s * out_h : s, kj : kj + s * out_w : s]
        for ki in range(k)
        for kj in range(k)
    ]
    return np.stack(views, axis=0), x_pad.shape


def oracle_maxpool(pool, x, grad_out=None):
    """Stacked argmax forward and ``np.add.at`` backward."""
    windows, pad_shape = _oracle_windows(pool, x, -np.inf)
    argmax = windows.argmax(axis=0)
    out = np.take_along_axis(windows, argmax[None], axis=0)[0]
    if grad_out is None:
        return out, argmax, None
    n, c, h, w = x.shape
    out_h, out_w = out.shape[2:]
    k, s, p = pool.kernel_size, pool.stride, pool.padding
    grad_pad = np.zeros(pad_shape, dtype=np.float32)
    rows = np.arange(out_h)[None, None, :, None] * s + argmax // k
    cols = np.arange(out_w)[None, None, None, :] * s + argmax % k
    np.add.at(
        grad_pad,
        (np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None], rows, cols),
        grad_out,
    )
    return out, argmax, grad_pad[:, :, p : p + h, p : p + w]


def oracle_avgpool(pool, x):
    windows = _oracle_windows(pool, x, 0.0)[0]
    if windows[0].size == 1:
        # numpy sums a reduction with a single output pairwise; every
        # other shape reduces the stacked axis in sequence, which is
        # the order the running walk defines
        total = windows[0].copy()
        for view in windows[1:]:
            total += view
        return total / np.float32(pool.kernel_size**2)
    return windows.mean(axis=0)


def test_maxpool_values_2x2():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    pool = nn.MaxPool2D(2)
    out = pool.forward(x)
    assert out.shape == (1, 1, 2, 2)
    assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_avgpool_values_2x2():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    pool = nn.AvgPool2D(2)
    out = pool.forward(x)
    assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_ceil_mode_shapes_match_caffe():
    # the ALEX pooling chain: 32 -> 16 -> 8 -> 4
    pool = nn.MaxPool2D(3, stride=2)
    assert pool.output_shape((1, 32, 32)) == (1, 16, 16)
    assert pool.output_shape((1, 16, 16)) == (1, 8, 8)
    assert pool.output_shape((1, 8, 8)) == (1, 4, 4)


def test_floor_mode_shapes():
    pool = nn.MaxPool2D(3, stride=2, ceil_mode=False)
    assert pool.output_shape((1, 32, 32)) == (1, 15, 15)


def test_maxpool_partial_window_uses_real_values():
    """Ceil-mode edge windows must ignore the -inf padding."""
    x = -np.ones((1, 1, 5, 5), dtype=np.float32)
    pool = nn.MaxPool2D(2, stride=2)  # 5 -> 3 with ceil mode
    out = pool.forward(x)
    assert out.shape == (1, 1, 3, 3)
    assert np.all(out == -1.0), "padding must never win the max"


def test_avgpool_partial_window_caffe_divisor():
    """Caffe AVE divides by the full window, counting padding as zero."""
    x = np.ones((1, 1, 3, 3), dtype=np.float32)
    pool = nn.AvgPool2D(2, stride=2)  # 3 -> 2 with ceil mode
    out = pool.forward(x)
    # corner window sees one real pixel out of four
    assert np.isclose(out[0, 0, 1, 1], 0.25)
    assert np.isclose(out[0, 0, 0, 0], 1.0)


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[[1.0, 3.0], [2.0, 0.0]]]], dtype=np.float32)
    pool = nn.MaxPool2D(2)
    pool.forward(x)
    grad = pool.backward(np.array([[[[5.0]]]], dtype=np.float32))
    assert np.array_equal(grad[0, 0], [[0.0, 5.0], [0.0, 0.0]])


def test_avgpool_backward_uniform():
    x = np.zeros((1, 1, 4, 4), dtype=np.float32)
    pool = nn.AvgPool2D(2)
    pool.forward(x)
    grad = pool.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
    assert np.allclose(grad, 0.25)


@pytest.mark.parametrize("pool_cls", [nn.MaxPool2D, nn.AvgPool2D])
def test_pool_gradients_numerically(pool_cls):
    rng = np.random.default_rng(0)
    net = nn.Sequential([pool_cls(3, stride=2)])
    x = rng.standard_normal((2, 2, 7, 7)).astype(np.float32)
    y = rng.standard_normal(net.forward(x).shape).astype(np.float32)
    errors = nn.check_gradients(net, nn.MeanSquaredError(), x, y)
    # pooling has no parameters; check the input gradient instead
    out = net.forward(x)
    loss, grad = nn.MeanSquaredError().compute(out, y)
    grad_x = net.backward(grad)
    eps = 1e-2
    sample_indices = [(0, 0, 0, 0), (1, 1, 3, 3), (0, 1, 6, 6)]
    for idx in sample_indices:
        orig = x[idx]
        x[idx] = orig + eps
        up, _ = nn.MeanSquaredError().compute(net.forward(x), y)
        x[idx] = orig - eps
        down, _ = nn.MeanSquaredError().compute(net.forward(x), y)
        x[idx] = orig
        numeric = (up - down) / (2 * eps)
        assert abs(grad_x[idx] - numeric) < 5e-2


def test_stride_defaults_to_kernel():
    assert nn.MaxPool2D(2).stride == 2
    assert nn.MaxPool2D(3, stride=1).stride == 1


def test_invalid_configuration():
    with pytest.raises(ConfigurationError):
        nn.MaxPool2D(0)
    with pytest.raises(ConfigurationError):
        nn.AvgPool2D(2, stride=0)


def test_backward_before_forward_raises():
    pool = nn.MaxPool2D(2)
    with pytest.raises(ShapeError):
        pool.backward(np.zeros((1, 1, 2, 2), dtype=np.float32))


def test_non_nchw_input_rejected():
    with pytest.raises(ShapeError):
        nn.MaxPool2D(2).forward(np.zeros((4, 4), dtype=np.float32))


_windows = dict(
    n=st.integers(1, 2),
    c=st.integers(1, 3),
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 5),  # includes stride > kernel
    padding=st.integers(0, 1),
    ceil_mode=st.booleans(),
    special=st.sampled_from(["none", "ties", "nan", "inf"]),
    seed=st.integers(0, 2**16),
)


def _pool_case(cls, n, c, height, width, kernel, stride, padding, ceil_mode, special, seed):
    # Caffe padding must stay below the kernel, else whole windows
    # would sit in the padding
    if min(height, width) + 2 * padding < kernel or padding >= kernel:
        return None, None
    pool = cls(kernel, stride=stride, padding=padding, ceil_mode=ceil_mode)
    rng = np.random.default_rng(seed)
    if special == "ties":
        # few distinct values: every window has repeated maxima
        x = rng.integers(-1, 2, size=(n, c, height, width)).astype(np.float32)
    else:
        x = rng.standard_normal((n, c, height, width)).astype(np.float32)
    if special == "nan":
        x[rng.random(x.shape) < 0.15] = np.nan
    if special == "inf":
        x[rng.random(x.shape) < 0.2] = -np.inf
        x[rng.random(x.shape) < 0.05] = np.inf
    return pool, x


@settings(max_examples=150, deadline=None)
@given(**_windows)
def test_maxpool_bitwise_matches_stacked_oracle(**case):
    """Forward values, the recorded argmax (first maximum, NaN wins) and
    the backward scatter equal the stacked/np.add.at oracle."""
    pool, x = _pool_case(nn.MaxPool2D, **case)
    if pool is None:
        return
    pool.train_mode()
    out = pool.forward(x)
    rng = np.random.default_rng(case["seed"] + 1)
    grad = (rng.standard_normal(out.shape) * 10.0 ** rng.integers(-5, 6, out.shape))
    grad = grad.astype(np.float32)
    if case["special"] == "inf":
        # an infinite gradient must reach its argmax pixel and no other
        grad[rng.random(grad.shape) < 0.1] = np.inf
    want_out, want_argmax, want_grad = oracle_maxpool(pool, x, grad)
    assert np.array_equal(out, want_out, equal_nan=True)
    assert np.array_equal(pool._cache["argmax"], want_argmax)
    got_grad = pool.backward(grad)
    assert got_grad.shape == want_grad.shape
    assert got_grad.tobytes() == np.ascontiguousarray(want_grad).tobytes()
    pool.eval_mode()
    assert np.array_equal(pool.forward(x), want_out, equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(**_windows)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_avgpool_bitwise_matches_stacked_mean(**case):
    pool, x = _pool_case(nn.AvgPool2D, **case)
    if pool is None:
        return
    want = oracle_avgpool(pool, x)
    got = pool.forward(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))


def test_maxpool_overlapping_windows_accumulate_in_scatter_order():
    """3x3/s2 windows share pixels; a pixel that is the maximum of
    several windows sums their gradients in np.add.at's order."""
    x = np.zeros((1, 1, 7, 7), dtype=np.float32)
    x[0, 0, 2, 2] = 1.0  # the max of all four windows that cover it
    pool = nn.MaxPool2D(3, stride=2)
    out = pool.forward(x)
    # outputs 0, 1, 3, 4 route here; float32 sums of these depend on
    # order: ((3 + 1e8) + 5) - 1e8 == 8, but ((-1e8 + 5) + 1e8) + 3 == 11
    grad = np.array([3.0, 1e8, 0.0, 5.0, -1e8, 0.0, 0.0, 0.0, 0.0], np.float32)
    grad = grad.reshape(out.shape)
    _, _, want = oracle_maxpool(pool, x, grad)
    got = pool.backward(grad)
    assert got[0, 0, 2, 2] == 8.0
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
