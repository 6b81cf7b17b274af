"""im2col / col2im correctness against naive and oracle implementations.

The oracles are the original fancy-index gather and ``np.add.at``
scatter.  The strided lowering must reproduce them *bitwise*: im2col is
a pure gather, and col2im must add each pixel's contributions in the
order ``np.add.at`` visits them, or conv gradients (and every trained
weight) would drift by an ulp.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn.im2col import col2im, conv_output_size, im2col


def _oracle_indices(channels, kernel, stride, out_h, out_w):
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel), kernel * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel * kernel).reshape(-1, 1)
    return k, i, j


def oracle_im2col(x, kernel, stride, padding):
    """Fancy-index gather (the original implementation)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    k, i, j = _oracle_indices(c, kernel, stride, out_h, out_w)
    cols = x_pad[:, k, i, j]
    return cols.transpose(1, 2, 0).reshape(c * kernel * kernel, -1)


def oracle_col2im(cols, x_shape, kernel, stride, padding):
    """``np.add.at`` scatter (the original implementation)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_pad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    k, i, j = _oracle_indices(c, kernel, stride, out_h, out_w)
    cols_reshaped = cols.reshape(c * kernel * kernel, out_h * out_w, n).transpose(2, 0, 1)
    np.add.at(x_pad, (slice(None), k, i, j), cols_reshaped)
    return x_pad[:, :, padding : padding + h, padding : padding + w]


def naive_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.zeros((c * kernel * kernel, n * out_h * out_w), dtype=x.dtype)
    col = 0
    for i in range(out_h):
        for j in range(out_w):
            for b in range(n):
                patch = x_pad[b, :, i * stride : i * stride + kernel,
                              j * stride : j * stride + kernel]
                # column order must match the vectorized implementation:
                # batch-major within each output position
                cols[:, i * out_w * n + j * n + b] = patch.reshape(-1)
            col += n
    return cols


def test_conv_output_size_floor_mode():
    assert conv_output_size(28, 5, 1, 0) == 24
    assert conv_output_size(28, 5, 1, 2) == 28
    assert conv_output_size(32, 3, 2, 0) == 15


def test_conv_output_size_ceil_mode_matches_caffe():
    # ALEX pooling: 32 -> 16 -> 8 -> 4 with 3x3 stride-2 ceil pooling
    assert conv_output_size(32, 3, 2, 0, ceil_mode=True) == 16
    assert conv_output_size(16, 3, 2, 0, ceil_mode=True) == 8
    assert conv_output_size(8, 3, 2, 0, ceil_mode=True) == 4


def test_conv_output_size_rejects_oversized_kernel():
    with pytest.raises(ShapeError):
        conv_output_size(4, 7, 1, 0)


def test_im2col_matches_naive():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
    got = im2col(x, kernel=3, stride=2, padding=1)
    want = naive_im2col(x, kernel=3, stride=2, padding=1)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_im2col_identity_kernel_one():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    cols = im2col(x, kernel=1, stride=1, padding=0)
    assert cols.shape == (2, 16)
    assert np.allclose(cols.reshape(2, 4, 4), x[0])


def test_col2im_is_adjoint_of_im2col():
    """<im2col(x), c> == <x, col2im(c)> (gather/scatter-add adjointness)."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2, 6, 6)).astype(np.float64)
    cols = im2col(x, kernel=3, stride=2, padding=1)
    c = rng.standard_normal(cols.shape)
    lhs = np.sum(cols * c)
    rhs = np.sum(x * col2im(c, x.shape, kernel=3, stride=2, padding=1))
    assert np.isclose(lhs, rhs, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(4, 10),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
)
def test_im2col_col2im_shapes_property(n, c, size, kernel, stride, padding):
    if size + 2 * padding < kernel:
        return
    x = np.ones((n, c, size, size), dtype=np.float32)
    cols = im2col(x, kernel, stride, padding)
    out_h = conv_output_size(size, kernel, stride, padding)
    out_w = conv_output_size(size, kernel, stride, padding)
    assert cols.shape == (c * kernel * kernel, n * out_h * out_w)
    back = col2im(cols, x.shape, kernel, stride, padding)
    assert back.shape == x.shape
    # every pixel is counted at most kernel^2 times, at least 0
    assert back.max() <= kernel * kernel + 1e-6
    assert back.min() >= 0.0


_lowering = dict(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    height=st.integers(1, 9),
    width=st.integers(1, 9),
    kernel=st.integers(1, 4),
    stride=st.integers(1, 5),  # includes stride > kernel (skipped pixels)
    padding=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)


def _lowering_input(n, c, height, width, kernel, padding, seed, dtype=np.float32):
    if min(height, width) + 2 * padding < kernel:
        return None
    rng = np.random.default_rng(seed)
    # a coarse grid makes exact ties and cancellations common
    x = rng.integers(-4, 5, size=(n, c, height, width)).astype(dtype)
    if dtype is np.int64:  # integer codes, as the integer simulators lower
        return x * rng.choice([1, 2**7, 2**31])
    return x * dtype(rng.choice([1.0, 0.1, 1e-30, 3e37]))


@settings(max_examples=160, deadline=None)
@given(
    **{**_lowering, "n": st.integers(0, 3)},  # an empty batch too
    dtype=st.sampled_from([np.float32, np.int64]),
    every_other_channel=st.booleans(),
)
@example(n=0, c=2, height=5, width=6, kernel=3, stride=2, padding=1, seed=0,
         dtype=np.float32, every_other_channel=True)
@example(n=2, c=3, height=7, width=7, kernel=3, stride=1, padding=0, seed=1,
         dtype=np.int64, every_other_channel=True)
@example(n=3, c=2, height=6, width=5, kernel=3, stride=1, padding=2, seed=2,
         dtype=np.float32, every_other_channel=False)
def test_im2col_bitwise_matches_oracle(
    n, c, height, width, kernel, stride, padding, seed, dtype, every_other_channel
):
    x = _lowering_input(n, c * (1 + every_other_channel), height, width, kernel, padding,
                        seed, dtype)
    if x is None:
        return
    if every_other_channel:
        x = x[:, ::2]  # a non-contiguous NCHW view
    want = oracle_im2col(x, kernel, stride, padding)
    got = im2col(x, kernel, stride, padding)
    out_hw = conv_output_size(height, kernel, stride, padding) * conv_output_size(
        width, kernel, stride, padding
    )
    assert got.shape == (c * kernel * kernel, n * out_hw)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # channel-major input and a caller buffer give the same columns
    into = np.full_like(want, 99)  # a value no input holds
    chwn = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    assert im2col(chwn, kernel, stride, padding, out=into, chwn=True) is into
    assert np.array_equal(into, want)
    # an NCHW view of channel-major memory, as conv and pool layers return
    assert np.array_equal(im2col(chwn.transpose(3, 0, 1, 2), kernel, stride, padding), want)


@settings(max_examples=120, deadline=None)
@given(**_lowering)
def test_col2im_bitwise_matches_add_at_oracle(
    n, c, height, width, kernel, stride, padding, seed
):
    """Overlapping windows sum in np.add.at's order, bit for bit."""
    x = _lowering_input(n, c, height, width, kernel, padding, seed)
    if x is None:
        return
    rows = c * kernel * kernel
    cols_n = conv_output_size(height, kernel, stride, padding) * conv_output_size(
        width, kernel, stride, padding
    ) * n
    rng = np.random.default_rng(seed + 1)
    # wide magnitude spread: any change of summation order shows up
    cols = (rng.standard_normal((rows, cols_n)) * 10.0 ** rng.integers(-6, 7, (rows, cols_n)))
    cols = cols.astype(np.float32)
    want = oracle_col2im(cols, x.shape, kernel, stride, padding)
    got = col2im(cols, x.shape, kernel, stride, padding)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_col2im_matches_oracle_on_non_finite_columns():
    rng = np.random.default_rng(3)
    shape, kernel, stride, padding = (2, 2, 7, 7), 3, 2, 1
    cols = rng.standard_normal(im2col(np.zeros(shape, np.float32), kernel, stride, padding).shape)
    cols = cols.astype(np.float32)
    cols.flat[::7] = np.inf
    cols.flat[3::11] = -np.inf
    cols.flat[5::13] = np.nan
    cols.flat[1::17] = -0.0
    want = oracle_col2im(cols, shape, kernel, stride, padding)
    got = col2im(cols, shape, kernel, stride, padding)
    assert np.array_equal(got, want, equal_nan=True)
    # signed zeros agree too; a NaN's sign is the adder's choice
    # (inf + -inf yields x86's negative default NaN in SIMD lanes)
    finite = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))
