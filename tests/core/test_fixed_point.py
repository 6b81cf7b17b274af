"""Fixed-point quantizer tests, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import fixed_point
from repro.core.fixed_point import FixedPointQuantizer, integer_bits_for_range, quantize_fixed
from repro.errors import QuantizationError


def test_integer_bits_for_range():
    assert integer_bits_for_range(0.0) == 0
    assert integer_bits_for_range(0.9) == 0
    assert integer_bits_for_range(1.5) == 1
    assert integer_bits_for_range(3.9) == 2
    assert integer_bits_for_range(0.20) == -2  # sub-unit ranges gain resolution


def test_static_radix_grid():
    q = FixedPointQuantizer(4, frac_bits=1)  # values k/2, k in [-8, 7]
    x = np.array([0.24, 0.26, -5.0, 3.6], dtype=np.float32)
    out = q.quantize(x)
    assert np.allclose(out, [0.0, 0.5, -4.0, 3.5])


def test_saturation_not_wraparound():
    q = FixedPointQuantizer(8, frac_bits=0)
    out = q.quantize(np.array([1000.0, -1000.0], dtype=np.float32))
    assert out[0] == 127.0
    assert out[1] == -128.0


def test_dynamic_radix_follows_data():
    q = FixedPointQuantizer(8)
    small = q.quantize(np.array([0.1, -0.05], dtype=np.float32))
    assert np.allclose(small, [0.1, -0.05], atol=1e-3)  # fine resolution
    large = q.quantize(np.array([100.0, -50.0], dtype=np.float32))
    assert np.allclose(large, [100.0, -50.0], atol=1.0)


def test_range_hint_overrides_data_range():
    q = FixedPointQuantizer(8)
    x = np.array([0.1], dtype=np.float32)
    fine = q.quantize(x)
    coarse = q.quantize(x, range_hint=100.0)
    assert abs(fine[0] - 0.1) < abs(coarse[0] - 0.1) + 1e-9
    assert q.resolve_frac_bits(x, 100.0) < q.resolve_frac_bits(x, None)


def test_quantization_error_decreases_with_bits():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1000).astype(np.float32)
    errors = [FixedPointQuantizer(b).quantization_error(x) for b in (4, 8, 16)]
    assert errors[0] > errors[1] > errors[2]


def test_sixteen_bits_near_lossless_on_unit_data():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 500).astype(np.float32)
    assert FixedPointQuantizer(16).quantization_error(x) < 1e-4


def test_integer_repr_round_trip():
    q = FixedPointQuantizer(8, frac_bits=4)
    x = np.array([0.5, -1.25, 3.0], dtype=np.float32)
    codes = q.integer_repr(x)
    assert codes.dtype == np.int64
    assert np.allclose(codes / 16.0, q.quantize(x))


def test_integer_repr_within_word_range():
    q = FixedPointQuantizer(8, frac_bits=0)
    codes = q.integer_repr(np.array([500.0, -500.0], dtype=np.float32))
    assert codes.max() <= 127 and codes.min() >= -128


def test_stochastic_rounding_unbiased():
    q = FixedPointQuantizer(
        8, frac_bits=0, stochastic_rounding=True, rng=np.random.default_rng(0)
    )
    x = np.full(20000, 0.3, dtype=np.float32)
    out = q.quantize(x)
    assert set(np.unique(out)) <= {0.0, 1.0}
    assert abs(out.mean() - 0.3) < 0.02


def test_minimum_bits_enforced():
    with pytest.raises(QuantizationError):
        FixedPointQuantizer(1)


def test_step_size():
    q = FixedPointQuantizer(8)
    assert q.step_size(0.9) == pytest.approx(2.0 ** -(7))
    assert q.step_size(100.0) > q.step_size(1.0)


def test_zero_array():
    q = FixedPointQuantizer(8)
    out = q.quantize(np.zeros(5, dtype=np.float32))
    assert np.all(out == 0.0)


@settings(max_examples=50, deadline=None)
@given(
    bits=st.integers(2, 16),
    x=hnp.arrays(np.float32, (20,), elements=st.floats(-100, 100, width=32)),
)
def test_quantize_properties(bits, x):
    q = FixedPointQuantizer(bits)
    out = q.quantize(x)
    # idempotence: quantizing a quantized array changes nothing
    assert np.allclose(q.quantize(out), out, atol=1e-7)
    # output bounded by the representable range around the data; the
    # two's-complement grid extends one extra step on the negative side
    max_abs = float(np.max(np.abs(x), initial=0.0))
    if max_abs > 0:
        step = q.step_size(max_abs)
        assert np.all(np.abs(out) <= max_abs + step + 1e-6)
        # round-to-nearest error is step/2 except at the saturated
        # positive extreme, where it can approach one full step
        assert np.max(np.abs(out - x)) <= step + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    x=hnp.arrays(np.float32, (16,), elements=st.floats(-8, 8, width=32)),
)
def test_monotonicity(x):
    """Quantization preserves (non-strict) ordering."""
    q = FixedPointQuantizer(6)
    order = np.argsort(x)
    out = q.quantize(x)
    assert np.all(np.diff(out[order]) >= -1e-7)


# ----------------------------------------------------------------------
# The float32 core against the float64 chain it replaced
# ----------------------------------------------------------------------
def float64_chain(x, bits, frac_bits):
    """Oracle: scale, round, saturate and rescale at double precision."""
    scale = float(2.0**frac_bits)
    scaled = np.rint(np.asarray(x, dtype=np.float32).astype(np.float64) * scale)
    clipped = np.clip(scaled, -(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
    return (clipped / scale).astype(np.float32)


_TINY = np.float32(1e-45)  # smallest float32 subnormal
_SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, _TINY, -_TINY, 1.1754942e-38, -3e-39,
     3.4028235e38, -3.4028235e38, 0.5, -0.5, 1.5, 2.5, -2.5],
    dtype=np.float32,
)


@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(2, 24),
    frac_bits=st.one_of(
        st.integers(-129, -123), st.integers(124, 130), st.integers(-40, 40)
    ),
    exponent=st.integers(-150, 128),
    x=hnp.arrays(np.float32, (24,), elements=st.floats(-4, 4, width=32)),
    range_hint=st.one_of(st.none(), st.floats(1e-3, 1e3)),
)
def test_quantize_bitwise_matches_float64_chain(bits, frac_bits, exponent, x, range_hint):
    """Property: the quantizer (float32 core where it is exact, float64
    elsewhere) yields the float64 chain's bits, across radix points at
    and just beyond the float32 exponent range, saturation, subnormal
    results and non-finite lanes."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        x = np.concatenate([x * np.float32(2.0) ** exponent, _SPECIALS]).astype(np.float32)
    q = FixedPointQuantizer(bits, frac_bits=frac_bits)
    with np.errstate(over="ignore", invalid="ignore"):
        want = float64_chain(x, bits, frac_bits)
        got = q.quantize(x)
        dynamic = FixedPointQuantizer(bits).quantize(x[np.isfinite(x)], range_hint)
        dynamic_frac = FixedPointQuantizer(bits).resolve_frac_bits(x[np.isfinite(x)], range_hint)
        dynamic_want = float64_chain(x[np.isfinite(x)], bits, dynamic_frac)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert dynamic.tobytes() == dynamic_want.tobytes()


@pytest.mark.parametrize("in_place", [False, True])
def test_quantize_fixed_writes_into_out(in_place):
    rng = np.random.default_rng(4)
    x = (rng.standard_normal(257) * 9.0).astype(np.float32)
    want = float64_chain(x, 8, 3)
    out = x if in_place else np.empty_like(x)
    assert quantize_fixed(x, 8, 3, out=out) is out
    assert out.tobytes() == want.tobytes()


@pytest.fixture
def saturated_dtypes(monkeypatch):
    """The dtype of every code array the quantizer saturates."""
    seen = []
    original = fixed_point._saturate

    def spy(codes, bits):
        seen.append(codes.dtype)
        return original(codes, bits)

    monkeypatch.setattr(fixed_point, "_saturate", spy)
    return seen


def test_fast_path_covers_paper_widths_only(saturated_dtypes):
    """<= 24-bit words at float32-normal radix points run the float32
    chain; fixed32, radix points outside float32's exponent range and
    stochastic rounding keep the float64 chain."""
    x = np.linspace(-3, 3, 64, dtype=np.float32)
    FixedPointQuantizer(8).quantize(x)
    FixedPointQuantizer(24, frac_bits=127).quantize(x)
    assert saturated_dtypes == [np.float32, np.float32]
    saturated_dtypes.clear()
    FixedPointQuantizer(32).quantize(x)
    FixedPointQuantizer(25, frac_bits=0).quantize(x)
    FixedPointQuantizer(8, frac_bits=128).quantize(x)
    FixedPointQuantizer(8, frac_bits=-127).quantize(x)
    FixedPointQuantizer(8, stochastic_rounding=True).quantize(x)
    assert saturated_dtypes == [np.float64] * 5


def test_fixed32_and_stochastic_match_float64_chain():
    rng = np.random.default_rng(5)
    x = (rng.standard_normal(513) * 1e3).astype(np.float32)
    q = FixedPointQuantizer(32)
    frac = q.resolve_frac_bits(x, None)
    assert q.quantize(x).tobytes() == float64_chain(x, 32, frac).tobytes()
    # stochastic rounding: floor plus a Bernoulli draw, in float64
    q = FixedPointQuantizer(8, frac_bits=4, stochastic_rounding=True,
                            rng=np.random.default_rng(6))
    scaled = x.astype(np.float64) * 16.0
    floor = np.floor(scaled)
    draws = np.random.default_rng(6).random(x.shape) < scaled - floor
    want = (np.clip(floor + draws, -128, 127) / 16.0).astype(np.float32)
    assert q.quantize(x).tobytes() == want.tobytes()
