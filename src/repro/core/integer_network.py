"""Full-network integer inference (fixed-point functional simulator).

:mod:`repro.core.integer_ops` proves layer-level equivalence between
the float quantization emulation and a true integer datapath; this
module scales that to whole networks: it executes a calibrated
fixed-point :class:`~repro.core.quantized.QuantizedNetwork` entirely on
integer codes — integer conv/dense with wide accumulators, ReLU and
max-pooling on codes, rounded division for average pooling, and
round-half-even re-quantization at every buffer write — exactly what
the accelerator's datapath does.

Use it to validate deployments (does the emulated accuracy survive on
real integer hardware?) or as a golden model for RTL verification
alongside :mod:`repro.hw.verilog`.

Only fixed-point specs are supported: power-of-two and binary weights
reduce to shifts/negates of the same integer pipeline and are left to
the layer-level proofs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.fake_quant import FakeQuantLayer
from repro.core.integer_ops import FixedPointFormat
from repro.core.precision import PrecisionKind
from repro.core.quantized import QuantizedNetwork
from repro.errors import QuantizationError
from repro.nn.conv import Conv2D
from repro.nn.dense import Dense, Flatten
from repro.nn.activations import ReLU
from repro.nn.im2col import conv_output_size, im2col
from repro.nn.pooling import AvgPool2D, MaxPool2D, max_pool, sum_pool

#: accumulator width carried between a MAC layer and the next requantize
#: (int64; a layer whose worst case could overflow it is refused)
ACCUMULATOR_BITS = 64


def _round_half_even_div(values: np.ndarray, divisor: int) -> np.ndarray:
    """Integer division with round-half-to-even (for average pooling)."""
    floor = np.floor_divide(values, divisor)
    remainder = values - floor * divisor
    twice = 2 * remainder
    round_up = (twice > divisor) | ((twice == divisor) & ((floor & 1) == 1))
    return floor + round_up.astype(np.int64)


class IntegerInference:
    """Executes a calibrated fixed-point quantized network on integers.

    Args:
        quantized_network: a :class:`QuantizedNetwork` with a FIXED
            precision spec whose range trackers have been calibrated.
    """

    def __init__(self, quantized_network: QuantizedNetwork):
        spec = quantized_network.spec
        if spec.kind is not PrecisionKind.FIXED:
            raise QuantizationError(
                "IntegerInference supports fixed-point specs only"
            )
        self.qnet = quantized_network
        self.spec = spec
        self._check_calibrated()

    def _check_calibrated(self) -> None:
        for layer in self.qnet.pipeline.layers:
            if isinstance(layer, FakeQuantLayer) and not layer.tracker.initialized:
                raise QuantizationError(
                    f"{layer.name}: calibrate() the network before integer inference"
                )

    # ------------------------------------------------------------------
    def _format_for(self, layer: FakeQuantLayer) -> FixedPointFormat:
        quantizer = layer.quantizer
        frac = quantizer.frac_bits_for(layer.tracker.max_abs)
        return FixedPointFormat(self.spec.input_bits, frac)

    def _weight_codes(self, param) -> Tuple[np.ndarray, FixedPointFormat]:
        # each tensor at its own layer's width (per-layer specs differ)
        quantizer = self.qnet.weight_quantizer_for(param)
        frac = quantizer.resolve_frac_bits(param.data, None)
        fmt = FixedPointFormat(quantizer.bits, frac)
        return fmt.encode(param.data), fmt

    def _bias_codes(self, param) -> Tuple[np.ndarray, FixedPointFormat]:
        quantizer = self.qnet.bias_quantizer
        frac = quantizer.resolve_frac_bits(param.data, None)
        fmt = FixedPointFormat(quantizer.bits, frac)
        return fmt.encode(param.data), fmt

    def _accumulator(
        self, layer, fmt: FixedPointFormat, w_fmt: FixedPointFormat, fan_in: int
    ) -> Tuple[Optional[np.ndarray], int, FixedPointFormat]:
        """Where a MAC layer's sum lives: ``(bias, shift, format)``.

        The sum sits on the finer of the product radix and the bias
        radix: the product sum is shifted left by ``shift`` and the
        bias codes come back already shifted, so adding them rounds
        nothing and the next requantize is the one rounding, as in the
        float emulation.  Raises :class:`QuantizationError` when the
        worst case (every product at its largest magnitude, then the
        largest bias) could overflow the int64 accumulator.
        """
        product_frac = fmt.frac_bits + w_fmt.frac_bits
        bias, frac, bias_bound = None, product_frac, 0
        if layer.bias is not None:
            b_codes, b_fmt = self._bias_codes(layer.bias)
            frac = max(product_frac, b_fmt.frac_bits)
            bias = b_codes << (frac - b_fmt.frac_bits)
            bias_bound = -b_fmt.q_min << (frac - b_fmt.frac_bits)
        shift = frac - product_frac
        worst = (fan_in * fmt.q_min * w_fmt.q_min << shift) + bias_bound
        if worst >= 2**63:
            raise QuantizationError(
                f"{layer.name}: a worst-case accumulator of {float(worst):.3g} "
                f"overflows int64 ({fmt.total_bits}-bit inputs, "
                f"{w_fmt.total_bits}-bit weights, fan-in {fan_in}, "
                f"shift {shift})"
            )
        return bias, shift, FixedPointFormat(ACCUMULATOR_BITS, frac)

    @staticmethod
    def _requantize(
        codes: np.ndarray,
        fmt: FixedPointFormat,
        target: FixedPointFormat,
        divisor: int = 1,
    ) -> np.ndarray:
        """One rounding from (codes / (2^fmt.frac * divisor)) onto the
        target grid — average-pooling divisors fold in here so the
        integer path rounds exactly once, like the float path."""
        shift = fmt.frac_bits - target.frac_bits
        numerator = codes.astype(np.int64)
        if shift >= 0:
            total_divisor = divisor << shift
        else:
            numerator = numerator << (-shift)
            total_divisor = divisor
        if total_divisor > 1:
            rounded = _round_half_even_div(numerator, total_divisor)
        else:
            rounded = numerator
        return np.clip(rounded, target.q_min, target.q_max).astype(np.int64)

    # ------------------------------------------------------------------
    def predict(self, images: np.ndarray) -> np.ndarray:
        """Integer-pipeline logits, decoded to float for comparison."""
        codes: Optional[np.ndarray] = None
        fmt: Optional[FixedPointFormat] = None
        divisor = 1  # pending average-pooling divisor
        value = np.asarray(images, dtype=np.float32)

        for layer in self.qnet.pipeline.layers:
            if isinstance(layer, FakeQuantLayer):
                target = self._format_for(layer)
                if codes is None:
                    codes = target.encode(value)
                else:
                    codes = self._requantize(codes, fmt, target, divisor)
                fmt = target
                divisor = 1
            elif isinstance(layer, Conv2D):
                self._require_clean(divisor, layer)
                codes, fmt = self._conv(layer, codes, fmt)
            elif isinstance(layer, Dense):
                self._require_clean(divisor, layer)
                codes, fmt = self._dense(layer, codes, fmt)
            elif isinstance(layer, ReLU):
                codes = np.maximum(codes, 0)  # commutes with /divisor > 0
            elif isinstance(layer, MaxPool2D):
                codes = self._maxpool(layer, codes)
            elif isinstance(layer, AvgPool2D):
                codes = self._avgpool(layer, codes)
                divisor *= layer.kernel_size**2
            elif isinstance(layer, Flatten):
                codes = codes.reshape(codes.shape[0], -1)
            else:
                raise QuantizationError(
                    f"IntegerInference has no integer path for "
                    f"{type(layer).__name__}"
                )
        if divisor != 1:
            raise QuantizationError("network ends with an unresolved avg pool")
        return fmt.decode(codes).astype(np.float32)

    @staticmethod
    def _require_clean(divisor: int, layer) -> None:
        if divisor != 1:
            raise QuantizationError(
                f"{layer.name}: MAC layer fed by an un-requantized average "
                f"pool (a FakeQuant stage is expected between them)"
            )

    def evaluate(self, images: np.ndarray, labels: np.ndarray) -> float:
        logits = self.predict(images)
        return float(np.mean(logits.argmax(axis=1) == np.asarray(labels)))

    # ------------------------------------------------------------------
    def _conv(self, layer: Conv2D, codes, fmt):
        w_codes, w_fmt = self._weight_codes(layer.weight)
        w_mat = w_codes.reshape(layer.out_channels, -1)
        bias, shift, acc_fmt = self._accumulator(layer, fmt, w_fmt, w_mat.shape[1])
        cols = im2col(codes.astype(np.int64), layer.kernel_size, layer.stride, layer.padding)
        acc = (w_mat @ cols) << shift
        if bias is not None:
            acc += bias[:, None]
        n = codes.shape[0]
        out_h = conv_output_size(
            codes.shape[2], layer.kernel_size, layer.stride, layer.padding
        )
        out_w = conv_output_size(
            codes.shape[3], layer.kernel_size, layer.stride, layer.padding
        )
        acc = acc.reshape(layer.out_channels, out_h, out_w, n).transpose(3, 0, 1, 2)
        return acc, acc_fmt

    def _dense(self, layer: Dense, codes, fmt):
        w_codes, w_fmt = self._weight_codes(layer.weight)
        bias, shift, acc_fmt = self._accumulator(layer, fmt, w_fmt, w_codes.shape[0])
        acc = (codes.astype(np.int64) @ w_codes) << shift
        if bias is not None:
            acc += bias
        return acc, acc_fmt

    @staticmethod
    def _maxpool(layer: MaxPool2D, codes):
        padded, out = layer._pooled(codes, fill=np.iinfo(np.int64).min)
        max_pool(padded, layer.kernel_size, layer.stride, out)
        return out.transpose(3, 0, 1, 2)

    @staticmethod
    def _avgpool(layer: AvgPool2D, codes):
        """Window sums only; the k^2 divisor is folded into the next
        requantize so the integer path rounds exactly once."""
        padded, out = layer._pooled(codes, fill=0)
        sum_pool(padded, layer.kernel_size, layer.stride, out)
        return out.transpose(3, 0, 1, 2)
