"""The paper's primary contribution: precision quantization of DNNs.

This package implements every numerical representation studied in
Section IV-A of the paper, the Ristretto-style range analysis that
places the radix point, quantized-inference emulation, the dual-weight
quantization-aware training scheme of Section IV-A ("Training Time
Techniques"), precision sweeps, and the accuracy/energy Pareto analysis
of Section V-B.

Typical use::

    from repro import core, nn

    spec = core.get_precision("fixed8")           # Fixed-Point (8,8)
    qnet = core.QuantizedNetwork(net, spec)       # wraps a Sequential
    qnet.calibrate(calibration_images)            # place radix points
    trainer = core.QATTrainer(qnet, optimizer)    # fine-tune quantized
    trainer.fit(...)
    accuracy = qnet.evaluate(test_images, test_labels)
"""

from repro.core.precision import (
    PAPER_PRECISIONS,
    EXPANDED_VARIANTS,
    LayeredPrecisionSpec,
    PrecisionKind,
    PrecisionSpec,
    get_precision,
    layered_spec,
)
from repro.core.quantizers import IdentityQuantizer, Quantizer
from repro.core.factory import make_quantizers
from repro.core.fixed_point import FixedPointQuantizer
from repro.core.power_of_two import PowerOfTwoQuantizer
from repro.core.binary import BinaryQuantizer
from repro.core.per_channel import (
    PerChannelFixedPointQuantizer,
    UnsignedFixedPointQuantizer,
)
from repro.core.range_tracker import RangeTracker
from repro.core.fake_quant import FakeQuantLayer
from repro.core.quantized import FrozenQuantizedNetwork, QuantizedNetwork
from repro.core.qat import QATTrainer, post_training_quantize
from repro.core.sweep import PrecisionResult, PrecisionSweep, SweepConfig
from repro.core.pareto import (
    DesignPoint,
    dominates,
    pareto_frontier,
    pareto_frontier_bruteforce,
)
from repro.core.integer_network import IntegerInference
from repro.core.mixed_precision import (
    MixedPrecisionNetwork,
    assignment_weight_kb,
    greedy_bit_allocation,
)
from repro.core.analysis import (
    TensorQuantizationStats,
    activation_range_report,
    layerwise_sensitivity,
    most_sensitive_layer,
    predicted_risk_ranking,
    quantization_report,
)

__all__ = [
    "PrecisionKind",
    "PrecisionSpec",
    "LayeredPrecisionSpec",
    "layered_spec",
    "PAPER_PRECISIONS",
    "EXPANDED_VARIANTS",
    "get_precision",
    "Quantizer",
    "IdentityQuantizer",
    "FixedPointQuantizer",
    "PowerOfTwoQuantizer",
    "BinaryQuantizer",
    "PerChannelFixedPointQuantizer",
    "UnsignedFixedPointQuantizer",
    "RangeTracker",
    "FakeQuantLayer",
    "QuantizedNetwork",
    "FrozenQuantizedNetwork",
    "make_quantizers",
    "QATTrainer",
    "post_training_quantize",
    "PrecisionSweep",
    "PrecisionResult",
    "SweepConfig",
    "DesignPoint",
    "pareto_frontier",
    "pareto_frontier_bruteforce",
    "dominates",
    "IntegerInference",
    "MixedPrecisionNetwork",
    "greedy_bit_allocation",
    "assignment_weight_kb",
    "TensorQuantizationStats",
    "quantization_report",
    "activation_range_report",
    "layerwise_sensitivity",
    "most_sensitive_layer",
    "predicted_risk_ranking",
]
