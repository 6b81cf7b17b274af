"""Per-layer mixed precision — the paper's future-work extension.

Section VI: "we plan to develop architectures which support multiple
radix point locations between layers.  As discussed in V-B, this
feature may reduce the accuracy degradation significantly for lower
precision networks."  The base library already places an independent
radix point per tensor; this module goes one step further and assigns
an independent *bit-width* per weight tensor:

* :class:`MixedPrecisionNetwork` — quantized-inference wrapper with a
  per-layer weight precision assignment (activations share one width);
* :func:`greedy_bit_allocation` — sensitivity-driven search: starting
  from a uniform high-precision assignment, repeatedly lower the bit
  width of the layer whose quantization hurts accuracy least, while
  the total accuracy drop stays inside a budget;
* :func:`assignment_weight_kb` — parameter memory of an assignment
  (the objective the search trades accuracy against).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.precision import PrecisionKind, PrecisionSpec
from repro.core.factory import make_quantizers
from repro.core.quantized import QuantizedNetwork
from repro.errors import ConfigurationError
from repro.nn.metrics import accuracy
from repro.nn.network import Sequential


class MixedPrecisionNetwork(QuantizedNetwork):
    """Quantized inference with a precision per weight tensor, by name.

    Unlike a :class:`~repro.core.precision.LayeredPrecisionSpec` (one
    kind, a width per layer, built by :class:`QuantizedNetwork` itself),
    an assignment may mix representation kinds — what
    :func:`greedy_bit_allocation` searches over.

    Args:
        network: the float network (parameters shared, as in the base).
        assignment: weight-parameter name -> :class:`PrecisionSpec`.
            Every weight tensor of ``network`` must be assigned.
        input_bits: activation/feature-map width (one radix per tensor
            is still chosen dynamically by the range trackers).

    ``self.spec`` is a synthetic ``mixed<maxbits>`` fixed-point spec
    carrying the activation width.
    """

    def __init__(
        self,
        network: Sequential,
        assignment: Dict[str, PrecisionSpec],
        input_bits: int = 16,
    ):
        weight_names = {p.name for p in network.weight_parameters()}
        missing = weight_names - set(assignment)
        if missing:
            raise ConfigurationError(
                f"assignment missing weight tensors: {sorted(missing)}"
            )
        extra = set(assignment) - weight_names
        if extra:
            raise ConfigurationError(
                f"assignment names unknown tensors: {sorted(extra)}"
            )
        max_weight_bits = max(spec.weight_bits for spec in assignment.values())
        super().__init__(network, PrecisionSpec(
            kind=PrecisionKind.FIXED,
            weight_bits=max_weight_bits,
            input_bits=input_bits,
            key=f"mixed{max_weight_bits}",
        ))
        self.assignment = dict(assignment)
        for param in network.weight_parameters():
            self._weight_quantizers[id(param)] = make_quantizers(
                assignment[param.name])[0]

    def describe(self) -> str:
        """One line per layer: tensor name and its assigned precision."""
        lines = [f"MixedPrecisionNetwork({self.network.name!r}):"]
        for param in self.network.weight_parameters():
            lines.append(f"  {param.name:<24} {self.assignment[param.name].label}")
        return "\n".join(lines)


def make_quantized_network(
    network: Sequential,
    spec: "PrecisionSpec | str",
    **kwargs,
) -> QuantizedNetwork:
    """``QuantizedNetwork(network, spec, **kwargs)``, which builds every
    spec, per-layer ones included; kept only because the benchmark
    harness (``perfbench``) imports it."""
    return QuantizedNetwork(network, spec, **kwargs)


def assignment_weight_kb(
    network: Sequential, assignment: Dict[str, PrecisionSpec]
) -> float:
    """Parameter memory (KB) of a mixed-precision assignment.

    Each weight tensor is stored at its assigned width and the rest of
    its layer's parameters (the bias) at the layer's widest weight
    width; a layer without weights stores its parameters at the widest
    assigned width.  That is the rule
    :func:`~repro.hw.memory_footprint.network_memory_footprint` applies
    to a per-layer spec.
    """
    widest = max(spec.weight_bits for spec in assignment.values())
    total_bits = 0
    for layer in network.layers:
        widths = {
            id(param): assignment[param.name].weight_bits
            for param in layer.weight_parameters()
        }
        rest = max(widths.values(), default=widest)
        total_bits += sum(
            param.size * widths.get(id(param), rest)
            for param in layer.parameters()
        )
    return total_bits / 8192.0


def greedy_bit_allocation(
    network: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    candidates: Optional[Sequence[PrecisionSpec]] = None,
    max_accuracy_drop: float = 0.02,
    input_bits: int = 16,
    calibration_images: Optional[np.ndarray] = None,
) -> Tuple[Dict[str, PrecisionSpec], List[dict]]:
    """Greedy per-layer bit allocation under an accuracy budget.

    Starting with every weight tensor at ``candidates[0]`` (the widest),
    the search repeatedly tries the next-narrower precision for each
    tensor and commits the single change that keeps the evaluated
    accuracy highest, until no change fits within ``max_accuracy_drop``
    of the float baseline.

    Returns ``(assignment, trace)`` where ``trace`` records each
    committed move (tensor, precision, accuracy, weight KB).
    """
    from repro.core.precision import get_precision

    if candidates is None:
        candidates = [
            get_precision("fixed16"),
            get_precision("fixed8"),
            get_precision("fixed4"),
        ]
    candidates = list(candidates)
    if not candidates:
        raise ConfigurationError("need at least one candidate precision")

    baseline = accuracy(network.predict(images), labels)
    floor = baseline - max_accuracy_drop
    calibration = calibration_images if calibration_images is not None else images

    assignment: Dict[str, PrecisionSpec] = {
        p.name: candidates[0] for p in network.weight_parameters()
    }
    levels = {p.name: 0 for p in network.weight_parameters()}

    def evaluate(current: Dict[str, PrecisionSpec]) -> float:
        qnet = MixedPrecisionNetwork(network, current, input_bits=input_bits)
        qnet.calibrate(calibration)
        return qnet.evaluate(images, labels)

    trace: List[dict] = [{
        "tensor": None,
        "precision": candidates[0].label,
        "accuracy": evaluate(assignment),
        "weight_kb": assignment_weight_kb(network, assignment),
    }]

    improved = True
    while improved:
        improved = False
        best_move: Optional[Tuple[str, float]] = None
        for name, level in levels.items():
            if level + 1 >= len(candidates):
                continue
            trial = dict(assignment)
            trial[name] = candidates[level + 1]
            trial_accuracy = evaluate(trial)
            if trial_accuracy >= floor and (
                best_move is None or trial_accuracy > best_move[1]
            ):
                best_move = (name, trial_accuracy)
        if best_move is not None:
            name, reached = best_move
            levels[name] += 1
            assignment[name] = candidates[levels[name]]
            trace.append({
                "tensor": name,
                "precision": assignment[name].label,
                "accuracy": reached,
                "weight_kb": assignment_weight_kb(network, assignment),
            })
            improved = True
    return assignment, trace
