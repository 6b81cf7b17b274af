"""Sequential network container."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.module import Module
from repro.nn.tensor import Parameter


class Sequential(Module):
    """A feed-forward stack of layers applied in order.

    This mirrors the layer graph of Figure 1 in the paper: every layer
    feeds only the next one.  The container exposes the aggregate
    parameter list and per-layer introspection used by the quantization
    wrapper and the hardware scheduler.
    """

    def __init__(self, layers: Sequence[Module], name: str = "net"):
        super().__init__(name=name)
        if not layers:
            raise ConfigurationError("Sequential requires at least one layer")
        self.layers: List[Module] = list(layers)
        self._disambiguate_names()

    def _disambiguate_names(self) -> None:
        """Suffix duplicate layer names so parameters stay addressable."""
        seen: dict = {}
        for layer in self.layers:
            count = seen.get(layer.name, 0)
            seen[layer.name] = count + 1
            if count:
                new_name = f"{layer.name}{count + 1}"
                for param in layer.parameters():
                    param.name = param.name.replace(layer.name, new_name, 1)
                layer.name = new_name

    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Every parameter gradient :meth:`backward` accumulates, and no
        input gradient: the walk stops at the first layer with
        parameters, which skips its own input gradient too."""
        first = next(
            (i for i, layer in enumerate(self.layers) if layer.parameters()), None
        )
        if first is None:
            return
        for layer in reversed(self.layers[first + 1 :]):
            grad_out = layer.backward(grad_out)
        self.layers[first].backward_params(grad_out)

    def predict(self, x: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Run inference in eval mode, batched; returns stacked outputs."""
        was_training = self.training
        self.eval_mode()
        try:
            # an empty input still runs one (empty) batch
            outputs = [
                self.forward(x[i : i + batch_size])
                for i in range(0, max(x.shape[0], 1), batch_size)
            ]
        finally:
            if was_training:
                self.train_mode()
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def weight_parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.weight_parameters())
        return params

    def weight_layers(self) -> List[Module]:
        """Layers that own weight tensors, in layer order (the layers a
        per-layer precision spec assigns its widths to)."""
        return [layer for layer in self.layers if layer.weight_parameters()]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def train_mode(self) -> None:
        super().train_mode()
        for layer in self.layers:
            layer.train_mode()

    def eval_mode(self) -> None:
        super().eval_mode()
        for layer in self.layers:
            layer.eval_mode()

    # ------------------------------------------------------------------
    def output_shape(self, input_shape: tuple) -> tuple:
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def layer_shapes(self, input_shape: tuple) -> List[tuple]:
        """Per-layer (input_shape, output_shape) trace, for the scheduler."""
        shapes = []
        shape = input_shape
        for layer in self.layers:
            out = layer.output_shape(shape)
            shapes.append((shape, out))
            shape = out
        return shapes

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def compute_layers(self) -> Iterable[Module]:
        """Layers that perform MACs (conv/dense) — the accelerator workload."""
        return [layer for layer in self.layers if hasattr(layer, "macs")]

    def summary(self, input_shape: Optional[tuple] = None) -> str:
        """Human-readable architecture table."""
        lines = [f"Sequential {self.name!r}:"]
        shape = input_shape
        for layer in self.layers:
            desc = f"  {layer.name:<16} {type(layer).__name__:<12}"
            if shape is not None:
                out = layer.output_shape(shape)
                desc += f" {str(shape):<16} -> {str(out):<16}"
                shape = out
            n_params = layer.parameter_count()
            if n_params:
                desc += f" params={n_params}"
            lines.append(desc)
        lines.append(f"  total parameters: {self.parameter_count()}")
        return "\n".join(lines)
