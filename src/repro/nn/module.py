"""Layer base class.

Every layer implements an explicit ``forward``/``backward`` pair; the
forward pass caches whatever the backward pass needs.  Networks are
built by composing layers in a :class:`repro.nn.network.Sequential`.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.tensor import Parameter


class Module:
    """Base class for all layers.

    Subclasses must implement :meth:`forward` and :meth:`backward` and
    register parameters via :meth:`register_parameter` so that generic
    machinery (optimizers, serialization, quantization wrappers) can
    enumerate them.
    """

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__.lower()
        self.training = True
        self._parameters: List[Parameter] = []

    # ------------------------------------------------------------------
    # Parameter registry
    # ------------------------------------------------------------------
    def register_parameter(self, param: Parameter) -> Parameter:
        """Track ``param`` for optimizer / serialization enumeration."""
        self._parameters.append(param)
        return param

    def parameters(self) -> List[Parameter]:
        """All parameters owned by this layer, in registration order."""
        return list(self._parameters)

    def weight_parameters(self) -> List[Parameter]:
        """Parameters that hold multiplicative weights (not biases).

        Quantization in the paper applies to weights; biases are kept at
        input precision.  Layers with weights override this.
        """
        return []

    def zero_grad(self) -> None:
        for param in self._parameters:
            param.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train_mode(self) -> None:
        self.training = True

    def eval_mode(self) -> None:
        self.training = False

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_out`` and return the gradient w.r.t. input.

        Must be called after :meth:`forward`; layers may rely on cached
        activations from the most recent forward pass.
        """
        raise NotImplementedError

    def backward_params(self, grad_out: np.ndarray) -> None:
        """Accumulate the parameter gradients :meth:`backward` would,
        without the input gradient — for a layer nothing trains below.

        Layers whose input gradient costs real work (conv, dense)
        override this; the default runs :meth:`backward` and drops it.
        """
        self.backward(grad_out)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape (without batch dim) this layer produces for ``input_shape``."""
        raise NotImplementedError

    def parameter_count(self) -> int:
        return sum(p.size for p in self._parameters)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def set_mode(modules: Iterable[Module], training: bool) -> None:
    """Switch a collection of modules between train and eval mode."""
    for module in modules:
        if training:
            module.train_mode()
        else:
            module.eval_mode()
