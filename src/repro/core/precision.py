"""Precision specifications and the paper's named precision registry.

A :class:`PrecisionSpec` captures one row of the paper's tables: the
representation kind, the weight bit-width ``w`` and the input/feature-
map bit-width ``in`` — written ``(w, in)`` throughout the paper.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

from repro.errors import ConfigError, ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nn.module import Module
    from repro.nn.network import Sequential


class PrecisionKind(enum.Enum):
    """The four representation families of Section IV-A."""

    FLOAT = "float"
    FIXED = "fixed"
    POW2 = "pow2"
    BINARY = "binary"


@dataclass(frozen=True)
class PrecisionSpec:
    """One (w, in) precision point.

    Attributes:
        kind: representation family.
        weight_bits: bits per weight (``w``).
        input_bits: bits per input / feature-map value (``in``).
        key: short registry key, e.g. ``"fixed8"``.
    """

    kind: PrecisionKind
    weight_bits: int
    input_bits: int
    key: str

    def __post_init__(self) -> None:
        if self.weight_bits < 1 or self.input_bits < 1:
            raise ConfigurationError("bit widths must be >= 1")
        if self.kind is PrecisionKind.BINARY and self.weight_bits != 1:
            raise ConfigurationError("binary precision requires weight_bits == 1")

    @property
    def label(self) -> str:
        """Row label in the paper's table style, e.g. ``Fixed-Point (8,8)``."""
        names = {
            PrecisionKind.FLOAT: "Floating-Point",
            PrecisionKind.FIXED: "Fixed-Point",
            PrecisionKind.POW2: "Powers of Two",
            PrecisionKind.BINARY: "Binary Net",
        }
        return f"{names[self.kind]} ({self.weight_bits},{self.input_bits})"

    @property
    def is_float(self) -> bool:
        return self.kind is PrecisionKind.FLOAT

    def __str__(self) -> str:
        return self.label

    def weight_layer_specs(
        self, network: "Sequential"
    ) -> List[Tuple["Module", "PrecisionSpec"]]:
        """``network``'s weight layers in layer order, each with the
        uniform spec it runs at (this one, for a uniform spec): the one
        rule quantized inference, energy and memory read."""
        return [(layer, self) for layer in network.weight_layers()]

    @classmethod
    def parse(cls, text: Union[str, "PrecisionSpec"]) -> "PrecisionSpec":
        """Parse a precision from its key or a ``kind:w:in`` string.

        Accepted forms (all case-insensitive):

        * registry keys — ``"fixed8"``, ``"pow2"``, ``"binary"``, ...
        * explicit widths — ``"fixed:8:8"``, ``"fixed:4:8"``,
          ``"pow2:6:16"``, ``"float:32"``; ``kind:w`` means ``w == in``
          (for ``binary``, the single width names the *input* bits,
          since binary weights are one bit by definition).
        * compact novel widths — ``"fixed12"`` (not in the registry)
          parses as ``fixed:12:12``.
        * per-layer widths — ``"fixed:2,4,8:8"`` parses as a
          :class:`LayeredPrecisionSpec` assigning one weight bit-width
          per weight tensor, in network layer order (see
          :func:`layered_spec`).

        Specs whose ``(kind, w, in)`` matches a registry entry come
        back as that canonical entry, so
        ``PrecisionSpec.parse("fixed:8:8") is get_precision("fixed8")``
        and ``parse(spec.key)`` round-trips for every spec this method
        produces.  A :class:`PrecisionSpec` input passes through.
        """
        if isinstance(text, PrecisionSpec):
            return text
        key = str(text).strip().lower()
        if key in _REGISTRY:
            return _REGISTRY[key]

        kinds = {kind.value: kind for kind in PrecisionKind}
        if ":" in key:
            parts = key.split(":")
            kind_name, bit_parts = parts[0], parts[1:]
            if bit_parts and "," in bit_parts[0]:
                if kind_name not in kinds or len(bit_parts) != 2:
                    raise ConfigurationError(
                        f"cannot parse precision {text!r}; per-layer form "
                        f"is 'kind:w1,w2,...:in' with kind in {sorted(kinds)}"
                    )
                try:
                    per_layer = [int(part) for part in bit_parts[0].split(",")]
                    input_bits = int(bit_parts[1])
                except ValueError:
                    raise ConfigurationError(
                        f"cannot parse precision {text!r}: bit widths must "
                        f"be integers"
                    ) from None
                return layered_spec(kinds[kind_name], per_layer, input_bits)
        else:
            match = re.fullmatch(r"(float|fixed|pow2|binary)(\d+)", key)
            if not match:
                raise ConfigurationError(
                    f"cannot parse precision {text!r}; expected a registry "
                    f"key ({sorted(_REGISTRY)}), 'kind:w:in', or 'kindN'"
                )
            kind_name, bit_parts = match.group(1), [match.group(2)]
        if kind_name not in kinds or not 1 <= len(bit_parts) <= 2:
            raise ConfigurationError(
                f"cannot parse precision {text!r}; expected 'kind:w:in' with "
                f"kind in {sorted(kinds)}"
            )
        try:
            bits = [int(part) for part in bit_parts]
        except ValueError:
            raise ConfigurationError(
                f"cannot parse precision {text!r}: bit widths must be integers"
            ) from None
        kind = kinds[kind_name]
        if kind is PrecisionKind.BINARY and len(bits) == 1:
            weight_bits, input_bits = 1, bits[0]
        elif len(bits) == 1:
            weight_bits = input_bits = bits[0]
        else:
            weight_bits, input_bits = bits
        for spec in _REGISTRY.values():
            if (spec.kind, spec.weight_bits, spec.input_bits) == (
                kind, weight_bits, input_bits,
            ):
                return spec
        return cls(kind, weight_bits, input_bits,
                   key=f"{kind.value}:{weight_bits}:{input_bits}")


@dataclass(frozen=True)
class LayeredPrecisionSpec(PrecisionSpec):
    """A precision spec with an independent weight width per layer.

    The paper's Section VI future-work direction (and the search's
    per-layer axis): one representation kind and one activation width,
    but each weight tensor carries its own bit count, in network layer
    order.  :meth:`weight_layer_specs` maps the widths onto a network's
    weight layers, so ``QuantizedNetwork``, the energy model and memory
    footprints each run a layer at its own width.  ``weight_bits`` is
    the per-layer maximum: the width of whatever the map does not cover
    (the energy model prices layers without weights there).

    The canonical key is the parseable per-layer form,
    ``"fixed:2,4,8:8"``, so layered specs round-trip through
    :meth:`PrecisionSpec.parse` across cache entries, registry
    manifests and process boundaries exactly like uniform ones.
    Construct via :func:`layered_spec` (or ``parse``), which computes
    the derived fields.
    """

    weight_bits_per_layer: Tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.weight_bits_per_layer:
            raise ConfigurationError(
                "layered precision needs at least one per-layer width"
            )
        if any(bits < 1 for bits in self.weight_bits_per_layer):
            raise ConfigurationError("per-layer bit widths must be >= 1")
        if self.weight_bits != max(self.weight_bits_per_layer):
            raise ConfigurationError(
                "headline weight_bits must be the per-layer maximum"
            )

    @property
    def label(self) -> str:
        widths = ",".join(str(b) for b in self.weight_bits_per_layer)
        return f"{super().label.split(' (')[0]} ([{widths}],{self.input_bits})"

    def layer_spec(self, bits: int) -> PrecisionSpec:
        """The uniform spec one layer assigned ``bits`` runs at."""
        return PrecisionSpec.parse(
            f"{self.kind.value}:{bits}:{self.input_bits}"
        )

    def per_layer_specs(self) -> List[PrecisionSpec]:
        """Uniform specs in layer order (one per weight tensor)."""
        return [self.layer_spec(bits) for bits in self.weight_bits_per_layer]

    def weight_layer_specs(
        self, network: "Sequential"
    ) -> List[Tuple["Module", PrecisionSpec]]:
        """Each weight layer of ``network`` with its own width's uniform
        spec; a width count that is not the network's weight-layer count
        raises :class:`~repro.errors.ConfigError`."""
        layers = network.weight_layers()
        if len(layers) != len(self.weight_bits_per_layer):
            raise ConfigError(
                "weight_bits_per_layer",
                f"spec {self.key!r} assigns "
                f"{len(self.weight_bits_per_layer)} layer widths but "
                f"{network.name!r} has {len(layers)} weight layers",
            )
        return list(zip(layers, self.per_layer_specs()))


def layered_spec(
    kind: Union[PrecisionKind, str],
    weight_bits_per_layer: Sequence[int],
    input_bits: int,
) -> LayeredPrecisionSpec:
    """Build a :class:`LayeredPrecisionSpec` with its canonical key."""
    if isinstance(kind, str):
        try:
            kind = PrecisionKind(kind.lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown precision kind {kind!r}"
            ) from None
    per_layer = tuple(int(bits) for bits in weight_bits_per_layer)
    if not per_layer:
        raise ConfigurationError(
            "layered precision needs at least one per-layer width"
        )
    key = f"{kind.value}:{','.join(str(b) for b in per_layer)}:{input_bits}"
    return LayeredPrecisionSpec(
        kind=kind,
        weight_bits=max(per_layer),
        input_bits=int(input_bits),
        key=key,
        weight_bits_per_layer=per_layer,
    )


def _registry() -> Dict[str, PrecisionSpec]:
    specs = [
        PrecisionSpec(PrecisionKind.FLOAT, 32, 32, "float32"),
        PrecisionSpec(PrecisionKind.FIXED, 32, 32, "fixed32"),
        PrecisionSpec(PrecisionKind.FIXED, 16, 16, "fixed16"),
        PrecisionSpec(PrecisionKind.FIXED, 8, 8, "fixed8"),
        PrecisionSpec(PrecisionKind.FIXED, 4, 4, "fixed4"),
        PrecisionSpec(PrecisionKind.POW2, 6, 16, "pow2"),
        PrecisionSpec(PrecisionKind.BINARY, 1, 16, "binary"),
    ]
    return {spec.key: spec for spec in specs}


_REGISTRY = _registry()

#: The seven precision points of Tables III-V, in table order.
PAPER_PRECISIONS: List[PrecisionSpec] = list(_REGISTRY.values())

#: Expanded-network suffixes of Table II (ALEX, ALEX+, ALEX++).
EXPANDED_VARIANTS = ["", "+", "++"]


def get_precision(key: str) -> PrecisionSpec:
    """Look up a named precision (``float32``, ``fixed16``, ``pow2``...)."""
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown precision {key!r}; choose from {sorted(_REGISTRY)}"
        ) from None
