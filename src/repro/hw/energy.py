"""Per-image inference energy (the Table IV / Table V energy columns).

Energy = accelerator power x scheduled runtime.  Main-memory (DRAM)
energy is excluded, matching the paper ("these graphs do not reflect
the power consumption of the main memory").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.precision import LayeredPrecisionSpec, PrecisionSpec
from repro.errors import ConfigError
from repro.hw.accelerator import Accelerator, AcceleratorConfig
from repro.hw.scheduler import Schedule, TileScheduler
from repro.hw.tech import TECH_65NM, TechnologyLibrary
from repro.nn.network import Sequential


@dataclass(frozen=True)
class LayerEnergy:
    """Energy attribution for one layer."""

    name: str
    cycles: int
    energy_uj: float


@dataclass(frozen=True)
class EnergyReport:
    """Per-image energy for one (network, precision) pair."""

    network_name: str
    precision_label: str
    total_cycles: int
    runtime_us: float
    power_mw: float
    energy_uj: float
    layers: Tuple[LayerEnergy, ...]

    def savings_vs(self, baseline: "EnergyReport") -> float:
        """Energy saving in percent relative to ``baseline``."""
        return 100.0 * (1.0 - self.energy_uj / baseline.energy_uj)


class EnergyModel:
    """Evaluates networks on accelerator design points."""

    def __init__(
        self,
        config: AcceleratorConfig = AcceleratorConfig(),
        tech: TechnologyLibrary = TECH_65NM,
    ):
        self.config = config
        self.tech = tech
        self._accelerators: Dict[str, Accelerator] = {}
        self._reports: Dict[Tuple[str, tuple, str], EnergyReport] = {}

    def accelerator_for(self, spec: PrecisionSpec) -> Accelerator:
        """Cached accelerator instance per precision."""
        if spec.key not in self._accelerators:
            self._accelerators[spec.key] = Accelerator(
                spec, config=self.config, tech=self.tech
            )
        return self._accelerators[spec.key]

    def evaluate(
        self,
        network: Sequential,
        input_shape: tuple,
        spec: PrecisionSpec,
    ) -> EnergyReport:
        """Schedule ``network`` at ``spec`` and integrate energy.

        A :class:`~repro.core.precision.LayeredPrecisionSpec` prices
        each layer at its assigned per-layer width (see
        :meth:`evaluate_layered`); uniform specs take the single-
        schedule path below.
        """
        if isinstance(spec, LayeredPrecisionSpec):
            return self.evaluate_layered(network, input_shape, spec)
        accelerator = self.accelerator_for(spec)
        schedule: Schedule = TileScheduler(accelerator).schedule(network, input_shape)
        power_w = accelerator.power_mw * 1e-3
        period = self.tech.clock_period_s
        layers = tuple(
            LayerEnergy(
                name=layer.name,
                cycles=layer.cycles,
                energy_uj=layer.cycles * period * power_w * 1e6,
            )
            for layer in schedule.layers
        )
        runtime_s = schedule.runtime_s(self.tech.clock_hz)
        return EnergyReport(
            network_name=network.name,
            precision_label=spec.label,
            total_cycles=schedule.total_cycles,
            runtime_us=runtime_s * 1e6,
            power_mw=accelerator.power_mw,
            energy_uj=runtime_s * power_w * 1e6,
            layers=layers,
        )

    def evaluate_layered(
        self,
        network: Sequential,
        input_shape: tuple,
        spec: "LayeredPrecisionSpec",
    ) -> EnergyReport:
        """Per-layer mixed-precision energy.

        Each weight layer is priced from the schedule of its *own*
        uniform precision (bank capacities, cycle counts and datapath
        power all depend on the word width, so the per-width schedules
        differ); non-weight layers (pools) are priced at the spec's
        widest width, the conservative anchor.  The per-width uniform
        reports come from :meth:`evaluate_cached`, so a search
        generation touching many layered specs over one network
        schedules each distinct width once.
        """
        anchor = spec.layer_spec(spec.weight_bits)
        assigned = {
            layer.name: layer_spec
            for layer, layer_spec in spec.weight_layer_specs(network)
        }
        reports = {
            uniform.key: self.evaluate_cached(network, input_shape, uniform)
            for uniform in {anchor.key: anchor, **{
                s.key: s for s in assigned.values()
            }}.values()
        }
        anchor_report = reports[anchor.key]
        layers = []
        for index, anchor_layer in enumerate(anchor_report.layers):
            source = reports[assigned.get(anchor_layer.name, anchor).key]
            layers.append(source.layers[index])
        total_cycles = sum(layer.cycles for layer in layers)
        energy_uj = sum(layer.energy_uj for layer in layers)
        runtime_s = total_cycles * self.tech.clock_period_s
        return EnergyReport(
            network_name=network.name,
            precision_label=spec.label,
            total_cycles=total_cycles,
            runtime_us=runtime_s * 1e6,
            power_mw=(energy_uj / (runtime_s * 1e6) * 1e3
                      if runtime_s > 0 else 0.0),
            energy_uj=energy_uj,
            layers=tuple(layers),
        )

    @staticmethod
    def simulable(spec: PrecisionSpec) -> bool:
        """Whether :meth:`simulate` can run ``spec``: the simulator
        prices one datapath width at a time, so not a per-layer spec."""
        return not isinstance(spec, LayeredPrecisionSpec)

    def simulate(
        self,
        network: Sequential,
        input_shape: tuple,
        spec: PrecisionSpec,
        sim_config=None,
    ):
        """Cycle-level counterpart of :meth:`evaluate`.

        Runs the event-driven simulator (:mod:`repro.hw.sim`) on the
        same accelerator/schedule this model prices analytically and
        returns its :class:`repro.hw.sim.SimReport` — which carries the
        analytical cycles/energy alongside the simulated ones, so the
        cross-validation gap is one attribute away
        (``report.energy_gap_pct``).  A spec :meth:`simulable` refuses
        raises :class:`~repro.errors.ConfigError`.
        """
        from repro.hw.sim import SimConfig, TileSimulator

        if not self.simulable(spec):
            raise ConfigError(
                "precision",
                f"{spec.key!r} gives each layer its own weight width, but "
                "the cycle-level simulator runs one datapath width at a "
                "time; price it with evaluate",
            )
        accelerator = self.accelerator_for(spec)
        schedule = TileScheduler(accelerator).schedule(network, input_shape)
        return TileSimulator(
            accelerator, schedule, sim_config or SimConfig()
        ).run()

    def evaluate_cached(
        self,
        network: Sequential,
        input_shape: tuple,
        spec: PrecisionSpec,
    ) -> EnergyReport:
        """Memoized :meth:`evaluate`, keyed by (network name, shape, spec).

        The schedule depends only on layer shapes, so two networks with
        the same name and input shape are assumed architecturally
        identical — true for the registry networks this cache serves.
        ``ModelStore`` and the registry's ``Deployer`` call this once
        per servable build; both serving engines then read the stored
        ``Servable.energy_uj_per_image``.  The search and
        ``publish_with_modeled_costs`` price each candidate here, so
        repeated specs schedule once.

        The memo belongs to the instance: a
        :class:`~repro.search.PrecisionSearch`, a
        :class:`~repro.experiments.runner.SweepRunner` and a
        ``ModelStore`` each make their own model unless handed one, so
        callers that pass one model to several of them share its
        schedules.
        """
        key = (network.name, tuple(input_shape), spec.key)
        if key not in self._reports:
            self._reports[key] = self.evaluate(network, input_shape, spec)
        return self._reports[key]
