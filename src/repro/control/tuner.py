"""The feedback controller: one knob move per window, with hysteresis.

:class:`AutoTuner` closes the loop between the sensor layer and three
actuators — precision tier, batcher shape, and admission rate.  Its
dynamics are deliberately boring: AIMD-style moves, a hysteresis dead
band between the breach and recover thresholds, consecutive-window
streaks before any action, and a cooldown after each one so the effect
of a move is observed before the next is considered.  Boring is the
point — an exciting controller oscillates, and an oscillating precision
knob trades accuracy for nothing.

Escalation order under a latency breach (cheapest reversible first):

1. **batch up** — double the batcher's max batch (more throughput per
   dispatch at some queueing-delay cost);
2. **tier down** — reroute nominal-precision traffic one rung down the
   :class:`~repro.control.TierLadder`, never past the policy's
   accuracy floor (this is the paper's trade made at runtime: spend
   accuracy to buy latency and energy);
3. **admission tighten** — multiplicative decrease of the token-bucket
   rate; the knob of last resort because it turns user requests away.

Relaxation when sustained-healthy runs the same ladder in reverse,
additively: loosen (then lift) admission, tier back up, shrink the
batch back toward its preferred size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.control.admission import TokenBucket
from repro.control.ladder import TierLadder
from repro.control.policy import SLOPolicy
from repro.control.signals import Signal
from repro.errors import ConfigurationError

__all__ = ["KnobConfig", "Action", "AutoTuner"]


@dataclass(frozen=True)
class KnobConfig:
    """Bounds and step sizes for the three actuators.

    Args:
        min_batch / max_batch: hard bounds on the batcher's max batch
            size; the tuner never sets a value outside them.
        preferred_batch: the size relaxation shrinks back toward (the
            operator's latency-friendly steady state).
        batch_decrease: additive step when relaxing the batch knob.
        admission_decrease: multiplicative factor (<1) applied to the
            admission rate on each tighten.
        admission_increase_ips: additive step when loosening.
        min_admission_ips: the rate is never tightened below this —
            total starvation is worse than a missed SLO.
        admission_headroom: the limit is *lifted* once the rate exceeds
            this multiple of observed throughput (the bucket is no
            longer binding) and the queue has drained.
        relax_queue_depth: max queue depth at which lifting the limit
            is considered safe.
    """

    min_batch: int = 1
    max_batch: int = 64
    preferred_batch: int = 8
    batch_decrease: int = 8
    admission_decrease: float = 0.7
    admission_increase_ips: float = 32.0
    min_admission_ips: float = 16.0
    admission_headroom: float = 2.0
    relax_queue_depth: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.min_batch <= self.preferred_batch <= self.max_batch:
            raise ConfigurationError(
                "need 1 <= min_batch <= preferred_batch <= max_batch"
            )
        if self.batch_decrease < 1:
            raise ConfigurationError("batch_decrease must be >= 1")
        if not 0.0 < self.admission_decrease < 1.0:
            raise ConfigurationError("admission_decrease must be in (0, 1)")
        if not self.admission_increase_ips > 0:
            raise ConfigurationError("admission_increase_ips must be > 0")
        if not self.min_admission_ips > 0:
            raise ConfigurationError("min_admission_ips must be > 0")
        if not self.admission_headroom > 1.0:
            raise ConfigurationError("admission_headroom must be > 1")
        if self.relax_queue_depth < 0:
            raise ConfigurationError("relax_queue_depth must be >= 0")


@dataclass(frozen=True)
class Action:
    """One actuation the tuner took, for the audit trail."""

    window: int          # window index the decision was made on
    knob: str            # "batch" | "tier" | "admission"
    old: object
    new: object
    reason: str          # e.g. "latency breach", "energy over budget"

    def format(self) -> str:
        return (
            f"window {self.window}: {self.knob} {self.old} -> {self.new}"
            f" ({self.reason})"
        )


class AutoTuner:
    """Closed-loop controller over tier / batch / admission knobs.

    The tuner holds *desired* knob values; a
    :class:`~repro.control.ControlLoop` applies the batch knob to the
    server's batcher and wires :attr:`admission` into its front end.
    The tier knob is applied by the tuner itself: install it as the
    server's ``degrade`` hook and :meth:`route` reroutes each admission
    of the nominal precision to the current tier's precision.

    Args:
        policy: targets and dynamics (:class:`SLOPolicy`).
        ladder: the precision tiers available for rerouting.
        knobs: actuator bounds/steps (default :class:`KnobConfig`).
        admission: token bucket to actuate (one is created if omitted).
    """

    def __init__(
        self,
        policy: SLOPolicy,
        ladder: TierLadder,
        knobs: Optional[KnobConfig] = None,
        admission: Optional[TokenBucket] = None,
    ):
        self.policy = policy
        self.ladder = ladder
        self.knobs = knobs or KnobConfig()
        self.admission = admission or TokenBucket()

        # Controller state.
        self.tier_index = 0
        self.batch_size = self.knobs.preferred_batch
        self._breach_streak = 0
        self._recover_streak = 0
        self._cooldown = 0
        self.actions: List[Action] = []

    # -- routing (the tier actuator) -----------------------------------
    @property
    def precision(self) -> str:
        """The precision the current tier serves."""
        return self.ladder[self.tier_index].precision

    def route(self, precision: str, queue_depth: int) -> str:
        """Pick the precision an admission is actually served at.

        Plugs into the servers' ``degrade`` hook: nominal-precision
        requests follow the current tier; other precisions pass through
        untouched.  ``queue_depth`` is part of the hook's signature; the
        tier already reflects the load the controller has seen.
        """
        if self.tier_index > 0 and precision == self.ladder[0].precision:
            return self.precision
        return precision

    # -- the control step ----------------------------------------------
    def step(self, signal: Signal) -> Optional[Action]:
        """Consume one window's signal; possibly move one knob.

        Returns the action taken, or ``None`` when the tuner held
        (dead band, streak not yet long enough, cooldown, idle window,
        or nothing left to move).
        """
        if not signal.has_traffic and signal.queue_depth == 0:
            # Idle window: no evidence either way.  Don't decay streaks
            # or cooldown on silence — a burst after a lull should meet
            # the controller exactly where the last burst left it.
            return None

        breached = signal.has_traffic and self.policy.breached(signal.p99_ms)
        healthy = signal.has_traffic and self.policy.healthy(signal.p99_ms)
        if breached:
            self._breach_streak += 1
            self._recover_streak = 0
        elif healthy:
            self._recover_streak += 1
            self._breach_streak = 0
        else:
            # Inside the hysteresis band (or a queue-only window): hold.
            self._breach_streak = 0
            self._recover_streak = 0

        if self._cooldown > 0:
            self._cooldown -= 1
            return None

        action: Optional[Action] = None
        if self._breach_streak >= self.policy.breach_windows:
            action = self._escalate(signal, "latency breach")
        elif signal.has_traffic and self.policy.over_energy(
            signal.energy_uj_per_request
        ):
            action = self._tier_down(signal, "energy over budget")
        elif self._recover_streak >= self.policy.recover_windows:
            action = self._relax(signal)

        if action is not None:
            self.actions.append(action)
            self._cooldown = self.policy.cooldown_windows
            self._breach_streak = 0
            self._recover_streak = 0
        return action

    # -- escalation ----------------------------------------------------
    def _escalate(self, signal: Signal, reason: str) -> Optional[Action]:
        action = self._batch_up(signal, reason)
        if action is None:
            action = self._tier_down(signal, reason)
        if action is None:
            action = self._admission_tighten(signal, reason)
        return action

    def _batch_up(self, signal: Signal, reason: str) -> Optional[Action]:
        new = min(self.batch_size * 2, self.knobs.max_batch)
        if new == self.batch_size:
            return None
        old, self.batch_size = self.batch_size, new
        return Action(signal.window, "batch", old, new, reason)

    def _tier_down(self, signal: Signal, reason: str) -> Optional[Action]:
        floor = self.ladder.floor_index(self.policy.accuracy_floor)
        if self.tier_index >= floor:
            return None
        old = self.precision
        self.tier_index += 1
        return Action(signal.window, "tier", old, self.precision, reason)

    def _admission_tighten(
        self, signal: Signal, reason: str
    ) -> Optional[Action]:
        old = self.admission.rate_ips
        if old is None:
            # First tighten: clamp to a fraction of what the server is
            # demonstrably completing, so the limit bites immediately.
            base = max(signal.throughput_ips, self.knobs.min_admission_ips)
            new = max(
                base * self.knobs.admission_decrease,
                self.knobs.min_admission_ips,
            )
        else:
            new = max(
                old * self.knobs.admission_decrease,
                self.knobs.min_admission_ips,
            )
            if new == old:
                return None
        self.admission.set_rate(new)
        return Action(signal.window, "admission", old, new, reason)

    # -- relaxation ----------------------------------------------------
    def _relax(self, signal: Signal) -> Optional[Action]:
        action = self._admission_loosen(signal)
        if action is None:
            action = self._tier_up(signal)
        if action is None:
            action = self._batch_down(signal)
        return action

    def _admission_loosen(self, signal: Signal) -> Optional[Action]:
        old = self.admission.rate_ips
        if old is None:
            return None
        new = old + self.knobs.admission_increase_ips
        lift = (
            new > self.knobs.admission_headroom
            * max(signal.throughput_ips, 1e-9)
            and signal.queue_depth <= self.knobs.relax_queue_depth
        )
        if lift:
            self.admission.disable()
            return Action(
                signal.window, "admission", old, None, "sustained healthy"
            )
        self.admission.set_rate(new)
        return Action(
            signal.window, "admission", old, new, "sustained healthy"
        )

    def _tier_up(self, signal: Signal) -> Optional[Action]:
        if self.tier_index == 0:
            return None
        old = self.precision
        self.tier_index -= 1
        return Action(
            signal.window, "tier", old, self.precision, "sustained healthy"
        )

    def _batch_down(self, signal: Signal) -> Optional[Action]:
        if self.batch_size <= self.knobs.preferred_batch:
            return None
        new = max(
            self.batch_size - self.knobs.batch_decrease,
            self.knobs.preferred_batch,
            self.knobs.min_batch,
        )
        old, self.batch_size = self.batch_size, new
        return Action(
            signal.window, "batch", old, new, "sustained healthy"
        )

    # -- summaries -----------------------------------------------------
    def accuracy_loss_bound(self) -> Optional[float]:
        """Largest known accuracy drop any tier the run visited implies.

        ``None`` when tier accuracies are unknown; ``0.0`` when the run
        never left tier 0.
        """
        deepest = self.tier_index
        for action in self.actions:
            if action.knob == "tier":
                index = self.ladder.index_of(str(action.new))
                if index is not None:
                    deepest = max(deepest, index)
        return self.ladder.accuracy_drop(deepest)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AutoTuner(tier={self.precision!r}, batch={self.batch_size}, "
            f"admission={self.admission!r})"
        )
