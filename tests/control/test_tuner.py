"""AutoTuner dynamics: convergence, hysteresis, bounds, cooldown.

These tests close the loop around a deterministic *plant*: an analytic
toy server whose p99 is a function of offered load and the tuner's own
knob settings.  No threads, no wall clock — every window is a pure
function call, so convergence claims are exact, not statistical.
"""

import pytest

from repro.control import (
    AutoTuner,
    KnobConfig,
    SLOPolicy,
    Signal,
    TierLadder,
    TokenBucket,
)
from repro.errors import ConfigurationError


def make_signal(window, p99, completed=50, queue_depth=0,
                energy=10.0, throughput=100.0):
    return Signal(
        window=window, at=float(window), elapsed_s=1.0,
        completed=completed, failed=0, rejected=0, throttled=0,
        deadline_expired=0, degraded=0, queue_depth=queue_depth,
        p50_ms=p99 / 2, p99_ms=p99, mean_ms=p99 / 2,
        energy_uj_per_request=energy, throughput_ips=throughput,
    )


def make_tuner(policy=None, accuracies=(0.95, 0.93, 0.85), **knob_kwargs):
    knob_kwargs.setdefault("max_batch", 32)
    return AutoTuner(
        policy or SLOPolicy(latency_slo_ms=50.0, breach_windows=2,
                            recover_windows=3, cooldown_windows=2),
        TierLadder.from_precisions(
            ["fixed16", "fixed8", "fixed4"], accuracies=list(accuracies)
        ),
        knobs=KnobConfig(**knob_kwargs),
    )


class Plant:
    """Toy server: p99 scales with load and inversely with the knobs.

    Each precision tier and each batch doubling halves the latency; a
    binding admission limit caps the load the server actually sees.
    """

    def __init__(self, tuner, base_ms=12.5):
        self.tuner = tuner
        self.base_ms = base_ms

    def p99(self, load):
        admitted = load
        rate = self.tuner.admission.rate_ips
        if rate is not None:
            admitted = min(load, rate)
        relief = (self.tuner.batch_size / 8.0) * (2 ** self.tuner.tier_index)
        return self.base_ms * admitted / (100.0 * relief)


def run_windows(tuner, loads, start=0):
    """Drive the closed loop over a load trace; returns the records."""
    plant = Plant(tuner)
    records = []
    for offset, load in enumerate(loads):
        signal = make_signal(start + offset, plant.p99(load),
                             throughput=min(load, 400.0))
        action = tuner.step(signal)
        records.append((signal, action))
    return records


def test_converges_under_step_load_without_oscillation():
    tuner = make_tuner()
    # step overload: p99 starts 8x over the SLO at the default knobs
    records = run_windows(tuner, [3200.0] * 40)
    tail = records[-10:]
    policy = tuner.policy
    assert all(not policy.breached(s.p99_ms) for s, _ in tail), (
        "controller failed to bring p99 under the SLO"
    )
    assert all(a is None for _, a in tail), (
        "knobs still moving after convergence — the loop oscillates"
    )


def test_converges_under_ramp_load():
    tuner = make_tuner()
    ramp = [100.0 + 80.0 * i for i in range(30)] + [2500.0] * 20
    records = run_windows(tuner, ramp)
    tail = records[-8:]
    assert all(not tuner.policy.breached(s.p99_ms) for s, _ in tail)
    assert all(a is None for _, a in tail)


def test_knob_bounds_never_exceeded():
    tuner = make_tuner()
    knobs = tuner.knobs
    floor = tuner.ladder.floor_index(tuner.policy.accuracy_floor)
    for _, _ in run_windows(tuner, [10_000.0] * 60):
        assert knobs.min_batch <= tuner.batch_size <= knobs.max_batch
        assert 0 <= tuner.tier_index <= floor
        rate = tuner.admission.rate_ips
        assert rate is None or rate >= knobs.min_admission_ips
    # then full recovery: bounds hold on the way back up too
    for _, _ in run_windows(tuner, [10.0] * 60, start=60):
        assert knobs.min_batch <= tuner.batch_size <= knobs.max_batch
        assert 0 <= tuner.tier_index <= floor


def test_hysteresis_dead_band_holds_knobs():
    tuner = make_tuner()
    policy = tuner.policy
    # p99 pinned between recover (35) and breach (50): never act
    for window in range(20):
        assert tuner.step(make_signal(window, 42.0)) is None
    assert tuner.actions == []
    assert tuner.batch_size == tuner.knobs.preferred_batch
    assert tuner.tier_index == 0
    # ...and a single breach window is not enough either
    assert tuner.step(make_signal(20, 60.0)) is None
    assert policy.breach_windows > 1


def test_cooldown_spaces_actions():
    tuner = make_tuner()
    for window in range(20):
        tuner.step(make_signal(window, 500.0))  # permanent breach
    windows = [action.window for action in tuner.actions]
    assert len(windows) >= 3
    gaps = [b - a for a, b in zip(windows, windows[1:])]
    assert all(
        gap >= tuner.policy.cooldown_windows + 1 for gap in gaps
    ), f"actions too close together: {windows}"


def test_escalation_order_batch_tier_admission():
    tuner = make_tuner(max_batch=16, preferred_batch=8)
    for window in range(40):
        tuner.step(make_signal(window, 500.0, throughput=200.0))
    knob_order = [action.knob for action in tuner.actions]
    assert knob_order[0] == "batch"          # cheapest knob first
    assert "tier" in knob_order and "admission" in knob_order
    assert knob_order.index("batch") < knob_order.index("tier")
    assert knob_order.index("tier") < knob_order.index("admission")
    # after batch maxed and tiers exhausted, only admission remains
    assert tuner.batch_size == 16
    assert tuner.tier_index == 2
    assert tuner.admission.limited


def test_accuracy_floor_stops_tier_descent():
    policy = SLOPolicy(latency_slo_ms=50.0, accuracy_floor=0.90,
                       breach_windows=1, cooldown_windows=1)
    tuner = make_tuner(policy=policy)
    for window in range(30):
        tuner.step(make_signal(window, 500.0))
    # fixed4 (accuracy 0.85) is below the 0.90 floor: never selected
    assert tuner.tier_index <= 1
    assert tuner.precision != "fixed4"
    assert "fixed4" not in {
        action.new for action in tuner.actions if action.knob == "tier"
    }


def test_energy_budget_tiers_down_without_latency_breach():
    policy = SLOPolicy(latency_slo_ms=50.0, energy_budget_uj=8.0,
                       cooldown_windows=1)
    tuner = make_tuner(policy=policy)
    action = tuner.step(make_signal(0, p99=10.0, energy=20.0))
    assert action is not None and action.knob == "tier"
    assert action.reason == "energy over budget"
    assert tuner.tier_index == 1


def test_relaxation_reverses_in_order():
    tuner = make_tuner(max_batch=16)
    # drive to full escalation first
    for window in range(40):
        tuner.step(make_signal(window, 500.0, throughput=200.0))
    assert tuner.admission.limited and tuner.tier_index > 0
    escalations = len(tuner.actions)
    # now a long healthy stretch with an empty queue
    for window in range(40, 120):
        tuner.step(make_signal(window, 5.0, queue_depth=0,
                               throughput=50.0))
    relaxations = tuner.actions[escalations:]
    knobs = [action.knob for action in relaxations]
    # admission is released before the tier recovers, tier before batch
    assert knobs and knobs[0] == "admission"
    assert not tuner.admission.limited
    assert tuner.tier_index == 0
    assert tuner.batch_size == tuner.knobs.preferred_batch
    last_admission = max(
        i for i, knob in enumerate(knobs) if knob == "admission"
    )
    first_tier = min(i for i, knob in enumerate(knobs) if knob == "tier")
    first_batch = min(i for i, knob in enumerate(knobs) if knob == "batch")
    assert last_admission < first_tier < first_batch


def test_idle_windows_are_no_ops():
    tuner = make_tuner()
    # two breaches, then silence: the streak must survive the idle gap
    tuner.step(make_signal(0, 500.0))
    for window in range(1, 10):
        idle = make_signal(window, 0.0, completed=0, throughput=0.0)
        assert tuner.step(idle) is None
    action = tuner.step(make_signal(10, 500.0))
    assert action is not None  # second breach completes the streak


def test_accuracy_loss_bound_tracks_deepest_tier():
    tuner = make_tuner()
    assert tuner.accuracy_loss_bound() == 0.0
    for window in range(40):
        tuner.step(make_signal(window, 500.0))
    assert tuner.tier_index == 2
    assert tuner.accuracy_loss_bound() == pytest.approx(0.95 - 0.85)


def test_knob_config_validation():
    with pytest.raises(ConfigurationError):
        KnobConfig(min_batch=8, preferred_batch=4)
    with pytest.raises(ConfigurationError):
        KnobConfig(admission_decrease=1.0)
    with pytest.raises(ConfigurationError):
        KnobConfig(admission_headroom=1.0)


def test_controller_route_follows_tier_for_nominal_precision():
    tuner = make_tuner()
    assert tuner.route("fixed16", 0) == "fixed16"
    tuner.tier_index = 2
    assert tuner.route("fixed16", 0) == "fixed4"
    # non-nominal traffic is never rerouted by the tier knob
    assert tuner.route("float32", 0) == "float32"


def test_shared_admission_bucket_is_actuated():
    bucket = TokenBucket()
    tuner = make_tuner()
    tuner.admission = bucket
    for window in range(40):
        tuner.step(make_signal(window, 500.0, throughput=200.0))
    assert bucket.limited
