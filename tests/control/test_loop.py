"""ControlLoop: actuation wiring, attainment accounting, observe mode."""

from repro.control import (
    AutoTuner,
    ControlLoop,
    KnobConfig,
    SLOPolicy,
    TierLadder,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import Batcher, BatchPolicy
from repro.serve.stats import ServerStats


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class FakeServer:
    """Just enough server: stats + one batcher + the two actuator slots."""

    def __init__(self):
        self.stats = ServerStats(metrics=MetricsRegistry())
        self.batcher = Batcher(
            BatchPolicy(max_batch_size=32, max_delay_ms=1.0),
            max_queue_depth=64,
        )
        self.degrade = None
        self.admission = None


def make_loop(server, tuner=None, clock=None):
    policy = SLOPolicy(latency_slo_ms=50.0, breach_windows=1,
                       cooldown_windows=1)
    if tuner is None:
        tuner = AutoTuner(
            policy,
            TierLadder.from_precisions(["fixed8", "fixed4"]),
            knobs=KnobConfig(max_batch=64),
        )
    return ControlLoop(
        server, policy, tuner=tuner, clock=clock or FakeClock(),
        metrics=MetricsRegistry(),
    ), tuner


def test_install_wires_tuner_into_server():
    server = FakeServer()
    loop, tuner = make_loop(server)
    loop.install()
    assert server.degrade is tuner
    assert server.admission is tuner.admission


def test_observe_only_loop_never_actuates():
    server = FakeServer()
    policy = SLOPolicy(latency_slo_ms=50.0)
    loop = ControlLoop(server, policy, tuner=None, clock=FakeClock(),
                       metrics=MetricsRegistry())
    loop.install()
    assert server.degrade is None and server.admission is None
    server.stats.record_completion(500.0, 1.0, 1.0)  # way over SLO
    record = loop.tick()
    assert record.slo_met is False
    assert record.actions == ()
    assert server.batcher.policy.max_batch_size == 32  # untouched


def test_tick_applies_batch_knob_to_every_batcher():
    server = FakeServer()
    clock = FakeClock()
    loop, tuner = make_loop(server, clock=clock)
    loop.install()
    # one breached window with breach_windows=1 escalates: batch doubles
    server.stats.record_completion(500.0, 1.0, 1.0)
    clock.advance(0.1)
    record = loop.tick()
    assert record.actions and record.actions[0].knob == "batch"
    assert tuner.batch_size == 2 * tuner.knobs.preferred_batch
    assert server.batcher.policy.max_batch_size == tuner.batch_size


def test_attainment_counts_only_traffic_windows():
    server = FakeServer()
    clock = FakeClock()
    loop, _ = make_loop(server, clock=clock)
    # idle window: judged as None, excluded from attainment
    clock.advance(0.1)
    assert loop.tick().slo_met is None
    # met window
    server.stats.record_completion(10.0, 1.0, 1.0)
    clock.advance(0.1)
    assert loop.tick().slo_met is True
    # missed window
    server.stats.record_completion(500.0, 1.0, 1.0)
    clock.advance(0.1)
    assert loop.tick().slo_met is False
    assert loop.attainment() == 0.5
    assert len(loop.history) == 3


def test_attainment_is_one_for_an_idle_run():
    server = FakeServer()
    loop, _ = make_loop(server)
    loop.tick()
    assert loop.attainment() == 1.0


def test_knob_trajectory_is_json_ready():
    import json

    server = FakeServer()
    clock = FakeClock()
    loop, _ = make_loop(server, clock=clock)
    server.stats.record_completion(500.0, 1.0, 1.0)
    clock.advance(0.1)
    loop.tick()
    trajectory = loop.knob_trajectory()
    assert len(trajectory) == 1
    entry = json.loads(json.dumps(trajectory))[0]
    assert entry["window"] == 0
    assert entry["p99_ms"] == 500.0
    assert entry["slo_met"] is False
    assert entry["precision"] == "fixed8"


def test_threaded_start_stop_ticks():
    server = FakeServer()
    policy = SLOPolicy(latency_slo_ms=50.0)
    loop = ControlLoop(server, policy, tuner=None, interval_s=0.01,
                       metrics=MetricsRegistry())
    loop.start()
    loop.start()  # idempotent
    import time
    time.sleep(0.08)
    loop.stop()
    loop.stop()  # idempotent
    assert len(loop.history) >= 2  # several ticks plus the final drain


def test_controller_metrics_published():
    server = FakeServer()
    clock = FakeClock()
    metrics = MetricsRegistry()
    policy = SLOPolicy(latency_slo_ms=50.0, breach_windows=1,
                       cooldown_windows=1)
    tuner = AutoTuner(policy, TierLadder.from_precisions(["fixed8"]))
    loop = ControlLoop(server, policy, tuner=tuner, clock=clock,
                       metrics=metrics)
    server.stats.record_completion(500.0, 1.0, 1.0)
    clock.advance(0.1)
    loop.tick()
    snap = metrics.snapshot()
    assert snap["counters"]["controller.windows"] == 1
    assert snap["counters"]["controller.breaches"] == 1
    assert "controller.batch" in snap["gauges"]
