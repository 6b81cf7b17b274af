"""Benchmark: closed-loop controller — SLO attainment and disabled cost.

Two acceptance bars from the control subsystem:

* A server with **no** control loop installed must not pay for one.
  The hot-path additions are two branches in ``submit`` — the
  admission-gate check and the degrade-router call.  As with the
  resilience bench, a wall-clock A/B cannot resolve 2% on a shared
  runner, so the per-call cost of both hooks is measured directly and
  priced against the measured per-request latency of a plain run.

* Under the flash-crowd scenario, the autotuned arm must hold the
  (probe-calibrated) p99 SLO in a solid majority of control windows
  and lose no requests.  The attainment lands in
  ``results/control.json``.
"""

import json
import os
import time

from repro.control import (
    AutoTuner,
    KnobConfig,
    SLOPolicy,
    ScenarioRunner,
    TierLadder,
    TokenBucket,
    calibrate_slo,
    get_scenario,
)
from repro.data import load_dataset
from repro.serve import InferenceServer, ModelStore, run_closed_loop

from benchmarks.conftest import save_result

N_REQUESTS = 160
CONCURRENCY = 32
WORKERS = 4
MICRO_ITERS = 20_000
TIME_SCALE = 0.35
ATTAINMENT_FLOOR = 0.6   # hard in-test bar


def _plain_run(store, images):
    server = InferenceServer(
        store, workers=WORKERS, max_batch_size=16, max_queue_depth=512,
    )
    with server:
        outcome = run_closed_loop(
            server, images, "lenet_small", "fixed8",
            n_requests=N_REQUESTS, concurrency=CONCURRENCY,
        )
    assert outcome.client_errors == 0 and outcome.lost == 0
    return outcome.report


def test_bench_control(results_dir):
    split = load_dataset("digits", n_train=128, n_test=128, seed=0)
    images = split.test.images
    store = ModelStore(calibration_data={"digits": split.train.images})
    store.warm("lenet_small", "fixed8")
    store.warm("lenet_small", "fixed4")

    # -- disabled-loop overhead -------------------------------------
    plain = _plain_run(store, images)

    bucket = TokenBucket()  # unlimited: the uncontrolled default
    tuner = AutoTuner(
        SLOPolicy(latency_slo_ms=50.0),
        TierLadder.from_precisions(["fixed8", "fixed4"]),
    )
    started = time.perf_counter()
    for _ in range(MICRO_ITERS):
        bucket.try_acquire()
        tuner.route("fixed8", 0)
    hook_ms = (time.perf_counter() - started) / MICRO_ITERS * 1e3
    overhead_pct = 100.0 * hook_ms / plain.latency_ms_mean

    # -- flash-crowd scenario: autotuned vs static --------------------
    def factory():
        return InferenceServer(
            store, workers=WORKERS, max_batch_size=16, max_queue_depth=512,
        )

    probe = factory().start()
    try:
        slo_ms = calibrate_slo(probe, images, "lenet_small", "fixed8")
    finally:
        probe.stop()

    scenario = get_scenario("flash_crowd").scaled(TIME_SCALE)
    runner = ScenarioRunner(
        factory, images, "lenet_small", "fixed8",
        policy=SLOPolicy(latency_slo_ms=slo_ms),
        ladder=TierLadder.from_precisions(["fixed8", "fixed4"]),
        knobs=KnobConfig(max_batch=16, preferred_batch=8),
        interval_s=0.05,
    )
    scenario_verdict, autotuned, static = runner.judge(
        scenario, slo_ms, attainment_target=ATTAINMENT_FLOOR
    )

    lines = [
        "Closed-loop control: flash crowd "
        f"(time scale {TIME_SCALE}, SLO {slo_ms:.2f} ms calibrated)",
        "",
        f"SLO attainment (autotuned) : {autotuned.attainment * 100:.1f} %",
        f"SLO attainment (static)    : {static.attainment * 100:.1f} %",
        f"client p99 (autotuned)     : {autotuned.p99_ms:.2f} ms",
        f"client p99 (static)        : {static.p99_ms:.2f} ms",
        f"energy saved vs static     : "
        f"{scenario_verdict.energy_saved_pct:.1f} %",
        f"controller actions         : "
        f"{len(autotuned.tuner.actions)}",
        f"disabled hooks             : {1e3 * hook_ms:.3f} us/request",
        f"disabled-loop overhead     : {overhead_pct:.4f} %",
    ]
    save_result(results_dir, "control.txt", "\n".join(lines))
    with open(os.path.join(results_dir, "control.json"), "w") as handle:
        json.dump({
            "slo_attainment": round(autotuned.attainment, 4),
            "baseline_attainment": round(static.attainment, 4),
            "slo_ms": round(slo_ms, 3),
            "energy_saved_pct": round(scenario_verdict.energy_saved_pct, 3),
            "overhead_pct": round(overhead_pct, 5),
        }, handle, indent=2)
        handle.write("\n")

    # acceptance: the disabled loop is free (< 2% of request latency)
    assert overhead_pct < 2.0, (
        f"disabled control hooks cost {overhead_pct:.2f}% of latency"
    )
    # acceptance: the controller holds the SLO and drops nothing
    assert autotuned.lost == 0 and static.lost == 0
    assert autotuned.attainment >= ATTAINMENT_FLOOR, (
        f"autotuned attainment {autotuned.attainment:.2f} below "
        f"{ATTAINMENT_FLOOR}"
    )
