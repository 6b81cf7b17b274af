"""Command-line interface: ``python -m repro <command>``.

Commands:

``train``
    Train a registered network on a synthetic task (optionally with
    quantization-aware fine-tuning) and save the weights.
``evaluate``
    Load saved weights and report test accuracy at one or more
    precisions.
``hw-report``
    Print the synthesis-style accelerator report for a precision.
``energy``
    Per-image energy of a registered network across all precisions.
``export-rtl``
    Write the generated NFU Verilog for a precision.
``serve-bench``
    Closed-loop load test of the batched inference server, in process
    or on a replica fleet: throughput, latency percentiles, batch-size
    histogram and modeled energy.  Text and ``--json`` runs share one
    exit rule (see ``docs/serving.md``).
``profile``
    Per-unit profile of quantized inference on the backend
    ``--backend`` names (``fused`` by default):
    forward time, FLOPs, bytes moved through the accelerator buffers
    and weight quantization RMS error for one (network, precision)
    point, gated bitwise against the reference backend.  ``--sim``
    appends the cycle-level simulated view (utilization, stall
    breakdown, energy).
``simulate``
    Event-driven cycle-level accelerator simulation (``repro.hw.sim``):
    cycles, utilization %, stall breakdown by cause, per-image energy,
    roofline point.  ``--validate`` cross-checks the simulator against
    the analytical Table-III model for every precision;
    ``--sweep-bandwidth`` tabulates utilization vs DMA bandwidth —
    the axis the analytical model cannot see.
``sweep``
    Train a precision sweep (float baseline + QAT fine-tune per
    point) with worker-process parallelism and the resumable on-disk
    result cache: ``repro sweep --workers 4`` regenerates a network's
    accuracy column and a re-run resumes from cache.  ``--publish``
    turns every converged point into a registry artifact.
``search``
    Automated mixed-precision & width search: evolve per-layer
    precision assignments crossed with width-scaled architectures
    under an energy budget, prune each generation with the Pareto
    frontier, and (``--registry``) publish + promote the surviving
    frontier through a channel — see ``docs/search.md``.
``registry``
    Model-artifact lifecycle (``repro registry publish|list|promote|
    rollback``): publish trained weights as content-addressed
    artifacts, promote them through channels behind the Pareto gate
    and roll them back (``serve-bench --registry`` serves a channel) —
    see ``docs/registry.md``.

Everything the CLI does is also available programmatically; the CLI
exists so the common workflows are one command.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from typing import List, Optional

import numpy as np

from repro import backends, control, core, hw, nn, obs, registry, serve
from repro.core.precision import PAPER_PRECISIONS
from repro.resilience import chaos_preset
from repro.core.sweep import PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.errors import ConfigurationError, RegistryError
from repro.experiments.formatting import format_table
from repro.hw.nfu import NfuGeometry
from repro.parallel import SweepCache, default_cache_dir, run_sweep
from repro.zoo import NETWORK_BUILDERS, build_network, network_info


def _add_common_training_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--network", default="lenet_small",
                        choices=sorted(NETWORK_BUILDERS))
    parser.add_argument("--n-train", type=int, default=1500)
    parser.add_argument("--n-test", type=int, default=400)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)


def cmd_train(args: argparse.Namespace) -> int:
    info = network_info(args.network)
    split = load_dataset(info.dataset, n_train=args.n_train,
                         n_test=args.n_test, seed=args.seed)
    network = build_network(args.network, seed=args.seed)
    trainer = nn.Trainer(
        network,
        nn.SGD(network.parameters(), lr=args.lr, momentum=0.9, weight_decay=1e-4),
        batch_size=args.batch_size,
        rng=np.random.default_rng(args.seed),
        restore_best=True,
    )
    trainer.fit(
        split.train.images, split.train.labels,
        split.val.images, split.val.labels,
        epochs=args.epochs, verbose=True,
    )
    accuracy = trainer.evaluate(split.test.images, split.test.labels)["accuracy"]
    print(f"float32 test accuracy: {100 * accuracy:.2f}%")

    if args.precision != "float32":
        spec = core.get_precision(args.precision)
        qnet = core.QuantizedNetwork(network, spec)
        qnet.calibrate(split.train.images[:256])
        qat = core.QATTrainer(
            qnet,
            nn.SGD(network.parameters(), lr=args.lr / 4, momentum=0.9),
            batch_size=args.batch_size,
            rng=np.random.default_rng(args.seed + 1),
            restore_best=True,
        )
        qat.fit(
            split.train.images, split.train.labels,
            split.val.images, split.val.labels,
            epochs=max(args.epochs // 2, 1), verbose=True,
        )
        accuracy = qnet.evaluate(split.test.images, split.test.labels)
        print(f"{spec.label} test accuracy: {100 * accuracy:.2f}%")

    if args.output:
        nn.save_network_weights(network, args.output)
        print(f"weights saved to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    info = network_info(args.network)
    split = load_dataset(info.dataset, n_train=args.n_train,
                         n_test=args.n_test, seed=args.seed)
    network = build_network(args.network, seed=args.seed)
    nn.load_network_weights(network, args.weights)
    rows = []
    for key in args.precisions:
        spec = core.get_precision(key)
        if spec.is_float:
            logits = network.predict(split.test.images)
            accuracy = nn.accuracy(logits, split.test.labels)
        else:
            qnet = core.QuantizedNetwork(network, spec)
            qnet.calibrate(split.train.images[:256])
            accuracy = qnet.evaluate(split.test.images, split.test.labels)
        rows.append([spec.label, f"{100 * accuracy:.2f}"])
    print(format_table(["Precision (w,in)", "Acc %"], rows,
                       title=f"{args.network} on {info.dataset}"))
    return 0


def cmd_hw_report(args: argparse.Namespace) -> int:
    accelerator = hw.Accelerator.for_precision(args.precision)
    print(hw.synthesis_report(accelerator))
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    info = network_info(args.network)
    network = build_network(args.network, seed=0)
    model = hw.EnergyModel()
    baseline = model.evaluate(network, info.input_shape, PAPER_PRECISIONS[0])
    rows = []
    for spec in PAPER_PRECISIONS:
        report = model.evaluate(network, info.input_shape, spec)
        rows.append([
            spec.label,
            f"{report.energy_uj:.2f}",
            f"{report.savings_vs(baseline):.2f}",
            f"{report.runtime_us:.1f}",
        ])
    print(format_table(
        ["Precision (w,in)", "Energy uJ", "Saving %", "Runtime us"],
        rows, title=f"Per-image inference energy: {args.network}",
    ))
    return 0


def cmd_export_rtl(args: argparse.Namespace) -> int:
    spec = core.get_precision(args.precision)
    geometry = NfuGeometry(neurons=args.neurons, synapses=args.synapses)
    source = hw.generate_nfu(spec, geometry)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        print(source)
    return 0


def _serve_bench_server(
    args: argparse.Namespace,
    store: serve.ModelStore,
    max_batch: int,
    artifact=None,
    faults=None,
) -> serve.Server:
    """Build (unstarted) the server a serve-bench run drives.

    With ``--replicas`` a :class:`~repro.serve.FleetServer` whose
    replicas build what ``store`` would, deploy the registry
    ``artifact`` and arm their own ``--chaos`` injectors; otherwise an
    :class:`~repro.serve.InferenceServer` on ``store`` with ``faults``.
    """
    if args.replicas > 0:
        crash_after = None
        if args.crash_after > 0:
            # deterministic chaos: the last replica dies once, mid-run
            crash_after = (args.replicas - 1, args.crash_after)
        return serve.FleetServer(serve.FleetConfig(
            replicas=args.replicas,
            ring_slots=args.ring_slots,
            max_batch_size=max_batch,
            max_delay_ms=args.max_delay_ms,
            max_queue_depth=args.queue_size,
            seed=store.seed,
            calibration_images=store.calibration_images,
            weight_paths=store.weight_paths,
            warm=[(args.network, args.precision)],
            startup_artifact=artifact,
            chaos_seed=args.chaos,
            crash_replica_after=crash_after,
        ))
    return serve.InferenceServer(
        store,
        workers=args.workers,
        max_batch_size=max_batch,
        max_delay_ms=args.max_delay_ms,
        max_queue_depth=args.queue_size,
        faults=faults,
    )


def _bench_payload(
    args, spec, servable, artifact, rollout, report, *,
    result=None, fleet_report=None, canary=None, injector=None,
    baseline=None, scenario=None, control_section=None,
) -> dict:
    """The serve-bench payload: the fields every run shares, then each
    section that applies to this run.  ``--json`` prints it, the text
    report renders it, and the exit code is judged on it."""
    payload = {
        "network": args.network,
        "precision": spec.key,
        "backend": servable.frozen.backend.name,
        "max_batch": args.max_batch,
        "memory_kb": float(servable.memory_kb),
        "energy_uj_per_image": float(servable.energy_uj_per_image),
        "report": dataclasses.asdict(report),
    }
    if artifact is not None:
        payload["registry"] = dict(
            zip(("root", "channel", "digest", "version"), artifact)
        )
        if rollout is not None:
            payload["registry"].update(
                swap_ms=rollout.swap_ms, build_ms=rollout.build_ms
            )
    if result is not None:
        payload.update({
            "requests": args.requests,
            "concurrency": args.concurrency,
            "deadline_ms": args.deadline_ms if args.deadline_ms > 0 else None,
            "chaos_seed": args.chaos,
            "retries": result.retries,
            "client_errors": result.client_errors,
            "deadline_expired": result.deadline_expired,
            "lost": result.lost,
            "accounted": result.accounted,
            "submitted": result.submitted,
        })
    if fleet_report is None:
        payload["workers"] = args.workers
    else:
        payload.update({
            "replicas": args.replicas,
            "ring_slots": args.ring_slots,
            "crash_after": args.crash_after or None,
            "replica_compute": dataclasses.asdict(fleet_report.replica_compute),
            "fleet": {
                "restarts": fleet_report.restarts,
                "resubmissions": fleet_report.resubmissions,
                "replicas": {
                    str(i): dataclasses.asdict(status)
                    for i, status in fleet_report.replicas.items()
                },
            },
        })
    if canary is not None:
        payload["canary"] = {
            "outcome": canary.outcome,
            "digest": canary.digest,
            "version": canary.version,
            "replicas": list(canary.canary_indices),
            "decision": dataclasses.asdict(canary.decision),
        }
    if injector is not None:
        payload["injected_faults"] = injector.counts()
    if baseline is not None:
        payload["baseline_report"] = dataclasses.asdict(baseline.report)
    if scenario is not None:
        payload["concurrency_profile"] = [
            {"phase": p.name, "duration_s": p.duration_s,
             "concurrency": p.concurrency}
            for p in scenario.phases
        ]
        payload["control"] = control_section
    return payload


def _serve_bench_exit(args: argparse.Namespace, payload: dict) -> int:
    """The exit code of one serve-bench run, judged on its payload so
    the text report and ``--json`` cannot disagree.

    ``--autotune`` exits on its scenario verdict.  Otherwise a lost
    future always fails; typed client errors fail unless ``--chaos`` or
    ``--sabotage-canary`` armed the faults that cause them;
    ``--crash-after`` fails unless the killed replica restarted; and
    ``--expect`` fails unless the canary outcome matches.
    """
    if args.autotune:
        return 0 if payload["control"]["passed"] else 1
    failed = (
        payload["lost"] > 0
        or (payload["client_errors"] > 0
            and args.chaos is None and not args.sabotage_canary)
        or (args.crash_after > 0 and payload["fleet"]["restarts"] < 1)
        or (args.expect and payload["canary"]["outcome"] != args.expect)
    )
    return 1 if failed else 0


def _print_bench(args, spec, payload: dict, body: str) -> None:
    """The text report: one header, the run's ``body``, then each
    section the payload carries."""
    print(f"serving {args.network} at {spec.label}: "
          f"{payload['memory_kb']:.0f} KB footprint, "
          f"{payload['energy_uj_per_image']:.3f} uJ/image modeled, "
          f"{payload['backend']} backend")
    if "registry" in payload:
        entry = payload["registry"]
        timing = (
            f", build {entry['build_ms']:.1f} ms, swap {entry['swap_ms']:.2f} ms"
            if "swap_ms" in entry else ""
        )
        print(f"registry                : {entry['channel']} "
              f"v{entry['version']} ({entry['digest'][:12]}){timing}")
    if args.chaos is not None:
        print(f"chaos                   : fault injection armed, "
              f"seed {args.chaos}")
    if args.crash_after > 0:
        print(f"deterministic crash     : replica {args.replicas - 1} "
              f"after {args.crash_after} batches")
    print()
    print(body)
    for label, key in (
        ("backpressure retries", "retries"),
        ("client errors", "client_errors"),
        ("deadline expired", "deadline_expired"),
        ("LOST futures", "lost"),
    ):
        if payload.get(key):
            print(f"{label:<24}: {payload[key]}")
    if "injected_faults" in payload:
        fired = ", ".join(
            f"{site}:{count}"
            for site, count in sorted(payload["injected_faults"].items())
        ) or "(none)"
        print(f"injected faults         : {fired}")
        print(f"accounted               : {payload['accounted']}/"
              f"{payload['submitted']} (result | deadline | typed error)")
    if "canary" in payload:
        canary = payload["canary"]
        decision = canary["decision"]
        sabotaged = " (sabotaged)" if args.sabotage_canary else ""
        print(f"canary                  : {canary['digest'][:12]} on "
              f"replicas {canary['replicas']}{sabotaged}")
        print(f"canary outcome          : {canary['outcome']} "
              f"({decision['reason']})")
        print(f"canary traffic          : canary "
              f"{decision['canary_requests']} req "
              f"(err {decision['canary_error_rate']:.1%}, "
              f"p99 {decision['canary_p99_ms']:.2f} ms) vs control "
              f"{decision['control_requests']} req "
              f"(err {decision['control_error_rate']:.1%}, "
              f"p99 {decision['control_p99_ms']:.2f} ms)")
    if "baseline_report" in payload:
        single = payload["baseline_report"]
        speedup = (
            payload["report"]["throughput_ips"] / single["throughput_ips"]
            if single["throughput_ips"] > 0 else float("inf")
        )
        print()
        print(f"batch=1 reference       : {single['throughput_ips']:.1f} "
              f"img/s, p95 {single['latency_ms_p95']:.2f} ms")
        print(f"dynamic batching speedup: {speedup:.2f}x img/s vs max-batch=1")
    if "control" in payload:
        section = payload["control"]
        if section["slo_calibrated"]:
            print("SLO                     : calibrated, 3x the p99 of an "
                  "uncontended probe")
        print(f"tier ladder             : {' > '.join(section['tiers'])}")
        print("controller actions      :")
        for action in section["actions"] or ["(none — the SLO held unaided)"]:
            print(f"  {action}")


def cmd_serve_bench(args: argparse.Namespace) -> int:
    # flags the chosen engine would ignore fail before anything is
    # built or spawned
    if args.canary and not args.registry:
        raise RegistryError("--canary needs --registry (artifacts to roll)")
    if args.canary and args.replicas < 2:
        raise RegistryError("--canary needs --replicas >= 2 (a control group)")
    if (args.expect or args.sabotage_canary) and not args.canary:
        raise ConfigurationError("--expect and --sabotage-canary need --canary")
    if args.crash_after > 0 and args.replicas == 0:
        raise ConfigurationError("--crash-after needs --replicas (one to kill)")
    if args.autotune and args.replicas > 0:
        raise ConfigurationError(
            "--autotune scenarios run the in-process engine; drop --replicas"
        )
    if args.autotune and args.chaos is not None:
        raise ConfigurationError(
            "--autotune with faults is spelled --scenario chaos; drop --chaos"
        )
    channel = artifact = rollout = None
    if args.registry:
        channel = registry.Channel(registry.ArtifactStore(args.registry), args.channel)
        manifest = channel.active_manifest()
        # the channel decides what is served; CLI network/precision
        # flags only apply to registry-less runs
        args.network = manifest.network
        args.precision = manifest.precision
        entry = channel.active()
        artifact = (channel.store.root, channel.name, entry.digest, entry.version)
    info = network_info(args.network)
    images = load_dataset(
        info.dataset, n_train=64, n_test=128, seed=args.seed
    ).test.images
    store = serve.ModelStore(
        weight_paths={args.network: args.weights} if args.weights else None,
        calibration_images=args.calibration,
        seed=args.seed,
    )
    if channel is not None and args.replicas == 0:
        rollout = registry.Deployer(channel.store, store).rollout(channel)
    servable = store.warm(args.network, args.precision)  # build outside timing
    spec = core.PrecisionSpec.parse(args.precision)
    make_payload = functools.partial(
        _bench_payload, args, spec, servable, artifact, rollout
    )
    if args.autotune:
        payload, body = _serve_bench_scenario(args, store, images, make_payload)
    else:
        payload, body = _serve_bench_closed_loop(
            args, store, images, channel, artifact, make_payload
        )
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_bench(args, spec, payload, body)
    return _serve_bench_exit(args, payload)


def _serve_bench_closed_loop(args, store, images, channel, artifact, make_payload):
    """One closed-loop run on the server the flags select, with a canary
    riding its traffic under ``--canary``, then the in-process batch-1
    baseline.  Returns the payload and the text report's body."""
    deadline_ms = args.deadline_ms if args.deadline_ms > 0 else None

    def closed_loop(server, n_requests: int) -> serve.LoadResult:
        return serve.run_closed_loop(
            server, images, args.network, args.precision,
            n_requests=n_requests, concurrency=args.concurrency,
            deadline_ms=deadline_ms,
        )

    injector = None
    if args.chaos is not None and args.replicas == 0:
        # the servable is already warm, so engine.forward is the only
        # armed site this run reaches
        injector = chaos_preset(args.chaos)
    server = _serve_bench_server(args, store, args.max_batch, artifact, injector)
    fleet = server if args.replicas > 0 else None
    if fleet is not None:
        fleet.start(install_signal_handler=True)
    else:
        server.start()
    canary = None
    try:
        controller = None
        if args.canary:
            policy = registry.CanaryPolicy(
                fraction=args.canary_fraction,
                min_requests=args.canary_min_requests,
            )
            controller = registry.CanaryController(
                fleet, channel.store, channel, policy
            )
            controller.begin(args.canary, sabotage=args.sabotage_canary)
        result = closed_loop(server, args.requests)
        if controller is not None:
            decision = controller.decide()
            rounds = 0
            while decision.verdict == "wait" and rounds < 5:
                # uneven work stealing can starve one group early on;
                # keep the traffic flowing until both groups have data
                closed_loop(server, max(args.requests // 2, 32))
                decision = controller.decide()
                rounds += 1
            canary = controller.finish(decision)
    finally:
        server.stop()
    freport = fleet.fleet_report() if fleet is not None else None
    baseline = None
    if fleet is None and not args.skip_baseline and args.max_batch > 1:
        with _serve_bench_server(args, store, 1) as reference:
            baseline = closed_loop(reference, args.requests)
    executor = f"{args.workers} workers" if fleet is None else (
        f"{args.replicas} replicas ({args.ring_slots} ring slots)"
    )
    body = (
        f"closed loop: {args.requests} requests, {args.concurrency} "
        f"clients, {executor}, max batch {args.max_batch}\n"
        + (freport or result.report).format()
    )
    payload = make_payload(
        result.report, result=result, fleet_report=freport, canary=canary,
        injector=injector, baseline=baseline,
    )
    return payload, body


def _serve_bench_scenario(args, store, images, make_payload):
    """The ``--autotune`` A/B driver: one scenario through the
    closed-loop controller and through a static tier-0 twin.  Returns
    the payload and the scenario verdict as the text report's body."""
    scenario = control.get_scenario(args.scenario)
    if args.scenario_time_scale != 1.0:
        scenario = scenario.scaled(args.scenario_time_scale)

    if args.tiers:
        keys = [key.strip() for key in args.tiers.split(",") if key.strip()]
        ladder = control.TierLadder.from_precisions(keys)
    elif args.registry:
        ladder = control.TierLadder.from_registry(
            registry.ArtifactStore(args.registry), args.network
        )
    else:
        ladder = control.TierLadder.from_precisions(
            control.default_tier_keys(args.precision)
        )
    if ladder[0].precision != args.precision:
        raise ConfigurationError(
            f"tier 0 ({ladder[0].precision!r}) must be the served "
            f"precision ({args.precision!r})"
        )
    # warm every tier and fill modeled energies before any timing starts
    ladder = ladder.priced(store, args.network)
    factory = functools.partial(_serve_bench_server, args, store, args.max_batch)

    slo_ms = args.slo_ms
    if slo_ms <= 0:
        with factory() as probe:
            slo_ms = control.calibrate_slo(
                probe, images, args.network, args.precision
            )

    policy = control.SLOPolicy(
        latency_slo_ms=slo_ms,
        accuracy_floor=args.accuracy_floor if args.accuracy_floor > 0 else None,
    )
    knobs = control.KnobConfig(
        max_batch=args.max_batch,
        preferred_batch=min(8, args.max_batch),
    )
    runner = control.ScenarioRunner(
        factory, images, args.network, args.precision,
        policy=policy, ladder=ladder, knobs=knobs,
        interval_s=args.control_interval_ms / 1e3,
    )
    verdict, autotuned, static = runner.judge(
        scenario, slo_ms, attainment_target=args.attainment
    )
    section = {
        "scenario": scenario.name,
        "slo_ms": slo_ms,
        "slo_calibrated": args.slo_ms <= 0,
        "attainment_target": args.attainment,
        "attainment": autotuned.attainment,
        "baseline_attainment": static.attainment,
        "windows": len(autotuned.loop.history),
        "p99_ms": autotuned.p99_ms,
        "baseline_p99_ms": static.p99_ms,
        "energy_uj_per_request": autotuned.energy_uj_per_request,
        "baseline_energy_uj_per_request": static.energy_uj_per_request,
        "energy_saved_pct": verdict.energy_saved_pct,
        "accuracy_loss_bound": verdict.accuracy_loss_bound,
        "accuracy_floor": verdict.accuracy_floor,
        "tiers": ladder.precisions,
        "lost": autotuned.lost,
        "passed": verdict.passed,
        "actions": [
            action.format() for action in
            (autotuned.tuner.actions if autotuned.tuner else [])
        ],
        "knob_trajectory": autotuned.loop.knob_trajectory(),
    }
    payload = make_payload(
        autotuned.report, scenario=scenario, control_section=section
    )
    return payload, verdict.format()


def cmd_profile(args: argparse.Namespace) -> int:
    impl = backends.get(args.backend)
    backend_name = impl.name
    info = network_info(args.network)
    spec = core.PrecisionSpec.parse(args.precision)
    limit = max(args.limit, 1)
    # the loader carves ~10% (>=1 per class) of the test pool into the
    # validation set, so over-request to keep `limit` test images
    split = load_dataset(info.dataset, n_train=max(limit, 64),
                         n_test=max(2 * limit, 40), seed=args.seed)
    images = split.test.images[:limit]

    network = build_network(args.network, seed=args.seed)
    # before the timed pass, so that a spec the simulator refuses fails fast
    sim_report = None
    if args.sim:
        sim_report = hw.EnergyModel().simulate(
            network, info.input_shape, spec
        )
    if args.weights:
        nn.load_network_weights(network, args.weights)
    qnet = core.QuantizedNetwork(network, spec)
    qnet.calibrate(split.train.images[: args.calibration])
    # RMS error must be measured while full-precision weights are
    # resident, i.e. before the quantized weights are swapped in.
    quant_rms = {
        name.rsplit(".", 1)[0]: err
        for name, err in qnet.weight_quantization_errors().items()
    }

    pipeline = qnet.pipeline
    metrics = obs.get_metrics()
    timed = []

    def observe(unit: backends.Unit, seconds: float) -> None:
        timed.append((unit.index, seconds))
        metrics.histogram(f"profile.forward_ms.{unit.layer.name}").observe(
            seconds * 1e3
        )

    # the timed pass splits the images as `predict` does
    batches = [images[i : i + 128] for i in range(0, images.shape[0], 128)]
    with qnet.quantized_weights():
        logits = np.concatenate(
            [impl.run(pipeline, batch, observe=observe) for batch in batches]
        )

    # One row per unit: its forward times from `observe`; FLOPs and
    # bytes from the layer models over its layer and trailing quant,
    # batch by batch, each weight layer's bytes at its own width.
    weight_bits = {
        layer.name: layer_spec.weight_bits
        for layer, layer_spec in spec.weight_layer_specs(network)
    }
    layer_rows, shape = [], tuple(images.shape[1:])
    for unit in backends.compile_units(pipeline):
        times = [seconds for index, seconds in timed if index == unit.index]
        row = {
            "name": unit.layer.name,
            "layer_type": type(unit.layer).__name__,
            "kind": unit.kind,
            "quant": unit.quant.name if unit.quant is not None else None,
            "calls": len(times),
            "forward_s": sum(times),
            "flops": 0,
            "bytes_moved": 0,
        }
        for layer in (unit.layer, unit.quant):
            if layer is None:
                continue
            for batch in batches:
                row["flops"] += obs.layer_flops(layer, shape, len(batch))
                row["bytes_moved"] += obs.layer_bytes(
                    layer, shape, len(batch),
                    weight_bits=weight_bits.get(layer.name, spec.weight_bits),
                    activation_bits=spec.input_bits,
                )
            shape = layer.output_shape(shape)
        if unit.layer.name in quant_rms:
            row["quant_rms"] = quant_rms[unit.layer.name]
        layer_rows.append(row)
    total_s, total_flops, total_bytes = (
        sum(row[key] for row in layer_rows)
        for key in ("forward_s", "flops", "bytes_moved")
    )

    # Any backend but the reference is gated bitwise against an
    # untimed reference pass.
    parity_ok = None
    if impl.name != "reference":
        reference = qnet.infer(images, backend="reference")
        parity_ok = reference.tobytes() == logits.tobytes()

    test_accuracy = nn.accuracy(logits, split.test.labels[:limit])
    if args.json:
        payload = {
            "network": args.network,
            "dataset": info.dataset,
            "precision": spec.key,
            "backend": backend_name,
            "images": int(images.shape[0]),
            "accuracy": float(test_accuracy),
            "total_flops": total_flops,
            "total_bytes": total_bytes,
            "layers": layer_rows,
            "metrics": metrics.snapshot(),
        }
        if parity_ok is not None:
            payload["kernels_parity"] = parity_ok
        if sim_report is not None:
            payload["sim"] = sim_report.as_dict()
        print(json.dumps(payload, indent=2))
        return 0 if parity_ok in (None, True) else 1

    print(f"profile: {args.network} on {info.dataset} at {spec.label}, "
          f"{images.shape[0]} images "
          f"(accuracy {100 * test_accuracy:.2f}%, {backend_name} backend)")
    print()
    table = [
        [row["name"], row["kind"], f"{row['forward_s'] * 1e3:.2f}",
         f"{100 * row['forward_s'] / (total_s or 1.0):.1f}%",
         f"{row['flops'] / 1e6:.3f}", f"{row['bytes_moved'] / 1024:.1f}",
         f"{row['quant_rms']:.5f}" if "quant_rms" in row else "-"]
        for row in layer_rows
    ]
    table.append(["TOTAL", "", f"{total_s * 1e3:.2f}", "100.0%",
                  f"{total_flops / 1e6:.3f}", f"{total_bytes / 1024:.1f}", ""])
    print(format_table(
        ["unit", "kind", "fwd ms", "share", "MFLOPs", "KB moved", "quant_rms"],
        table,
        title=f"per-layer forward pass, one row per unit "
              f"({backend_name} backend)",
    ))
    if parity_ok is not None:
        print(f"{backend_name} vs reference logits: "
              f"{'bitwise equal' if parity_ok else 'MISMATCH'}")
    if sim_report is not None:
        print()
        print(sim_report.format())
    return 0 if parity_ok in (None, True) else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    info = network_info(args.network)
    network = build_network(args.network, seed=args.seed)
    sim_config = hw.SimConfig(
        bandwidth_gbps=args.bandwidth_gbps if args.bandwidth_gbps > 0 else None
    )
    model = hw.EnergyModel()

    if args.sweep_bandwidth:
        bandwidths = [float(b) for b in args.sweep_bandwidth.split(",")]
        spec = core.PrecisionSpec.parse(args.precision)
        reports = []
        for bandwidth in bandwidths:
            config = hw.SimConfig(
                bandwidth_gbps=bandwidth if bandwidth > 0 else None
            )
            reports.append(model.simulate(
                network, info.input_shape, spec, sim_config=config
            ))
        if args.json:
            print(json.dumps(
                [report.as_dict() for report in reports], indent=2
            ))
            return 0
        rows = [
            [
                "inf" if report.bandwidth_gbps is None
                else f"{report.bandwidth_gbps:g}",
                str(report.total_cycles),
                f"{100 * report.utilization:.1f}",
                str(report.stalls.get("dma_wait", 0)),
                f"{report.energy_uj:.3f}",
                "compute" if report.roofline.compute_bound else "bandwidth",
            ]
            for report in reports
        ]
        print(format_table(
            ["Gbit/s", "Cycles", "Util %", "DMA wait", "Energy uJ", "Bound"],
            rows,
            title=f"Utilization vs DMA bandwidth: {args.network} "
                  f"at {spec.label}",
        ))
        return 0

    if args.validate:
        reports = [
            model.simulate(network, info.input_shape, spec,
                           sim_config=sim_config)
            for spec in PAPER_PRECISIONS
        ]
        if args.json:
            print(json.dumps(
                [report.as_dict() for report in reports], indent=2
            ))
            return 0
        rows = [
            [
                report.precision_label,
                str(report.total_cycles),
                f"{report.cycle_gap_pct:+.2f}",
                f"{report.energy_uj:.3f}",
                f"{report.analytical_energy_uj:.3f}",
                f"{report.energy_gap_pct:+.2f}",
                f"{100 * report.utilization:.1f}",
            ]
            for report in reports
        ]
        print(format_table(
            ["Precision (w,in)", "Cycles", "dCyc %", "Sim uJ",
             "Model uJ", "dE %", "Util %"],
            rows,
            title=f"Sim vs analytical cross-validation: {args.network}",
        ))
        worst = max(abs(report.energy_gap_pct) for report in reports)
        print(f"worst energy gap: {worst:.2f}% (tolerance 5%)")
        return 0 if worst <= 5.0 else 1

    spec = core.PrecisionSpec.parse(args.precision)
    report = model.simulate(network, info.input_shape, spec,
                            sim_config=sim_config)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(report.format())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    info = network_info(args.network)
    split = load_dataset(info.dataset, n_train=args.n_train,
                         n_test=args.n_test, seed=args.seed)
    config = SweepConfig(
        float_epochs=args.float_epochs,
        qat_epochs=args.qat_epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    sweep = PrecisionSweep(
        functools.partial(build_network, args.network, args.seed),
        split,
        config,
        keep_states=bool(args.publish),
    )
    specs = [core.PrecisionSpec.parse(key) for key in args.precisions]
    if args.clear_cache:
        removed = SweepCache(args.cache_dir or None).clear()
        print(f"cleared {removed} cache entries", file=sys.stderr)
    store = None if args.no_cache else SweepCache(args.cache_dir or None)

    started = time.perf_counter()
    results = run_sweep(
        sweep,
        specs,
        workers=args.workers,
        cache=store,
        refresh=args.refresh,
        progress=not args.json,
    )
    elapsed = time.perf_counter() - started

    published = []
    if args.publish:
        art_store = registry.ArtifactStore(args.publish)
        for result in results:
            if not result.converged:
                continue
            state = sweep.point_state(result.spec.key)
            if state is None:
                continue
            manifest = registry.publish_with_modeled_costs(
                art_store, state, args.network, result.spec.key,
                accuracy=result.accuracy,
                n_samples=int(split.test.labels.shape[0]),
                sweep_cache_key=sweep.cache_keys.get(result.spec.key),
                created_by="repro sweep --publish",
            )
            published.append(manifest)

    if args.json:
        payload = {
            "network": args.network,
            "dataset": info.dataset,
            "workers": args.workers,
            "elapsed_s": elapsed,
            "cache_dir": store.root if store is not None else None,
            "cache_hits": store.hits if store is not None else 0,
            "cache_misses": store.misses if store is not None else 0,
            "results": [
                {
                    "precision": result.spec.key,
                    "accuracy": float(result.accuracy),
                    "converged": bool(result.converged),
                }
                for result in results
            ],
        }
        if args.publish:
            payload["artifacts"] = [
                {
                    "precision": manifest.precision,
                    "digest": manifest.digest,
                    "energy_uj_per_image": manifest.energy_uj_per_image,
                }
                for manifest in published
            ]
        print(json.dumps(payload, indent=2))
        return 0

    rows = [
        [
            result.spec.label,
            f"{result.accuracy_percent:.2f}" if result.converged else "NA",
            "yes" if result.converged else "no",
        ]
        for result in results
    ]
    print(format_table(
        ["Precision (w,in)", "Acc %", "Converged"],
        rows,
        title=f"{args.network} on {info.dataset} "
              f"({args.workers} workers, {elapsed:.1f} s)",
    ))
    if store is not None:
        print(
            f"cache: {store.hits} hits / {store.misses} misses "
            f"({store.root})"
        )
    for manifest in published:
        print(f"published {manifest.precision:<10} -> "
              f"{manifest.short_digest()} "
              f"({manifest.energy_uj_per_image:.2f} uJ/image)")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from repro.core.sweep import SweepConfig as _SweepConfig
    from repro.search import PrecisionSearch, SearchConfig, SearchSpace

    space = SearchSpace(
        task=args.task,
        width_choices=tuple(args.widths),
        weight_bit_choices=tuple(args.weight_bits),
        input_bits=args.input_bits,
        kind=args.kind,
        per_layer=not args.uniform_only,
    )
    config = SearchConfig(
        space=space,
        generations=args.generations,
        population=args.population,
        survivors=args.survivors,
        energy_budget_uj=args.energy_budget,
        seed=args.seed,
        workers=args.workers,
        sweep=_SweepConfig(
            float_epochs=args.float_epochs,
            qat_epochs=args.qat_epochs,
            seed=args.seed,
        ),
        n_train=args.n_train,
        n_test=args.n_test,
        dataset_seed=args.seed,
        sim_check=args.sim_check,
    )
    cache = None if args.no_cache else (args.cache_dir or True)
    if args.resume and cache is None:
        print("error: --resume requires the cache (drop --no-cache)",
              file=sys.stderr)
        return 2

    search = PrecisionSearch(config, cache=cache)
    started = time.perf_counter()
    result = search.run(resume=args.resume)
    elapsed = time.perf_counter() - started

    published = None
    if args.registry:
        published = search.publish(result, args.registry, args.channel or None)

    if args.json:
        payload = {
            "task": args.task,
            "fingerprint": space.fingerprint(),
            "energy_budget_uj": args.energy_budget,
            "generations_run": result.generations_run,
            "evaluated": len(result.evaluated),
            "elapsed_s": elapsed,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "dominates_fixed_grid": result.dominates_fixed_grid,
            "frontier": [
                {
                    "label": p.label,
                    "accuracy": p.accuracy,
                    "energy_uj": p.energy_uj,
                    "metadata": dict(p.metadata),
                }
                for p in result.frontier
            ],
            "grid_frontier": [
                {"label": p.label, "accuracy": p.accuracy,
                 "energy_uj": p.energy_uj}
                for p in result.grid_frontier
            ],
            "sim_gaps_pct": result.sim_gaps_pct,
        }
        if published is not None:
            payload["promoted"] = [
                {"label": label, "version": entry.version,
                 "digest": entry.digest}
                for label, entry in published["promoted"]
            ]
            payload["rejected"] = [
                {"label": label, "reason": reason}
                for label, reason in published["rejected"]
            ]
        print(json.dumps(payload, indent=2))
    else:
        frontier_labels = {p.label for p in result.frontier}
        rows = [
            [
                e.candidate.network,
                e.candidate.spec_key,
                f"{e.result.accuracy_percent:.2f}" if e.converged else "NA",
                f"{e.energy_uj:.3f}",
                str(e.generation),
                "*" if e.candidate.key in frontier_labels else "",
            ]
            for e in result.evaluated
        ]
        budget = (f", budget {args.energy_budget:g} uJ"
                  if args.energy_budget else "")
        print(format_table(
            ["Network", "Precision", "Acc %", "Energy uJ", "Gen", "Front"],
            rows,
            title=f"search: {args.task} ({result.generations_run} "
                  f"generation(s){budget}, {elapsed:.1f} s)",
        ))
        print("frontier: " + ", ".join(p.label for p in result.frontier))
        verdict = ("DOMINATES" if result.dominates_fixed_grid
                   else "does not dominate")
        print(f"search {verdict} the fixed grid "
              f"({len(result.dominating)} dominating point(s))")
        for label, gap in result.sim_gaps_pct.items():
            print(f"  sim check {label}: {gap:+.2f}% energy gap")
        if result.cache_hits or result.cache_misses:
            print(f"cache: {result.cache_hits} hits / "
                  f"{result.cache_misses} misses")
        if published is not None:
            for label, entry in published["promoted"]:
                print(f"promoted v{entry.version}: {label} "
                      f"({entry.digest[:12]})")
            for label, reason in published["rejected"]:
                print(f"gate rejected {label}: {reason}")
    if args.registry and (published is None or not published["promoted"]):
        print("error: nothing promoted", file=sys.stderr)
        return 1
    return 0


def _registry_store(args: argparse.Namespace) -> "registry.ArtifactStore":
    return registry.ArtifactStore(args.root)


def _policy_from_args(args: argparse.Namespace) -> registry.PromotionPolicy:
    return registry.PromotionPolicy(
        require_non_dominated=not args.allow_dominated,
        min_accuracy=args.min_accuracy,
        max_energy_uj=args.max_energy_uj,
        max_accuracy_drop=args.max_accuracy_drop,
    )


def cmd_registry_publish(args: argparse.Namespace) -> int:
    info = network_info(args.network)
    spec = core.get_precision(args.precision)
    network = build_network(args.network, seed=args.seed)
    split = load_dataset(info.dataset, n_train=args.n_train,
                         n_test=args.n_test, seed=args.seed)
    if args.weights:
        nn.load_network_weights(network, args.weights)
    else:
        # quick training pass so the artifact has honest metrics; for
        # longer budgets, train separately and pass --weights
        trainer = nn.Trainer(
            network,
            nn.SGD(network.parameters(), lr=0.02, momentum=0.9,
                   weight_decay=1e-4),
            batch_size=32,
            rng=np.random.default_rng(args.seed),
            restore_best=True,
        )
        trainer.fit(
            split.train.images, split.train.labels,
            split.val.images, split.val.labels,
            epochs=args.epochs,
        )
    if spec.is_float:
        logits = network.predict(split.test.images)
        accuracy = nn.accuracy(logits, split.test.labels)
    else:
        qnet = core.QuantizedNetwork(network, spec)
        qnet.calibrate(split.train.images[:256])
        accuracy = qnet.evaluate(split.test.images, split.test.labels).accuracy
    manifest = registry.publish_with_modeled_costs(
        _registry_store(args), nn.network_state(network),
        args.network, spec.key,
        accuracy=accuracy,
        n_samples=int(split.test.labels.shape[0]),
        created_by="repro registry publish",
    )
    print(f"published {manifest.network}@{manifest.precision}: "
          f"{manifest.digest}")
    print(f"  accuracy {100 * manifest.accuracy:.2f}%  "
          f"energy {manifest.energy_uj_per_image:.2f} uJ/image  "
          f"memory {manifest.memory_kb:.0f} KB")
    return 0


def cmd_registry_list(args: argparse.Namespace) -> int:
    store = _registry_store(args)
    manifests = store.list_artifacts()
    if args.json:
        print(json.dumps([m.to_dict() for m in manifests], indent=2))
        return 0
    if not manifests:
        print(f"registry {store.root} is empty")
        return 0
    rows = [
        [
            m.short_digest(),
            m.network,
            m.precision,
            f"{100 * m.accuracy:.2f}" if math.isfinite(m.accuracy) else "?",
            f"{m.energy_uj_per_image:.2f}"
            if math.isfinite(m.energy_uj_per_image) else "?",
            m.dataset or "?",
        ]
        for m in manifests
    ]
    print(format_table(
        ["Digest", "Network", "Precision", "Acc %", "uJ/img", "Dataset"],
        rows, title=f"{len(manifests)} artifact(s) in {store.root}",
    ))
    channel_dir = os.path.join(store.root, "channels")
    for name in sorted(
        f[:-5] for f in os.listdir(channel_dir) if f.endswith(".json")
    ):
        chan = registry.Channel(store, name)
        entry = chan.active()
        state = "empty" if entry is None else (
            f"v{entry.version} -> {entry.digest[:12]}"
        )
        pin = " [pinned]" if chan.pinned else ""
        print(f"channel {name}: {state}{pin}")
    return 0


def cmd_registry_promote(args: argparse.Namespace) -> int:
    store = _registry_store(args)
    chan = registry.Channel(store, args.channel)
    entry = chan.promote(
        args.ref,
        policy=None if args.force else _policy_from_args(args),
        note=args.note,
        force=args.force,
    )
    print(f"{args.channel} -> v{entry.version} ({entry.digest[:12]})")
    return 0


def cmd_registry_rollback(args: argparse.Namespace) -> int:
    store = _registry_store(args)
    chan = registry.Channel(store, args.channel)
    entry = chan.rollback(args.steps)
    print(f"{args.channel} rolled back to v{entry.version} "
          f"({entry.digest[:12]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Precision-quantization study toolkit (Hashemi et al., DATE 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a network, optionally QAT")
    _add_common_training_args(train)
    train.add_argument("--precision", default="float32",
                       choices=[s.key for s in PAPER_PRECISIONS])
    train.add_argument("--output", default="", help="save weights (.npz)")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate saved weights")
    _add_common_training_args(evaluate)
    evaluate.add_argument("--weights", required=True)
    evaluate.add_argument(
        "--precisions", nargs="+", default=["float32", "fixed8"],
        choices=[s.key for s in PAPER_PRECISIONS],
    )
    evaluate.set_defaults(func=cmd_evaluate)

    report = sub.add_parser("hw-report", help="accelerator synthesis report")
    report.add_argument("--precision", default="fixed16",
                        choices=[s.key for s in PAPER_PRECISIONS])
    report.set_defaults(func=cmd_hw_report)

    energy = sub.add_parser("energy", help="per-image energy per precision")
    energy.add_argument("--network", default="lenet",
                        choices=sorted(NETWORK_BUILDERS))
    energy.set_defaults(func=cmd_energy)

    rtl = sub.add_parser("export-rtl", help="generate NFU Verilog")
    rtl.add_argument("--precision", default="fixed16",
                     choices=[s.key for s in PAPER_PRECISIONS if not s.is_float])
    rtl.add_argument("--neurons", type=int, default=16)
    rtl.add_argument("--synapses", type=int, default=16)
    rtl.add_argument("--output", default="")
    rtl.set_defaults(func=cmd_export_rtl)

    bench = sub.add_parser(
        "serve-bench", help="load-test the batched inference server"
    )
    bench.add_argument("--network", default="lenet_small",
                       choices=sorted(NETWORK_BUILDERS))
    bench.add_argument("--precision", default="fixed8",
                       choices=[s.key for s in PAPER_PRECISIONS])
    bench.add_argument("--requests", type=int, default=256)
    bench.add_argument("--workers", type=int, default=4)
    bench.add_argument("--max-batch", type=int, default=32)
    bench.add_argument("--max-delay-ms", type=float, default=2.0)
    bench.add_argument("--queue-size", type=int, default=512)
    bench.add_argument("--concurrency", type=int, default=64,
                       help="closed-loop clients kept in flight")
    bench.add_argument("--calibration", type=int, default=128,
                       help="images used to calibrate activation ranges")
    bench.add_argument("--weights", default="",
                       help="optional trained weights (.npz) to serve")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--deadline-ms", type=float, default=0.0,
                       help="per-request queueing deadline (0 = none)")
    bench.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="arm the seeded fault injector for the run")
    bench.add_argument("--skip-baseline", action="store_true",
                       help="skip the max-batch=1 comparison run")
    bench.add_argument("--autotune", action="store_true",
                       help="run a scenario with the closed-loop SLO "
                            "controller vs a static baseline arm")
    bench.add_argument("--scenario", default="flash_crowd",
                       choices=sorted(control.SCENARIOS),
                       help="traffic shape for --autotune runs")
    bench.add_argument("--slo-ms", type=float, default=0.0,
                       help="p99 latency SLO in ms (0 = calibrate as 3x "
                            "the p99 of an uncontended probe)")
    bench.add_argument("--tiers", default="",
                       help="comma-separated precision ladder, highest "
                            "fidelity first (default: the paper's fixed-"
                            "point menu below --precision, or the "
                            "registry's artifacts with --registry)")
    bench.add_argument("--accuracy-floor", type=float, default=0.0,
                       help="never degrade to a tier whose known accuracy "
                            "is below this (0 = no floor)")
    bench.add_argument("--attainment", type=float, default=0.9,
                       help="fraction of control windows that must meet "
                            "the SLO for the scenario to pass")
    bench.add_argument("--scenario-time-scale", type=float, default=1.0,
                       help="multiply every phase duration (CI uses <1)")
    bench.add_argument("--control-interval-ms", type=float, default=50.0,
                       help="control window length")
    bench.add_argument("--registry", default="", metavar="ROOT",
                       help="serve a registry channel's active artifact "
                            "(overrides --network/--precision/--weights)")
    bench.add_argument("--channel", default="prod",
                       help="registry channel to deploy (with --registry)")
    bench.add_argument("--replicas", type=int, default=0,
                       help="serve from this many replica processes "
                            "(0 = in-process engine)")
    bench.add_argument("--ring-slots", type=int, default=2,
                       help="shared-memory batches in flight per replica")
    bench.add_argument("--crash-after", type=int, default=0, metavar="N",
                       help="deterministic chaos: kill the last replica "
                            "after N batches, assert it rejoins "
                            "(with --replicas)")
    bench.add_argument("--canary", default="", metavar="REF",
                       help="canary-roll this artifact digest onto part of "
                            "the fleet (needs --registry and --replicas>=2)")
    bench.add_argument("--canary-fraction", type=float, default=0.25,
                       help="share of replicas serving the canary")
    bench.add_argument("--canary-min-requests", type=int, default=20,
                       help="requests per group before a canary verdict")
    bench.add_argument("--sabotage-canary", action="store_true",
                       help="arm forward-path faults on the canary replicas "
                            "(chaos: forces the auto-rollback path)")
    bench.add_argument("--expect", default="",
                       choices=["", "promoted", "rolled_back"],
                       help="fail unless the canary outcome matches (CI)")
    bench.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    bench.set_defaults(func=cmd_serve_bench)

    profile = sub.add_parser(
        "profile",
        help="per-layer time/FLOPs/bytes/quant-error profile",
    )
    profile.add_argument("--network", default="lenet_small",
                         choices=sorted(NETWORK_BUILDERS))
    profile.add_argument(
        "--precision", default="fixed8",
        help="precision key or spec string (e.g. fixed8, fixed:4:8)",
    )
    profile.add_argument("--limit", type=int, default=256,
                         help="number of test images to run")
    profile.add_argument("--calibration", type=int, default=64,
                         help="images used to calibrate activation ranges")
    profile.add_argument("--weights", default="",
                         help="optional trained weights (.npz) to profile")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--json", action="store_true",
                         help="emit per-layer rows and metrics as JSON")
    profile.add_argument("--sim", action="store_true",
                         help="append the cycle-level simulation view "
                              "(cycles, utilization, stall breakdown)")
    profile.add_argument("--backend", default=backends.DEFAULT_BACKEND,
                         help="compute backend to time (default: "
                              "%(default)s); any backend but reference is "
                              "also gated bitwise against a reference pass")
    profile.set_defaults(func=cmd_profile)

    simulate = sub.add_parser(
        "simulate",
        help="event-driven cycle-level accelerator simulation",
        description="Run the repro.hw.sim event-driven simulator: "
                    "cycles, utilization, stall breakdown by cause, "
                    "per-image energy and the roofline point — "
                    "cross-validated against the analytical model "
                    "(see docs/hw_sim.md).",
    )
    simulate.add_argument("--network", default="lenet",
                          choices=sorted(NETWORK_BUILDERS))
    simulate.add_argument(
        "--precision", default="fixed16",
        help="precision key or spec string (e.g. fixed8, fixed:4:8)",
    )
    simulate.add_argument(
        "--bandwidth-gbps", type=float, default=0.0,
        help="off-chip DMA bandwidth in Gbit/s (0 = unconstrained, "
             "the paper's operating assumption)",
    )
    simulate.add_argument(
        "--sweep-bandwidth", default="", metavar="GBPS,GBPS,...",
        help="utilization sweep: simulate once per bandwidth and "
             "tabulate cycles/utilization/stalls",
    )
    simulate.add_argument(
        "--validate", action="store_true",
        help="cross-validate sim vs analytical energy across all "
             "Table-III precisions (exit 1 if any gap exceeds 5%%)",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--json", action="store_true",
                          help="emit the SimReport(s) as JSON")
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser(
        "sweep",
        help="parallel, cache-resumable precision sweep",
        description="Train a precision sweep with worker-process "
                    "parallelism and the resumable on-disk result cache. "
                    "Results are bitwise identical for any worker count "
                    "with the same seed.",
    )
    sweep.add_argument("--network", default="lenet_small",
                       choices=sorted(NETWORK_BUILDERS))
    sweep.add_argument(
        "--precisions", nargs="+",
        default=[s.key for s in PAPER_PRECISIONS],
        help="precision keys or spec strings (e.g. fixed8, fixed:4:8)",
    )
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = sequential)")
    sweep.add_argument("--n-train", type=int, default=1500)
    sweep.add_argument("--n-test", type=int, default=400)
    sweep.add_argument("--float-epochs", type=int, default=10)
    sweep.add_argument("--qat-epochs", type=int, default=4)
    sweep.add_argument("--batch-size", type=int, default=32)
    sweep.add_argument("--seed", type=int, default=0,
                       help="root seed (datasets, init, training)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache")
    sweep.add_argument("--refresh", action="store_true",
                       help="retrain every point, overwriting the cache")
    sweep.add_argument(
        "--cache-dir", default="",
        help=f"cache directory (default: {default_cache_dir()})",
    )
    sweep.add_argument("--clear-cache", action="store_true",
                       help="delete every cache entry before running")
    sweep.add_argument("--publish", default="", metavar="ROOT",
                       help="publish every converged point as a registry "
                            "artifact under this root")
    sweep.add_argument("--json", action="store_true",
                       help="emit results and cache stats as JSON")
    sweep.set_defaults(func=cmd_sweep)

    search = sub.add_parser(
        "search",
        help="automated mixed-precision & width search under an "
             "energy budget",
        description="Evolve per-layer precision assignments crossed "
                    "with width-scaled architectures, pruning each "
                    "generation with the Pareto frontier.  With "
                    "--registry, the surviving frontier is published "
                    "and promoted through a channel behind the Pareto "
                    "gate (the budget becomes the gate's absolute "
                    "energy cap).  Results are bitwise identical for "
                    "any --workers count; --resume replays finished "
                    "points from the sweep cache.",
    )
    search.add_argument("--task", default="lenet_small",
                        choices=sorted(NETWORK_BUILDERS),
                        help="base network whose width/precision is "
                             "searched")
    search.add_argument("--energy-budget", type=float, default=None,
                        metavar="UJ",
                        help="per-image energy cap in uJ (feasible "
                             "points drive the frontier and the "
                             "promotion gate)")
    search.add_argument("--generations", type=int, default=3,
                        help="evolutionary rounds after the seed "
                             "generation")
    search.add_argument("--population", type=int, default=6,
                        help="new candidates per generation")
    search.add_argument("--survivors", type=int, default=4,
                        help="frontier points kept as parents")
    search.add_argument("--widths", type=float, nargs="+",
                        default=[0.5, 0.75, 1.0, 1.25, 1.5],
                        help="width multipliers (1.0 required)")
    search.add_argument("--weight-bits", type=int, nargs="+",
                        default=[2, 4, 6, 8],
                        help="weight bit-width menu")
    search.add_argument("--input-bits", type=int, default=8)
    search.add_argument("--kind", default="fixed",
                        choices=["fixed", "pow2"],
                        help="representation family of generated specs")
    search.add_argument("--uniform-only", action="store_true",
                        help="disable per-layer assignments")
    search.add_argument("--workers", type=int, default=1,
                        help="worker processes per evaluation batch")
    search.add_argument("--n-train", type=int, default=1500)
    search.add_argument("--n-test", type=int, default=400)
    search.add_argument("--float-epochs", type=int, default=10)
    search.add_argument("--qat-epochs", type=int, default=4)
    search.add_argument("--seed", type=int, default=0,
                        help="root seed (sampling, datasets, training)")
    search.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    search.add_argument(
        "--cache-dir", default="",
        help=f"cache directory (default: {default_cache_dir()})",
    )
    search.add_argument("--resume", action="store_true",
                        help="resume an interrupted search from the "
                             "cache (verifies the space fingerprint)")
    search.add_argument("--sim-check", action="store_true",
                        help="cross-check frontier energies against "
                             "the cycle-level simulator")
    search.add_argument("--registry", default="", metavar="ROOT",
                        help="publish + promote the frontier into this "
                             "registry root")
    search.add_argument("--channel", default="",
                        help="channel name (default: search-<task>)")
    search.add_argument("--json", action="store_true",
                        help="emit the full result as JSON")
    search.set_defaults(func=cmd_search)

    reg = sub.add_parser(
        "registry",
        help="model-artifact registry: publish/list/promote/rollback",
        description="Content-addressed model-artifact lifecycle: publish "
                    "trained weights, promote them through channels behind "
                    "the Pareto gate and roll them back (serve a channel "
                    "with serve-bench --registry).",
    )
    reg_sub = reg.add_subparsers(dest="registry_command", required=True)

    def _add_root(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", required=True, help="registry root directory")

    reg_publish = reg_sub.add_parser(
        "publish", help="train (or load) weights and publish an artifact"
    )
    _add_root(reg_publish)
    reg_publish.add_argument("--network", default="lenet_small",
                             choices=sorted(NETWORK_BUILDERS))
    reg_publish.add_argument("--precision", default="float32",
                             choices=[s.key for s in PAPER_PRECISIONS])
    reg_publish.add_argument("--weights", default="",
                             help="trained weights (.npz); trains quickly "
                                  "when omitted")
    reg_publish.add_argument("--epochs", type=int, default=6)
    reg_publish.add_argument("--n-train", type=int, default=1500)
    reg_publish.add_argument("--n-test", type=int, default=400)
    reg_publish.add_argument("--seed", type=int, default=0)
    reg_publish.set_defaults(func=cmd_registry_publish)

    reg_list = reg_sub.add_parser(
        "list", help="list stored artifacts and channel states"
    )
    _add_root(reg_list)
    reg_list.add_argument("--json", action="store_true",
                          help="emit manifests as JSON")
    reg_list.set_defaults(func=cmd_registry_list)

    reg_promote = reg_sub.add_parser(
        "promote", help="promote an artifact onto a channel (Pareto-gated)"
    )
    _add_root(reg_promote)
    reg_promote.add_argument("--channel", required=True)
    reg_promote.add_argument("ref", help="artifact digest (or unique prefix)")
    reg_promote.add_argument("--note", default="")
    reg_promote.add_argument("--min-accuracy", type=float, default=None)
    reg_promote.add_argument("--max-energy-uj", type=float, default=None)
    reg_promote.add_argument("--max-accuracy-drop", type=float, default=None)
    reg_promote.add_argument("--allow-dominated", action="store_true",
                             help="drop the Pareto non-domination rule")
    reg_promote.add_argument("--force", action="store_true",
                             help="skip the policy gate entirely")
    reg_promote.set_defaults(func=cmd_registry_promote)

    reg_rollback = reg_sub.add_parser(
        "rollback", help="move a channel's active pointer back"
    )
    _add_root(reg_rollback)
    reg_rollback.add_argument("--channel", required=True)
    reg_rollback.add_argument("--steps", type=int, default=1)
    reg_rollback.set_defaults(func=cmd_registry_rollback)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, RegistryError) as exc:
        # inconsistent flags and typed registry failures (rejected
        # promotions, unknown refs, failed rollouts) are user errors,
        # not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
