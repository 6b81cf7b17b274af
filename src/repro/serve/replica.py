"""The fleet replica: one process, one frozen model, one command loop.

A replica is spawned by :class:`repro.serve.fleet.FleetServer` with a
picklable :class:`ReplicaConfig`, builds its own
:class:`~repro.serve.ModelStore` (same seed, calibration budget and
backend as a single-process server would use, so a fleet's responses
are bitwise identical to in-process serving), attaches to the
front-end's shared-memory ring, and then serves commands from the
control pipe:

``infer``
    read the batch from the slot named in the descriptor, run one
    forward pass, write the logits back into the slot's output region,
    reply ``done`` with the batch size, compute time and modeled
    energy per image (or ``error`` carrying the pickled typed
    exception).  The front end keeps all serving stats.
``deploy``
    build a registry artifact (by digest) into the local model store —
    the per-replica half of a canary rollout.  ``sabotage`` in the
    command arms ``engine.forward`` raise-faults on this replica's
    injector, which is how chaos tests force a regressing canary.
``stop``
    exit the loop.

Heartbeats are sent from a daemon thread every
``ReplicaConfig.heartbeat_s`` so the front-end's monitor can tell a
wedged replica from a merely busy one.  Chaos is local to the process:
``chaos_seed`` arms :func:`repro.resilience.chaos_preset` (including
the ``replica.crash`` site, which kills the process with ``os._exit``
— real process death, not an exception), and ``crash_after_batches``
schedules one deterministic crash for CI's crash/rejoin smoke.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultInjectedError
from repro.serve.ipc import ReplicaRing, SlotDescriptor

__all__ = ["ReplicaConfig", "replica_main", "CRASH_EXIT_CODE"]

#: Exit status of a chaos-killed replica, distinguishable from real bugs.
CRASH_EXIT_CODE = 17


@dataclass
class ReplicaConfig:
    """Everything a replica needs to rebuild the serving state.

    The config must stay picklable under the ``spawn`` start method —
    plain strings/numbers only, no live objects.
    """

    index: int
    segment_names: List[str]
    input_bytes: int
    seed: int = 0
    backend: Optional[str] = None
    calibration_images: int = 128
    memory_budget_kb: float = 16384.0
    weight_paths: Dict[str, str] = field(default_factory=dict)
    #: warm these (network, precision) pairs before reporting ready
    warm_keys: List[Tuple[str, str]] = field(default_factory=list)
    #: deploy this registry artifact at startup (root, channel, digest,
    #: version) — how a respawned replica rejoins on the deployed model
    startup_artifact: Optional[Tuple[str, str, str, int]] = None
    heartbeat_s: float = 0.25
    chaos_seed: Optional[int] = None
    incarnation: int = 0
    #: deterministic crash for CI: die after serving this many batches
    crash_after_batches: Optional[int] = None


class _Sender:
    """Serializes pipe sends: the command loop and the heartbeat thread
    share one connection, and ``Connection.send`` is not thread-safe."""

    def __init__(self, conn):
        self._conn = conn
        self._lock = threading.Lock()

    def send(self, message) -> None:
        with self._lock:
            self._conn.send(message)


def _heartbeat_loop(sender: _Sender, interval_s: float,
                    stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        try:
            sender.send({"type": "heartbeat", "ts": time.time()})
        except (BrokenPipeError, OSError):
            return


def replica_main(config: ReplicaConfig, conn) -> None:
    """Entry point of the replica process (target of ``Process``)."""
    # Imports that pull numpy/model code happen here, inside the child.
    from repro.parallel.blas import blas_threads, set_blas_threads
    from repro.resilience.faults import chaos_preset, get_injector, set_injector
    from repro.serve.model_store import ModelStore

    # The replicas are the fleet's parallelism: a BLAS pool as large as
    # the host would compete with the front end and the other replicas.
    set_blas_threads(1)

    if config.chaos_seed is not None:
        # Derive a per-(replica, incarnation) seed so respawned replicas
        # replay a *different* — but still deterministic — schedule and
        # chaos does not re-kill every incarnation at the same batch.
        set_injector(chaos_preset(
            config.chaos_seed * 1009 + config.index * 31 + config.incarnation
        ))

    sender = _Sender(conn)
    store = ModelStore(
        memory_budget_kb=config.memory_budget_kb,
        weight_paths=config.weight_paths or None,
        calibration_images=config.calibration_images,
        seed=config.seed,
        backend=config.backend,
    )
    ring = ReplicaRing(config.segment_names, config.input_bytes)
    sabotage_armed = False

    def deploy_artifact(root: str, digest: str, version: int,
                        sabotage: bool = False) -> Dict[str, object]:
        """Install one registry artifact into the local store."""
        nonlocal sabotage_armed
        from repro.registry.deployer import build_artifact
        from repro.registry.store import ArtifactStore

        art_store = ArtifactStore(root)
        manifest = art_store.get(digest)
        store.install(build_artifact(store, art_store, manifest, version))
        if sabotage and not sabotage_armed:
            # A deliberately broken rollout for canary chaos tests: the
            # forward-path fault site starts raising on this replica.
            get_injector().arm("engine.forward", mode="raise", rate=0.75)
            sabotage_armed = True
        elif not sabotage and sabotage_armed:
            get_injector().disarm("engine.forward")
            sabotage_armed = False
        return {"digest": manifest.digest, "version": version}

    try:
        if config.startup_artifact is not None:
            root, _channel, digest, version = config.startup_artifact
            deploy_artifact(root, digest, version)
        for network, precision in config.warm_keys:
            store.warm(network, precision)
    except Exception as error:
        try:
            sender.send({"type": "init_error", "error": error})
        except Exception:
            pass
        ring.close()
        return

    stop_heartbeat = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(sender, config.heartbeat_s, stop_heartbeat),
        name=f"replica-{config.index}-heartbeat",
        daemon=True,
    )
    heartbeat.start()
    sender.send({"type": "ready", "pid": os.getpid(),
                 "incarnation": config.incarnation,
                 "blas_threads": blas_threads()})

    batches_served = 0
    injector = get_injector()
    try:
        while True:
            message = conn.recv()
            kind = message.get("type")
            if kind == "stop":
                return
            if kind == "deploy":
                try:
                    payload = deploy_artifact(
                        message["root"], message["digest"],
                        int(message["version"]),
                        sabotage=bool(message.get("sabotage", False)),
                    )
                    sender.send({"type": "deployed", **payload})
                except Exception as error:
                    sender.send({"type": "deploy_error", "error": error})
                continue
            if kind != "infer":
                continue

            desc = SlotDescriptor(
                slot=int(message["slot"]),
                n=int(message["n"]),
                shape=tuple(message["shape"]),
                dtype=str(message["dtype"]),
            )
            seq = int(message["seq"])
            try:
                # The crash site injects *process death*: the front-end
                # must detect it via heartbeat/EOF, respawn this replica
                # and resubmit the batch — no exception path to hide in.
                try:
                    injector.fire("replica.crash")
                except FaultInjectedError:
                    os._exit(CRASH_EXIT_CODE)
                if (
                    config.crash_after_batches is not None
                    and config.incarnation == 0
                    and batches_served >= config.crash_after_batches
                ):
                    os._exit(CRASH_EXIT_CODE)
                injector.fire("engine.forward")
                servable = store.get(message["network"], message["precision"])
                batch = ring.read_batch(desc)
                started = time.perf_counter()
                logits = injector.corrupt("engine.forward",
                                          servable.forward(batch))
                compute_ms = 1000.0 * (time.perf_counter() - started)
                n_out, out_dtype = ring.write_output(desc, logits)
            except BaseException as error:  # noqa: BLE001 - shipped to parent
                sender.send({"type": "error", "seq": seq, "slot": desc.slot,
                            "error": error})
                continue
            batches_served += 1
            sender.send({
                "type": "done",
                "seq": seq,
                "slot": desc.slot,
                "n": desc.n,
                "n_out": n_out,
                "dtype": out_dtype,
                "compute_ms": compute_ms,
                "energy_uj_per_image": servable.energy_uj_per_image,
                "registry_digest": servable.registry_digest,
                "registry_version": servable.registry_version,
            })
    except (EOFError, KeyboardInterrupt):
        return
    finally:
        stop_heartbeat.set()
        ring.close()
