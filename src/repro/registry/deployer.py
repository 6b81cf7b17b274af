"""Zero-downtime rollout of registry artifacts into the serving engine.

The :class:`Deployer` turns a channel's active artifact into a live
:class:`repro.serve.Servable` without pausing traffic: the replacement
is loaded, calibrated and frozen entirely in the background (its own
private network instance), then swapped into the
:class:`repro.serve.ModelStore` in one locked assignment
(:meth:`~repro.serve.ModelStore.install`).  Worker threads that picked
up the old servable for an in-flight batch keep their reference and
drain on the old weights; every batch dispatched after the swap runs
the new ones.  No request is dropped and no lock is held while weights
load or calibration runs.

Builds read weights through the ``registry.load`` fault site and run
under the same retry policy as servable cache misses
(:data:`repro.serve.model_store.RETRYABLE_BUILD_ERRORS`).  When a
build still fails after retries, :meth:`Deployer.deploy` rolls the
channel pointer back to the previously active version — the serving
engine never saw the broken artifact, and the channel again reflects
what is actually running.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import RegistryError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.registry.channels import Channel
from repro.registry.policy import PromotionPolicy
from repro.registry.store import ArtifactManifest, ArtifactStore
from repro.resilience.retry import RetryPolicy, retry_call
from repro.serve.model_store import (
    RETRYABLE_BUILD_ERRORS,
    ModelStore,
    Servable,
)
from repro.serve.request import ModelKey

__all__ = ["Deployer", "RolloutReport", "build_artifact"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RolloutReport:
    """What one rollout (or rollback) actually did."""

    channel: str
    version: int
    digest: str
    previous_digest: Optional[str]  # servable replaced in the store
    swap_ms: float                  # time the locked swap itself took
    build_ms: float                 # background build (load+calibrate+freeze)
    rolled_back: bool = False       # channel pointer was restored on failure


def build_artifact(
    model_store: ModelStore,
    store: ArtifactStore,
    manifest: ArtifactManifest,
    version: int,
) -> Servable:
    """One artifact as a ``model_store`` servable, not yet installed:
    weights verified through the ``registry.load`` fault site, run at
    the manifest's precision.  Fleet replicas build their copy here."""
    return model_store.build_servable(
        ModelKey(network=manifest.network, precision=manifest.precision),
        state=store.load_state(manifest.digest),
        artifact=(manifest.digest, version),
    )


class Deployer:
    """Wires a :class:`Channel` into a live :class:`ModelStore`.

    Args:
        store: artifact source of truth.
        model_store: the serving engine's servable cache to swap into;
            its :meth:`~repro.serve.ModelStore.build_servable` builds
            each rolled-out artifact.
        retry_policy: backoff for builds failing with a retryable error
            (injected ``registry.load`` faults, transient I/O); defaults
            to the model store's own policy.
    """

    def __init__(
        self,
        store: ArtifactStore,
        model_store: ModelStore,
        *,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.store = store
        self.model_store = model_store
        self.retry_policy = retry_policy or model_store.retry_policy

    def rollout(self, channel: Channel) -> RolloutReport:
        """Deploy the channel's active artifact into the model store.

        The build (weight load, calibration, freeze) runs with no store
        lock held; only the final :meth:`ModelStore.install` swap is
        locked.  Retryable build failures back off and retry; a build
        that still fails propagates without touching the store — the
        previously installed servable keeps serving.
        """
        entry = channel.active()
        if entry is None:
            raise RegistryError(
                f"channel {channel.name!r} has nothing to roll out"
            )
        manifest = self.store.get(entry.digest)
        metrics = get_metrics()
        with get_tracer().span(
            "registry.rollout",
            channel=channel.name,
            version=entry.version,
            digest=manifest.short_digest(),
        ):
            build_start = time.perf_counter()
            try:
                servable = retry_call(
                    functools.partial(build_artifact, self.model_store,
                                      self.store, manifest, entry.version),
                    policy=self.retry_policy,
                    retry_on=RETRYABLE_BUILD_ERRORS,
                    on_retry=self._note_build_retry,
                )
            except BaseException:
                metrics.counter("registry.rollout_failures").inc()
                raise
            build_ms = 1000.0 * (time.perf_counter() - build_start)
            swap_start = time.perf_counter()
            previous = self.model_store.install(servable)
            swap_ms = 1000.0 * (time.perf_counter() - swap_start)
        metrics.counter("registry.rollouts").inc()
        metrics.histogram("registry.swap_ms").observe(swap_ms)
        logger.info(
            "registry: rolled out %s v%d (%s) — build %.1f ms, swap %.2f ms",
            channel.name, entry.version, manifest.short_digest(),
            build_ms, swap_ms,
        )
        return RolloutReport(
            channel=channel.name,
            version=entry.version,
            digest=manifest.digest,
            previous_digest=None if previous is None else previous.registry_digest,
            swap_ms=swap_ms,
            build_ms=build_ms,
        )

    @staticmethod
    def _note_build_retry(attempt: int, error: BaseException) -> None:
        logger.warning(
            "registry: artifact build attempt %d failed (%s); retrying",
            attempt + 1, error,
        )
        get_metrics().counter("registry.build_retries").inc()

    # ------------------------------------------------------------------
    def deploy(
        self,
        channel: Channel,
        ref: str,
        *,
        policy: Optional[PromotionPolicy] = None,
        note: str = "",
        force: bool = False,
    ) -> RolloutReport:
        """Promote ``ref`` onto the channel, then roll it out.

        If the rollout build faults after retries, the channel pointer
        is restored to the previously active version (auto-rollback) so
        the channel still describes what is actually serving, and a
        :class:`~repro.errors.RegistryError` chaining the build failure
        is raised.  A rejected promotion raises before anything is
        touched.
        """
        previous = channel.active()
        entry = channel.promote(ref, policy=policy, note=note, force=force)
        try:
            return self.rollout(channel)
        except Exception as exc:
            if previous is not None and previous.version != entry.version:
                channel.rollback()
                restored = f"channel restored to v{previous.version}"
            else:
                restored = "nothing was previously deployed"
            get_metrics().counter("registry.auto_rollbacks").inc()
            raise RegistryError(
                f"rollout of {entry.digest[:12]} onto {channel.name!r} "
                f"failed; {restored}"
            ) from exc

    def rollback(self, channel: Channel, steps: int = 1) -> RolloutReport:
        """Move the channel back ``steps`` versions and roll that out."""
        channel.rollback(steps)
        report = self.rollout(channel)
        return RolloutReport(
            channel=report.channel,
            version=report.version,
            digest=report.digest,
            previous_digest=report.previous_digest,
            swap_ms=report.swap_ms,
            build_ms=report.build_ms,
            rolled_back=True,
        )
