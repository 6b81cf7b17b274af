"""The four benchmark workloads and the loop that measures them.

Every workload runs in this one process.  A run is:

1. ``prepare`` — inputs drawn from the seed, plus the oracles the checks
   compare against (untimed);
2. several fresh set-ups, each timed, their median is ``setup_s``;
3. one warmup round, not recorded, so plans, workspaces and lazy
   imports are in place before timing;
4. rounds until ``seconds`` have passed (at least two), each round
   repeating the workload's whole mix, so host drift spreads over every
   configuration instead of biasing one; a fixed numpy probe between
   rounds records that drift (``host.probe_ms``);
5. correctness checks over everything the rounds returned.

With a tracer the rounds alternate untraced / traced, so the difference
between the two buckets is the tracing overhead, and the run ends with
the per-layer walk of :mod:`layers`.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import queue
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import backends
from repro.core.fixed_point import FixedPointQuantizer
from repro.core.mixed_precision import make_quantized_network
from repro.core.precision import PrecisionSpec
from repro.core.quantized import QuantizedNetwork
from repro.core.sweep import PrecisionSweep, SweepConfig
from repro.data import load_dataset
from repro.errors import ResultTimeoutError, ServingError
from repro.hw.energy import EnergyModel
from repro.nn.serialization import transfer_weights
from repro.search import PrecisionSearch, SearchConfig, SearchSpace
from repro.serve import InferenceServer, ModelStore
from repro.serve.fleet import FleetConfig, FleetServer
from repro.zoo import build_network, network_info

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space for search caches; removed as soon as a round ends
WORK_DIR = os.path.join(HERE, ".work")

#: End-to-end metric -> (unit, better).  Every workload reports all of
#: them; what each one measures per workload is listed in README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
}

#: Per-layer metric -> (unit, better, the end-to-end metric it moves).
PER_LAYER: Dict[str, Tuple[str, str, str]] = {
    **{
        f"kernels.fused.{family}_ms": ("ms", "lower", "throughput_per_s")
        for family in layers.FAMILY_ORDER
    },
    # calibration runs every layer's own forward
    **{
        f"kernels.reference.{family}_ms": ("ms", "lower", "setup_s")
        for family in layers.FAMILY_ORDER
    },
    "kernels.fused.conv_gflops": ("GFLOP/s", "higher", "throughput_per_s"),
    "kernels.fused.dense_gflops": ("GFLOP/s", "higher", "throughput_per_s"),
    "kernels.fused.unit_sum_ratio": ("ratio", "higher", "latency_ms"),
    **{
        f"core.quant.{family}_ns_per_elem": ("ns", "lower", "throughput_per_s")
        for family in layers.QUANT_PROBES
    },
    "core.calibrate_ms": ("ms", "lower", "setup_s"),
    "core.freeze_ms": ("ms", "lower", "setup_s"),
    "hw.energy.evaluate_ms": ("ms", "lower", "setup_s"),
    "hw.sim.simulate_ms": ("ms", "lower", "setup_s"),
    "data.load_ms": ("ms", "lower", "setup_s"),
}

#: Diagnostics: reported in every result, never gated.
DIAGNOSTIC_UNITS = {
    "host.probe_ms": "ms",
    "infer.reference_images_per_s": "1/s",
    "serve.latency_ms": "ms",
    "serve.slo_attainment": "fraction",
    "serve.submit_us": "us",
    "serve.queue_ms": "ms",
    "serve.service_ms": "ms",
    "serve.resolve_ms": "ms",
    "serve.gen_late_ms": "ms",
    "serve.batch_size": "count",
    "serve.store_build_ms": "ms",
    "serve.fleet_start_s": "s",
    "search.cold_s": "s",
    "search.replay_s": "s",
    "parallel.cache.hit_rate": "fraction",
    # from traced spans, on the workloads that reach these layers
    "nn.fit_s": "s",
    "core.evaluate_ms": "ms",
    "parallel.cache.get_ms": "ms",
    "parallel.cache.put_ms": "ms",
    "parallel.cache.put_bytes": "bytes",
    "search.self_s": "s",
}

#: A request (or a serve response) missing this limit misses the SLO.
SLO_MS = 20.0
BUCKETS = ("untraced", "traced")
#: Fresh set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


# ----------------------------------------------------------------------
# Samples and summaries
# ----------------------------------------------------------------------
class Recorder:
    """Samples per (bucket, name); ``bucket`` follows the current round."""

    def __init__(self, tracer: Optional[layers.Tracer] = None) -> None:
        self.tracer = tracer
        self.bucket = "untraced"
        self.samples: Dict[Tuple[str, str], List[float]] = (
            collections.defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, name: str, *values: float) -> None:
        self.samples[(self.bucket, name)].extend(values)

    def get(self, name: str, bucket: str = "untraced") -> List[float]:
        return self.samples.get((bucket, name), [])

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def traced(self) -> bool:
        return self.tracer is not None and self.bucket == "traced"

    def span(self, name: str, **attrs: object):
        """A benchmark-side span, recorded only in traced phases."""
        if self.traced:
            return self.tracer.span(name, **attrs)
        return contextlib.nullcontext({})

    @contextlib.contextmanager
    def phase(self, bucket: str) -> Iterator[None]:
        """Run the block in ``bucket``, with the tracer installed if traced."""
        self.bucket = bucket
        if self.tracer is None:
            yield
            return
        self.tracer.context["bucket"] = bucket
        with self.tracer.installed(bucket == "traced"):
            yield


@dataclass
class Summary:
    value: float
    median: float
    q1: float
    q3: float
    n: int
    #: (percentile, value) for the highest percentile with at least ten
    #: samples beyond it, when there are enough samples for one
    tail: Optional[Tuple[float, float]] = None

    def as_dict(self) -> Dict[str, object]:
        out = {"value": self.value, "median": self.median, "q1": self.q1,
               "q3": self.q3, "n": self.n}
        if self.tail is not None:
            out["tail_pct"], out["tail"] = self.tail
        return out


def summarize(samples: Sequence[float], better: Optional[str] = None
              ) -> Summary:
    """Median, quartiles and tail of ``samples``.

    The value is the median, or with ``better`` the quartile on the
    better side.  The host alternates between an uncontended mode and
    a contended one ~1.6x slower (``host.probe_ms`` shows it), so the
    median of a run jumps with the share of time spent contended while
    the better quartile follows the uncontended mode.
    """
    values = np.asarray(samples, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no samples to summarize")
    median = float(np.median(values))
    if values.size >= 2:
        q1, _, q3 = statistics.quantiles(values.tolist(), n=4)
    else:
        q1 = q3 = median
    tail = None
    for pct in (99.9, 99.0, 90.0):
        if values.size * (100.0 - pct) / 100.0 >= 10:
            tail = (pct, float(np.percentile(values, pct)))
            break
    value = {"lower": q1, "higher": q3}.get(better, median)
    return Summary(float(value), median, float(q1), float(q3),
                   int(values.size), tail)


def host_probe() -> float:
    """A fixed pure-numpy matmul in ms (median of 5): host drift only.

    ``einsum`` without ``optimize`` runs numpy's own single-threaded loop,
    so the probe does not wait on BLAS threads competing with the
    workload's processes.
    """
    a = np.random.default_rng(12345).standard_normal((128, 128))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.einsum("ij,jk->ik", a, a)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


# ----------------------------------------------------------------------
# Workload interface
# ----------------------------------------------------------------------
class Workload:
    """One named workload; subclasses fill in each stage."""

    name = ""

    def __init__(self, seed: int, backend: str = "fused") -> None:
        self.seed = seed
        self.backend = backend

    def prepare(self, rec: Recorder) -> None:
        """Draw inputs from the seed and build the checks' oracles."""

    def setup(self, rec: Recorder):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def round(self, state, rec: Recorder, index: int) -> None:
        raise NotImplementedError

    def check(self, state, rec: Recorder) -> None:
        pass

    def walk_targets(self, state) -> List[layers.WalkTarget]:
        raise NotImplementedError


def _load(rec: Recorder, name: str, **kwargs):
    with rec.span("data.load", dataset=name):
        return load_dataset(name, **kwargs)


# ----------------------------------------------------------------------
# infer
# ----------------------------------------------------------------------
INFER_NETS = ("lenet", "convnet_small", "alex_small")
INFER_PRECISIONS = ("float32", "fixed32", "fixed16", "fixed8", "fixed4",
                    "pow2", "binary")
INFER_BATCH = 64
INFER_SINGLES = 8
CALIBRATION = 64


@dataclass
class InferConfig:
    network: str
    dataset: str
    frozen: object
    energy_uj: float          # modeled per image, as a servable carries it

    @property
    def label(self) -> str:
        return f"{self.network}/{self.frozen.spec.key}"


class Infer(Workload):
    name = "infer"

    def setup(self, rec: Recorder) -> Dict[str, object]:
        energy = EnergyModel()
        inputs, configs = {}, []
        for net in INFER_NETS:
            info = network_info(net)
            split = _load(rec, info.dataset, n_train=CALIBRATION, n_test=300,
                          seed=0)
            rng = np.random.default_rng([self.seed, len(inputs)])
            picks = rng.choice(split.test.images.shape[0],
                               INFER_BATCH + INFER_SINGLES, replace=False)
            images = split.test.images[picks]
            inputs[info.dataset] = (images[:INFER_BATCH], images[INFER_BATCH:])
            for precision in INFER_PRECISIONS:
                network = build_network(net, seed=0)
                qnet = QuantizedNetwork(network, precision)
                if not qnet.spec.is_float:
                    qnet.calibrate(split.train.images)
                configs.append(InferConfig(
                    network=net,
                    dataset=info.dataset,
                    frozen=qnet.freeze(backend=self.backend),
                    energy_uj=energy.evaluate(
                        network, info.input_shape, qnet.spec).energy_uj,
                ))
        return {"inputs": inputs, "configs": configs}

    def round(self, state, rec: Recorder, index: int) -> None:
        reference = backends.get("reference")
        fused_s = reference_s = 0.0
        singles_ms = []
        for config in state["configs"]:
            batch, singles = state["inputs"][config.dataset]
            frozen = config.frozen
            start = time.perf_counter()
            fused = frozen.forward(batch)
            fused_s += time.perf_counter() - start
            times = []
            for i in range(INFER_SINGLES):
                start = time.perf_counter()
                frozen.forward(singles[i:i + 1])
                times.append(time.perf_counter() - start)
            singles_ms.append(statistics.median(times) * 1e3)
            start = time.perf_counter()
            expected = reference.run(frozen.pipeline, batch)
            reference_s += time.perf_counter() - start
            rec.attempted += 1
            if not np.array_equal(fused, expected):
                rec.failed += 1
                rec.problem(f"{config.label}: fused logits differ from "
                            f"reference in round {index}")
        images = len(state["configs"]) * INFER_BATCH
        # images over summed time = harmonic mean of per-config rates
        rec.add("throughput_per_s", images / fused_s)
        rec.add("latency_ms", statistics.fmean(singles_ms))
        rec.add("infer.reference_images_per_s", images / reference_s)

    def teardown(self, state) -> None:
        for config in state["configs"]:
            config.frozen.thaw()

    def walk_targets(self, state) -> List[layers.WalkTarget]:
        return [
            layers.WalkTarget(config.network, config.frozen,
                              state["inputs"][config.dataset][0])
            for config in state["configs"]
        ]


# ----------------------------------------------------------------------
# serving: open loop + closed window
# ----------------------------------------------------------------------
SERVE_NET = "lenet_small"
SERVE_KEYS = (("lenet_small", "fixed8"), ("lenet_small", "binary"),
              ("lenet_small", "float32"))
SERVE_WEIGHTS = (0.6, 0.3, 0.1)
SERVE_POOL = 256
RATE_PER_S = 2000.0
OPEN_S = 0.5
CLOSED_REQUESTS = 3000
CLOSED_IN_FLIGHT = 128
SAMPLED_PER_KEY = 32
RESULT_TIMEOUT_S = 30.0
#: Deep enough to hold 2 s of open-loop traffic: a host stall then shows
#: as latency, not as refused requests.
QUEUE_DEPTH = 4096


@dataclass
class Sent:
    """Client-side record of one open-loop request."""

    due: float
    sent: float = 0.0
    submitted: float = 0.0
    observed: float = float("nan")
    result: object = None        # InferenceResult, or None when it failed
    error: Optional[BaseException] = None


def open_loop(server, due_s: np.ndarray, images: np.ndarray,
              keys: Sequence[Tuple[str, str]],
              timeout_s: float = RESULT_TIMEOUT_S) -> List[Sent]:
    """Send request ``i`` at ``due_s[i]`` after start, whatever the server
    is doing; one collector thread resolves futures in order.

    Latency is measured from each request's *due* time, so a stall also
    charges every request that should have been sent during it.
    """
    records = [Sent(due=0.0) for _ in range(len(due_s))]
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()

    def collect() -> None:
        for _ in range(len(records)):
            index, future = handoff.get()
            record = records[index]
            if future is None:
                continue
            try:
                record.result = future.result(timeout_s)
            except Exception as error:  # every outcome is recorded
                record.error = error
            record.observed = time.monotonic()

    collector = threading.Thread(target=collect, name="bench-collector",
                                 daemon=True)
    collector.start()
    origin = time.monotonic() + 0.005
    for index, record in enumerate(records):
        record.due = origin + float(due_s[index])
        delay = record.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        record.sent = time.monotonic()
        future = None
        try:
            future = server.submit(images[index], *keys[index])
        except ServingError as error:
            record.error = error
        record.submitted = time.monotonic()
        handoff.put((index, future))
    collector.join(timeout_s * 2 + 10.0)
    if collector.is_alive():
        raise RuntimeError("open-loop collector did not finish")
    return records


def closed_window(server, images: np.ndarray,
                  keys: Sequence[Tuple[str, str]], in_flight: int,
                  timeout_s: float = RESULT_TIMEOUT_S):
    """Keep ``in_flight`` requests outstanding; returns (req/s, results,
    failed count).

    The rate is taken between the ``in_flight``-th completion and the
    ``in_flight``-th from last, so ramp-up and drain do not dilute it.
    """
    outstanding: "collections.deque" = collections.deque()
    results, done_at, failed = [], [], 0

    def settle() -> int:
        index, future = outstanding.popleft()
        try:
            results.append((index, future.result(timeout_s)))
        except Exception:  # counted; the caller reports failures
            return 1
        done_at.append(time.monotonic())
        return 0

    for index in range(len(images)):
        if len(outstanding) >= in_flight:
            failed += settle()
        try:
            outstanding.append((index, server.submit(images[index],
                                                     *keys[index])))
        except ServingError:
            failed += 1
    while outstanding:
        failed += settle()
    steady = done_at[in_flight:-in_flight] or done_at
    if len(steady) < 2:
        return 0.0, results, failed
    return (len(steady) - 1) / (steady[-1] - steady[0]), results, failed


def logit_tolerance(qnet: QuantizedNetwork) -> float:
    """How far a served logit may sit from direct ``infer()``.

    A served batch sums in another order than a single image, which can
    move a requantized value by one step.  Quantized logits differ by
    whole steps, so 1.5 steps admits one step and rejects two; float
    logits get 1e-4.
    """
    quant = qnet.pipeline.layers[-1]
    if (not isinstance(quant.quantizer, FixedPointQuantizer)
            or not quant.tracker.initialized):
        return 1e-4
    step = 2.0 ** -quant.quantizer.frac_bits_for(quant.tracker.max_abs)
    return max(1e-4, 1.5 * step)


class _Serve(Workload):
    """Shared traffic, checks and walk for both serving workloads."""

    def prepare(self, rec: Recorder) -> None:
        split = _load(rec, "digits", n_train=CALIBRATION, n_test=300, seed=0)
        self.pool = split.test.images[:SERVE_POOL]
        calibration = ModelStore(
            calibration_images=CALIBRATION).calibration_for("digits")
        energy = EnergyModel()
        input_shape = network_info(SERVE_NET).input_shape
        self.oracles: Dict[Tuple[str, str], QuantizedNetwork] = {}
        self.energy_uj: Dict[Tuple[str, str], float] = {}
        for key in SERVE_KEYS:
            network = build_network(key[0], seed=0)
            qnet = make_quantized_network(network, PrecisionSpec.parse(key[1]))
            if not qnet.spec.is_float:
                qnet.calibrate(calibration)
            self.oracles[key] = qnet
            self.energy_uj[key] = energy.evaluate(
                network, input_shape, qnet.spec).energy_uj
        self.responses: Dict[Tuple[str, str], List[Tuple[int, np.ndarray]]] = (
            collections.defaultdict(list))
        self.unresolved = 0
        self.energy_mismatches = 0

    def _traffic(self, rng: np.random.Generator, n: int):
        picks = rng.integers(SERVE_POOL, size=n)
        key_index = rng.choice(len(SERVE_KEYS), size=n, p=SERVE_WEIGHTS)
        return picks, [SERVE_KEYS[k] for k in key_index]

    def _accept(self, picks, keys, index: int, result) -> None:
        key = keys[index]
        if result.energy_uj != self.energy_uj[key]:
            self.energy_mismatches += 1
        self.responses[key].append((int(picks[index]), result.logits))

    def round(self, server, rec: Recorder, index: int) -> None:
        rng = np.random.default_rng([self.seed, index])
        gaps = rng.exponential(1.0 / RATE_PER_S,
                               size=int(RATE_PER_S * OPEN_S * 1.5))
        due_s = np.cumsum(gaps)
        due_s = due_s[due_s < OPEN_S]
        picks, keys = self._traffic(rng, len(due_s))
        records = open_loop(server, due_s, self.pool[picks], keys)
        latencies = []
        for i, record in enumerate(records):
            rec.attempted += 1
            result = record.result
            if result is None:
                rec.failed += 1
                if isinstance(record.error, ResultTimeoutError):
                    self.unresolved += 1
                # a failed request misses every latency limit
                latencies.append(RESULT_TIMEOUT_S * 1e3)
                continue
            self._accept(picks, keys, i, result)
            late_s = record.sent - record.due
            latency_ms = (record.observed - record.due) * 1e3
            latencies.append(latency_ms)
            rec.add("serve.gen_late_ms", late_s * 1e3)
            rec.add("serve.submit_us", (record.submitted - record.sent) * 1e6)
            rec.add("serve.queue_ms", result.queue_ms)
            rec.add("serve.service_ms", result.latency_ms - result.queue_ms)
            rec.add("serve.resolve_ms",
                    latency_ms - result.latency_ms - late_s * 1e3)
            rec.add("serve.batch_size", result.batch_size)
        rec.add("latency_ms", float(np.median(latencies)))
        rec.add("serve.latency_ms", *latencies)
        rec.add("serve.slo_attainment",
                float(np.mean(np.asarray(latencies) <= SLO_MS)))

        picks, keys = self._traffic(rng, CLOSED_REQUESTS)
        rate, results, failed = closed_window(
            server, self.pool[picks], keys, CLOSED_IN_FLIGHT)
        rec.attempted += CLOSED_REQUESTS
        rec.failed += failed
        for i, result in results:
            self._accept(picks, keys, i, result)
        rec.add("throughput_per_s", rate)

    def check(self, server, rec: Recorder) -> None:
        if self.unresolved:
            rec.problem(f"{self.unresolved} futures never resolved")
        if self.energy_mismatches:
            rec.problem(f"{self.energy_mismatches} responses carried an "
                        "energy other than their servable's model")
        rng = np.random.default_rng([self.seed, 10**6])
        for key in SERVE_KEYS:
            responses = self.responses[key]
            if not responses:
                rec.problem(f"no responses for {key}")
                continue
            picks = rng.choice(len(responses),
                               min(SAMPLED_PER_KEY, len(responses)),
                               replace=False)
            oracle = self.oracles[key]
            atol = logit_tolerance(oracle)
            for pick in picks:
                image_index, logits = responses[pick]
                direct = oracle.infer(self.pool[image_index][None])[0]
                # the served top class must be a top class of infer()
                top = direct[np.argmax(logits)] >= direct.max() - atol
                if not top or not np.allclose(direct, logits, rtol=0.0,
                                              atol=atol):
                    rec.problem(f"{key}: served logits differ from infer() "
                                f"for pool image {image_index}")

    def walk_targets(self, server) -> List[layers.WalkTarget]:
        return [
            layers.WalkTarget(network, qnet.freeze(), self.pool[:INFER_BATCH])
            for (network, _precision), qnet in self.oracles.items()
        ]


class ServeInproc(_Serve):
    name = "serve_inproc"

    def setup(self, rec: Recorder) -> InferenceServer:
        start = time.perf_counter()
        store = ModelStore(calibration_images=CALIBRATION, seed=0)
        for key in SERVE_KEYS:
            store.warm(*key)
        rec.add("serve.store_build_ms", (time.perf_counter() - start) * 1e3)
        return InferenceServer(store, workers=2, max_batch_size=32,
                               max_delay_ms=2.0,
                               max_queue_depth=QUEUE_DEPTH).start()

    def teardown(self, server) -> None:
        server.stop()


class ServeFleet(_Serve):
    name = "serve_fleet"

    def setup(self, rec: Recorder) -> FleetServer:
        start = time.perf_counter()
        fleet = FleetServer(FleetConfig(
            replicas=1, ring_slots=2, max_batch_size=32, max_delay_ms=2.0,
            max_queue_depth=QUEUE_DEPTH, calibration_images=CALIBRATION,
            seed=0, warm=list(SERVE_KEYS),
        )).start()
        rec.add("serve.fleet_start_s", time.perf_counter() - start)
        return fleet

    def teardown(self, fleet) -> None:
        fleet.stop()


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
TRAIN_NET = "lenet_small"
TRAIN_POINTS = ("fixed8", "fixed4", "pow2", "binary", "fixed:2,4,4,8:8")
REPLAYS = 5


def _search_config(seed: int) -> SearchConfig:
    return SearchConfig(
        space=SearchSpace(task=TRAIN_NET, width_choices=(0.5, 1.0),
                          weight_bit_choices=(2, 4, 8)),
        generations=1, population=3, survivors=3, seed=seed, workers=1,
        sweep=SweepConfig(float_epochs=1, qat_epochs=1, seed=seed),
        n_train=256, n_test=96, dataset_seed=seed,
    )


def _frontier(result) -> List[Tuple[str, float, float]]:
    return [(p.label, p.accuracy, p.energy_uj) for p in result.frontier]


class Train(Workload):
    name = "train"

    def prepare(self, rec: Recorder) -> None:
        self.first: Optional[Tuple[Dict[str, float], list]] = None

    def setup(self, rec: Recorder) -> PrecisionSweep:
        split = _load(rec, "digits", n_train=512, n_test=128, seed=self.seed)
        sweep = PrecisionSweep(
            functools.partial(build_network, TRAIN_NET, seed=self.seed),
            split,
            config=SweepConfig(float_epochs=1, qat_epochs=1, seed=self.seed),
        )
        sweep.train_float_baseline()
        return sweep

    def round(self, sweep, rec: Recorder, index: int) -> None:
        accuracies = {}
        for spec in TRAIN_POINTS:
            start = time.perf_counter()
            accuracies[spec] = sweep.run_precision(spec).accuracy
            rec.add("latency_ms", (time.perf_counter() - start) * 1e3)
        rec.attempted += len(TRAIN_POINTS)

        cache_dir = os.path.join(WORK_DIR, f"search-{os.getpid()}-{index}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            config = _search_config(self.seed)
            with rec.span("bench.search", phase="cold"):
                start = time.perf_counter()
                cold = PrecisionSearch(config, cache=cache_dir).run()
                cold_s = time.perf_counter() - start
            rec.attempted += 1
            rec.add("search.cold_s", cold_s)
            for _ in range(REPLAYS):
                with rec.span("bench.search", phase="replay"):
                    start = time.perf_counter()
                    warm = PrecisionSearch(config, cache=cache_dir).run(
                        resume=True)
                    replay_s = time.perf_counter() - start
                rec.add("throughput_per_s", 1.0 / replay_s)
                rec.add("search.replay_s", replay_s)
                rec.attempted += 1
                lookups = warm.cache_hits + warm.cache_misses
                rec.add("parallel.cache.hit_rate", warm.cache_hits / lookups)
                if _frontier(warm) != _frontier(cold) or warm.cache_misses:
                    rec.failed += 1
                    rec.problem(f"round {index}: warm replay differs from "
                                f"the cold search ({warm.cache_misses} misses)")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(WORK_DIR)  # only once no other run is using it

        if self.first is None:
            self.first = (accuracies, _frontier(cold))
        elif self.first != (accuracies, _frontier(cold)):
            rec.problem(f"round {index}: accuracies or cold frontier differ "
                        "from round 0")

    def walk_targets(self, sweep) -> List[layers.WalkTarget]:
        targets = []
        for spec in TRAIN_POINTS:
            network = build_network(TRAIN_NET, seed=self.seed)
            transfer_weights(sweep.float_network, network)
            qnet = make_quantized_network(network, PrecisionSpec.parse(spec))
            qnet.calibrate(sweep.split.train.images[:256])
            targets.append(layers.WalkTarget(
                TRAIN_NET, qnet.freeze(), sweep.split.test.images[:INFER_BATCH]))
        return targets


WORKLOADS = {cls.name: cls for cls in (Infer, ServeInproc, ServeFleet, Train)}


# ----------------------------------------------------------------------
# The measuring loop
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Everything one workload run produced."""

    name: str
    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, Dict[str, Summary]]       # bucket -> name -> summary
    diagnostics: Dict[str, Dict[str, Summary]]   # bucket -> name -> summary
    per_layer: Dict[str, float] = field(default_factory=dict)
    layer_diagnostics: Dict[str, float] = field(default_factory=dict)
    layer_rows: List[Dict] = field(default_factory=list)
    self_ms: Dict[str, Tuple[int, float, float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems


def run(name: str, seed: int, seconds: float,
        tracer: Optional[layers.Tracer] = None,
        backend: str = "fused") -> Outcome:
    """Measure one workload; see the module docstring for the stages."""
    workload = WORKLOADS[name](seed, backend=backend)
    rec = Recorder(tracer)
    if tracer is not None:
        tracer.context = {"workload": name}
    buckets = BUCKETS if tracer is not None else BUCKETS[:1]
    setups = SETUPS + (1 if tracer is not None else 0)

    with rec.phase(buckets[-1]):
        workload.prepare(rec)
    state = None
    try:
        for i in range(setups):
            if state is not None:
                workload.teardown(state)
                state = None
            with rec.phase(buckets[i % len(buckets)]):
                start = time.perf_counter()
                state = workload.setup(rec)
                rec.add("setup_s", time.perf_counter() - start)

        workload.round(state, Recorder(), 0)  # warmup: round 0, not recorded
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < 2 or time.perf_counter() < deadline:
            with rec.phase(buckets[rounds % len(buckets)]):
                workload.round(state, rec, rounds + 1)
                rec.add("host.probe_ms", host_probe())
            rounds += 1

        with rec.phase(buckets[-1]):
            workload.check(state, rec)
            if tracer is not None:
                per_layer, extra, rows = _per_layer(workload, state, tracer)
    finally:
        if state is not None:
            workload.teardown(state)

    outcome = Outcome(
        name=name, attempted=rec.attempted, failed=rec.failed,
        problems=rec.problems,
        metrics={
            b: {m: summarize(rec.get(m, b), None if m == "setup_s" else better)
                for m, (_unit, better) in END_TO_END.items()}
            for b in buckets
        },
        diagnostics={
            b: {m: summarize(rec.get(m, b))
                for m in DIAGNOSTIC_UNITS if rec.get(m, b)}
            for b in buckets
        },
    )
    if tracer is not None:
        outcome.per_layer, outcome.layer_rows = per_layer, rows
        outcome.layer_diagnostics = extra
        outcome.self_ms = tracer.self_ms(workload=name, bucket="traced")
    return outcome


def _per_layer(workload: Workload, state, tracer: layers.Tracer):
    results = [layers.walk(tracer, target)
               for target in workload.walk_targets(state)]
    metrics = layers.walk_metrics(results)
    rows = layers.layer_table(results, EnergyModel())
    name = workload.name
    for metric, span in (
        ("core.calibrate_ms", "core.calibrate"),
        ("core.freeze_ms", "core.freeze"),
        ("hw.energy.evaluate_ms", "hw.energy.evaluate"),
        ("hw.sim.simulate_ms", "hw.sim.simulate"),
        ("data.load_ms", "data.load"),
    ):
        metrics[metric] = tracer.mean_ms(span, workload=name)

    # layers only some workloads reach: diagnostics, never gated
    extra: Dict[str, float] = {}
    for metric, span, scale in (
        ("nn.fit_s", "nn.fit", 1e-3),
        ("core.evaluate_ms", "core.evaluate", 1.0),
        ("parallel.cache.get_ms", "parallel.cache.get", 1.0),
        ("parallel.cache.put_ms", "parallel.cache.put", 1.0),
    ):
        value = tracer.mean_ms(span, workload=name)
        if value is not None:
            extra[metric] = value * scale
    puts = tracer.select("parallel.cache.put", workload=name)
    if puts:
        extra["parallel.cache.put_bytes"] = statistics.fmean(
            s.attrs["bytes"] for s in puts)
    cold = tracer.self_times("search.run", {"phase": "cold"}, workload=name)
    if cold:
        extra["search.self_s"] = statistics.fmean(cold) / 1e3
    return metrics, extra, rows
