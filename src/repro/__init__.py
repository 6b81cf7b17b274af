"""repro — reproduction of Hashemi et al., DATE 2017.

*Understanding the Impact of Precision Quantization on the Accuracy and
Energy of Neural Networks.*

The package is organized as one subpackage per subsystem:

``repro.nn``
    From-scratch numpy neural-network framework (layers, backprop,
    optimizers, training loop).  This is the substrate that replaces the
    paper's Caffe/Ristretto stack.

``repro.data``
    Synthetic dataset substrate standing in for MNIST / SVHN / CIFAR-10
    (no network access in this environment); same shapes and graded
    difficulty.

``repro.core``
    The paper's primary contribution: the precision/quantization library
    (fixed point, power-of-two, binary), range analysis, quantized
    inference emulation, quantization-aware training with shadow weights,
    precision sweeps, and Pareto-frontier analysis.

``repro.zoo``
    The benchmark network architectures of Tables I and II (LeNet,
    SVHN ConvNet, ALEX, ALEX+, ALEX++).

``repro.hw``
    Analytical model of the DianNao-style tile accelerator the paper
    synthesizes at 65 nm / 250 MHz: component library, SRAM buffers, NFU
    pipeline variants per precision, cycle-level scheduler, energy model
    and synthesis-style reports.

``repro.experiments``
    One driver per paper table/figure (Table III, IV, V, Figure 3, 4 and
    the memory-footprint analysis in Section V-B).

``repro.serve``
    Batched, multi-worker quantized-inference serving engine: dynamic
    micro-batching with backpressure, an LRU model store of calibrated
    frozen networks, and per-request modeled-energy accounting
    (``python -m repro serve-bench``).

``repro.obs``
    Observability: nested-span tracing, a process-wide metrics registry
    (counters / gauges / windowed histograms), per-layer FLOP and
    byte-traffic profiling, and JSONL / console sinks.  Wired through
    the trainer, precision sweeps, the serving engine and the
    experiment drivers (``python -m repro profile``).

``repro.parallel``
    Process-parallel precision sweeps: deterministic per-point seed
    derivation, a content-addressed on-disk result cache so sweeps
    resume instead of retraining, and a ``ProcessPoolExecutor``-backed
    executor whose results are bitwise identical to the sequential
    path (``python -m repro sweep --workers 4``).

``repro.resilience``
    Robustness layer shared by serving and sweeps: retry with
    exponential backoff + full jitter, seeded fault injection at named
    sites, and graceful precision-degradation under overload; combined
    with per-request deadlines in ``repro.serve``
    (``python -m repro serve-bench --chaos 0 --deadline-ms 500``).

``repro.kernels``
    The fused backend's in-place tails: ReLU and activation quantize
    written over an array the walk made itself, bitwise-equal to the
    reference layers for every paper precision (``docs/kernels.md``).

``repro.backends``
    Pluggable compute-backend dispatch: a uniform ``dense`` / ``conv``
    / ``pool`` / ``act`` / ``run`` interface with ``reference`` and
    ``fused`` implementations.  A call names its backend
    (``QuantizedNetwork.infer(x, backend=...)``, ``freeze(backend=...)``,
    ``repro profile --backend``); one that names none runs on ``fused``.

``repro.registry``
    Content-addressed model-artifact registry and deployment lifecycle:
    manifests with measured accuracy + modeled hw costs, named channels
    with promote/rollback/pin, Pareto-gated promotion policies reusing
    ``repro.core.pareto``, and a deployer that swaps artifacts into the
    live serving engine with zero downtime and automatic rollback
    (``python -m repro registry publish|list|promote|rollback``).

``repro.search``
    Automated mixed-precision & width search: an evolutionary loop
    over per-layer weight precisions and width-scaled architectures,
    Pareto-pruned under an energy budget and promoted into the
    registry (``python -m repro search --energy-budget ...``).

``repro.control``
    Closed-loop SLO autotuner for the serving engine: windowed sensors
    over live serving stats, a hysteresis + AIMD feedback controller
    moving batch size, precision tier and admission rate to hold a
    latency SLO, and a scenario-driven load suite with pass/fail
    verdicts (``python -m repro serve-bench --autotune``,
    ``docs/control.md``).
"""

from repro import backends, kernels, obs, parallel, registry, resilience, serve
from repro.version import __version__

__all__ = ["__version__", "backends", "kernels", "obs", "parallel",
           "registry", "resilience", "serve"]
