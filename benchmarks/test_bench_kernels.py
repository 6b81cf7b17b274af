"""Micro-benchmarks of the computational kernels.

These time the substrate itself (conv lowering, quantizer throughput,
quantized inference overhead) so performance regressions in the
framework are visible independently of the experiment harness.

The fused-vs-reference comparison asserts bitwise parity and prints
the speedup without gating it: the reference path shares the fused
path's lowering, pooling walks and quantize core, so the ratio measures
only buffer reuse and layout, and it moves with the host.  Timed gates
live in ``perfbench/`` (declared in ``BENCHMARK.json``).
"""

import time

import numpy as np

from repro import backends, core, nn
from repro.data import load_dataset
from repro.zoo import build_network, network_info


def test_bench_conv_forward(benchmark):
    rng = np.random.default_rng(0)
    conv = nn.Conv2D(32, 32, kernel_size=5, padding=2, rng=rng)
    conv.eval_mode()
    x = rng.standard_normal((8, 32, 16, 16)).astype(np.float32)
    out = benchmark(conv.forward, x)
    assert out.shape == (8, 32, 16, 16)


def test_bench_conv_backward(benchmark):
    rng = np.random.default_rng(0)
    conv = nn.Conv2D(16, 16, kernel_size=3, padding=1, rng=rng)
    x = rng.standard_normal((8, 16, 16, 16)).astype(np.float32)
    out = conv.forward(x)
    grad = np.ones_like(out)

    def backward():
        conv.zero_grad()
        return conv.backward(grad)

    result = benchmark(backward)
    assert result.shape == x.shape


def test_bench_fixed_point_quantizer(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 18).astype(np.float32)
    quantizer = core.FixedPointQuantizer(8)
    out = benchmark(quantizer.quantize, x)
    assert out.shape == x.shape


def test_bench_pow2_quantizer(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 18).astype(np.float32)
    quantizer = core.PowerOfTwoQuantizer(6)
    out = benchmark(quantizer.quantize, x)
    assert out.shape == x.shape


def test_bench_binary_quantizer(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 18).astype(np.float32)
    quantizer = core.BinaryQuantizer()
    out = benchmark(quantizer.quantize, x)
    assert out.shape == x.shape


def test_bench_quantized_inference_overhead(benchmark):
    """Quantized-forward emulation cost on the LeNet proxy."""
    rng = np.random.default_rng(0)
    net = build_network("lenet_small")
    qnet = core.QuantizedNetwork(net, core.get_precision("fixed8"))
    x = rng.standard_normal((16, 1, 28, 28)).astype(np.float32)
    qnet.calibrate(x)
    logits = benchmark(qnet.predict, x)
    assert logits.shape == (16, 10)


def test_bench_float_inference_baseline(benchmark):
    rng = np.random.default_rng(0)
    net = build_network("lenet_small")
    net.eval_mode()
    x = rng.standard_normal((16, 1, 28, 28)).astype(np.float32)
    logits = benchmark(net.predict, x)
    assert logits.shape == (16, 10)


def _fused_workload(network_name: str = "lenet", n_images: int = 256):
    info = network_info(network_name)
    split = load_dataset(info.dataset, n_train=64, n_test=n_images + 44, seed=0)
    qnet = core.QuantizedNetwork(build_network(network_name, seed=0), "fixed8")
    qnet.calibrate(split.train.images[:32])
    return qnet, split.test.images[:n_images]


def test_bench_fused_quantized_inference(benchmark):
    """Steady-state fused inference (workspaces warm after first call)."""
    qnet, images = _fused_workload()
    fused = backends.get("fused")
    with qnet.quantized_weights():
        logits = benchmark(fused.predict, qnet.pipeline, images, 64)
    assert logits.shape == (images.shape[0], 10)


def test_bench_fused_speedup_vs_reference():
    """Fused and reference backends agree bit for bit on batched
    quantized inference; the speedup is printed, not gated."""
    qnet, images = _fused_workload()
    reference = backends.get("reference")
    fused = backends.get("fused")
    reps = 3
    with qnet.quantized_weights():
        expected = reference.predict(qnet.pipeline, images, batch_size=64)
        assert np.array_equal(
            expected, fused.predict(qnet.pipeline, images, batch_size=64)
        ), "speedup without parity is a non-result"
        walls = {}
        for name, impl in (("reference", reference), ("fused", fused)):
            started = time.perf_counter()
            for _ in range(reps):
                impl.predict(qnet.pipeline, images, batch_size=64)
            walls[name] = (time.perf_counter() - started) / reps

    speedup = walls["reference"] / walls["fused"]
    print(f"\nfused vs reference: {walls['reference'] * 1e3:.1f} ms -> "
          f"{walls['fused'] * 1e3:.1f} ms ({speedup:.2f}x)")
