"""The BLAS thread count: read and set it, and it leaves the bits alone.

Fleet replicas and sweep pool workers compute on one OpenBLAS thread
(:mod:`repro.parallel.blas`), while an in-process forward or a
1-worker sweep computes at the host's count; fleet responses and sweep
results are bitwise the in-process ones only if the count changes no
bit.  The fleet parity tests run at batch 8 and below, where OpenBLAS
never splits a matmul across threads, so the checks here run at
batch 64 (forwards) and 32 (a training step).
"""

import numpy as np
import pytest

from repro import core
from repro.nn.optim import SGD
from repro.parallel import blas
from repro.zoo import build_network, network_info


@pytest.fixture
def host_threads():
    """This process's BLAS thread count, when there is one to lower."""
    threads = blas.blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS is mapped into this process")
    if threads == 1:
        pytest.skip("this process already computes on one BLAS thread")
    return threads


def _on_one_thread(compute):
    previous = blas.set_blas_threads(1)
    try:
        return compute()
    finally:
        blas.set_blas_threads(previous)


def test_set_returns_the_count_in_force_and_reads_back(host_threads):
    previous = blas.set_blas_threads(1)
    try:
        assert previous == host_threads
        assert blas.blas_threads() == 1
    finally:
        blas.set_blas_threads(previous)
    assert blas.blas_threads() == host_threads


def test_without_openblas_nothing_is_read_or_set(monkeypatch):
    monkeypatch.setattr(blas, "_openblas_paths", lambda: [])
    assert blas.blas_threads() is None
    assert blas.set_blas_threads(1) is None


@pytest.mark.parametrize("precision", ["fixed8", "binary", "float32"])
@pytest.mark.parametrize("network", ["lenet_small", "convnet_small", "alex_small"])
def test_frozen_forward_bits_do_not_depend_on_the_thread_count(
    host_threads, network, precision
):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, *network_info(network).input_shape), np.float32)
    qnet = core.QuantizedNetwork(build_network(network, seed=0), precision)
    qnet.calibrate(x[:32])
    frozen = qnet.freeze()
    try:
        many = frozen.forward(x)
        one = _on_one_thread(lambda: frozen.forward(x))
    finally:
        frozen.thaw()
    assert np.array_equal(many, one)


def _qat_step_bytes() -> bytes:
    """Parameter bytes after one QAT step of lenet_small at batch 32."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((32, 1, 28, 28), np.float32)
    y = rng.integers(0, 10, 32)
    network = build_network("lenet_small", seed=0)
    qnet = core.QuantizedNetwork(network, "fixed8")
    qnet.calibrate(x)
    optimizer = SGD(network.parameters(), lr=0.01, momentum=0.9)
    core.QATTrainer(qnet, optimizer, batch_size=32).train_step(x, y)
    return b"".join(param.data.tobytes() for param in network.parameters())


def test_qat_step_bits_do_not_depend_on_the_thread_count(host_threads):
    assert _qat_step_bytes() == _on_one_thread(_qat_step_bytes)
