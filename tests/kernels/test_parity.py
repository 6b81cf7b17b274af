"""Fused-vs-reference bitwise parity and the fused memory model.

The fused backend's whole contract is "same bits, fewer passes": for
every Table III precision the fused kernels must reproduce the
reference layer-by-layer path *bitwise*, and like the reference path
it keeps no scratch memory between batches.  These tests pin both.

Both backends run the same quantize core, im2col lowering and pooling
walks, so this parity no longer checks that arithmetic against an
independent chain: ``tests/core/test_fixed_point.py`` holds the
quantizer to a float64 oracle, and ``tests/nn/test_im2col.py`` /
``tests/nn/test_pooling.py`` hold the lowering and the walks to the
fancy-index, stacked-window and ``np.add.at`` originals.
"""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import backends, core
from repro.data import load_dataset
from repro.errors import QuantizationError
from repro.nn import Dense, MaxPool2D, Module, ReLU, Sequential
from repro.zoo import build_network, network_info
from tests.conftest import make_tiny_cnn

#: Every precision spec of the paper's Table III.
PRECISION_KEYS = [
    "float32", "fixed32", "fixed16", "fixed8", "fixed4", "pow2", "binary",
]

def _assert_bitwise(reference, fused, context):
    assert reference.shape == fused.shape, context
    assert reference.dtype == fused.dtype, context
    if not np.array_equal(reference, fused):  # fast path for the message
        worst = float(np.max(np.abs(reference.astype(np.float64) - fused)))
        raise AssertionError(f"{context}: max |delta| = {worst}")
    assert reference.tobytes() == fused.tobytes(), context


@settings(max_examples=32, deadline=None)
@given(
    key=st.sampled_from(PRECISION_KEYS),
    # alex_small brings padded channel-major convs, a ceil-mode
    # overlapping max pool and average pools
    net_name=st.sampled_from(["lenet", "convnet", "alex_small"]),
    calibrated=st.booleans(),
    batch_size=st.integers(1, 7),
    n_images=st.integers(1, 10),
)
def test_fused_matches_reference_bitwise(
    key, net_name, calibrated, batch_size, n_images
):
    """Property: for every Table III precision, on real zoo networks,
    calibrated or not, any batch split, the fused backend's logits are
    bitwise identical to the reference backend's."""
    split = load_dataset(
        network_info(net_name).dataset, n_train=48, n_test=24, seed=0
    )
    qnet = core.QuantizedNetwork(build_network(net_name, seed=0), key)
    if calibrated:
        qnet.calibrate(split.train.images[:32])
    x = split.test.images[:n_images]
    with qnet.quantized_weights():
        reference = backends.get("reference").predict(
            qnet.pipeline, x, batch_size=batch_size
        )
        fused = backends.get("fused").predict(
            qnet.pipeline, x, batch_size=batch_size
        )
    _assert_bitwise(
        reference, fused,
        f"{net_name}/{key} calibrated={calibrated} batch={batch_size}",
    )


#: Non-finite values a poisoned input carries in 1-3 of its lanes.
POISONS = {"none": None, "nan": np.nan, "-inf": -np.inf, "+inf": np.inf}


@settings(max_examples=100, deadline=None)
@given(
    key=st.sampled_from(PRECISION_KEYS),
    seed=st.integers(0, 7),
    scale=st.sampled_from([1e-4, 0.1, 1.0, 30.0, 1e4]),
    poison=st.sampled_from(sorted(POISONS)),
    lanes=st.lists(st.integers(0, 3 * 28 * 28 - 1), min_size=1, max_size=3),
)
@example(key="fixed8", seed=1, scale=1.0, poison="nan", lanes=[900])
@example(key="fixed8", seed=1, scale=1.0, poison="+inf", lanes=[900])
def test_fused_matches_reference_on_adversarial_inputs(
    key, seed, scale, poison, lanes
):
    """Property: parity holds for extreme input magnitudes (deep in the
    saturation and underflow regimes of every quantizer) and for
    non-finite lanes.

    The networks are uncalibrated, so every activation radix point is
    placed from its batch.  A NaN lane reaches the ReLUs, which zero it
    on both backends.  An infinite lane gives the input quantizer an
    infinite range: both backends raise ``QuantizationError``, except
    at float32, where the logits (NaN lanes included) must be the same
    bytes."""
    qnet = core.QuantizedNetwork(make_tiny_cnn(seed=seed), key)
    rng = np.random.default_rng(seed)
    x = (scale * rng.standard_normal((3, 1, 28, 28))).astype(np.float32)
    if POISONS[poison] is not None:
        x.reshape(-1)[lanes] = POISONS[poison]
    context = f"tiny/{key} seed={seed} scale={scale} poison={poison}@{lanes}"
    with qnet.quantized_weights(), np.errstate(invalid="ignore"):
        if poison.endswith("inf") and key != "float32":
            for name in ("reference", "fused"):
                with pytest.raises(QuantizationError, match="non-finite range"):
                    backends.get(name).predict(qnet.pipeline, x)
            return
        reference = backends.get("reference").predict(qnet.pipeline, x)
        fused = backends.get("fused").predict(qnet.pipeline, x)
    if poison.endswith("inf"):
        assert reference.tobytes() == fused.tobytes(), context
        return
    _assert_bitwise(reference, fused, context)


def test_fused_parity_through_infer_and_freeze(tiny_digits):
    """The public entry points agree across backends too."""
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:32])
    x = tiny_digits.test.images[:9]
    reference = qnet.infer(x, batch_size=4, backend="reference")
    fused = qnet.infer(x, batch_size=4, backend="fused")
    _assert_bitwise(reference, fused, "infer")

    frozen = qnet.freeze(backend="fused")
    try:
        _assert_bitwise(reference, frozen.predict(x, batch_size=4), "frozen")
    finally:
        frozen.thaw()


def test_fused_falls_back_on_unknown_layers(tiny_digits, monkeypatch):
    """A layer kind without a fused kernel runs through its own forward
    and the surrounding fused units still produce bitwise parity."""
    _assert_fallback_parity(tiny_digits, monkeypatch, MaxPool2D)


class _SubclassedPool(MaxPool2D):
    """Kinds match exact types, so fused runs this pool's own forward."""


def test_fused_flatten_orders_a_fallbacks_channel_major_output(tiny_digits, monkeypatch):
    """A fallback pool hands Flatten an NCHW view of channel-major
    memory; the dense matmul still gets the C-ordered operand the
    reference Flatten gives it, since BLAS may round a transposed
    operand differently."""
    _assert_fallback_parity(tiny_digits, monkeypatch, _SubclassedPool)


def _assert_fallback_parity(tiny_digits, monkeypatch, pool_cls):
    from repro import nn

    operands = []
    dense_forward = nn.Dense.forward

    def spy(layer, x):
        operands.append(x.flags.c_contiguous)
        return dense_forward(layer, x)

    monkeypatch.setattr(nn.Dense, "forward", spy)

    gen = np.random.default_rng(0)
    net = nn.Sequential(
        [
            nn.Conv2D(1, 4, kernel_size=5, name="conv1", rng=gen),
            nn.Sigmoid(name="sig1"),  # no fused kernel for sigmoid
            pool_cls(2, name="pool1"),
            nn.Flatten(name="flatten"),
            nn.Dense(4 * 12 * 12, 10, name="ip1", rng=gen),
        ],
        name="oddball",
    )
    qnet = core.QuantizedNetwork(net, "fixed8")
    qnet.calibrate(tiny_digits.train.images[:16])
    x = tiny_digits.test.images[:5]
    reference = qnet.infer(x, backend="reference")
    fused = qnet.infer(x, backend="fused")
    _assert_bitwise(reference, fused, "fallback")
    assert operands and all(operands)


def test_swapping_a_layer_recompiles_the_plan(tiny_digits):
    """A plan holds the identity of every layer it compiled: replacing
    an entry of ``pipeline.layers`` makes the next run compile a new
    plan over the new layer, which matches the reference bit for bit."""
    fused = backends.FusedBackend()
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:32])
    pipeline, x = qnet.pipeline, tiny_digits.test.images[:6]
    before = fused.run(pipeline, x)
    plan = fused._plan(pipeline)
    index = next(i for i, layer in enumerate(pipeline.layers) if type(layer) is Dense)
    swapped = copy.deepcopy(pipeline.layers[index])
    weight = swapped.weight.data
    swapped.weight.data = np.random.default_rng(1).standard_normal(weight.shape, np.float32)
    pipeline.layers[index] = swapped
    after = fused.run(pipeline, x)
    assert fused._plan(pipeline) is not plan
    assert not np.array_equal(after, before)
    _assert_bitwise(backends.get("reference").run(pipeline, x), after, "swapped dense")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_fused_forward_retains_no_scratch():
    """Every intermediate of a fused forward dies once the next unit has
    read it: after one batch-64 alex_small forward, only the logits and
    the compiled plan (a few KB) are still allocated."""
    qnet = core.QuantizedNetwork(build_network("alex_small", seed=0), "fixed8")
    qnet.pipeline.eval_mode()
    x = np.random.default_rng(0).standard_normal((64, 3, 32, 32), np.float32)
    fused = backends.FusedBackend()
    with qnet.quantized_weights():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits = fused.run(qnet.pipeline, x)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert logits.shape == (64, 10)
    assert retained <= logits.nbytes + 64 * 1024, (
        f"{retained / 2**20:.2f} MiB still allocated after one forward"
    )


def test_batch_size_change_matches_the_reference(tiny_digits):
    """One backend runs batches of 8, then of 5, on one pipeline: each
    batch size gives the reference's bits."""
    fused = backends.FusedBackend()
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:32])
    x = tiny_digits.test.images[:12]
    with qnet.quantized_weights():
        out8 = fused.predict(qnet.pipeline, x, batch_size=8)
        out5 = fused.predict(qnet.pipeline, x, batch_size=5)
        reference = backends.get("reference").predict(
            qnet.pipeline, x, batch_size=5
        )
    _assert_bitwise(out8, out5, "batch-size change")
    _assert_bitwise(reference, out5, "batch-size change vs reference")


def test_fused_output_is_not_a_workspace_view(tiny_digits):
    """Returned logits must be caller-owned: a later batch through the
    same pipeline cannot mutate an earlier result."""
    fused = backends.get("fused")
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:32])
    with qnet.quantized_weights():
        first = fused.predict(qnet.pipeline, tiny_digits.test.images[:4])
        snapshot = first.copy()
        fused.predict(qnet.pipeline, tiny_digits.test.images[4:8])
    np.testing.assert_array_equal(first, snapshot)


def _flatten_then_quant(leading_quant):
    """Flatten, then a quant that folds into Flatten's unit; with
    ``leading_quant`` the walk owns what Flatten reshapes."""
    from repro import nn

    head = [core.FakeQuantLayer(core.FixedPointQuantizer(8))] if leading_quant else []
    return nn.Sequential(head + [nn.Flatten(), core.FakeQuantLayer(core.FixedPointQuantizer(4))])


def test_fused_does_not_write_caller_input(tiny_digits):
    """The in-place fast paths must never touch the caller's array, and
    each pipeline still gives the reference's bits."""
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.calibrate(tiny_digits.train.images[:32])
    cases = [
        ("tiny_cnn", qnet.pipeline, tiny_digits.test.images[:6].copy()),
        *(
            (f"flatten_quant(leading={leading})", _flatten_then_quant(leading),
             np.random.default_rng(0).standard_normal((3, 2, 4, 4), np.float32))
            for leading in (False, True)
        ),
    ]
    with qnet.quantized_weights():
        for name, pipeline, x in cases:
            snapshot = x.copy()
            fused = backends.get("fused").predict(pipeline, x)
            np.testing.assert_array_equal(x, snapshot, err_msg=name)
            _assert_bitwise(backends.get("reference").predict(pipeline, x), fused, name)


class _Table(Module):
    """A fallback layer that returns its own buffer: whole, or a view of
    its first ``len(x)`` rows."""

    def __init__(self, whole):
        super().__init__("table")
        self.whole = whole
        self.table = np.random.default_rng(3).standard_normal((8, 6), np.float32)

    def forward(self, x):
        return self.table if self.whole else self.table[: len(x)]


@pytest.mark.parametrize("whole", [False, True], ids=["view", "whole"])
@pytest.mark.parametrize("leading_quant", [False, True], ids=["bare", "quant_in"])
def test_fused_never_writes_a_fallbacks_result(whole, leading_quant):
    """A fallback unit's result is the walk's own only when it is the
    array the walk already owned: a layer that hands back its buffer,
    or a view of it, keeps that buffer intact through the ReLU after it."""
    table = _Table(whole)
    head = [core.FakeQuantLayer(core.FixedPointQuantizer(8))] if leading_quant else []
    pipeline = Sequential(head + [table, ReLU()])
    pipeline.eval_mode()
    x = np.random.default_rng(0).standard_normal((8 if whole else 5, 6), np.float32)
    snapshot = table.table.copy()
    reference = backends.get("reference").run(pipeline, x)
    fused = backends.get("fused").run(pipeline, x)
    np.testing.assert_array_equal(table.table, snapshot)
    _assert_bitwise(reference, fused, f"whole={whole} leading_quant={leading_quant}")


def test_training_mode_uses_reference_path(tiny_digits):
    """In train mode the fused backend defers to Sequential.forward so
    range trackers keep observing."""
    fused = backends.get("fused")
    qnet = core.QuantizedNetwork(make_tiny_cnn(), "fixed8")
    qnet.pipeline.train_mode()
    try:
        with qnet.quantized_weights():
            out = fused.run(qnet.pipeline, tiny_digits.train.images[:4])
    finally:
        qnet.pipeline.eval_mode()
    assert out.shape == (4, 10)
    trackers = [
        layer.tracker
        for layer in qnet.pipeline.layers
        if isinstance(layer, core.FakeQuantLayer)
    ]
    assert any(tracker.initialized for tracker in trackers), (
        "training-mode forwards must feed the range trackers"
    )


def test_stochastic_rounding_units_fall_back(tiny_digits):
    """A stochastic-rounding quantizer is not exactly reproducible by
    the fused kernels, so its units must use the layer's own forward."""
    spec = core.get_precision("fixed8")
    qnet = core.QuantizedNetwork(
        make_tiny_cnn(),
        spec,
        activation_factory=lambda: core.FixedPointQuantizer(
            8, stochastic_rounding=True, rng=np.random.default_rng(0)
        ),
    )
    fused = backends.FusedBackend()
    plan_fusable = [
        fusable
        for unit, fusable in zip(
            backends.compile_units(qnet.pipeline),
            fused._plan(qnet.pipeline).fusable,
        )
        if unit.kind == "quant" or unit.quant is not None
    ]
    assert plan_fusable and not any(plan_fusable), (
        "stochastic-rounding quant units must be non-fusable"
    )
