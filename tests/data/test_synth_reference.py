"""The chunked generators against the per-image reference, byte for byte.

``reference_synth`` keeps the generators as they were before rendering
was batched.  Every image, label and random draw must come out
identical: dataset bytes feed split fingerprints, ``SweepCache`` keys
and the training pins in ``tests/core/test_training_bitwise.py``.
"""

import numpy as np
import pytest

from repro.data import (
    DATASET_BUILDERS,
    load_dataset,
    shapes,
    synthetic_cifar,
    synthetic_digits,
    synthetic_svhn,
)
from repro.data.dataset import SYNTH_CHUNK
from repro.data.glyphs import render_digit
from repro.data.synth_cifar import _render_cifar_sample
from repro.data.synth_svhn import _render_svhn_sample
from tests.data import reference_synth as ref

GENERATORS = {
    "digits": (synthetic_digits, ref.synthetic_digits),
    "svhn": (synthetic_svhn, ref.synthetic_svhn),
    "cifar": (synthetic_cifar, ref.synthetic_cifar),
}


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.images.dtype == w.images.dtype == np.float32
        assert np.array_equal(g.images, w.images)
        assert np.array_equal(g.labels, w.labels)


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("counts", [
    (10, 11),
    (SYNTH_CHUNK - 1, SYNTH_CHUNK + 1),
    (SYNTH_CHUNK, 12),
])
def test_generator_matches_reference(name, seed, counts):
    new, old = GENERATORS[name]
    kwargs = dict(n_train=counts[0], n_test=counts[1], seed=seed)
    assert_same(new(**kwargs), old(**kwargs))


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("size", [16, 64])
def test_generator_matches_reference_at_other_sizes(name, size):
    new, old = GENERATORS[name]
    kwargs = dict(n_train=10, n_test=12, size=size, noise=0.15, seed=3)
    assert_same(new(**kwargs), old(**kwargs))


def test_svhn_without_distractors_matches_reference():
    kwargs = dict(n_train=20, n_test=10, distractors=False, seed=4)
    assert_same(synthetic_svhn(**kwargs), ref.synthetic_svhn(**kwargs))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_load_dataset_matches_reference(name, monkeypatch):
    new = load_dataset(name, n_train=20, n_test=40, seed=6)
    monkeypatch.setitem(DATASET_BUILDERS, name, GENERATORS[name][1])
    old = load_dataset(name, n_train=20, n_test=40, seed=6)
    assert_same((new.train, new.val, new.test), (old.train, old.val, old.test))


# --- single shapes and single samples ------------------------------------

def draw_both(draw, *args, size=28, **kwargs):
    got, want = shapes.blank_canvas(size), ref.blank_canvas(size)
    getattr(shapes, draw)(got, *args, **kwargs)
    getattr(ref, draw)(want, *args, **kwargs)
    return got, want


@pytest.mark.parametrize("point", [(5.3, 7.1), (np.float64(5.3), np.float64(7.1)), (5, 7)])
def test_zero_length_segment_matches_reference(point):
    got, want = draw_both("draw_segment", point, point, thickness=1.4)
    assert got.max() > 0.5
    assert np.array_equal(got, want)


@pytest.mark.parametrize("float64", [False, True])
def test_segment_clipped_by_canvas_edge_matches_reference(float64):
    start, end = (-3.5, 4.2), (12.7, 30.1)
    if float64:
        start, end = np.float64(start), np.float64(end)
    got, want = draw_both("draw_segment", start, end, thickness=2.2)
    assert got[:, 0].max() > 0.0 and got[-1].max() > 0.0   # leaves the canvas
    assert np.array_equal(got, want)


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("center", [(14.2, 12.9), (np.float64(14.2), np.float64(12.9))])
def test_ellipse_matches_reference(center, filled):
    got, want = draw_both("draw_ellipse", center, (9.3, 6.1), thickness=1.6,
                          filled=filled)
    assert np.array_equal(got, want)


def test_polygon_matches_reference():
    # a horizontal edge, an edge off the canvas, and a concave star-like turn
    vertices = [(np.float64(x), np.float64(y)) for x, y in
                [(3.2, 4.0), (24.6, 4.0), (30.5, 15.3), (14.1, 11.7), (5.4, 25.8)]]
    got, want = draw_both("draw_polygon", vertices)
    assert got.sum() > 50
    assert np.array_equal(got, want)


@pytest.mark.parametrize("digit", range(10))
@pytest.mark.parametrize("shift_pixels", [1.5, 12.0])   # 12 px pushes strokes off the edge
def test_render_digit_matches_reference(digit, shift_pixels):
    for seed in range(4):
        got = render_digit(digit, 28, np.random.default_rng(seed),
                           shift_pixels=shift_pixels)
        want = ref.render_digit(digit, 28, np.random.default_rng(seed),
                                shift_pixels=shift_pixels)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("digit", [0, 8])
def test_ellipse_only_glyphs_match_reference(digit):
    rng_new, rng_ref = np.random.default_rng(9), np.random.default_rng(9)
    for size in (16, 28, 64):
        got = render_digit(digit, size, rng_new)
        assert np.array_equal(got, ref.render_digit(digit, size, rng_ref))


@pytest.mark.parametrize("distractors", [False, True])
def test_svhn_sample_matches_reference(distractors):
    rng_new, rng_ref = np.random.default_rng(2), np.random.default_rng(2)
    for digit in range(10):
        got = _render_svhn_sample(digit, 32, rng_new, distractors)
        assert np.array_equal(got, ref._render_svhn_sample(digit, 32, rng_ref,
                                                           distractors))
    assert rng_new.random() == rng_ref.random()


def test_cifar_sample_matches_reference():
    rng_new, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
    for cls in list(range(10)) * 3:
        got = _render_cifar_sample(cls, 32, rng_new)
        assert np.array_equal(got, ref._render_cifar_sample(cls, 32, rng_ref))
    assert rng_new.random() == rng_ref.random()
