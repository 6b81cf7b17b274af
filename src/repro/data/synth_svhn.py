"""SVHN-like synthetic dataset: coloured 32x32 digits in the wild.

Medium difficulty: digits are rendered with random foreground colour on
a textured, coloured background, with partial distractor digits at the
edges, wider geometric jitter, and contrast variation.  This reproduces
SVHN's role in the paper: quantization starts to cost accuracy at 8
bits and binary weights fail outright (Table IV).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.data import shapes
from repro.data.dataset import add_noise, synthesize
from repro.data.glyphs import DIGIT_CLASS_NAMES, Jitter, draw_jitter, sketch_digits
from repro.errors import ConfigurationError


class _Sample(NamedTuple):
    """One crop's randomness, drawn in the generator's order."""

    digit: int
    base: np.ndarray                 # background colour, (3,)
    coarse: np.ndarray               # background texture cells, (3, c, c)
    jitter: Jitter
    neighbors: List[Tuple[int, Jitter, int]]   # (digit, jitter, column shift)
    fg_color: np.ndarray             # (3,)
    contrast: float
    brightness: float


def _draw_background(size: int, rng: np.random.Generator):
    base = rng.uniform(0.1, 0.7, size=3)
    coarse = rng.normal(0.0, 0.18, size=(3, size // 4 + 1, size // 4 + 1))
    return base, coarse


def _texture(base: np.ndarray, coarse: np.ndarray, size: int) -> np.ndarray:
    """Low-frequency colour texture, (..., 3, size, size) float32 in [0, 1]."""
    texture = np.repeat(np.repeat(coarse, 4, axis=-2), 4, axis=-1)[..., :size, :size]
    return np.clip(base[..., None, None] + texture, 0.0, 1.0).astype(np.float32)


def _textured_background(size: int, rng: np.random.Generator) -> np.ndarray:
    """Low-frequency colour texture, CHW in [0, 1]."""
    return _texture(*_draw_background(size, rng), size)


def _draw_sample(
    digit: int, size: int, rng: np.random.Generator, distractors: bool
) -> _Sample:
    base, coarse = _draw_background(size, rng)
    jitter = draw_jitter(
        rng,
        size,
        rotation_range=0.30,
        scale_range=(0.7, 1.15),
        shift_pixels=3.0,
        thickness_range=(1.2, 2.4),
    )
    neighbors = []
    if distractors:
        # Partial neighbouring digits peeking in from the sides, as in
        # real SVHN crops.
        for side in (-1, 1):
            if rng.random() < 0.6:
                other = int(rng.integers(0, 10))
                other_jitter = draw_jitter(rng, size, shift_pixels=0.0)
                shift = int(side * rng.integers(size * 2 // 3, size - 2))
                neighbors.append((other, other_jitter, shift))
    fg_color = rng.uniform(0.2, 1.0, size=3)
    contrast = rng.uniform(0.75, 1.2)
    brightness = rng.uniform(-0.08, 0.08)
    return _Sample(digit, base, coarse, jitter, neighbors, fg_color, contrast,
                   brightness)


def _render_samples(samples: Sequence[_Sample], size: int) -> np.ndarray:
    """Compose a batch of drawn crops into (n, 3, size, size) float32 images."""
    sketch = shapes.Sketch(size)
    sketch_digits(sketch, [s.digit for s in samples], [s.jitter for s in samples])
    owners = [i for i, s in enumerate(samples) for _ in s.neighbors]
    neighbors = [n for s in samples for n in s.neighbors]
    if neighbors:
        sketch_digits(sketch, [n[0] for n in neighbors], [n[1] for n in neighbors])
    canvases = sketch.render()
    glyph = canvases[: len(samples)]
    for owner, neighbor, (_, _, shift) in zip(owners, canvases[len(samples):], neighbors):
        # slide the neighbour in by ``shift`` columns; nothing wraps around
        shifted = np.zeros_like(neighbor)
        if shift > 0:
            shifted[:, shift:] = neighbor[:, :-shift]
        else:
            shifted[:, :shift] = neighbor[:, -shift:]
        np.maximum(glyph[owner], 0.8 * shifted, out=glyph[owner])

    background = _texture(np.stack([s.base for s in samples]),
                          np.stack([s.coarse for s in samples]), size)
    fg_color = np.stack([s.fg_color for s in samples])
    # Ensure the digit contrasts with the background mean.
    bg_mean = background.mean(axis=(2, 3))
    fg_color = np.where(np.abs(fg_color - bg_mean) < 0.25, 1.0 - bg_mean, fg_color)
    glyph = glyph[:, None]
    image = fg_color[:, :, None, None] * glyph
    image += background * (1.0 - glyph)
    # (image - 0.5) * contrast + 0.5 + brightness, in that order, in place
    image -= 0.5
    image *= np.array([s.contrast for s in samples])[:, None, None, None]
    image += 0.5
    image += np.array([s.brightness for s in samples])[:, None, None, None]
    return np.clip(image, 0.0, 1.0, out=image).astype(np.float32)


def _render_svhn_sample(
    digit: int, size: int, rng: np.random.Generator, distractors: bool
) -> np.ndarray:
    return _render_samples([_draw_sample(digit, size, rng, distractors)], size)[0]


def synthetic_svhn(
    n_train: int = 2000,
    n_test: int = 500,
    size: int = 32,
    noise: float = 0.04,
    distractors: bool = True,
    seed: int = 1,
) -> tuple:
    """Generate (train, test) :class:`Dataset` pairs of SVHN-like crops."""
    if n_train < 10 or n_test < 10:
        raise ConfigurationError("need at least one sample per class")
    rng = np.random.default_rng(seed)

    def render_chunk(digits: np.ndarray) -> np.ndarray:
        samples, noises = [], []
        for digit in digits:
            samples.append(_draw_sample(digit, size, rng, distractors))
            noises.append(rng.normal(0.0, noise, (3, size, size)))
        return add_noise(_render_samples(samples, size), noises)

    def generate(count: int):
        return synthesize(count, (3, size, size), render_chunk, rng,
                          DIGIT_CLASS_NAMES, "svhn")

    return generate(n_train), generate(n_test)
