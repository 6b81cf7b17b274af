"""MNIST-like synthetic dataset: grayscale 28x28 digit glyphs.

Easy task: centred glyphs, mild jitter, light noise.  A small CNN
reaches high accuracy within a few epochs, matching MNIST's role in the
paper (Table IV shows essentially no accuracy loss down to 8 bits).
"""

from __future__ import annotations

import numpy as np

from repro.data import shapes
from repro.data.dataset import add_noise, synthesize
from repro.data.glyphs import DIGIT_CLASS_NAMES, draw_jitter, sketch_digits
from repro.errors import ConfigurationError


def synthetic_digits(
    n_train: int = 2000,
    n_test: int = 500,
    size: int = 28,
    noise: float = 0.05,
    seed: int = 0,
) -> tuple:
    """Generate (train, test) :class:`Dataset` pairs.

    Args:
        n_train / n_test: sample counts (balanced over the 10 classes).
        size: image side in pixels (28 matches LeNet's input).
        noise: additive Gaussian noise sigma.
        seed: RNG seed; the same seed always yields the same data.
    """
    if n_train < 10 or n_test < 10:
        raise ConfigurationError("need at least one sample per class")
    rng = np.random.default_rng(seed)

    def render_chunk(digits: np.ndarray) -> np.ndarray:
        jitters, noises = [], []
        for _ in digits:
            jitters.append(draw_jitter(rng, size))
            noises.append(rng.normal(0.0, noise, (size, size)))
        sketch = shapes.Sketch(size)
        sketch_digits(sketch, digits, jitters)
        return add_noise(sketch.render()[:, None], noises)

    def generate(count: int):
        return synthesize(count, (1, size, size), render_chunk, rng,
                          DIGIT_CLASS_NAMES, "digits")

    return generate(n_train), generate(n_test)
