"""CIFAR-10-like synthetic dataset: textured object classes, 32x32 RGB.

Hard task: ten structural object classes rendered with random colours,
scales, positions, textured backgrounds, occluding noise and per-sample
appearance variation.  Structure (not colour) defines the class, so the
network must learn shape features — giving the dataset enough headroom
for the precision sweep to separate, as CIFAR-10 does in Table V.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.data import shapes
from repro.data.dataset import add_noise, synthesize
from repro.errors import ConfigurationError

CIFAR_CLASS_NAMES = [
    "disc", "ring", "square", "triangle", "cross",
    "stripes", "checker", "star", "blobs", "crescent",
]

# Each drawer draws its class's shape parameters from ``rng`` and queues
# the shapes on ``canvas`` of ``sketch``.  A shape's dtype is part of the
# class's definition, since it fixes the dataset's bytes: discs, rings,
# blobs and the crescent's body rasterize in float32; polygons, crosses
# and the crescent's bite in float64.


def _rand_center(size: int, rng: np.random.Generator, margin: float = 0.30):
    return (
        size * rng.uniform(margin, 1.0 - margin),
        size * rng.uniform(margin, 1.0 - margin),
    )


def _draw_disc(sketch, canvas, size, rng):
    r = size * rng.uniform(0.18, 0.30)
    sketch.ellipse(canvas, _rand_center(size, rng), (r, r * rng.uniform(0.8, 1.2)),
                    filled=True, dtype=np.float32)


def _draw_ring(sketch, canvas, size, rng):
    r = size * rng.uniform(0.20, 0.32)
    sketch.ellipse(canvas, _rand_center(size, rng), (r, r),
                    thickness=size * rng.uniform(0.05, 0.09), dtype=np.float32)


def _draw_square(sketch, canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    half = size * rng.uniform(0.15, 0.26)
    angle = rng.uniform(0, np.pi / 4)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    corners = []
    for dx, dy in [(-1, -1), (1, -1), (1, 1), (-1, 1)]:
        corners.append((
            cx + half * (dx * cos_a - dy * sin_a),
            cy + half * (dx * sin_a + dy * cos_a),
        ))
    sketch.polygon(canvas, corners, dtype=np.float64)


def _draw_triangle(sketch, canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    r = size * rng.uniform(0.18, 0.30)
    phase = rng.uniform(0, 2 * np.pi)
    vertices = [
        (cx + r * np.cos(phase + k * 2 * np.pi / 3),
         cy + r * np.sin(phase + k * 2 * np.pi / 3))
        for k in range(3)
    ]
    sketch.polygon(canvas, vertices, dtype=np.float64)


def _draw_cross(sketch, canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    arm = size * rng.uniform(0.20, 0.32)
    thickness = size * rng.uniform(0.05, 0.08)
    angle = rng.uniform(0, np.pi / 2)
    for offset in (0.0, np.pi / 2):
        dx = arm * np.cos(angle + offset)
        dy = arm * np.sin(angle + offset)
        sketch.segment(canvas, (cx - dx, cy - dy), (cx + dx, cy + dy), thickness,
                        dtype=np.float64)


def _draw_stripes(sketch, canvas, size, rng):
    sketch.paint(canvas, shapes.stripes(size, int(rng.integers(3, 6)),
                                        horizontal=bool(rng.random() < 0.5)))


def _draw_checker(sketch, canvas, size, rng):
    sketch.paint(canvas, shapes.checkerboard(size, int(rng.integers(3, 6)),
                                             phase=int(rng.integers(0, 2))))


def _draw_star(sketch, canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    outer = size * rng.uniform(0.22, 0.32)
    inner = outer * rng.uniform(0.35, 0.5)
    phase = rng.uniform(0, 2 * np.pi)
    points = []
    for k in range(10):
        r = outer if k % 2 == 0 else inner
        theta = phase + k * np.pi / 5
        points.append((cx + r * np.cos(theta), cy + r * np.sin(theta)))
    sketch.polygon(canvas, points, dtype=np.float64)


def _draw_blobs(sketch, canvas, size, rng):
    for _ in range(int(rng.integers(3, 6))):
        r = size * rng.uniform(0.05, 0.10)
        sketch.ellipse(canvas, _rand_center(size, rng, margin=0.15), (r, r),
                        filled=True, dtype=np.float32)


def _draw_crescent(sketch, canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    r = size * rng.uniform(0.20, 0.30)
    sketch.ellipse(canvas, (cx, cy), (r, r), filled=True, dtype=np.float32)
    # Subtract an offset disc to carve the crescent.
    bite = sketch.canvases(1)[0]
    offset = r * rng.uniform(0.45, 0.7)
    angle = rng.uniform(0, 2 * np.pi)
    sketch.ellipse(
        bite, (cx + offset * np.cos(angle), cy + offset * np.sin(angle)),
        (r * 0.9, r * 0.9), filled=True, dtype=np.float64,
    )
    sketch.carve(canvas, bite)


_DRAWERS: Dict[int, Callable] = {
    0: _draw_disc, 1: _draw_ring, 2: _draw_square, 3: _draw_triangle,
    4: _draw_cross, 5: _draw_stripes, 6: _draw_checker, 7: _draw_star,
    8: _draw_blobs, 9: _draw_crescent,
}

#: one image's colours and textures: (bg colour, bg texture, fg colour, fg texture)
_Look = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _draw_sample(sketch: shapes.Sketch, canvas: int, cls: int, size: int,
                 rng: np.random.Generator) -> _Look:
    """Queue one image's object mask on ``canvas``, then draw its look."""
    _DRAWERS[cls](sketch, canvas, size, rng)
    bg_color = rng.uniform(0.0, 0.8, size=3)
    bg_texture = rng.normal(0.0, 0.10, size=(3, size, size))
    fg_color = rng.uniform(0.2, 1.0, size=3)
    fg_texture = rng.normal(0.0, 0.12, size=(size, size))
    return bg_color, bg_texture, fg_color, fg_texture


def _render_samples(masks: np.ndarray, looks: Sequence[_Look]) -> np.ndarray:
    """Compose object masks and looks into (n, 3, size, size) float32 images."""
    bg_color, image, fg_color, fg_texture = (np.stack(v) for v in zip(*looks))
    # the background (colour plus texture), composed into the image in place
    image += bg_color[:, :, None, None]
    np.clip(image, 0.0, 1.0, out=image)
    fg_color = np.where(np.abs(fg_color - bg_color) < 0.2, 1.0 - bg_color, fg_color)
    fg_texture += 1.0
    fg_texture *= masks
    image *= (1.0 - masks)[:, None]
    image += fg_color[:, :, None, None] * fg_texture[:, None]
    return np.clip(image, 0.0, 1.0, out=image).astype(np.float32)


def _render_cifar_sample(cls: int, size: int, rng: np.random.Generator) -> np.ndarray:
    sketch = shapes.Sketch(size)
    canvas = sketch.canvases(1)[0]
    look = _draw_sample(sketch, canvas, cls, size, rng)
    return _render_samples(sketch.render()[:1], [look])[0]


def synthetic_cifar(
    n_train: int = 2000,
    n_test: int = 500,
    size: int = 32,
    noise: float = 0.06,
    seed: int = 2,
) -> tuple:
    """Generate (train, test) :class:`Dataset` pairs of textured objects."""
    if n_train < 10 or n_test < 10:
        raise ConfigurationError("need at least one sample per class")
    rng = np.random.default_rng(seed)

    def render_chunk(classes: np.ndarray) -> np.ndarray:
        sketch = shapes.Sketch(size)
        masks = sketch.canvases(len(classes))
        looks, noises = [], []
        for canvas, cls in zip(masks, classes):
            looks.append(_draw_sample(sketch, canvas, cls, size, rng))
            noises.append(rng.normal(0.0, noise, (3, size, size)))
        return add_noise(_render_samples(sketch.render()[masks], looks), noises)

    def generate(count: int):
        return synthesize(count, (3, size, size), render_chunk, rng,
                          CIFAR_CLASS_NAMES, "cifar")

    return generate(n_train), generate(n_test)
