"""The per-image dataset generators, kept as the reference for the batched ones.

These are the drawing primitives, ``render_digit``, the svhn and cifar
per-sample renderers and the three generators exactly as they were
before generation moved to chunked, vectorized rendering: one image at
a time, one ``np.mgrid`` and a dozen numpy calls per stroke.
``tests/data/test_synth_reference.py`` requires the package's
generators to match them byte for byte.  Only the imports differ: the
stroke tables, class names and containers come from the package.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.glyphs import DIGIT_CLASS_NAMES, DIGIT_STROKES
from repro.data.synth_cifar import CIFAR_CLASS_NAMES
from repro.errors import ConfigurationError

Point = Tuple[float, float]

# The copied bodies call ``shapes.draw_*``; here those live in this module.
shapes = sys.modules[__name__]


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------
def blank_canvas(size: int) -> np.ndarray:
    """A ``size x size`` black canvas."""
    return np.zeros((size, size), dtype=np.float32)


def _pixel_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    ys, xs = np.mgrid[0:size, 0:size]
    return xs.astype(np.float32), ys.astype(np.float32)


def draw_segment(
    canvas: np.ndarray,
    start: Point,
    end: Point,
    thickness: float = 1.2,
    intensity: float = 1.0,
) -> None:
    """Draw a soft-edged line segment (coords in pixels, in place).

    Intensity falls off linearly over one pixel beyond ``thickness`` so
    glyph edges are slightly anti-aliased, like scanned handwriting.
    """
    size = canvas.shape[0]
    xs, ys = _pixel_grid(size)
    ax, ay = start
    bx, by = end
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq < 1e-12:
        dist = np.hypot(xs - ax, ys - ay)
    else:
        t = ((xs - ax) * dx + (ys - ay) * dy) / length_sq
        t = np.clip(t, 0.0, 1.0)
        dist = np.hypot(xs - (ax + t * dx), ys - (ay + t * dy))
    mask = np.clip(thickness + 1.0 - dist, 0.0, 1.0)
    np.maximum(canvas, intensity * mask, out=canvas)


def draw_polyline(
    canvas: np.ndarray,
    points: Sequence[Point],
    thickness: float = 1.2,
    intensity: float = 1.0,
) -> None:
    """Draw consecutive segments through ``points`` (pixel coords)."""
    for a, b in zip(points[:-1], points[1:]):
        draw_segment(canvas, a, b, thickness=thickness, intensity=intensity)


def draw_ellipse(
    canvas: np.ndarray,
    center: Point,
    radii: Point,
    thickness: float = 1.2,
    intensity: float = 1.0,
    filled: bool = False,
) -> None:
    """Draw an ellipse outline (or filled disc) in place."""
    size = canvas.shape[0]
    xs, ys = _pixel_grid(size)
    cx, cy = center
    rx, ry = max(radii[0], 1e-3), max(radii[1], 1e-3)
    # Normalized radial coordinate: 1.0 on the ellipse boundary.
    rho = np.sqrt(((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2)
    if filled:
        mask = np.clip((1.0 - rho) * min(rx, ry) + 1.0, 0.0, 1.0)
    else:
        boundary_dist = np.abs(rho - 1.0) * min(rx, ry)
        mask = np.clip(thickness + 1.0 - boundary_dist, 0.0, 1.0)
    np.maximum(canvas, intensity * mask, out=canvas)


def draw_polygon(
    canvas: np.ndarray,
    vertices: Sequence[Point],
    intensity: float = 1.0,
) -> None:
    """Fill a convex or star-convex polygon using the even-odd rule."""
    size = canvas.shape[0]
    xs, ys = _pixel_grid(size)
    inside = np.zeros((size, size), dtype=bool)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if y1 == y2:
            continue
        crosses = ((ys >= min(y1, y2)) & (ys < max(y1, y2)))
        x_at_y = x1 + (ys - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (xs < x_at_y)
    np.maximum(canvas, intensity * inside.astype(np.float32), out=canvas)


def checkerboard(size: int, cell: int, phase: int = 0) -> np.ndarray:
    """A ``size x size`` checkerboard pattern with ``cell``-pixel squares."""
    ys, xs = np.mgrid[0:size, 0:size]
    board = (((xs // cell) + (ys // cell) + phase) % 2).astype(np.float32)
    return board


def stripes(size: int, period: int, horizontal: bool = True) -> np.ndarray:
    """Alternating stripes with the given pixel period."""
    ys, xs = np.mgrid[0:size, 0:size]
    axis = ys if horizontal else xs
    return ((axis // max(period, 1)) % 2).astype(np.float32)



def affine_points(
    points: Sequence[Point],
    size: int,
    rotation: float = 0.0,
    scale: float = 1.0,
    shift: Point = (0.0, 0.0),
) -> list:
    """Map unit-square points to pixel coords with jitter.

    ``points`` live in [0, 1]^2; they are scaled about the glyph centre,
    rotated by ``rotation`` radians, mapped to the canvas with a margin,
    and translated by ``shift`` pixels.
    """
    cos_r, sin_r = np.cos(rotation), np.sin(rotation)
    margin = 0.15 * size
    span = size - 2 * margin
    out = []
    for x, y in points:
        # Center, scale, rotate in unit space.
        ux, uy = (x - 0.5) * scale, (y - 0.5) * scale
        rx = ux * cos_r - uy * sin_r + 0.5
        ry = ux * sin_r + uy * cos_r + 0.5
        out.append((margin + rx * span + shift[0], margin + ry * span + shift[1]))
    return out


# ---------------------------------------------------------------------------
# glyphs
# ---------------------------------------------------------------------------
def render_digit(
    digit: int,
    size: int,
    rng: np.random.Generator,
    rotation_range: float = 0.20,
    scale_range: Tuple[float, float] = (0.85, 1.1),
    shift_pixels: float = 1.5,
    thickness_range: Tuple[float, float] = (1.0, 1.8),
) -> np.ndarray:
    """Render one jittered digit glyph onto a ``size x size`` canvas.

    Returns a single-channel float canvas in [0, 1].  The jitter ranges
    control task difficulty; the digits dataset uses gentle defaults,
    the svhn generator passes wider ones.
    """
    canvas = shapes.blank_canvas(size)
    rotation = rng.uniform(-rotation_range, rotation_range)
    scale = rng.uniform(*scale_range)
    shift = (
        rng.uniform(-shift_pixels, shift_pixels),
        rng.uniform(-shift_pixels, shift_pixels),
    )
    thickness = rng.uniform(*thickness_range) * size / 28.0
    for kind, spec in DIGIT_STROKES[digit]:
        if kind == "line":
            pts = shapes.affine_points(spec, size, rotation, scale, shift)
            shapes.draw_polyline(canvas, pts, thickness=thickness)
        else:
            cx, cy, rx, ry = spec
            center_pts = shapes.affine_points([(cx, cy)], size, rotation, scale, shift)
            span = size - 2 * (0.15 * size)
            shapes.draw_ellipse(
                canvas,
                center_pts[0],
                (rx * span * scale, ry * span * scale),
                thickness=thickness,
            )
    return canvas


# ---------------------------------------------------------------------------
# digits
# ---------------------------------------------------------------------------
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

    def generate(count: int, name: str) -> Dataset:
        images = np.zeros((count, 1, size, size), dtype=np.float32)
        labels = np.zeros(count, dtype=np.int64)
        for i in range(count):
            digit = i % 10
            canvas = render_digit(digit, size, rng)
            canvas = canvas + rng.normal(0.0, noise, canvas.shape)
            images[i, 0] = np.clip(canvas, 0.0, 1.0)
            labels[i] = digit
        order = rng.permutation(count)
        return Dataset(images[order], labels[order], DIGIT_CLASS_NAMES, name=name)

    return generate(n_train, "digits"), generate(n_test, "digits")


# ---------------------------------------------------------------------------
# svhn
# ---------------------------------------------------------------------------
def _textured_background(size: int, rng: np.random.Generator) -> np.ndarray:
    """Low-frequency colour texture, CHW in [0, 1]."""
    base = rng.uniform(0.1, 0.7, size=3)
    coarse = rng.normal(0.0, 0.18, size=(3, size // 4 + 1, size // 4 + 1))
    texture = np.repeat(np.repeat(coarse, 4, axis=1), 4, axis=2)[:, :size, :size]
    return np.clip(base[:, None, None] + texture, 0.0, 1.0).astype(np.float32)


def _render_svhn_sample(
    digit: int, size: int, rng: np.random.Generator, distractors: bool
) -> np.ndarray:
    background = _textured_background(size, rng)
    glyph = render_digit(
        digit,
        size,
        rng,
        rotation_range=0.30,
        scale_range=(0.7, 1.15),
        shift_pixels=3.0,
        thickness_range=(1.2, 2.4),
    )
    if distractors:
        # Partial neighbouring digits peeking in from the sides, as in
        # real SVHN crops.
        for side in (-1, 1):
            if rng.random() < 0.6:
                other = int(rng.integers(0, 10))
                neighbor = render_digit(other, size, rng, shift_pixels=0.0)
                shift = int(side * rng.integers(size * 2 // 3, size - 2))
                rolled = np.roll(neighbor, shift, axis=1)
                if side < 0:
                    rolled[:, shift:] = 0.0
                else:
                    rolled[:, :shift] = 0.0
                glyph = np.maximum(glyph, 0.8 * rolled)

    fg_color = rng.uniform(0.2, 1.0, size=3)
    # Ensure the digit contrasts with the background mean.
    bg_mean = background.mean(axis=(1, 2))
    fg_color = np.where(np.abs(fg_color - bg_mean) < 0.25, 1.0 - bg_mean, fg_color)
    image = background * (1.0 - glyph[None]) + fg_color[:, None, None] * glyph[None]
    contrast = rng.uniform(0.75, 1.2)
    brightness = rng.uniform(-0.08, 0.08)
    image = np.clip((image - 0.5) * contrast + 0.5 + brightness, 0.0, 1.0)
    return image.astype(np.float32)


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

    def generate(count: int, name: str) -> Dataset:
        images = np.zeros((count, 3, size, size), dtype=np.float32)
        labels = np.zeros(count, dtype=np.int64)
        for i in range(count):
            digit = i % 10
            image = _render_svhn_sample(digit, size, rng, distractors)
            image = image + rng.normal(0.0, noise, image.shape)
            images[i] = np.clip(image, 0.0, 1.0)
            labels[i] = digit
        order = rng.permutation(count)
        return Dataset(images[order], labels[order], DIGIT_CLASS_NAMES, name=name)

    return generate(n_train, "svhn"), generate(n_test, "svhn")


# ---------------------------------------------------------------------------
# cifar
# ---------------------------------------------------------------------------
def _rand_center(size: int, rng: np.random.Generator, margin: float = 0.30):
    return (
        size * rng.uniform(margin, 1.0 - margin),
        size * rng.uniform(margin, 1.0 - margin),
    )


def _draw_disc(canvas, size, rng):
    r = size * rng.uniform(0.18, 0.30)
    shapes.draw_ellipse(canvas, _rand_center(size, rng), (r, r * rng.uniform(0.8, 1.2)),
                        filled=True)


def _draw_ring(canvas, size, rng):
    r = size * rng.uniform(0.20, 0.32)
    shapes.draw_ellipse(canvas, _rand_center(size, rng), (r, r),
                        thickness=size * rng.uniform(0.05, 0.09))


def _draw_square(canvas, size, rng):
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
    shapes.draw_polygon(canvas, corners)


def _draw_triangle(canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    r = size * rng.uniform(0.18, 0.30)
    phase = rng.uniform(0, 2 * np.pi)
    vertices = [
        (cx + r * np.cos(phase + k * 2 * np.pi / 3),
         cy + r * np.sin(phase + k * 2 * np.pi / 3))
        for k in range(3)
    ]
    shapes.draw_polygon(canvas, vertices)


def _draw_cross(canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    arm = size * rng.uniform(0.20, 0.32)
    thickness = size * rng.uniform(0.05, 0.08)
    angle = rng.uniform(0, np.pi / 2)
    for offset in (0.0, np.pi / 2):
        dx = arm * np.cos(angle + offset)
        dy = arm * np.sin(angle + offset)
        shapes.draw_segment(canvas, (cx - dx, cy - dy), (cx + dx, cy + dy),
                            thickness=thickness)


def _draw_stripes(canvas, size, rng):
    pattern = shapes.stripes(size, int(rng.integers(3, 6)),
                             horizontal=bool(rng.random() < 0.5))
    np.maximum(canvas, pattern, out=canvas)


def _draw_checker(canvas, size, rng):
    pattern = shapes.checkerboard(size, int(rng.integers(3, 6)),
                                  phase=int(rng.integers(0, 2)))
    np.maximum(canvas, pattern, out=canvas)


def _draw_star(canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    outer = size * rng.uniform(0.22, 0.32)
    inner = outer * rng.uniform(0.35, 0.5)
    phase = rng.uniform(0, 2 * np.pi)
    points = []
    for k in range(10):
        r = outer if k % 2 == 0 else inner
        theta = phase + k * np.pi / 5
        points.append((cx + r * np.cos(theta), cy + r * np.sin(theta)))
    shapes.draw_polygon(canvas, points)


def _draw_blobs(canvas, size, rng):
    for _ in range(int(rng.integers(3, 6))):
        r = size * rng.uniform(0.05, 0.10)
        shapes.draw_ellipse(canvas, _rand_center(size, rng, margin=0.15),
                            (r, r), filled=True)


def _draw_crescent(canvas, size, rng):
    cx, cy = _rand_center(size, rng)
    r = size * rng.uniform(0.20, 0.30)
    shapes.draw_ellipse(canvas, (cx, cy), (r, r), filled=True)
    # Subtract an offset disc to carve the crescent.
    bite = shapes.blank_canvas(size)
    offset = r * rng.uniform(0.45, 0.7)
    angle = rng.uniform(0, 2 * np.pi)
    shapes.draw_ellipse(
        bite, (cx + offset * np.cos(angle), cy + offset * np.sin(angle)),
        (r * 0.9, r * 0.9), filled=True,
    )
    np.clip(canvas - bite, 0.0, 1.0, out=canvas)


_DRAWERS: Dict[int, Callable] = {
    0: _draw_disc, 1: _draw_ring, 2: _draw_square, 3: _draw_triangle,
    4: _draw_cross, 5: _draw_stripes, 6: _draw_checker, 7: _draw_star,
    8: _draw_blobs, 9: _draw_crescent,
}


def _render_cifar_sample(cls: int, size: int, rng: np.random.Generator) -> np.ndarray:
    mask = shapes.blank_canvas(size)
    _DRAWERS[cls](mask, size, rng)

    bg_color = rng.uniform(0.0, 0.8, size=3)
    bg_texture = rng.normal(0.0, 0.10, size=(3, size, size))
    background = np.clip(bg_color[:, None, None] + bg_texture, 0.0, 1.0)

    fg_color = rng.uniform(0.2, 1.0, size=3)
    fg_color = np.where(np.abs(fg_color - bg_color) < 0.2, 1.0 - bg_color, fg_color)
    fg_texture = 1.0 + rng.normal(0.0, 0.12, size=(size, size))

    image = background * (1.0 - mask[None]) + (
        fg_color[:, None, None] * (mask * fg_texture)[None]
    )
    return np.clip(image, 0.0, 1.0).astype(np.float32)


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

    def generate(count: int, name: str) -> Dataset:
        images = np.zeros((count, 3, size, size), dtype=np.float32)
        labels = np.zeros(count, dtype=np.int64)
        for i in range(count):
            cls = i % 10
            image = _render_cifar_sample(cls, size, rng)
            image = image + rng.normal(0.0, noise, image.shape)
            images[i] = np.clip(image, 0.0, 1.0)
            labels[i] = cls
        order = rng.permutation(count)
        return Dataset(images[order], labels[order], CIFAR_CLASS_NAMES, name=name)

    return generate(n_train, "cifar"), generate(n_test, "cifar")
