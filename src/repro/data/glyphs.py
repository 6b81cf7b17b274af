"""Digit glyph skeletons shared by the digits and svhn generators.

Each digit 0-9 is a list of strokes; a stroke is either a polyline of
unit-square points or an ellipse spec.  The generators jitter these
skeletons (rotation, scale, translation, thickness) so every rendered
sample is unique while classes stay visually distinct.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data import shapes

# A stroke is ("line", [(x, y), ...]) or ("ellipse", (cx, cy, rx, ry)).
Stroke = Tuple[str, object]

DIGIT_STROKES: Dict[int, List[Stroke]] = {
    0: [("ellipse", (0.5, 0.5, 0.32, 0.45))],
    1: [("line", [(0.35, 0.25), (0.55, 0.08), (0.55, 0.92)]),
        ("line", [(0.35, 0.92), (0.75, 0.92)])],
    2: [("line", [(0.25, 0.25), (0.35, 0.10), (0.65, 0.10), (0.75, 0.28),
                  (0.70, 0.48), (0.25, 0.90), (0.78, 0.90)])],
    3: [("line", [(0.25, 0.12), (0.70, 0.12), (0.48, 0.45), (0.72, 0.60),
                  (0.70, 0.82), (0.50, 0.92), (0.25, 0.85)])],
    4: [("line", [(0.62, 0.92), (0.62, 0.08), (0.22, 0.62), (0.80, 0.62)])],
    5: [("line", [(0.72, 0.10), (0.28, 0.10), (0.26, 0.48), (0.60, 0.45),
                  (0.74, 0.62), (0.70, 0.85), (0.45, 0.93), (0.24, 0.85)])],
    6: [("line", [(0.68, 0.10), (0.40, 0.30), (0.28, 0.60)]),
        ("ellipse", (0.48, 0.70, 0.22, 0.23))],
    7: [("line", [(0.22, 0.10), (0.78, 0.10), (0.45, 0.92)])],
    8: [("ellipse", (0.5, 0.30, 0.22, 0.21)),
        ("ellipse", (0.5, 0.71, 0.26, 0.23))],
    9: [("ellipse", (0.52, 0.32, 0.22, 0.23)),
        ("line", [(0.72, 0.40), (0.62, 0.70), (0.38, 0.92)])],
}

DIGIT_CLASS_NAMES = [str(d) for d in range(10)]

#: Per digit, its polyline segments as (x1, y1, x2, y2) rows and its
#: ellipses as (cx, cy, rx, ry) rows, in unit-square coordinates.
_SEGMENTS = {
    digit: np.array([a + b for kind, spec in strokes if kind == "line"
                     for a, b in zip(spec[:-1], spec[1:])]).reshape(-1, 4)
    for digit, strokes in DIGIT_STROKES.items()
}
_ELLIPSES = {
    digit: np.array([spec for kind, spec in strokes if kind == "ellipse"]).reshape(-1, 4)
    for digit, strokes in DIGIT_STROKES.items()
}

#: (cos rotation, sin rotation, scale, shift x, shift y, thickness) of one glyph
Jitter = Tuple[float, float, float, float, float, float]


def draw_jitter(
    rng: np.random.Generator,
    size: int,
    rotation_range: float = 0.20,
    scale_range: Tuple[float, float] = (0.85, 1.1),
    shift_pixels: float = 1.5,
    thickness_range: Tuple[float, float] = (1.0, 1.8),
) -> Jitter:
    """Draw one glyph's rotation, scale, shift and stroke thickness.

    The jitter ranges control task difficulty; the digits dataset uses
    gentle defaults, the svhn generator passes wider ones.
    """
    rotation = rng.uniform(-rotation_range, rotation_range)
    scale = rng.uniform(*scale_range)
    shift_x = rng.uniform(-shift_pixels, shift_pixels)
    shift_y = rng.uniform(-shift_pixels, shift_pixels)
    thickness = rng.uniform(*thickness_range) * size / 28.0
    return np.cos(rotation), np.sin(rotation), scale, shift_x, shift_y, thickness


def _strokes(table: Dict[int, np.ndarray], digits: Sequence[int]):
    """The table rows of every digit, and which glyph each row belongs to."""
    rows = [table[d] for d in digits]
    return np.repeat(np.arange(len(rows)), [len(r) for r in rows]), np.concatenate(rows).T


def sketch_digits(sketch: shapes.Sketch, digits: Sequence[int],
                  jitters: Sequence[Jitter]) -> np.ndarray:
    """Queue one jittered glyph per digit, each on a new canvas of ``sketch``.

    Returns the canvas indices.  Glyph strokes rasterize in float64.
    """
    size = sketch.size
    canvases = sketch.canvases(len(digits))
    jitter = np.array(jitters, dtype=np.float64).T

    def place(glyph, x, y):
        cos_r, sin_r, scale, shift_x, shift_y, _ = jitter[:, glyph]
        return shapes.place_points(x, y, size, cos_r, sin_r, scale, shift_x, shift_y)

    glyph, (x1, y1, x2, y2) = _strokes(_SEGMENTS, digits)
    sketch.segment(canvases[glyph], place(glyph, x1, y1), place(glyph, x2, y2),
                   jitter[5, glyph], dtype=np.float64)
    glyph, (cx, cy, rx, ry) = _strokes(_ELLIPSES, digits)
    span, scale = size - 2 * (0.15 * size), jitter[2, glyph]
    sketch.ellipse(canvases[glyph], place(glyph, cx, cy),
                   (rx * span * scale, ry * span * scale), jitter[5, glyph],
                   dtype=np.float64)
    return canvases


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

    Returns a single-channel float canvas in [0, 1]; the jitter comes
    from :func:`draw_jitter`.
    """
    jitter = draw_jitter(rng, size, rotation_range, scale_range, shift_pixels,
                         thickness_range)
    sketch = shapes.Sketch(size)
    sketch_digits(sketch, [digit], [jitter])
    return sketch.render()[0]
