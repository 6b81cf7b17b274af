"""Rasterization primitives for the synthetic datasets.

Each shape kind has one mask kernel, batched over shapes:
:func:`segment_masks`, :func:`ellipse_masks` and :func:`polygon_masks`
return one ``size x size`` mask per shape, computed in the float dtype
the caller names.  Per-shape scalars (differences, squared lengths,
radii) are formed in float64 and cast to that dtype once, and the pixel
grid enters as one row of x and one column of y coordinates, so a mask
holds exactly the values the same formula gives on a single canvas:
batching changes how many numpy calls run, not one bit of the result.

:class:`Sketch` queues shapes for a batch of canvases and draws each
kind with one kernel call; the generators synthesize a chunk of images
at a time through it.  The single-canvas ``draw_*`` functions run the
same kernels on a batch of one.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

Point = Tuple[float, float]


def blank_canvas(size: int) -> np.ndarray:
    """A ``size x size`` black canvas."""
    return np.zeros((size, size), dtype=np.float32)


def _axes(size: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Pixel x coordinates as a (1, 1, size) row, y as a (1, size, 1) column."""
    axis = np.arange(size, dtype=dtype)
    return axis.reshape(1, 1, size), axis.reshape(1, size, 1)


def _per_shape(dtype, *values: np.ndarray) -> List[np.ndarray]:
    """Float64 per-shape scalars cast to ``dtype`` as (n, 1, 1) columns."""
    return [v.astype(dtype).reshape(-1, 1, 1) for v in values]


def _float64(*values) -> List[np.ndarray]:
    """Per-shape parameters as equal-length float64 vectors."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=np.float64).ravel() for v in values))


def segment_masks(start_x, start_y, end_x, end_y, thickness, *, size: int,
                  dtype) -> np.ndarray:
    """Soft-edged line segments, one ``(size, size)`` mask per segment.

    Intensity falls off linearly over one pixel beyond ``thickness`` so
    glyph edges are slightly anti-aliased, like scanned handwriting.  A
    segment shorter than 1e-6 pixels draws a dot at its start.
    """
    ax, ay, bx, by, thickness = _float64(start_x, start_y, end_x, end_y, thickness)
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    # t = 0 puts a dot's nearest point exactly at its start
    dot = length_sq < 1e-12
    dx, dy = np.where(dot, 0.0, dx), np.where(dot, 0.0, dy)
    length_sq = np.where(dot, 1.0, length_sq)
    xs, ys = _axes(size, dtype)
    ax, ay, dx, dy, length_sq, reach = _per_shape(
        dtype, ax, ay, dx, dy, length_sq, thickness + 1.0)
    t = (xs - ax) * dx + (ys - ay) * dy
    t /= length_sq
    np.clip(t, 0.0, 1.0, out=t)
    # offsets from the nearest point on the segment
    off_x = t * dx
    off_x += ax
    np.subtract(xs, off_x, out=off_x)
    t *= dy
    t += ay
    np.subtract(ys, t, out=t)
    dist = np.hypot(off_x, t, out=off_x)
    np.subtract(reach, dist, out=dist)
    return np.clip(dist, 0.0, 1.0, out=dist)


def ellipse_masks(center_x, center_y, radius_x, radius_y, thickness, *,
                  filled: bool, size: int, dtype) -> np.ndarray:
    """Ellipse outlines (or filled discs), one ``(size, size)`` mask each."""
    cx, cy, rx, ry, thickness = _float64(center_x, center_y, radius_x, radius_y, thickness)
    rx, ry = np.maximum(rx, 1e-3), np.maximum(ry, 1e-3)
    xs, ys = _axes(size, dtype)
    cx, cy, rx, short, ry, reach = _per_shape(
        dtype, cx, cy, rx, np.minimum(rx, ry), ry, thickness + 1.0)
    # Normalized radial coordinate: 1.0 on the ellipse boundary.
    rho = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
    np.sqrt(rho, out=rho)
    if filled:
        np.subtract(1.0, rho, out=rho)
        rho *= short
        rho += 1.0
    else:
        rho -= 1.0
        np.abs(rho, out=rho)
        rho *= short
        np.subtract(reach, rho, out=rho)
    return np.clip(rho, 0.0, 1.0, out=rho)


def polygon_masks(vertices, *, size: int, dtype) -> np.ndarray:
    """Filled polygons by the even-odd rule, one float32 0/1 mask each.

    ``vertices`` is ``(n, V, 2)``: ``n`` polygons of ``V`` (x, y) pixel
    coordinates each.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    x1, y1 = vertices[..., 0], vertices[..., 1]
    x2, y2 = np.roll(x1, -1, axis=-1), np.roll(y1, -1, axis=-1)
    xs, ys = (axis[..., None, :, :] for axis in _axes(size, dtype))
    lo, hi, x1, y1, run, rise = (
        v.astype(dtype)[..., None, None]
        for v in (np.minimum(y1, y2), np.maximum(y1, y2), x1, y1, x2 - x1, y2 - y1)
    )
    crosses = (ys >= lo) & (ys < hi)
    # a horizontal edge crosses no row, so its inf/nan x never counts
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at_y = x1 + (ys - y1) * run / rise
    inside = np.logical_xor.reduce(crosses & (xs < x_at_y), axis=-3)
    return inside.astype(np.float32)


def _max_into(out: np.ndarray, index: np.ndarray, masks: np.ndarray) -> None:
    """``out[index[k]] = max(out[index[k]], masks[k])`` for every ``k``.

    The maximum commutes with rounding to float32, so this equals
    drawing the masks one by one with ``np.maximum``, in any order.
    """
    order = np.argsort(index, kind="stable")
    index = index[order]
    # each mask's rank among its canvas's masks: one rank touches a canvas once
    rank = np.arange(index.size) - np.searchsorted(index, index)
    for r in range(rank.max(initial=-1) + 1):
        pick = rank == r
        target = index[pick]
        out[target] = np.maximum(out[target], masks[order[pick]])


class Sketch:
    """Shapes queued onto a batch of blank float32 canvases.

    :meth:`render` draws every queued kind and dtype with one kernel
    call.  A canvas ends as the pixelwise maximum of its shapes' masks
    and painted patterns; carves are subtracted last.  Each queueing
    call takes scalars, or arrays with one shape per element, and names
    the float dtype the masks are computed in.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.count = 0
        self._shapes: Dict[tuple, list] = {}
        self._paints: list = []
        self._carves: list = []

    def canvases(self, n: int) -> np.ndarray:
        """Add ``n`` blank canvases; returns their indices."""
        self.count += n
        return np.arange(self.count - n, self.count)

    def _queue(self, key: tuple, canvas, *params) -> None:
        canvas, *params = np.broadcast_arrays(*(np.ravel(v) for v in (canvas, *params)))
        self._shapes.setdefault(key, []).append((canvas, params))

    def segment(self, canvas, start, end, thickness, *, dtype) -> None:
        """Queue soft-edged segments ``start -> end`` (pixel coords)."""
        self._queue(("segment", np.dtype(dtype)), canvas,
                    start[0], start[1], end[0], end[1], thickness)

    def ellipse(self, canvas, center, radii, thickness=1.2, *, filled=False,
                dtype) -> None:
        """Queue ellipse outlines, or filled discs."""
        self._queue(("ellipse", np.dtype(dtype), filled), canvas,
                    center[0], center[1], radii[0], radii[1], thickness)

    def polygon(self, canvas: int, vertices: Sequence[Point], *, dtype) -> None:
        """Queue one filled polygon."""
        vertices = np.asarray(vertices, dtype=np.float64)
        key = ("polygon", np.dtype(dtype), len(vertices))
        self._shapes.setdefault(key, []).append((np.ravel(canvas), [vertices[None]]))

    def paint(self, canvas: int, pattern: np.ndarray) -> None:
        """Max a ``size x size`` pattern into a canvas."""
        self._paints.append((canvas, pattern))

    def carve(self, canvas: int, other: int) -> None:
        """Subtract canvas ``other`` from ``canvas``, clipped at 0, after all drawing."""
        self._carves.append((canvas, other))

    def render(self) -> np.ndarray:
        """The ``(count, size, size)`` float32 canvases."""
        out = np.zeros((self.count, self.size, self.size), dtype=np.float32)
        for (kind, dtype, *option), queued in self._shapes.items():
            index = np.concatenate([canvas for canvas, _ in queued])
            params = [np.concatenate(column)
                      for column in zip(*(params for _, params in queued))]
            if kind == "segment":
                masks = segment_masks(*params, size=self.size, dtype=dtype)
            elif kind == "ellipse":
                masks = ellipse_masks(*params, filled=option[0], size=self.size,
                                      dtype=dtype)
            else:
                masks = polygon_masks(*params, size=self.size, dtype=dtype)
            _max_into(out, index, masks)
        for canvas, pattern in self._paints:
            np.maximum(out[canvas], pattern, out=out[canvas])
        for canvas, other in self._carves:
            np.clip(out[canvas] - out[other], 0.0, 1.0, out=out[canvas])
        return out


def _draw(canvas: np.ndarray, masks: np.ndarray, intensity: float) -> None:
    np.maximum(canvas, intensity * masks[0], out=canvas)


def _coord_dtype(*values) -> np.dtype:
    """What a float32 pixel grid promotes to with these coordinates.

    float64 when any is a numpy float64, float32 for Python numbers: the
    single-canvas ``draw_*`` functions compute in the dtype arithmetic on
    their arguments would give.
    """
    return np.result_type(np.float32, *values)


def draw_segment(
    canvas: np.ndarray,
    start: Point,
    end: Point,
    thickness: float = 1.2,
    intensity: float = 1.0,
) -> None:
    """Draw a soft-edged line segment (coords in pixels, in place)."""
    dtype = _coord_dtype(*start, *end)
    _draw(canvas, segment_masks(*start, *end, thickness, size=canvas.shape[0],
                                dtype=dtype), intensity)


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
    dtype = _coord_dtype(*center, *radii)
    _draw(canvas, ellipse_masks(*center, *radii, thickness, filled=filled,
                                size=canvas.shape[0], dtype=dtype), intensity)


def draw_polygon(
    canvas: np.ndarray,
    vertices: Sequence[Point],
    intensity: float = 1.0,
) -> None:
    """Fill a convex or star-convex polygon using the even-odd rule."""
    dtype = _coord_dtype(*(c for vertex in vertices for c in vertex))
    _draw(canvas, polygon_masks([vertices], size=canvas.shape[0], dtype=dtype),
          intensity)


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


def radial_gradient(size: int, center: Point, radius: float) -> np.ndarray:
    """Bright centre fading to black at ``radius``."""
    xs, ys = _axes(size, np.float32)
    dist = np.hypot(xs[0] - center[0], ys[0] - center[1])
    return np.clip(1.0 - dist / max(radius, 1e-3), 0.0, 1.0)


def place_points(x, y, size: int, cos_r, sin_r, scale, shift_x, shift_y):
    """:func:`affine_points` elementwise over arrays: (x, y) -> pixel (x, y)."""
    margin = 0.15 * size
    span = size - 2 * margin
    # Center, scale, rotate in unit space.
    ux, uy = (x - 0.5) * scale, (y - 0.5) * scale
    rx = ux * cos_r - uy * sin_r + 0.5
    ry = ux * sin_r + uy * cos_r + 0.5
    return margin + rx * span + shift_x, margin + ry * span + shift_y


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
    x, y = np.asarray(points, dtype=np.float64).reshape(-1, 2).T
    px, py = place_points(x, y, size, np.cos(rotation), np.sin(rotation), scale,
                          shift[0], shift[1])
    return list(zip(px, py))
