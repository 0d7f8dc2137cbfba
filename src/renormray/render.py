"""Deterministic PPM (P6) renderer for Julia sets, equipotentials, external
rays, and marked points.

A scene is a plain dict (also the CLI JSON schema):

    {
      "c": [re, im],
      "width": 800, "height": 800,
      "center": [0.0, 0.0], "scale": 3.2,
      "layers": [
        {"type": "julia", "max_iter": 256},
        {"type": "equipotential", "level": 0.05, "tol": 0.2, "color": [..]},
        {"type": "ray", "angle": "1/3", "level_min": 1e-6, "color": [..]},
        {"type": "points", "points": [[re, im], ...], "radius": 3, "color": [..]}
      ]
    }
"""

from __future__ import annotations

import math
from fractions import Fraction

from .circle import Angle
from .plane import Params, green, trace_ray


def _grid(scene):
    import numpy as np

    w, h = int(scene.get("width", 600)), int(scene.get("height", 600))
    cx, cy = scene.get("center", [0.0, 0.0])
    scale = float(scene.get("scale", 3.5))
    xs = cx + (np.arange(w) - (w - 1) / 2.0) * (scale / w)
    ys = cy - (np.arange(h) - (h - 1) / 2.0) * (scale / w)
    return w, h, xs, ys, scale / w


def _escape_rows(c, xs, ys, max_iter):
    import numpy as np

    out = np.zeros((len(ys), len(xs)), dtype=np.float64)
    for i, y in enumerate(ys):
        z = xs + 1j * y
        n = np.zeros(z.shape, dtype=np.int32)
        alive = np.ones(z.shape, dtype=bool)
        zz = z.copy()
        for k in range(max_iter):
            zz[alive] = zz[alive] * zz[alive] + c
            esc = alive & (np.abs(zz) > 4.0)
            n[esc] = k + 1
            alive &= ~esc
            if not alive.any():
                break
        # smooth escape count, 0 = interior
        val = np.zeros(z.shape)
        escaped = ~alive
        if escaped.any():
            mag = np.abs(zz[escaped])
            val[escaped] = n[escaped] + 1.0 - np.log2(np.maximum(np.log(np.maximum(mag, 1.0001)), 1e-12))
        out[i] = val
    return out


def _to_px(z, scene_geom):
    w, h, xs, ys, step = scene_geom
    px = (z.real - xs[0]) / step
    py = (ys[0] - z.imag) / step
    return px, py


def _draw_disk(img, px, py, radius, color):
    h, w, _ = img.shape
    x0, x1 = max(0, int(px - radius)), min(w - 1, int(px + radius) + 1)
    y0, y1 = max(0, int(py - radius)), min(h - 1, int(py + radius) + 1)
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            if (x - px) ** 2 + (y - py) ** 2 <= radius * radius:
                img[y, x] = color

def _draw_segment(img, a, b, color, thickness):
    h, w, _ = img.shape
    rad = int(math.ceil(thickness / 2))
    # a stamped pixel lies within rad + 0.5 of its sample point, so a segment
    # whose widened bounding box misses the image stamps nothing
    margin = rad + 1
    if (max(a[0], b[0]) < -margin or min(a[0], b[0]) > w - 1 + margin
            or max(a[1], b[1]) < -margin or min(a[1], b[1]) > h - 1 + margin):
        return
    steps = max(2, int(abs(b[0] - a[0]) + abs(b[1] - a[1])) * 2)
    for k in range(steps + 1):
        t = k / steps
        x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        for dy in range(-rad, rad + 1):
            for dx in range(-rad, rad + 1):
                xi, yi = int(round(x)) + dx, int(round(y)) + dy
                if 0 <= xi < w and 0 <= yi < h and dx * dx + dy * dy <= thickness * thickness:
                    img[yi, xi] = color


def render(scene: dict) -> bytes:
    """Render a scene dict to binary PPM (P6) bytes."""
    import numpy as np

    c = complex(*scene["c"])
    geom = _grid(scene)
    w, h, xs, ys, step = geom
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[:, :] = scene.get("background", [255, 255, 255])
    params = Params(c=c)
    for layer in scene.get("layers", []):
        kind = layer["type"]
        if kind == "julia":
            max_iter = int(layer.get("max_iter", 256))
            field = _escape_rows(c, xs, ys, max_iter)
            interior = field == 0
            inside = np.array(layer.get("interior_color", [0, 0, 0]), dtype=np.uint8)
            shade = (255.0 * (1.0 - np.exp(-0.08 * field))).astype(np.uint8)
            tint = np.array(layer.get("color", [40, 60, 160]), dtype=np.float64) / 255.0
            outside = (shade[:, :, None] * tint[None, None, :]).astype(np.uint8)
            img = np.where(interior[:, :, None], inside[None, None, :], 255 - outside)
        elif kind == "equipotential":
            level = float(layer["level"])
            tol = float(layer.get("tol", 0.15))
            color = np.array(layer.get("color", [200, 30, 30]), dtype=np.uint8)
            gz = np.empty((h, w))
            for y in range(h):
                for x in range(w):
                    gz[y, x] = green(params, complex(xs[x], ys[y]))
            band = np.abs(gz - level) < tol * level
            img[band] = color
        elif kind == "ray":
            t = Angle.parse(layer["angle"]) if isinstance(layer["angle"], str) else Angle(Fraction(layer["angle"]))
            path = trace_ray(params, t, level_min=float(layer.get("level_min", 1e-6)))
            color = layer.get("color", [20, 140, 20])
            pix = [_to_px(p, geom) for p in path.points]
            for a, b in zip(pix, pix[1:]):
                _draw_segment(img, a, b, color, float(layer.get("thickness", 1.2)))
        elif kind == "points":
            color = layer.get("color", [230, 120, 0])
            radius = float(layer.get("radius", 3))
            for pt in layer["points"]:
                px, py = _to_px(complex(pt[0], pt[1]), geom)
                _draw_disk(img, px, py, radius, color)
        else:
            raise ValueError(f"unknown layer type: {kind}")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + img.tobytes()
