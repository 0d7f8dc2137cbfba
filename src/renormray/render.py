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

width and height are integers >= 1, scale is > 0, and c, center and each
marked point are pairs; other geometry raises ValueError.  The julia and
equipotential layers each run one numpy pass over the whole grid that
iterates only the pixels still live.  The equipotential levels come from
plane._green_grid, which stops each orbit by green's exit rule (past
_GREEN_FAR, or past the escape radius from step _GREEN_MIN_ITER on) and
equals green bit for bit.  Both layers also stop an orbit that does not
escape at its first exact repeat (==), which leaves every pixel as the full
iteration cap would: the repeated cycle has already failed an exit test
that no longer changes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .circle import Angle
from .plane import Params, _green_grid, trace_ray


def _size(scene, key):
    value = scene.get(key, 600)
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and value >= 1 and value == int(value)):
        raise ValueError(f"scene {key} must be an integer >= 1, not {value!r}")
    return int(value)


def _pair(value, what):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"scene {what} must be a pair [re, im], not {value!r}")
    return value


def _angle(value):
    """A ray layer's angle: "p/q" text with a nonzero q, or a number other than a boolean."""
    try:
        if not isinstance(value, bool):
            return Angle.parse(value) if isinstance(value, str) else Angle(Fraction(value))
    except ZeroDivisionError:
        pass
    raise ValueError(f'ray angle must be "p/q" with a nonzero q or a number, not {value!r}')


def _grid(scene):
    import numpy as np

    w, h = _size(scene, "width"), _size(scene, "height")
    cx, cy = _pair(scene.get("center", [0.0, 0.0]), "center")
    scale = float(scene.get("scale", 3.5))
    if not scale > 0:
        raise ValueError(f"scene scale must be > 0, not {scale!r}")
    xs = cx + (np.arange(w) - (w - 1) / 2.0) * (scale / w)
    ys = cy - (np.arange(h) - (h - 1) / 2.0) * (scale / w)
    return w, h, xs, ys, scale / w


def _escape_grid(c, xs, ys, max_iter):
    """Smooth escape count of z -> z^2 + c from each grid point, 0 = interior.

    One numpy pass over the whole grid; each step iterates only the points
    still inside |z| <= 4.  numpy rounds an element the same whatever its
    position in the array, so the field does not depend on which other
    points are still live.  A point also stops, with count 0, at its first
    exact repeat: after its exit test each z_k is compared (==) with a value
    saved at step 0 and re-saved at steps 1, 2, 4, 8, ...  This is exact,
    since the test r > 4 does not depend on the step: a repeat makes the
    orbit a cycle whose every value has failed it, so the capped loop would
    never see that point escape.
    """
    import numpy as np

    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    live = np.arange(z.size)
    n = np.zeros(z.size, dtype=np.int32)
    mag = np.zeros(z.size)
    saved, save_at = z, 1
    for k in range(1, max_iter + 1):
        z = z * z + c
        r = np.abs(z)
        esc = r > 4.0
        stop = esc | (z == saved)
        if stop.any():
            hit = live[esc]
            n[hit] = k
            mag[hit] = r[esc]
            keep = ~stop
            live, z, saved = live[keep], z[keep], saved[keep]
            if not live.size:
                break
        if k == save_at:
            saved, save_at = z, 2 * k
    field = np.zeros(n.size)
    escaped = n > 0
    field[escaped] = n[escaped] + 1.0 - np.log2(np.maximum(np.log(np.maximum(mag[escaped], 1.0001)), 1e-12))
    return field.reshape(len(ys), len(xs))


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
    # a sample stamps the offsets |dx|, |dy| <= rad with dx^2 + dy^2 <= thickness^2;
    # in that box dx^2 + dy^2 <= 2 rad^2, and an integer is at most a bound when it
    # is at most the bound's floor, so reach is exact and finite for any thickness
    reach = math.floor(min(thickness * thickness, 2 * rad * rad))
    steps = max(2, int(abs(b[0] - a[0]) + abs(b[1] - a[1])) * 2)
    for k in range(steps + 1):
        t = k / steps
        x, y = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        xc, yc = int(round(x)), int(round(y))
        # each stamped row, clipped to the image, is one run of pixels
        for yi in range(max(0, yc - rad), min(h, yc + rad + 1)):
            left = reach - (yi - yc) ** 2
            if left < 0:
                continue
            half = min(rad, math.isqrt(left))
            x0, x1 = max(0, xc - half), min(w, xc + half + 1)
            if x0 < x1:
                img[yi, x0:x1] = color


def render(scene: dict) -> bytes:
    """Render a scene dict to binary PPM (P6) bytes."""
    import numpy as np

    c = complex(*_pair(scene["c"], "c"))
    geom = _grid(scene)
    w, h, xs, ys, step = geom
    img = np.zeros((h, w, 3), dtype=np.uint8)
    img[:, :] = scene.get("background", [255, 255, 255])
    params = Params(c=c)
    for layer in scene.get("layers", []):
        kind = layer["type"]
        if kind == "julia":
            max_iter = int(layer.get("max_iter", 256))
            if max_iter < 1:
                raise ValueError(f"julia max_iter must be >= 1, not {max_iter}")
            # far-out or overflowing points escape with a negative (or -inf)
            # smooth count; the clip paints them white
            with np.errstate(over="ignore", invalid="ignore"):
                field = _escape_grid(c, xs, ys, max_iter)
            interior = field == 0
            inside = np.array(layer.get("interior_color", [0, 0, 0]), dtype=np.uint8)
            shade = np.clip(255.0 * (1.0 - np.exp(-0.08 * field)), 0.0, 255.0).astype(np.uint8)
            tint = np.array(layer.get("color", [40, 60, 160]), dtype=np.float64) / 255.0
            outside = (shade[:, :, None] * tint[None, None, :]).astype(np.uint8)
            img = np.where(interior[:, :, None], inside[None, None, :], 255 - outside)
        elif kind == "equipotential":
            level = float(layer["level"])
            tol = float(layer.get("tol", 0.15))
            color = np.array(layer.get("color", [200, 30, 30]), dtype=np.uint8)
            gz = _green_grid(params, xs, ys)
            band = np.abs(gz - level) < tol * level
            img[band] = color
        elif kind == "ray":
            t = _angle(layer["angle"])
            path = trace_ray(params, t, level_min=float(layer.get("level_min", 1e-6)))
            color = layer.get("color", [20, 140, 20])
            pix = [_to_px(p, geom) for p in path.points]
            for a, b in zip(pix, pix[1:]):
                _draw_segment(img, a, b, color, float(layer.get("thickness", 1.2)))
        elif kind == "points":
            color = layer.get("color", [230, 120, 0])
            radius = float(layer.get("radius", 3))
            for pt in layer["points"]:
                px, py = _to_px(complex(*_pair(pt, "point")), geom)
                _draw_disk(img, px, py, radius, color)
        else:
            raise ValueError(f"unknown layer type: {kind}")
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    return header + img.tobytes()
