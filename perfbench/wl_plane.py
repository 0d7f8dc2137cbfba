"""The ``plane-render`` workload: numerics of the plane and the renderer.

Numeric outputs are checked by residual; renders by their P6 header and size
and a byte digest.  ``build(R, rng)`` follows the same pool convention as
``wl_exact``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ops import Op
from wl_exact import pick

RABBIT_C = complex(-0.12256116687665362, 0.7448617666197442)  # centre of the rabbit component
RAY_LEVEL_MIN = 1e-9  # the CLI default
RAY_SPREAD_TOL = 0.05  # landing spread over the last level decade
ROOT_RESIDUAL_BOUND = 1e-9  # |f^m(z) - z| for a certified periodic point
BRACKET_HALF_WIDTH = 1e-12  # the sign of f^(2^d)(0) must change across s +- this
BETA_TOL = 1e-4  # beta_point's own matching tolerance
GREEN_REL_TOL = 1e-9  # G(f(z)) = 2 G(z) where both orbits reach |z| > 1e18 ...
GREEN_FAR_LEVEL = 1e-5  # ... which they do within green()'s first 25 steps above this level;
GREEN_NEAR_TOL = 0.1  # below it green() stops at the escape radius, a few per cent early
# Green levels at one point per radius, at a seeded argument: 80 groups of 25
# outside the basilica's filled Julia set (fast escape; these groups hold the
# batch's median) and 2 groups of 10 inside its central component (full
# iteration)
GREEN_OUTSIDE = [[2.0 + (25 * g + k) / 2000 for k in range(25)] for g in range(80)]
GREEN_INSIDE = [[0.3 * (10 * g + k) / 20 for k in range(10)] for g in range(2)]
# (c, m) for periodic_points: m = 9, 10 fail at the seed commit; the accepted
# m = 11, 12 are left out, one call costing about 18 s and 70 s
PERIODIC_CASES = [(-1.0, m) for m in range(1, 11)] + [(-2.0, 9)]
RAY_ANGLES = [Fraction(a, d) for d in range(2, 65) for a in range(d) if math.gcd(a, d) == 1]
RENDER_CS = {"basilica": [-1.0, 0.0], "rabbit": [RABBIT_C.real, RABBIT_C.imag]}
RENDER_RAY_ANGLES = ("1/3", "2/3", "1/7", "2/7", "4/7")
RAY_SCENE_WIDTH = 4  # the ray layer walks off-screen segments pixel by pixel: cost grows with width
README_SCENE_LAYERS = [
    {"type": "julia", "max_iter": 256},
    {"type": "equipotential", "level": 0.05, "tol": 0.2},
    {"type": "ray", "angle": "1/3", "level_min": 1e-6},
    {"type": "points", "points": [[-0.618, 0.0]], "radius": 3},
]


def _ray_op(R, params, t):
    def run(tr):
        path = tr.call("plane.trace_ray", R.trace_ray, params, R.Angle(t), level_min=RAY_LEVEL_MIN)
        tr.add("plane.trace_ray.rays")
        tr.add("plane.trace_ray.points", len(path.points))
        tr.add("plane.trace_ray.landed", path.landed)
        tr.add("plane.trace_ray.aborted", path.aborted)
        return path

    def check(path):
        if path.aborted:
            return [f"aborted: {path.abort_reason}"]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in path.points):
            return ["non-finite ray point"]
        if not path.residual <= RAY_SPREAD_TOL:
            return [f"landing spread {path.residual:.3e} above {RAY_SPREAD_TOL}"]
        return []

    return Op("plane.trace_ray", run, check=check)


def _periodic_op(R, c, m):
    params = R.Params(c)

    def residuals(roots):
        out = []
        for z, _ in roots:
            w = z
            for _ in range(m):
                w = w * w + c if math.isfinite(abs(w)) else w
            out.append(abs(w - z))
        return out

    def run(tr):
        roots = tr.call("plane.periodic_points", R.periodic_points, params, m)
        if tr.enabled:
            tr.add("plane.periodic_points.requested", 1 << m)
            tr.add("plane.periodic_points.certified",
                   sum(1 for (z, _), r in zip(roots, residuals(roots)) if math.isfinite(abs(z)) and r <= ROOT_RESIDUAL_BOUND))
        return roots

    def check(roots):
        if len(roots) != 1 << m:
            return [f"{len(roots)} roots, expected {1 << m}"]
        bad = sum(1 for z, _ in roots if not math.isfinite(abs(z)))
        if bad:
            return [f"non-finite roots: {bad} of {1 << m}"]
        worst = max(residuals(roots))
        if not worst <= ROOT_RESIDUAL_BOUND:
            return [f"residual above bound: {worst:.1e} > {ROOT_RESIDUAL_BOUND:.0e}"]
        return []

    return Op("plane.periodic_points", run, check=check)


def _feigenbaum_op(R, depth):
    def crit(c):
        x = 0.0
        for _ in range(1 << depth):
            x = x * x + c
        return x

    def check(s):
        if not math.isfinite(s):
            return ["non-finite parameter"]
        if depth == 1:
            return [] if s == -1.0 else [f"depth 1 gives {s}, expected -1"]
        lo, hi = crit(s - BRACKET_HALF_WIDTH), crit(s + BRACKET_HALF_WIDTH)
        if crit(s) != 0.0 and (lo > 0) == (hi > 0):
            return ["no sign change of f^(2^d)(0) across the parameter"]
        return []

    return Op("plane.feigenbaum_parameter",
              lambda tr: tr.call("plane.feigenbaum_parameter", R.feigenbaum_parameter, depth), check=check)


def _beta_op(R, params, comb, n):
    def run(tr):
        res = tr.call("plane.beta_point", R.beta_point, params, comb, n)
        tr.add("plane.beta_point.levels")
        tr.add("plane.beta_point.matched", res.matched)
        return res

    def check(res):
        if not res.matched or not max(res.residuals) < BETA_TOL:
            return [f"rays not matched to a periodic point (residuals {res.residuals})"]
        return []

    return Op("plane.beta_point", run, check=check)


def _green_op(R, params, zs):
    """Green levels at a group of points and at their images."""

    def run(tr):
        tr.add("plane.green.points", len(zs))
        return [(tr.call("plane.green", R.green, params, z), tr.call("plane.green", R.green, params, z * z + params.c))
                for z in zs]

    def check(out):
        for g, g2 in out:
            if not (math.isfinite(g) and math.isfinite(g2) and g >= 0 and g2 >= 0):
                return ["non-finite or negative Green level"]
            tol = GREEN_REL_TOL if g2 >= GREEN_FAR_LEVEL else GREEN_NEAR_TOL
            if abs(g2 - 2 * g) > tol * g2:
                return [f"G(f(z)) = {g2!r} is not 2 G(z) = {2 * g!r}"]
        return []

    return Op("plane.green", run, check=check)


def _render_op(R, label, scene, layer):
    w, h = scene["width"], scene["height"]
    header = f"P6\n{w} {h}\n255\n".encode()

    def run(tr):
        tr.add("render.pixels", w * h)
        return tr.call(f"render.{layer}", R.render, scene)

    def check(data):
        if not data.startswith(header) or len(data) != len(header) + 3 * w * h:
            return ["not a P6 image of the scene's size"]
        return []

    return Op(f"render.{layer}", run, key=f"render|{label}", check=check)


def scenes(rng):
    """(label, scene, layer) for each render of the batch."""
    out = []
    for name, c in sorted(RENDER_CS.items()):
        out.append((f"julia {name}", {"c": c, "width": 48, "height": 48, "scale": 3.5,
                                      "layers": [{"type": "julia", "max_iter": 256}]}, "julia"))
        out.append((f"equipotential {name}", {"c": c, "width": 32, "height": 32, "scale": 3.5,
                                              "layers": [{"type": "equipotential", "level": 0.05, "tol": 0.2}]},
                    "equipotential"))
    for angle in pick(rng, RENDER_RAY_ANGLES):
        out.append((f"ray {angle}", {"c": [-1.0, 0.0], "width": RAY_SCENE_WIDTH, "height": RAY_SCENE_WIDTH, "scale": 3.5,
                                     "layers": [{"type": "ray", "angle": angle, "level_min": 1e-6}]}, "ray"))
    out.append(("points", {"c": [-1.0, 0.0], "width": 48, "height": 48, "scale": 3.5,
                           "layers": [{"type": "points", "points": [[-0.618, 0.0], [1.618, 0.0], [0.0, 0.0]],
                                       "radius": 3}]}, "points"))
    out.append(("readme scene", {"c": [-1.0, 0.0], "width": RAY_SCENE_WIDTH, "height": RAY_SCENE_WIDTH,
                                 "center": [0.0, 0.0], "scale": 3.5,
                                 "layers": README_SCENE_LAYERS}, "scene"))
    return out


def build_plane(R, rng):
    ops = []
    for label, scene, layer in scenes(rng):
        ops.append(_render_op(R, label, scene, layer))
    if rng is None:  # only renders have reference digests
        return ops
    s3 = R.feigenbaum_parameter(3)
    for c in (-1.0, s3, RABBIT_C):
        for t in rng.sample(RAY_ANGLES, 10):
            ops.append(_ray_op(R, R.Params(c), t))
    for c, m in PERIODIC_CASES:
        ops.append(_periodic_op(R, c, m))
    for depth in range(1, 17):
        ops.append(_feigenbaum_op(R, depth))
    comb = R.feigenbaum_tower(2)
    params4 = R.Params(R.feigenbaum_parameter(4))
    for n in (1, 2):
        ops.append(_beta_op(R, params4, comb, n))
    basilica = R.Params(-1.0)
    for radii in GREEN_OUTSIDE + GREEN_INSIDE:
        args = [rng.uniform(0, 2 * math.pi) for _ in radii]
        ops.append(_green_op(R, basilica, [complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, args)]))
    rng.shuffle(ops)
    return ops
