"""The Newton loop of plane.trace_ray as it was before it carried f^n(z)
and (f^n)'(z) from one Newton iteration to the next, kept as a reference.

Each Newton iteration here evaluates f^n and its derivative at z from
scratch.  Tests compare trace_ray against it for the same bits in every
RayPath field, aborting rays included.
"""

import cmath
import math

from renormray.plane import RayPath


def _fn_and_derivative(z, n, c):
    w, d = z, 1.0 + 0.0j
    for _ in range(n):
        d = 2.0 * w * d
        w = w * w + c
    return w, d


def ref_trace_ray(params, t, level_min):
    c = params.c
    base = max(math.log(1e4), math.log(params.escape_radius) + 1.0)
    path = RayPath(angle=t)
    level = base
    n = 0
    z = cmath.exp(complex(level, 2 * math.pi * float(t.frac)))
    path.points.append(z)
    path.levels.append(level)
    ratio = 2.0 ** (-1.0 / 6)
    k, q = t.frac.numerator, t.frac.denominator
    while level > level_min:
        level *= ratio
        while level * (1 << n) < base:
            n += 1
        theta = ((k << n) % q) / q
        w = cmath.exp(complex(level * (1 << n), 2 * math.pi * theta))
        ok = False
        for _ in range(60):
            f, d = _fn_and_derivative(z, n, c)
            err = f - w
            if abs(err) <= 1e-12 * (1.0 + abs(w)):
                ok = True
                break
            if d == 0:
                break
            step = err / d
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            if abs(step) <= 1e-15 * (1.0 + abs(z)):
                ok = True
                break
            z = z - step
        if not ok:
            path.aborted = True
            path.abort_reason = f"newton divergence at level {level:.3e}"
            break
        path.points.append(z)
        path.levels.append(level)
    cutoff = path.levels[-1] * 10.0
    tail = [p for p, l in zip(path.points, path.levels) if l <= cutoff]
    spread = max((abs(p - path.points[-1]) for p in tail), default=0.0)
    path.landing = path.points[-1]
    path.residual = spread
    path.landed = spread < 1e-9
    return path
