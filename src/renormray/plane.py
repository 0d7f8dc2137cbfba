"""Numerical companion: Green function, external rays, periodic points,
superstable parameters, expansion reports, and telescope checks for
f(z) = z^2 + c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .circle import Angle

_GREEN_MAX_ITER = 2048  # iteration cap of green()
_GREEN_FAR = 1e18  # green() stops at once past this radius
_GREEN_MIN_ITER = 25  # green() stops past the escape radius only from this step on
_EA_BLOCK = 1 << 15  # entries of periodic_points' difference block (512 KB)
_RAY_STEPS_PER_HALVING = 6  # trace_ray level steps per halving of the level
_RAY_NEWTON_TOL = 1e-12  # trace_ray Newton residual, relative to 1 + |target|
_RAY_LANDING_TOL = 1e-9  # trace_ray tail spread below which a ray has landed
_BETA_LEVEL_MIN = 1e-14  # level to which beta_point traces both rays
_BETA_TOL = 1e-4  # beta_point root distance and agreement bound
_TELESCOPE_BOUNDARY_SAMPLES = 48  # sample points on each telescope disk boundary
_FEIGENBAUM_DELTA = 4.6692  # gap ratio that seeds the depth-2 Newton start
_CASCADE_NEWTON_CAP = 60  # Newton steps allowed per depth of the cascade
_CASCADE_CERT_HALF_WIDTH = 2.0**-40  # g_d must change sign across s_d +- this


@dataclass(frozen=True)
class Params:
    c: complex

    @property
    def escape_radius(self) -> float:
        return max(4.0, 2.0 + abs(self.c))


def green(params: Params, z: complex) -> float:
    """Green level G(z) = lim 2^-n ln|f^n(z)|; 0 for non-escaping within cap.

    Once the orbit is far out the tail of the limit is O(1/|z_n|) scaled by
    2^-n, so stopping at a large radius loses nothing at double precision.
    The exit rule, which _green_grid shares: stop at step n when |f^n(z)| >
    _GREEN_FAR, or when it exceeds the escape radius and n >= _GREEN_MIN_ITER;
    after _GREEN_MAX_ITER steps an orbit past the escape radius still counts.

    An orbit is also stopped, with level 0, at its first exact repeat
    (Brent's snapshots, BIT 20, 1980): the value at step _GREEN_MIN_ITER is
    saved and re-saved at steps 50, 100, 200, ..., and each later value is
    compared with it by ==.  This is exact: a repeat makes the orbit
    periodic from the saved step on, and every value of that cycle has
    already failed the exit test |w| > min(_GREEN_FAR, escape radius), which
    no longer changes before the cap and is only stricter after it, so the
    capped loop would also return 0.0.
    """
    c = params.c
    radius = params.escape_radius
    w = complex(z)
    for n in range(_GREEN_MIN_ITER):
        r = abs(w)
        if r > _GREEN_FAR:
            return math.log(r) * 2.0 ** (-n)
        w = w * w + c
    bound = min(_GREEN_FAR, radius)
    saved, save_at = w, 2 * _GREEN_MIN_ITER
    for n in range(_GREEN_MIN_ITER, _GREEN_MAX_ITER):
        r = abs(w)
        if r > bound:
            return math.log(r) * 2.0 ** (-n)
        if n == save_at:
            saved, save_at = w, 2 * n
        w = w * w + c
        if w == saved:
            return 0.0
    r = abs(w)
    if r > radius:
        return math.log(r) * 2.0 ** (-_GREEN_MAX_ITER)
    return 0.0


def _green_grid(params: Params, xs, ys):
    """green(params, complex(x, y)) for y in ys (rows) and x in xs (columns).

    Equal to green's levels bit for bit: one numpy pass iterates the real
    and imaginary parts of the pixels still running as float64 arrays, in
    CPython's complex-product order (a*a - b*b + Re c, a*b + b*a + Im c),
    and tests green's exit rule on np.hypot, which rounds as abs(complex)
    does.  numpy's complex product, np.abs and np.log do not: each differs
    from CPython in the last bit on some inputs.  The level of a pixel that
    stops at step n is green's own expression, math.log(abs(w)) * 2**-n, so
    a modulus that overflows raises OverflowError as in green.  A pixel also
    stops at level 0 at green's first exact repeat: its snapshot arrays sa,
    sb hold the real and imaginary parts saved at the same steps as green's,
    and a repeat is a == sa and b == sb.
    """
    import numpy as np

    radius = params.escape_radius
    cr, ci = params.c.real, params.c.imag
    a = np.tile(xs, len(ys))
    b = np.repeat(ys, len(xs))
    live = np.arange(a.size)
    out = np.zeros(a.size)
    sa, sb, save_at = a, b, _GREEN_MIN_ITER  # compared only after the save at step _GREEN_MIN_ITER
    # only np.hypot can overflow: a live pixel has |a|, |b| <= _GREEN_FAR, and
    # abs() below raises where hypot overflows
    with np.errstate(over="ignore"):
        for n in range(_GREEN_MAX_ITER + 1):
            if n < _GREEN_MIN_ITER:
                bound = _GREEN_FAR
            elif n < _GREEN_MAX_ITER:
                bound = min(_GREEN_FAR, radius)
            else:  # green's test after its last step
                bound = radius
            stop = np.hypot(a, b) > bound
            if stop.any():
                scale = 2.0 ** (-n)
                out[live[stop]] = [math.log(abs(complex(x, y))) * scale
                                   for x, y in zip(a[stop].tolist(), b[stop].tolist())]
                keep = ~stop
                live, a, b, sa, sb = live[keep], a[keep], b[keep], sa[keep], sb[keep]
            if n == _GREEN_MAX_ITER or not live.size:
                break
            if n == save_at:
                sa, sb, save_at = a, b, 2 * n
            ab = a * b
            a = a * a - b * b + cr
            b = ab + ab + ci
            if n >= _GREEN_MIN_ITER:
                rep = a == sa
                if rep.any():  # rare unless the orbit repeats
                    rep &= b == sb
                    keep = ~rep
                    live, a, b, sa, sb = live[keep], a[keep], b[keep], sa[keep], sb[keep]
    return out.reshape(len(ys), len(xs))


@dataclass
class RayPath:
    angle: Angle
    points: list[complex] = field(default_factory=list)
    levels: list[float] = field(default_factory=list)
    landing: complex | None = None
    residual: float | None = None
    landed: bool = False
    aborted: bool = False
    abort_reason: str = ""


def _fn_and_derivative(z: complex, n: int, c: complex) -> tuple[complex, complex]:
    w, d = z, 1.0 + 0.0j
    for _ in range(n):
        d = 2.0 * w * d
        w = w * w + c
    return w, d


def _doubled(k: int, q: int, n: int) -> float:
    """float(sigma_pow(Angle(k, q), n).frac) without building the Angle.

    Both are the correctly rounded quotient of one integer division, and a
    common factor of numerator and denominator does not change it.
    """
    return ((k << n) % q) / q


def trace_ray(params: Params, t: Angle, level_min: float) -> RayPath:
    """Trace the external ray of angle t by level-doubling Newton descent.

    At level L and depth n (chosen so 2^n L stays in a fixed far-field band)
    the ray point solves f^n(z) = exp(2^n L + 2 pi i sigma^n(t)); each level
    step continues the previous point by Newton.  Divergence near a pinching
    point aborts cleanly with the partial path.  The level falls by 2^(-1/6)
    per step down to level_min, Newton stops at a residual of 1e-12 relative
    to 1 + |target|, and the ray has landed when the spread of its points
    over the last level decade is below 1e-9.
    """
    if level_min <= 0:
        raise ValueError("level_min must be positive")
    c = params.c
    base = max(math.log(1e4), math.log(params.escape_radius) + 1.0)
    if level_min >= base:
        raise ValueError(f"level_min must be below the start level {base:.6g}")
    path = RayPath(angle=t)
    level = base
    n = 0
    z = cmath.exp(complex(level, 2 * math.pi * float(t.frac)))
    path.points.append(z)
    path.levels.append(level)
    ratio = 2.0 ** (-1.0 / _RAY_STEPS_PER_HALVING)
    k, q = t.frac.numerator, t.frac.denominator
    while level > level_min:
        level *= ratio
        while level * (1 << n) < base:
            n += 1
        theta = _doubled(k, q, n)
        w = cmath.exp(complex(level * (1 << n), 2 * math.pi * theta))
        ok = False
        for _ in range(60):
            f, d = _fn_and_derivative(z, n, c)
            err = f - w
            if abs(err) <= _RAY_NEWTON_TOL * (1.0 + abs(w)):
                ok = True
                break
            if d == 0:
                break
            step = err / d
            if not (math.isfinite(step.real) and math.isfinite(step.imag)):
                break
            # roundoff floor: a sub-ulp step means the residual is pure
            # floating noise of evaluating f^n, so the point is converged
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
    # landing estimate: spread of the points over the last level decade
    cutoff = path.levels[-1] * 10.0
    tail = [p for p, l in zip(path.points, path.levels) if l <= cutoff]
    spread = max((abs(p - path.points[-1]) for p in tail), default=0.0)
    path.landing = path.points[-1]
    path.residual = spread
    path.landed = spread < _RAY_LANDING_TOL
    return path


def periodic_points(params: Params, m: int) -> list[tuple[complex, complex]]:
    """All 2^m roots of f^m(z) = z with their multipliers (f^m)'(z).

    Ehrlich-Aberth on the black-box map, so no coefficients of the
    degree-2^m polynomial are ever formed.  It starts from the 2^m
    preimages under f^m of one point w0 outside K (Hubbard, Schleicher and
    Sutherland, Invent. Math. 2001): they lie on the equipotential of level
    G(w0)/2^m, close to J and spread like the periodic points, so it
    converges in a few sweeps rather than in O(2^m) of them.  A root whose
    step falls below the roundoff floor is frozen: it keeps its value and
    still repels the others.  Each sweep sums the differences of the active
    roots to all n = 2^m roots a block of rows at a time, in one buffer of
    at most _EA_BLOCK entries, not in an n x n matrix (16 MB at m = 10, and
    peak RSS then depends on where malloc places it); each row's sum is the
    same as over the full matrix.  A root thrown so far out that f^m
    overflows takes its Newton step from a recurrence that does not.
    Raises ArithmeticError if a root or multiplier is not finite, or if f
    maps a root beyond the largest root (the roots are then too inexact
    for f to be evaluated on them).
    """
    import numpy as np

    if not 1 <= m <= 12:
        raise ValueError("period must lie in 1..12")
    c = params.c
    n = 1 << m

    def p_and_dp(z):
        w, d = _fn_and_derivative(z, m, c)
        return w - z, d - 1.0

    def escaping_newton(z):
        # p/dp where f^m(z) overflows.  r_k = f^k(z)/(f^k)'(z) obeys
        # r_(k+1) = r_k (1 + c/f^k(z)^2)/2; past |f^k(z)| = 1e100 the factor
        # is 1/2 to double precision, so f^k(z) is held there.  At such points
        # p/dp and f^m/(f^m)' agree to far below an ulp.
        w = r = z
        for _ in range(m):
            r = r * (1.0 + c / w / w) / 2.0
            w = np.where(np.abs(w) < 1e100, w * w + c, w)
        return r

    radius = 0.5 + math.sqrt(0.25 + abs(c)) + 0.3
    # not beta: at c = -2 its preimage tree runs through the critical point
    z = np.array([radius * cmath.exp(2j * math.pi * 0.37)])
    for _ in range(m):
        r = np.sqrt(z - c)
        z = np.concatenate((r, -r))
    rows = min(n, max(1, _EA_BLOCK // n))  # powers of two: rows divides n
    diff = np.empty((rows, n), dtype=complex)
    active = np.arange(n)
    # overflow and 0/0 are expected on the way and caught by the final check
    with np.errstate(all="ignore"):
        for _ in range(200):
            za = z[active]
            p, dp = p_and_dp(za)
            newton = np.where(dp != 0, p / dp, 0.0)
            far = ~(np.isfinite(p) & np.isfinite(dp))
            if far.any():  # roots thrown far outside K
                newton[far] = escaping_newton(za[far])
            s = np.empty(active.size, dtype=complex)
            for r0 in range(0, active.size, rows):
                block = active[r0 : r0 + rows]
                d = diff[: block.size]
                np.subtract(z[block, None], z[None, :], out=d)
                d[np.arange(block.size), block] = np.inf  # the entries (i, i)
                np.sum(np.divide(1.0, d, out=d), axis=1, out=s[r0 : r0 + block.size])
            denom = 1.0 - newton * s
            step = np.where(np.abs(denom) > 1e-14, newton / denom, newton)
            z[active] = za - step
            active = active[np.abs(step) >= 1e-14 * (1.0 + np.max(np.abs(z)))]
            if not active.size:
                break
        # Newton polish
        for _ in range(10):
            p, dp = p_and_dp(z)
            mask = np.abs(dp) > 1e-14
            z = np.where(mask, z - p / dp, z)
        _, mult = _fn_and_derivative(z, m, c)
        image = np.abs(z * z + c)
    bad = np.count_nonzero(~(np.isfinite(z) & np.isfinite(mult)))
    if bad:
        raise ArithmeticError(f"{bad} of the {n} roots of f^{m}(z) = z or their multipliers are not finite")
    # f maps a periodic point to a periodic point, so no image lies beyond
    # the largest root
    top = float(np.max(np.abs(z)))
    worst = float(np.max(image))
    if not worst <= top + 1e-6 * (1.0 + top):
        raise ArithmeticError(
            f"the roots of f^{m}(z) = z are not closed under f: an image has modulus {worst:.3g}, "
            f"above the largest root {top:.3g}"
        )
    order = np.lexsort((z.imag.round(9), z.real.round(9)))
    return [(complex(z[i]), complex(mult[i])) for i in order]


@dataclass(frozen=True)
class BetaResult:
    beta: complex
    matched: bool
    candidates: tuple[complex, complex]
    residuals: tuple[float, float]


def beta_point(params: Params, comb, n: int) -> BetaResult:
    """Landing point shared by the two level-n pair rays, matched to a root
    of f^p(z) = z.

    Both rays are traced to level 1e-14; they are matched when each landing
    point lies within 1e-4 of its nearest root and the two roots agree to 1e-4.
    """
    pair = comb.level(n)
    roots = [r for r, _ in periodic_points(params, pair.period)]
    lands = []
    for t in (pair.lo, pair.hi):
        path = trace_ray(params, t, level_min=_BETA_LEVEL_MIN)
        if path.aborted or path.landing is None:
            raise ValueError(f"ray {t} did not reach level {_BETA_LEVEL_MIN}: {path.abort_reason}")
        lands.append(path.landing)
    near = []
    res = []
    for z in lands:
        best = min(roots, key=lambda r: abs(r - z))
        near.append(best)
        res.append(abs(best - z))
    matched = abs(near[0] - near[1]) < _BETA_TOL and max(res) < _BETA_TOL
    return BetaResult(near[0], matched, (near[0], near[1]), (res[0], res[1]))


def feigenbaum_parameter(depth: int) -> float:
    """Superstable parameter s_depth of the period-doubling cascade.

    Newton continuation down the cascade (Briggs, Math. Comp. 57, 1991):
    s_0 = 0 and s_1 = -1 exactly; s_2 starts from s_1 + (s_1 - s_0)/delta
    and each later s_d from the Aitken extrapolation s_(d-1) + (s_(d-1) -
    s_(d-2))^2 / (s_(d-2) - s_(d-3)) of the previous gaps.  Newton runs on
    g_d(c) = f_c^(2^d)(0), with g_d' from x' <- 2 x x' + 1 in the same loop,
    and stops once a step is within one ulp of c or is more than half the
    step before it (the floating noise of g_d, not the root, then sets the
    step).  The sequence converges to about -1.401155189.

    The value returned is certified: every s_d is below s_(d-1), and g_depth
    changes sign across s_depth +- 2^-40.  Anything else (no stop within
    the step cap, a broken order, no sign change) raises ArithmeticError.
    """
    if not 1 <= depth <= 16:
        raise ValueError("depth must lie in 1..16")
    s = [0.0, -1.0]
    for d in range(2, depth + 1):
        if d == 2:
            c = s[1] + (s[1] - s[0]) / _FEIGENBAUM_DELTA
        else:
            c = s[-1] + (s[-1] - s[-2]) ** 2 / (s[-2] - s[-3])
        n = 1 << d
        last = math.inf
        for _ in range(_CASCADE_NEWTON_CAP):
            x = dx = 0.0
            for _ in range(n):
                x, dx = x * x + c, 2.0 * x * dx + 1.0
            step = x / dx
            c -= step
            if abs(step) <= math.ulp(c) or abs(step) > 0.5 * last:
                break
            last = abs(step)
        else:  # no stop within the cap
            c = math.nan
        if not c < s[-1]:  # false for NaN too
            raise ArithmeticError(f"superstable parameter at depth {d} not certified")
        s.append(c)
    c = s[depth]
    a, b = c - _CASCADE_CERT_HALF_WIDTH, c + _CASCADE_CERT_HALF_WIDTH
    lo = hi = 0.0
    for _ in range(1 << depth):
        lo, hi = lo * lo + a, hi * hi + b
    if not lo * hi < 0.0:
        raise ArithmeticError(f"superstable parameter at depth {depth} not certified")
    return c


@dataclass(frozen=True)
class ExpansionReport:
    m: int
    euclidean: dict
    spherical: dict
    excluded: int


def expansion_report(params: Params, sample, m: int) -> ExpansionReport:
    """min/max/geometric mean of |D(f^m)| over a sample, both metrics.

    The spherical derivative product telescopes to the Euclidean one times
    (1+|z|^2)/(1+|f^m(z)|^2), applied exactly.  Escaping points are flagged
    and excluded.  Report only; no uniform-expansion claim is asserted.
    """
    radius = params.escape_radius
    eu, sp = [], []
    excluded = 0
    for z0 in sample:
        z, d = _fn_and_derivative(complex(z0), m, params.c)
        # past the escape radius an orbit never returns; overflow reads inf or nan
        if not abs(z) <= radius:
            excluded += 1
            continue
        de = abs(d)
        eu.append(de)
        sp.append(de * (1.0 + abs(complex(z0)) ** 2) / (1.0 + abs(z) ** 2))

    def stats(values):
        if not values:
            return {"min": None, "max": None, "geomean": None}
        logs = [math.log(v) for v in values if v > 0]
        gm = math.exp(sum(logs) / len(logs)) if logs else 0.0
        return {"min": min(values), "max": max(values), "geomean": gm}

    return ExpansionReport(m, stats(eu), stats(sp), excluded)


@dataclass(frozen=True)
class TelescopeStage:
    l: int
    n_l: int
    time_density_ok: bool
    branch_ok: bool
    margin: float | None
    margin_ok: bool | None
    univalent_heuristic: bool | None
    note: str = ""


@dataclass(frozen=True)
class TelescopeReport:
    r: float
    kappa: float
    delta: float
    times: tuple[int, ...]
    stages: tuple[TelescopeStage, ...]
    aborted_at: int | None
    univalence_is_heuristic: bool = True

    @property
    def passed(self) -> bool:
        return self.aborted_at is None and all(
            s.time_density_ok and s.branch_ok and (s.margin_ok is not False) for s in self.stages
        )


def _pull_back(orbit, c, points, hi, lo):
    """Pull sample points from time hi back to time lo along the orbit branch.

    Each step inverts z -> z^2 + c choosing the square root nearest the orbit
    point; returns None when the branch runs into the critical value.
    """
    pts = list(points)
    min_clearance = math.inf
    for j in range(hi, lo, -1):
        ref = orbit[j - 1]
        nxt = []
        for u in pts:
            v = u - c
            min_clearance = min(min_clearance, abs(v))
            if v == 0:
                return None, 0.0
            root = cmath.sqrt(v)
            nxt.append(root if abs(root - ref) <= abs(-root - ref) else -root)
        pts = nxt
    return pts, min_clearance


def _polygon_simple(points) -> bool:
    """Cheap non-self-intersection test on a closed polygon."""

    def cross(o, a, b):
        return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)

    def seg_intersect(p1, p2, p3, p4):
        d1, d2 = cross(p3, p4, p1), cross(p3, p4, p2)
        d3, d4 = cross(p1, p2, p3), cross(p1, p2, p4)
        return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))

    n = len(points)
    for i in range(n):
        a1, a2 = points[i], points[(i + 1) % n]
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if seg_intersect(a1, a2, points[j], points[(j + 1) % n]):
                return False
    return True


def telescope_check(params: Params, x: complex, r: float, kappa: float, delta: float, times) -> TelescopeReport:
    """Check the stage conditions of an (r, kappa, delta, k)-telescope at x.

    (i) is the arithmetic time-density l/n_l > kappa.  (ii) continues the
    inverse branch along the orbit step by step, maps 48 equally spaced
    points on the boundary of B(f^(n_l)(x), r) back to time n_(l-1), and
    verifies the delta margin to the boundary of the previous disk.  Univalence is certified only
    heuristically (branch clearance of the critical value plus a simple
    mapped-boundary polygon); the report says so.  r > 0 and two times or more, else ValueError.
    """
    times = tuple(times)
    if not r > 0:
        raise ValueError(f"r must be > 0, not {r}")
    if len(times) < 2:
        raise ValueError("a telescope needs at least two times")
    if times[0] != 0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing from 0")
    c = params.c
    orbit = [complex(x)]
    for _ in range(times[-1]):
        orbit.append(orbit[-1] * orbit[-1] + c)
    stages = []
    aborted_at = None
    for l in range(1, len(times)):
        n_l, n_prev = times[l], times[l - 1]
        density_ok = l / n_l > kappa
        circle = [
            orbit[n_l] + r * cmath.exp(2j * math.pi * k / _TELESCOPE_BOUNDARY_SAMPLES)
            for k in range(_TELESCOPE_BOUNDARY_SAMPLES)
        ]
        # continuation on the doubled disk, per the branch's domain B(., 2r)
        circle2 = [
            orbit[n_l] + 2 * r * cmath.exp(2j * math.pi * k / _TELESCOPE_BOUNDARY_SAMPLES)
            for k in range(_TELESCOPE_BOUNDARY_SAMPLES)
        ]
        pulled, clearance = _pull_back(orbit, c, circle, n_l, n_prev)
        pulled2, _ = _pull_back(orbit, c, circle2, n_l, n_prev)
        if pulled is None or pulled2 is None:
            stages.append(
                TelescopeStage(l, n_l, density_ok, False, None, None, None, "branch hit critical value")
            )
            aborted_at = l
            break
        margin = min(r - abs(p - orbit[n_prev]) for p in pulled)
        univalent = clearance > 1e-12 and _polygon_simple(pulled)
        stages.append(
            TelescopeStage(l, n_l, density_ok, True, margin, margin > delta, univalent)
        )
    return TelescopeReport(r, kappa, delta, times, tuple(stages), aborted_at)
