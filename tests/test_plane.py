import cmath
import dataclasses
import hashlib
import math
import random
import struct
import warnings

import numpy as np
import pytest
from ray_reference import ref_trace_ray

from renormray import plane
from renormray.circle import Angle, sigma_pow
from renormray.lamination import build, export_svg
from renormray.plane import (
    Params,
    beta_point,
    expansion_report,
    feigenbaum_parameter,
    green,
    periodic_points,
    telescope_check,
    trace_ray,
)
from renormray.scene import _draw_segment, _escape_grid, _grid, render
from renormray.towers import feigenbaum_tower

ALPHA = (1 - math.sqrt(5)) / 2


def test_green_squaring_map():
    assert green(Params(0), 2.0) == pytest.approx(math.log(2), abs=1e-12)
    assert green(Params(0), cmath.exp(0.3j)) == 0.0


def test_green_chebyshev():
    # z = w + 1/w conjugates z^2 - 2 to w^2, so G(3) = ln((3 + sqrt 5)/2)
    assert green(Params(-2), 3.0) == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-10)


def test_green_functional_equation():
    params = Params(-0.4 + 0.3j)
    z = 1.7 + 0.9j
    assert green(params, z * z + params.c) == pytest.approx(2 * green(params, z), abs=1e-10)


GRID_CS = [-1.0, complex(-0.12256116687665362, 0.7448617666197442), 0.25, -2.0, 0.3 + 0.5j, -0.75 + 0.1j]


def _kernel_grids(c):
    """Named (xs, ys) grids for c: the whole picture, a zoom onto the beta
    fixed point (on J, so escape times vary), a non-square render grid, and
    far points around green's stopping radius."""
    beta = 0.5 + cmath.sqrt(0.25 - c)
    _, _, xs, ys, _ = _grid({"width": 13, "height": 7, "center": [0.2, -0.1], "scale": 4.0})
    return {
        "whole": (np.linspace(-2.2, 2.2, 11), np.linspace(-1.6, 1.6, 9)),
        "beta_zoom": (beta.real + np.linspace(-1e-3, 1e-3, 9), beta.imag + np.linspace(-1e-3, 1e-3, 6)),
        "render_13x7": (xs, ys),
        "far": (np.array([0.0, 3.0, 1e17, 7.1e17, 1e18, 3e18, -1e30]), np.array([0.0, -5e17, 1e18])),
    }


KERNEL_GRIDS = {f"{c}-{name}": (c, xs, ys) for c in GRID_CS for name, (xs, ys) in _kernel_grids(c).items()}
KERNEL_GRIDS["1x1"] = (-1.0, np.array([0.3]), np.array([0.2]))
# np.log and math.log round differently on |z_1| = |x^2 - 1| for the first
# three x and on |z_0| = x for the last two (numpy 2.4.6, x86-64)
KERNEL_GRIDS["log_ulps"] = (
    -1.0,
    np.array([2.4261071305356525, 2.801789508947545, 3.592927964639823, 1.5196425650266188e23, 7.467453271062553e26]),
    np.array([0.0]),
)


@pytest.mark.parametrize("c, xs, ys", KERNEL_GRIDS.values(), ids=KERNEL_GRIDS.keys())
def test_green_grid_equals_green_bitwise(c, xs, ys):
    params = Params(c)
    got = plane._green_grid(params, xs, ys)
    want = np.array([[green(params, complex(x, y)) for x in xs] for y in ys])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_green_grid_raises_where_abs_overflows():
    # abs(complex) raises past the largest float; green and the grid agree
    with pytest.raises(OverflowError):
        green(Params(0), complex(1.5e308, 1.5e308))
    with pytest.raises(OverflowError):
        plane._green_grid(Params(0), np.array([0.0, 1.5e308]), np.array([1.5e308]))


def test_ray_squaring_is_radial():
    path = trace_ray(Params(0), Angle(1, 3), level_min=1e-9)
    direction = cmath.exp(2j * math.pi / 3)
    for z in path.points:
        assert abs(z / abs(z) - direction) < 1e-9
    assert abs(path.landing - direction) < 1e-6


def test_ray_chebyshev_lands_at_beta():
    path = trace_ray(Params(-2), Angle(0), level_min=1e-9)
    assert abs(path.landing - 2.0) < 1e-6


def test_ray_basilica_alpha():
    for t in (Angle(1, 3), Angle(2, 3)):
        path = trace_ray(Params(-1), t, level_min=1e-22)
        assert not path.aborted
        assert abs(path.landing - ALPHA) < 1e-6


@pytest.mark.parametrize("level_min", [9.3, 1e3, math.inf, math.nan])
def test_ray_level_min_at_or_above_start_level_raises(level_min):
    # the descent starts at level max(ln 1e4, ln(escape radius) + 1) ~ 9.21;
    # a NaN level_min fails both comparisons and is no level below it
    with pytest.raises(ValueError, match="start level"):
        trace_ray(Params(-1), Angle(1, 3), level_min=level_min)


@pytest.mark.parametrize("c", [math.nan, math.inf, complex(0, math.nan), complex(-math.inf, 1)])
def test_params_rejects_non_finite_c(c):
    # a NaN c would trace a ray that reads both aborted and landed, and give
    # Green level 0 as if the point were in K
    with pytest.raises(ValueError, match="finite"):
        Params(c)


RABBIT = complex(-0.12256116687665361, 0.74486176661974424)  # centre of period-3 component


def test_ray_matches_reference_bit_for_bit():
    # trace_ray carries f^n(z) and (f^n)'(z) between Newton iterations; the
    # reference evaluates them afresh each time.  Every field of every path,
    # aborted ones included, must have the same repr
    cs = [-1, feigenbaum_parameter(3), RABBIT, 0.25, -2, 0.3 + 0.5j, 1j, -0.75, -1.25 + 0.1j]
    rng = random.Random(3)
    angles = [Angle(0), Angle(1, 3), Angle(1, 2)]
    while len(angles) < 34:
        q = rng.randrange(2, 65)
        angles.append(Angle(rng.randrange(1, q), q))
    levels = (1e-6, 1e-9, 1e-14)
    aborted = 0
    for i, c in enumerate(cs):
        for j, t in enumerate(angles):
            params, level_min = Params(c), levels[(i + j) % 3]
            path, ref = trace_ray(params, t, level_min), ref_trace_ray(params, t, level_min)
            for field in dataclasses.fields(path):
                assert repr(getattr(path, field.name)) == repr(getattr(ref, field.name)), (c, t, level_min, field.name)
            aborted += path.aborted
    assert aborted >= 30


def test_ray_levels_decrease():
    path = trace_ray(Params(0.25j), Angle(1, 7), level_min=1e-6)
    assert all(b < a for a, b in zip(path.levels, path.levels[1:]))


def test_ray_commutes_with_dynamics():
    params = Params(-1)
    p1 = trace_ray(params, Angle(1, 3), level_min=1e-4)
    p2 = trace_ray(params, Angle(2, 3), level_min=1e-4)
    # f maps the point at level l on R_t to level 2l on R_2t
    for z, l in zip(p1.points, p1.levels):
        if l < 0.5:
            idx = min(range(len(p2.levels)), key=lambda i: abs(p2.levels[i] - 2 * l))
            if abs(p2.levels[idx] - 2 * l) < 1e-9:
                assert abs((z * z + params.c) - p2.points[idx]) < 1e-6


@pytest.mark.parametrize("q", [3, 7, 15, 2**20 - 1, 3 * 5**9, 6, 12, 3 * 2**10, 5 * 2**40, 2**64 - 2])
def test_ray_doubled_angle_equals_sigma_pow_float(q):
    # trace_ray's level-step angle from t's numerator and denominator is the
    # float of the Angle that sigma_pow builds, for odd and even denominators,
    # and an unreduced k/q gives the same float
    for k in {1, q // 3, q // 2, q - 1, (q * 5) // 7}:
        t = Angle(k, q)
        for n in range(65):
            want = float(sigma_pow(t, n).frac)
            assert plane._doubled(t.frac.numerator, t.frac.denominator, n) == want == plane._doubled(k, q, n)


def test_periodic_points_squaring():
    pts = periodic_points(Params(0), 1)
    assert len(pts) == 2
    roots = sorted(z.real for z, _ in pts)
    assert roots == pytest.approx([0.0, 1.0], abs=1e-10)
    mults = sorted(abs(m) for _, m in pts)
    assert mults == pytest.approx([0.0, 2.0], abs=1e-10)


@pytest.mark.parametrize("block", [1, 16, 1 << 9])
def test_periodic_points_blocks_match_full_matrix(monkeypatch, block):
    """Summing the Ehrlich-Aberth differences one row block at a time (a block
    of 1 entry is one row) gives the same bits as one block holding all
    n x n entries."""
    params = Params(0.1 + 0.2j)
    monkeypatch.setattr(plane, "_EA_BLOCK", 1 << 10)  # n = 32: one 32 x 32 block
    full = periodic_points(params, 5)
    monkeypatch.setattr(plane, "_EA_BLOCK", block)
    assert repr(periodic_points(params, 5)) == repr(full)


def test_periodic_points_basilica_fixed():
    pts = periodic_points(Params(-1), 1)
    roots = sorted(z.real for z, _ in pts)
    assert roots == pytest.approx([ALPHA, (1 + math.sqrt(5)) / 2], abs=1e-10)


def test_periodic_points_basilica_two_cycle():
    pts = periodic_points(Params(-1), 2)
    assert any(abs(z) < 1e-8 for z, _ in pts)
    assert any(abs(z + 1) < 1e-8 for z, _ in pts)
    super_mults = [abs(m) for z, m in pts if abs(z) < 1e-8 or abs(z + 1) < 1e-8]
    assert max(super_mults) < 1e-7


def test_periodic_points_count_and_fixed_inclusion():
    params = Params(0.1 + 0.2j)
    fixed = {z for z, _ in periodic_points(params, 1)}
    period4 = [z for z, _ in periodic_points(params, 4)]
    assert len(period4) == 16
    for zf in fixed:
        assert min(abs(zf - z) for z in period4) < 1e-8


def test_periodic_points_budget():
    with pytest.raises(ValueError):
        periodic_points(Params(0), 13)


def _match_one_to_one(found, expected):
    """Largest distance from each found root to its nearest expected root;
    fails unless the nearest roots are all different."""
    nearest = [min(range(len(expected)), key=lambda k: abs(z - expected[k])) for z in found]
    assert len(found) == len(expected) and sorted(nearest) == list(range(len(expected)))
    return max(abs(z - expected[k]) for z, k in zip(found, nearest))


def _fixed_point_polynomial(mpmath, c, m):
    """Coefficients of f^m(z) - z, highest degree first, expanded exactly at
    the working precision."""
    poly = [mpmath.mpc(1), mpmath.mpc(0)]  # z
    for _ in range(m):
        square = [mpmath.mpc(0)] * (2 * len(poly) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(poly):
                square[i + j] += a * b
        square[-1] += c
        poly = square
    poly[-2] -= 1
    return poly


@pytest.mark.parametrize("c, m", [(-1, m) for m in range(1, 6)] + [(0.1 + 0.2j, 4)])
def test_periodic_points_match_mpmath_polyroots(c, m):
    # an oracle that shares nothing with the root finder: the expanded
    # degree-2^m polynomial solved at 30 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        roots = mpmath.polyroots(_fixed_point_polynomial(mpmath, mpmath.mpc(c), m), maxsteps=200, extraprec=200)
    expected = [complex(r) for r in roots]
    assert _match_one_to_one([z for z, _ in periodic_points(Params(c), m)], expected) <= 1e-13


@pytest.mark.parametrize("m", [9, 10])
def test_periodic_points_chebyshev_closed_form(m):
    # f(2 cos t) = 2 cos 2t at c = -2, so f^m(z) = z at z = 2 cos(2 pi k/(2^m -+ 1))
    n = 1 << m
    expected = [2 * math.cos(2 * math.pi * k / (n - 1)) for k in range(n // 2)]
    expected += [2 * math.cos(2 * math.pi * k / (n + 1)) for k in range(1, n // 2 + 1)]
    assert _match_one_to_one([z for z, _ in periodic_points(Params(-2), m)], expected) <= 1e-12


@pytest.mark.parametrize("m", [9, 10, 11])
def test_periodic_points_basilica_high_periods(m):
    import numpy as np

    z = np.array([z for z, _ in periodic_points(Params(-1), m)])
    assert z.size == 1 << m and np.isfinite(z).all()
    w = z.copy()
    for _ in range(m):
        w = w * w - 1
    assert np.abs(w - z).max() <= 1e-9
    # pairwise distinct, far above the residual; rows in blocks of 256
    gap = math.inf
    for i in range(0, z.size, 256):
        g = np.abs(z[i : i + 256, None] - z[None, :])
        g[np.arange(g.shape[0]), np.arange(i, i + g.shape[0])] = np.inf
        gap = min(gap, g.min())
    assert gap > 1e-6


@pytest.mark.parametrize("c, m", [(0.1 + 0.2j, 10), (1j, 10), (0.25j, 11)])
def test_periodic_points_escaping_roots_come_back(c, m):
    # on these inputs Ehrlich-Aberth throws a root so far out that f^m
    # overflows there; its Newton step is then taken from the ratio
    # recurrence, and the root returns
    pts = periodic_points(Params(c), m)
    assert len(pts) == 1 << m
    worst = 0.0
    for z, _ in pts:
        w = z
        for _ in range(m):
            w = w * w + c
        worst = max(worst, abs(w - z))
    assert worst <= 1e-9


@pytest.mark.parametrize("c, m", [(1e300, 2), (1e300, 3)])
def test_periodic_points_overflow_raises(c, m):
    # f^m overflows: the roots (m = 2) or their multipliers (m = 3) are not
    # finite, which raises instead of returning NaN
    with pytest.raises(ArithmeticError, match=f"of the {1 << m} roots of f\\^{m}"):
        periodic_points(Params(c), m)


@pytest.mark.parametrize("c, m", [(1e75, 1), (1e75, 2), (1e100, 1), (1e100, 2), (1e150, 1), (1e150, 2)])
def test_periodic_points_inexact_roots_raise(c, m):
    # the roots are finite but their absolute error is far above 1: f maps
    # them beyond the largest root, which no set of periodic points allows
    with pytest.raises(ArithmeticError, match=f"roots of f\\^{m}\\(z\\) = z are not closed under f"):
        periodic_points(Params(c), m)


@pytest.mark.parametrize("c, m", [(1e4, 3), (1e8, 2), (1e12, 2), (-1e8j, 3)])
def test_periodic_points_large_c_still_closed_under_f(c, m):
    # the check's bound is 1e-6 relative; these inputs stay below 1e-9
    roots = [r for r, _ in periodic_points(Params(c), m)]
    top = max(abs(r) for r in roots)
    assert max(abs(r * r + c) for r in roots) <= top + 1e-9 * (1 + top)


def test_beta_basilica_matched():
    res = beta_point(Params(-1), feigenbaum_tower(1), 1)
    assert res.matched
    assert abs(res.beta - ALPHA) < 1e-6


def test_beta_squaring_unmatched():
    res = beta_point(Params(0), feigenbaum_tower(1), 1)
    assert not res.matched


def test_feigenbaum_depths():
    assert feigenbaum_parameter(1) == -1.0
    assert feigenbaum_parameter(2) == pytest.approx(-1.3107026, abs=1e-6)
    # superstability: the critical orbit closes up exactly at time 2^depth
    c = feigenbaum_parameter(5)
    x = 0.0
    for _ in range(1 << 5):
        x = x * x + c
    assert abs(x) < 1e-10


def _critical_value(c, depth):
    """g_depth(c) = f_c^(2^depth)(0) in floats."""
    x = 0.0
    for _ in range(1 << depth):
        x = x * x + c
    return x


def test_feigenbaum_cascade_certified():
    s = [0.0] + [feigenbaum_parameter(d) for d in range(1, 17)]
    for d in range(1, 17):
        assert _critical_value(s[d] - 1e-12, d) * _critical_value(s[d] + 1e-12, d) < 0
        assert s[d] < s[d - 1]
    # the gaps shrink by Feigenbaum's delta = 4.6692016...
    for d in range(6, 17):
        assert (s[d - 1] - s[d - 2]) / (s[d] - s[d - 1]) == pytest.approx(4.6692016, abs=0.01)


@pytest.mark.parametrize("depth", [0, 17])
def test_feigenbaum_depth_out_of_range_raises(depth):
    with pytest.raises(ValueError, match="1..16"):
        feigenbaum_parameter(depth)


@pytest.mark.parametrize("depth", range(2, 11))
def test_feigenbaum_parameter_matches_mpmath_root(depth):
    # the root of g_depth near s_depth, found by mpmath's secant method at 60
    # digits, is within 64 ulps
    mpmath = pytest.importorskip("mpmath")
    s = feigenbaum_parameter(depth)
    with mpmath.workdps(60):
        def g(c):
            x = mpmath.mpf(0)
            for _ in range(1 << depth):
                x = x * x + c
            return x

        root = mpmath.findroot(g, mpmath.mpf(s))
        assert abs(root - s) <= 64 * math.ulp(s)


@pytest.mark.parametrize("name, value", [
    ("_CASCADE_NEWTON_CAP", 1),  # Newton does not stop in time
    ("_FEIGENBAUM_DELTA", -4.6692),  # Newton from -0.79 finds s_1 again
    ("_CASCADE_CERT_HALF_WIDTH", 0.0),  # no sign change
])
def test_feigenbaum_parameter_uncertified_raises(monkeypatch, name, value):
    monkeypatch.setattr(plane, name, value)
    with pytest.raises(ArithmeticError, match="not certified"):
        feigenbaum_parameter(8)


def test_feigenbaum_parameter_depth_8_is_pinned():
    # criterion 10's frozen expansion minima move for a one-ulp shift of s_8
    assert feigenbaum_parameter(8).hex() == "-0x1.66b1868e56590p+0"


def test_expansion_chebyshev_fixed_point():
    rep = expansion_report(Params(-2), [2.0], 5)
    assert rep.euclidean["min"] == pytest.approx(4.0**5, rel=1e-12)
    assert rep.euclidean["max"] == rep.euclidean["min"]
    assert rep.excluded == 0


def test_expansion_circle():
    sample = [cmath.exp(2j * math.pi * k / 16) for k in range(16)]
    rep = expansion_report(Params(0), sample, 3)
    assert rep.euclidean["min"] == pytest.approx(8.0, rel=1e-9)
    assert rep.euclidean["max"] == pytest.approx(8.0, rel=1e-9)
    assert rep.spherical["geomean"] == pytest.approx(8.0, rel=1e-9)


def test_expansion_excludes_escapers():
    rep = expansion_report(Params(0), [3.0, 0.5], 4)
    assert rep.excluded == 1


def test_telescope_fixed_point():
    rep = telescope_check(Params(-2), 2.0, 0.3, 0.5, 0.01, list(range(11)))
    assert rep.passed
    assert rep.univalence_is_heuristic
    assert all(s.margin is not None and s.margin > 0.01 for s in rep.stages)


def test_telescope_density_failure():
    rep = telescope_check(Params(-2), 2.0, 0.3, 1.5, 0.01, list(range(11)))
    assert not rep.passed
    assert all(not s.time_density_ok for s in rep.stages)


def test_telescope_times_must_increase():
    with pytest.raises(ValueError):
        telescope_check(Params(0), 1.0, 0.3, 0.5, 0.01, [0, 2, 1])


@pytest.mark.parametrize("r, times, message", [
    (0.3, [], "a telescope needs at least two times"),
    (0.3, [0], "a telescope needs at least two times"),
    (0.0, [0, 1], "r must be > 0, not 0.0"),
    (-0.3, [0, 1], "r must be > 0, not -0.3"),
    (math.nan, [0, 1], "r must be > 0, not nan"),
])
def test_telescope_needs_a_stage_and_a_positive_radius(r, times, message):
    with pytest.raises(ValueError) as exc:
        telescope_check(Params(-2), 2.0, r, 0.5, 0.01, times)
    assert str(exc.value) == message


def test_render_deterministic_and_ppm():
    scene = {
        "c": [0.0, 0.0],
        "width": 40,
        "height": 30,
        "scale": 4.0,
        "layers": [{"type": "julia", "max_iter": 40}, {"type": "points", "points": [[1.0, 0.0]]}],
    }
    d1, d2 = render(scene), render(scene)
    assert d1 == d2
    assert render({**scene, "width": 40.0}) == d1  # an integral float is a size
    assert d1.startswith(b"P6\n40 30\n255\n")
    assert len(d1) == len(b"P6\n40 30\n255\n") + 40 * 30 * 3


def _ref_escape_rows(c, xs, ys, max_iter):
    """The row-by-row smooth escape count that _escape_grid replaced."""
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
        val = np.zeros(z.shape)
        escaped = ~alive
        if escaped.any():
            mag = np.abs(zz[escaped])
            val[escaped] = n[escaped] + 1.0 - np.log2(np.maximum(np.log(np.maximum(mag, 1.0001)), 1e-12))
        out[i] = val
    return out


ESCAPE_GRIDS = dict(KERNEL_GRIDS)
ESCAPE_GRIDS["basilica_scale_40"] = (-1.0, *_grid({"width": 16, "height": 16, "scale": 40.0})[2:4])


@pytest.mark.parametrize("c, xs, ys", ESCAPE_GRIDS.values(), ids=ESCAPE_GRIDS.keys())
@pytest.mark.parametrize("max_iter", [1, 64, 256])
def test_escape_grid_equals_rows(c, xs, ys, max_iter):
    got = _escape_grid(c, xs, ys, max_iter)
    want = _ref_escape_rows(c, xs, ys, max_iter)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# zoomed far out, or centred where z^2 overflows, points escape with a
# negative smooth count: the shade is clipped, so they paint white
FAR_FIELD_SCENES = {
    "basilica_scale_40": {"c": [-1.0, 0.0], "width": 16, "height": 16, "scale": 40.0,
                          "layers": [{"type": "julia", "max_iter": 256}]},
    "center_1e308": {"c": [-1.0, 0.0], "width": 16, "height": 16, "center": [1e308, 0.0], "scale": 3.5,
                     "layers": [{"type": "julia", "max_iter": 256}]},
}


@pytest.mark.parametrize("scene", FAR_FIELD_SCENES.values(), ids=FAR_FIELD_SCENES.keys())
def test_julia_negative_field_is_white_without_warnings(scene):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = render(scene)
    w, h, xs, ys, _ = _grid(scene)
    with np.errstate(over="ignore", invalid="ignore"):
        field = _escape_grid(complex(*scene["c"]), xs, ys, 256)
    img = np.frombuffer(data, dtype=np.uint8, offset=len(f"P6\n{w} {h}\n255\n")).reshape(h, w, 3)
    negative = field < 0
    assert negative.any()
    assert (img[negative] == 255).all()


# sha256 of the PPM bytes, recorded with the same setup as PINNED below.  In
# each scene every layer sets at least one pixel: the README's four-layer
# scene cut to 4x4, the basilica's 1/3 ray at 32x32 (it starts far off the
# image, so off-image segments must be skipped without changing a pixel) and
# an equipotential band of the rabbit.
PINNED_SCENES = [
    (
        "readme_four_layers",
        {
            "c": [-1.0, 0.0], "width": 4, "height": 4, "center": [0.0, 0.0], "scale": 3.5,
            "layers": [
                {"type": "julia", "max_iter": 256},
                {"type": "equipotential", "level": 0.2, "tol": 0.2},
                {"type": "ray", "angle": "1/3", "level_min": 1e-6},
                {"type": "points", "points": [[-0.618, 0.0]], "radius": 1},
            ],
        },
        "13b9b44017957f121206f7425fdcc29014df512f7396a3663aad8197ec3f0332",
    ),
    (
        "basilica_ray_32",
        {
            "c": [-1.0, 0.0], "width": 32, "height": 32, "center": [0.0, 0.0], "scale": 3.5,
            "layers": [{"type": "julia", "max_iter": 64}, {"type": "ray", "angle": "1/3", "level_min": 1e-6}],
        },
        "d870a3886e2ac0b08c47e77ffc5ec7b4246b2aa71b56312bad1fc90dd068dc1d",
    ),
    (
        "rabbit_equipotential",
        {
            "c": [-0.122561, 0.744862], "width": 16, "height": 16, "scale": 3.5,
            "layers": [{"type": "julia", "max_iter": 64}, {"type": "equipotential", "level": 0.1, "tol": 0.5}],
        },
        "1a54803c12fc05a349f168f93fdfb157787b80dfaadc168414e2e9edee50c2ef",
    ),
    # the four single-layer julia and equipotential scenes of the benchmark's
    # plane-render workload, and the README scene at 96x96
    *[
        (
            f"{kind}_{name}_{size}",
            {"c": c, "width": size, "height": size, "scale": 3.5, "layers": [layer]},
            digest,
        )
        for kind, name, c, size, layer, digest in [
            ("julia", "basilica", [-1.0, 0.0], 48, {"type": "julia", "max_iter": 256},
             "7ef07ce9b85cf622acfffb54d6dd128fa5ce69f4cf0efd7ef413036532824df9"),
            ("julia", "rabbit", [-0.12256116687665362, 0.7448617666197442], 48, {"type": "julia", "max_iter": 256},
             "e3dca2cc1dd8f0522f13b846ee7663d53c3066b888d75494a5edf1404a2a996a"),
            ("equipotential", "basilica", [-1.0, 0.0], 32, {"type": "equipotential", "level": 0.05, "tol": 0.2},
             "79c01b19e5f60b410b0eda4e14e06346cf1a05055d29ade6aec0d35c105dce29"),
            ("equipotential", "rabbit", [-0.12256116687665362, 0.7448617666197442], 32,
             {"type": "equipotential", "level": 0.05, "tol": 0.2},
             "9fd0acdfd60f4d1c504fe47e4310f62c4ac909644bc05f227483efb0e7a4367f"),
        ]
    ],
    # the basilica 1/3 ray alone at three thicknesses; at 20 and 80 the stamp
    # is wider than the image
    *[
        (
            f"ray_{size}_t{thickness}",
            {
                "c": [-1.0, 0.0], "width": size, "height": size, "scale": 3.5,
                "layers": [{"type": "ray", "angle": "1/3", "level_min": 1e-3, "thickness": thickness}],
            },
            digest,
        )
        for size, thickness, digest in [
            (8, 1.2, "ff6e2b6e9053c033f56e0c53987a8b15302036a22c4be68c075513f09de03263"),
            (8, 20, "3d3c44b40204fe79f05650600dcfbe5ade8c383591368f771b2d1f0e75a5c6d1"),
            (8, 80, "3d3c44b40204fe79f05650600dcfbe5ade8c383591368f771b2d1f0e75a5c6d1"),
            (32, 1.2, "86a1f0e0f413ba427bd09239541b8fc5de9f5f0c508e5f2477d97abf1f365d6e"),
            (32, 20, "1faa1562289df7c77b6333da7152ae84db81b03c7f9fba9d2dc8c64090a4391f"),
            (32, 80, "82d917d2666b1a8b4962bf63ac4a873d788a07376f19a1fbee98b915e2734a7b"),
        ]
    ],
    (
        "readme_scene_96",
        {
            "c": [-1.0, 0.0], "width": 96, "height": 96, "center": [0.0, 0.0], "scale": 3.5,
            "layers": [
                {"type": "julia", "max_iter": 256},
                {"type": "equipotential", "level": 0.05, "tol": 0.2},
                {"type": "ray", "angle": "1/3", "level_min": 1e-6},
                {"type": "points", "points": [[-0.618, 0.0]], "radius": 3},
            ],
        },
        "977415a074bb99f5df88725050617ad9e043f811026083f1c76e47ab69f4a279",
    ),
]
DEFAULT_LAYER_COLORS = {"equipotential": (200, 30, 30), "ray": (20, 140, 20), "points": (230, 120, 0)}


@pytest.mark.parametrize("scene, digest", [p[1:] for p in PINNED_SCENES], ids=[p[0] for p in PINNED_SCENES])
def test_render_is_pinned(scene, digest):
    data = render(scene)
    assert hashlib.sha256(data).hexdigest() == digest
    body = data[len(f"P6\n{scene['width']} {scene['height']}\n255\n"):]
    colors = set(zip(body[0::3], body[1::3], body[2::3]))
    for layer in scene["layers"]:
        if layer["type"] == "julia":  # it shows through somewhere
            assert colors - set(DEFAULT_LAYER_COLORS.values()) - {(255, 255, 255)}
        else:
            assert DEFAULT_LAYER_COLORS[layer["type"]] in colors, layer["type"]


def _ref_draw_segment(img, a, b, color, thickness):
    # the per-pixel stamp that _draw_segment's clipped row runs replaced
    h, w, _ = img.shape
    rad = int(math.ceil(thickness / 2))
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


SEGMENTS = [
    ((1.3, 2.7), (5.6, 3.1)),  # inside
    ((3.5, 2.5), (3.5, 2.5)),  # a point on a rounding tie
    ((-0.5, 4.5), (6.5, -0.5)),  # ties at both ends
    ((-4.2, 1.0), (2.0, 9.3)),  # leaves through two sides
    ((-3.0, -2.0), (-2.6, -1.1)),  # outside, within reach of thick stamps
    ((9.7, 2.0), (30.0, 40.0)),  # outside to the right and below
    ((-50.0, 3.0), (60.0, 3.4)),  # across the whole image
]


@pytest.mark.parametrize("thickness", [-3.0, -1.0, 0.0, 0.3, 0.5, 1.0, 1.2, 1.5, 2.0, 2.5, 3.7, 4.9, 5.0, 7.3, 12.0, 24.0])
def test_draw_segment_equals_per_pixel_stamp(thickness):
    for a, b in SEGMENTS:
        got = np.full((6, 7, 3), 255, dtype=np.uint8)
        want = got.copy()
        _draw_segment(got, a, b, [20, 140, 20], thickness)
        _ref_draw_segment(want, a, b, [20, 140, 20], thickness)
        assert np.array_equal(got, want), (a, b)


def test_draw_segment_of_huge_thickness_fills_the_image():
    # thickness^2 overflows a float; every pixel is within the stamp's reach
    img = np.full((6, 7, 3), 255, dtype=np.uint8)
    _draw_segment(img, (1.0, 1.0), (2.0, 1.0), [20, 140, 20], 1e200)
    assert (img == np.array([20, 140, 20], dtype=np.uint8)).all()


# sha256 prefixes of repr(output), so a change in the last bit of any float
# shows.  Recorded with Python 3.11.7 and numpy 2.4.6 on x86-64 Linux; another
# numpy build or CPU may round differently.
PINNED = [
    *[(f"periodic_points(-1, {m})", lambda m=m: periodic_points(Params(-1), m), digest)
      for m, digest in enumerate(["be822ea1d22ae61f", "7654cf1fc7a50453", "6db13d53750d049d",
                                  "3afc87c08278451b", "40e616a541a40373", "b824a44d0acc1a0d",
                                  # n = 128 and 256 roots: one and two row blocks of differences
                                  "af3e22a941356c91", "126e2204eaa98773"], start=1)],
    ("periodic_points(0.1+0.2j, 4)", lambda: periodic_points(Params(0.1 + 0.2j), 4), "d28f81bebab6ed33"),
    ("trace_ray(-1, 1/3)", lambda: trace_ray(Params(-1), Angle(1, 3), level_min=1e-9), "a6c32441a00a1964"),
    ("beta_point(-1, F1, 1)", lambda: beta_point(Params(-1), feigenbaum_tower(1), 1), "2fedbac6ca39c964"),
    ("telescope_check(-2, 2)", lambda: telescope_check(Params(-2), 2.0, 0.3, 0.5, 0.01, range(11)), "457b1eb6d36f0fc7"),
    ("export_svg(F4)", lambda: export_svg(build(feigenbaum_tower(4), 4, 0)), "dfb092329b0890b4"),
    ("export_svg(F4, arcs)", lambda: export_svg(build(feigenbaum_tower(4), 4, 0), circular_arcs=True), "d8ffbd8ba3d152cb"),
]


@pytest.mark.parametrize("compute, digest", [p[1:] for p in PINNED], ids=[p[0] for p in PINNED])
def test_output_is_pinned(compute, digest):
    assert hashlib.sha256(repr(compute()).encode()).hexdigest()[:16] == digest


# The capped loop that green ran before it stopped an orbit at its first exact
# repeat; green and _green_grid must equal it bit for bit, and _escape_grid
# must equal the capped _ref_escape_rows above.
def _ref_green(params, z):
    w = complex(z)
    for n in range(plane._GREEN_MAX_ITER):
        r = abs(w)
        if r > plane._GREEN_FAR or (r > params.escape_radius and n >= plane._GREEN_MIN_ITER):
            return math.log(r) * 2.0 ** (-n)
        w = w * w + params.c
    r = abs(w)
    if r > params.escape_radius:
        return math.log(r) * 2.0 ** (-plane._GREEN_MAX_ITER)
    return 0.0


# float orbits land on exact cycles at 0, -1, -2 (0 -> -2 -> 2 -> 2), i and the
# rabbit; -0.75 and 1/4 are parabolic, with no exact cycle before the cap
REPEAT_CS = {
    "0": 0,
    "-1": -1.0,
    "-1-0i": complex(-1.0, -0.0),
    "-2": -2.0,
    "i": 1j,
    "rabbit": complex(-0.12256116687665362, 0.7448617666197442),
    "-0.75": -0.75,
    "1/4": 0.25,
    "|c|>2": 2.5 + 0.5j,
}
SIGNED_ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-1.0, -0.0), complex(-0.0, 1.0)]


def _repeat_points():
    grid = np.linspace(-2.2, 2.2, 23)
    return [complex(x, y) for y in grid for x in grid] + SIGNED_ZEROS + [0.1, 2.5, 1e17, 3e18]


@pytest.mark.parametrize("c", REPEAT_CS.values(), ids=REPEAT_CS.keys())
def test_green_equals_capped_loop_bitwise(c):
    params = Params(c)
    for z in _repeat_points():
        assert struct.pack("<d", green(params, z)) == struct.pack("<d", _ref_green(params, z)), z


REPEAT_GRIDS = dict(KERNEL_GRIDS)
for _name, _c in REPEAT_CS.items():
    REPEAT_GRIDS[f"{_name}-whole"] = (_c, np.linspace(-2.2, 2.2, 23), np.linspace(-1.6, 1.6, 17))
    REPEAT_GRIDS[f"{_name}-signed_zeros"] = (_c, np.array([-0.0, 0.0, -1.0, 0.5]), np.array([0.0, -0.0, 1.0]))
# z_1 = -1/2 - i/2 keeps the real part of z_0 = -1/2 + i, and the orbit escapes
REPEAT_GRIDS["real_part_kept"] = (0.25 + 0.5j, np.array([-0.5]), np.array([1.0]))


@pytest.mark.parametrize("c, xs, ys", REPEAT_GRIDS.values(), ids=REPEAT_GRIDS.keys())
def test_green_grid_equals_capped_loop_bitwise(c, xs, ys):
    params = Params(c)
    got = plane._green_grid(params, xs, ys)
    want = np.array([[_ref_green(params, complex(x, y)) for x in xs] for y in ys])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("c, xs, ys", REPEAT_GRIDS.values(), ids=REPEAT_GRIDS.keys())
@pytest.mark.parametrize("max_iter", [64, 256, 1000])
def test_escape_grid_equals_capped_loop_bitwise(c, xs, ys, max_iter):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _escape_grid(c, xs, ys, max_iter)
        want = _ref_escape_rows(c, xs, ys, max_iter)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class _CountingC(complex):
    """A parameter c that counts the steps w * w + c taken with it."""

    steps = 0

    def __radd__(self, other):
        self.steps += 1
        return complex.__radd__(self, other)


def test_green_stops_at_the_first_repeat():
    # the orbit of 0.1 lands on the basilica's float cycle 0 <-> -1; the
    # capped loop takes all 2,048 steps
    c = _CountingC(-1.0)
    assert struct.pack("<d", green(Params(c), 0.1)) == struct.pack("<d", 0.0)
    assert c.steps < 64
    # an escaping orbit keeps its steps and its level
    c = _CountingC(-1.0)
    assert green(Params(c), 2.5) == _ref_green(Params(-1.0), 2.5)
    assert c.steps == 6


def test_green_grid_repeat_needs_both_parts(monkeypatch):
    # at c = 1/4 + i/2 the orbit -1/2 + i -> -1/2 - i/2 -> 1/4 + i -> ... keeps
    # its real part for one step and then escapes; with snapshots from step 0,
    # real parts alone would call that step a repeat
    monkeypatch.setattr(plane, "_GREEN_MIN_ITER", 0)
    params = Params(0.25 + 0.5j)
    level = green(params, -0.5 + 1j)
    assert level > 0
    assert level == _ref_green(params, -0.5 + 1j)
    assert plane._green_grid(params, np.array([-0.5]), np.array([1.0]))[0, 0] == level
