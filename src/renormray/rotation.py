"""Rotation sets of the angle-doubling map.

For rational rotation number p/q the unique minimal rotation set is a single
period-q orbit of the doubling map; it is built here from a Sturmian binary
word and can be cross-checked against a brute-force enumeration of all
period-q orbits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .circle import Angle, Arc, _over_lcm


@dataclass(frozen=True)
class RotationSet:
    points: tuple[Angle, ...]
    rho: Fraction

    def to_json(self) -> dict:
        arc, fits = minimal_enclosing_arc(self.points)
        return {
            "points": [str(p) for p in self.points],
            "rho": f"{self.rho.numerator}/{self.rho.denominator}",
            "enclosing": arc.to_json(),
            "fits_semicircle": fits,
        }


def _check_nu(nu: Fraction) -> Fraction:
    nu = Fraction(nu)
    if not 0 <= nu < 1:
        raise ValueError("rotation number must lie in [0, 1)")
    return nu


def sturmian_word(p: int, q: int) -> str:
    """Binary word of length q with digit_i = floor((i+1)p/q) - floor(ip/q)."""
    return "".join(str(((i + 1) * p) // q - (i * p) // q) for i in range(q))


def _cycle(k: int, mod: int) -> list[int]:
    """Numerators over odd mod of the doubling orbit of k/mod, from k; 0 <= k < mod."""
    orbit = [k]
    x = 2 * k % mod
    while x != k:
        orbit.append(x)
        x = 2 * x % mod
    return orbit


def minimal_rotation_set(nu) -> RotationSet:
    """The unique minimal rotation set with rational rotation number nu.

    Constructed from the Sturmian word of nu, then verified to be a genuine
    rotation set (invariant, cyclic-order preserving with the right step).
    """
    nu = _check_nu(nu)
    p, q = nu.numerator, nu.denominator
    mod = (1 << q) - 1
    orbit = _cycle(int(sturmian_word(p, q), 2), mod)
    if len(orbit) != q:
        raise ArithmeticError("Sturmian construction produced a degenerate orbit")
    points = tuple(Angle(k, mod) for k in sorted(orbit))
    if rotation_number(points) != nu:
        raise ArithmeticError("Sturmian construction failed the rotation-number check")
    return RotationSet(points, nu)


def minimal_rotation_set_bruteforce(nu) -> RotationSet:
    """Brute-force oracle: search all period-q orbits k/(2^q - 1) of doubling.

    Keeps the orbits on which doubling moves each sorted point p places, and
    checks that there is exactly one.
    """
    nu = _check_nu(nu)
    p, q = nu.numerator, nu.denominator
    mod = (1 << q) - 1
    seen = bytearray(mod)  # a flag per numerator: 2^q bytes, where a set of ints takes ~60x that
    found = []
    for k in range(mod):
        if seen[k]:
            continue
        orbit = _cycle(k, mod)
        for x in orbit:
            seen[x] = 1
        if len(orbit) != q:
            continue
        orbit.sort()
        if all(2 * x % mod == orbit[(i + p) % q] for i, x in enumerate(orbit)):
            found.append(orbit)
    if len(found) != 1:
        raise ArithmeticError(f"expected a unique minimal rotation set for {nu}, found {len(found)}")
    return RotationSet(tuple(Angle(k, mod) for k in found[0]), nu)


def rotation_number(points) -> Fraction | None:
    """Combinatorial rotation number of a finite doubling-invariant set.

    Returns k/n when doubling maps the n points onto themselves advancing the
    cyclic position by the constant step k; otherwise None.
    """
    L, nums = _over_lcm([t.frac for t in points])
    xs = sorted(set(nums))  # the distinct points as numerators over L
    if not xs:
        raise ValueError("empty set")
    images = [2 * x % L for x in xs]
    # the step is the place of the first point's image; every image must sit
    # that many places on
    step = bisect_left(xs, images[0])
    if images != xs[step:] + xs[:step]:
        return None
    return Fraction(step, len(xs))


def minimal_enclosing_arc(points) -> tuple[Arc, bool]:
    """Complement of the largest gap between consecutive points.

    Ties are broken by the smallest resulting start angle.  The boolean
    reports whether the arc fits in a closed semicircle.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("empty set")
    if len(pts) == 1:
        return Arc(pts[0], Fraction(0)), True
    best = None
    for i, t in enumerate(pts):
        nxt = pts[(i + 1) % len(pts)]
        gap = (nxt.frac - t.frac) % 1
        start = nxt
        key = (-gap, start.frac)
        if best is None or key < best[0]:
            best = (key, Arc(start, 1 - gap))
    arc = best[1]
    return arc, arc.length <= Fraction(1, 2)
