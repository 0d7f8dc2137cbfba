"""Chords in the unit disk: linkage tests, finite invariant families, SVG export."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .circle import Angle, _coprime, _over_lcm, preimages

_STROKE_WIDTH = 0.004  # SVG stroke width of the circle and of every chord


@dataclass(frozen=True)
class Chord:
    """Unordered pair of distinct circle points, stored with a < b."""

    a: Angle
    b: Angle

    def __post_init__(self):
        a, b = self.a, self.b
        fa, fb = a.frac, b.frac
        da, db = fa.denominator, fb.denominator
        # two fractions are equal exactly when their cross-product vanishes,
        # and its sign orders them; over one denominator (both endpoints of
        # a tower level's chords) it is the numerators' difference times it
        cross = fa.numerator - fb.numerator if da == db else fa.numerator * db - fb.numerator * da
        if not cross:
            raise ValueError("chord endpoints must differ")
        if cross > 0:
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)

    def __repr__(self):
        return f"Chord({self.a}, {self.b})"


def linked(c1: Chord, c2: Chord) -> bool:
    """True iff the chords cross strictly; shared endpoints count as unlinked."""
    _, (a, b, c, d) = _over_lcm([c1.a.frac, c1.b.frac, c2.a.frac, c2.b.frac])
    return _linked((a, b), (c, d))


def _linked(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
    """linked() on sorted numerator pairs over one denominator."""
    a, b = c1
    if a in c2 or b in c2:
        return False
    # an endpoint is strictly inside the arc (a, b) exactly when a < x < b
    return (a < c2[0] < b) != (a < c2[1] < b)


def _orbit_ints(pair, N: int):
    """Every (sigma^k lo, sigma^k hi) as numerators over N, k = 0..period-1 or until sigma^k returns the pair to (lo, hi).

    N is a multiple of both angle denominators (in a tower, the lcm of the
    level denominators), so sigma is x -> 2x mod N, one shift and at most one
    subtraction, and the walk builds no Fraction.  Past a return it repeats.
    """
    a0 = a = pair.lo.numerator * (N // pair.lo.denominator)
    b0 = b = pair.hi.numerator * (N // pair.hi.denominator)
    for _ in range(pair.period):
        if a == b:
            raise ValueError("chord endpoints must differ")
        yield a, b
        a, b = a << 1, b << 1
        a, b = a - N if a >= N else a, b - N if b >= N else b
        if a == a0 and b == b0:
            return


def _distinct(walk) -> list[tuple[int, int]]:
    """The distinct chords of a walk as sorted pairs, in order of first appearance."""
    return list(dict.fromkeys((a, b) if a < b else (b, a) for a, b in walk))


def _chord(c: tuple[int, int], N: int) -> Chord:
    """The Chord of sorted numerators over N; each endpoint runs a gcd."""
    return Chord(Angle(c[0], N), Angle(c[1], N))


def _level_chords(pair, N: int) -> dict[tuple[int, int], Chord]:
    """The distinct chords of pair's walk over N, sorted numerator pairs mapped to their Chords, in order of first appearance.

    Doubling mod an odd N keeps gcd(x, N) = N // d for an endpoint x of an angle over d: its angle is x // (N // d) over d.
    """
    da, db = pair.lo.denominator, pair.hi.denominator
    ga, gb, chords = N // da, N // db, {}
    for a, b in _orbit_ints(pair, N):
        c = (a, b) if a < b else (b, a)
        if c not in chords:
            chords[c] = Chord(Angle(_coprime(a // ga, da)), Angle(_coprime(b // gb, db))) if N & 1 else _chord(c, N)
    return chords


def orbit_chords(pair) -> list[Chord]:
    """Distinct chords {sigma^k(lo), sigma^k(hi)}, k = 0..period-1."""
    return list(_level_chords(pair, math.lcm(pair.lo.denominator, pair.hi.denominator)).values())


def _crosses(ends: list, partners: list, chord: tuple[int, int]) -> bool:
    """True iff chord crosses a chord of the sorted endpoint list.

    ends is sorted and partners[k] is the other endpoint of the chord that
    owns ends[k].  A family chord crosses (a, b) exactly when it has an
    endpoint strictly inside (a, b) and its other endpoint lies outside [a, b].
    """
    a, b = chord
    lo, hi = bisect_right(ends, a), bisect_left(ends, b)
    return any(not a <= partners[k] <= b for k in range(lo, hi))


def build(comb, depth: int, preimage_depth: int = 0) -> tuple[Chord, ...]:
    """Finite chord family of a tower: level orbit chords plus chosen preimages.

    Preimage chords are added one generation at a time; for each chord the
    pairing of its four endpoint preimages is the one unlinked with the
    family built so far.  Endpoints are numerators over M = N 2^preimage_depth,
    N the lcm of the level denominators: a level endpoint is even until the
    last generation, and the preimages of x are x >> 1 and (x >> 1) + M/2.
    Each chord gets its Angles when it joins the family: a level chord's
    from its walk, a preimage chord's from circle.preimages of its parent's.
    """
    if depth > len(comb.levels):
        raise ValueError("depth exceeds tower size")
    levels = comb.levels[:depth]
    N = math.lcm(*(t.denominator for pair in levels for t in (pair.lo, pair.hi)))
    M = N << preimage_depth
    half = M >> 1
    family: dict[tuple[int, int], Chord] = {}  # insertion-ordered
    ends, partners = [], []  # sorted endpoints of family, each with its chord's other endpoint

    def add(c: tuple[int, int], chord: Chord) -> None:
        family[c] = chord
        for x, y in (c, c[::-1]):
            k = bisect_left(ends, x)
            ends.insert(k, x)
            partners.insert(k, y)

    for pair in levels:
        for (x, y), chord in _level_chords(pair, N).items():
            c = (x << preimage_depth, y << preimage_depth)
            if c not in family:
                add(c, chord)
    start = 0  # family's chords from start on are the last generation's
    for _ in range(preimage_depth):
        frontier, start = list(family.items())[start:], len(family)
        for (a, b), chord in frontier:
            # a < b, so a0 < b0 < a1 < b1, and preimages() lists t/2 first
            a0, b0 = a >> 1, b >> 1
            a1, b1 = a0 + half, b0 + half
            (A0, A1), (B0, B1) = preimages(chord.a), preimages(chord.b)
            for placed, angles in ((((a0, b0), (a1, b1)), ((A0, B0), (A1, B1))),
                                   (((a0, b1), (b0, a1)), ((A0, B1), (B0, A1)))):
                if not any(_crosses(ends, partners, c) for c in placed) and not _linked(*placed):
                    break
            else:
                raise ValueError(f"no unlinked preimage placement for {chord}")
            for c, (u, v) in zip(placed, angles):
                if c not in family:
                    add(c, Chord(u, v))
    return tuple(family[c] for c in sorted(family))


def _nested(pairs) -> bool:
    """True iff the sorted pairs (a, b), a < b, nest like balanced parentheses.

    At a shared point chords close before chords open, the innermost (latest
    opened) closes first and the longest opens first; the index orders
    duplicate chords.
    """
    events = []
    for i, (a, b) in enumerate(pairs):
        events.append((a, 1, -b, i))
        events.append((b, 0, -a, -i))
    events.sort()
    stack = []
    for _, opens, _, i in events:
        if opens:
            stack.append(i)
        elif stack.pop() != -i:
            return False
    return True


def _witnesses(pairs: list) -> list[tuple[int, int]]:
    """Index pairs (i, k), i < k, of every linked pair of sorted numerator pairs over one denominator, in order.

    The pairs are pairwise unlinked exactly when they nest (a failed sweep
    shows a < c < b < d), so only a family that fails the sweep gets the
    all-pairs scan.
    """
    if _nested(pairs):
        return []
    return [(i, k) for i, c in enumerate(pairs) for k in range(i + 1, len(pairs)) if _linked(c, pairs[k])]


def verify_unlinked(family) -> dict:
    """Linkage scan of a chord family; failures are returned as witness pairs.

    The family is pairwise unlinked exactly when its sorted endpoints nest
    like balanced parentheses; the sweep runs on numerators over the lcm of
    the endpoint denominators.  Only a family that fails it gets the
    all-pairs scan, which lists every linked pair in order.
    """
    family = list(family)
    _, ends = _over_lcm([t.frac for c in family for t in (c.a, c.b)])
    witnesses = _witnesses(list(zip(ends[::2], ends[1::2])))
    return {"pass": not witnesses, "witnesses": [(family[i], family[k]) for i, k in witnesses]}


def _point(t: Angle) -> tuple[float, float]:
    # SVG y axis points down; negate sin so angles run counterclockwise
    phi = 2 * math.pi * float(t.frac)
    return math.cos(phi), -math.sin(phi)


def export_svg(family, circular_arcs: bool = False) -> str:
    """Deterministic unit-disk rendering of a chord family (SVG 1.1)."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="-1.05 -1.05 2.1 2.1">',
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="{_STROKE_WIDTH:.6f}"/>',
    ]
    for chord in sorted(family, key=lambda c: (c.a.frac, c.b.frac)):
        (x1, y1), (x2, y2) = _point(chord.a), _point(chord.b)
        if circular_arcs and (gap := (chord.b.frac - chord.a.frac) % 1) != Fraction(1, 2):
            # hyperbolic geodesic: circular arc orthogonal to the unit circle
            r = abs(math.tan(math.pi * float(gap)))
            sweep = 1 if gap < Fraction(1, 2) else 0
            lines.append(
                f'<path d="M {x1:.6f} {y1:.6f} A {r:.6f} {r:.6f} 0 0 {sweep} {x2:.6f} {y2:.6f}" '
                f'fill="none" stroke="black" stroke-width="{_STROKE_WIDTH:.6f}"/>'
            )
        else:
            lines.append(
                f'<line x1="{x1:.6f}" y1="{y1:.6f}" x2="{x2:.6f}" y2="{y2:.6f}" '
                f'stroke="black" stroke-width="{_STROKE_WIDTH:.6f}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
