"""Chords in the unit disk: linkage tests, finite invariant families, SVG export."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .circle import Angle, _over, _over_lcm

_STROKE_WIDTH = 0.004  # SVG stroke width of the circle and of every chord


@dataclass(frozen=True)
class Chord:
    """Unordered pair of distinct circle points, stored with a < b."""

    a: Angle
    b: Angle

    def __post_init__(self):
        a, b = self.a, self.b
        if a == b:
            raise ValueError("chord endpoints must differ")
        if b < a:
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


def _orbit_ints(pair, N: int, factors: dict | None = None):
    """Every (sigma^k lo, sigma^k hi), k = 0..period-1, as numerators over N.

    N is a multiple of both angle denominators (in a tower, the lcm of the
    level denominators), so sigma is x -> 2x mod N, one shift and at most one
    subtraction, and the walk builds no Fraction.  When N is odd and a
    factors dict is passed, factors[x] is set to N // d for each endpoint x
    of an angle of reduced denominator d: gcd(x, N), since doubling mod an
    odd N keeps it.
    """
    ga, gb = N // pair.lo.denominator, N // pair.hi.denominator
    a, b = pair.lo.numerator * ga, pair.hi.numerator * gb
    record = factors is not None and N & 1
    for _ in range(pair.period):
        if a == b:
            raise ValueError("chord endpoints must differ")
        if record:
            factors[a], factors[b] = ga, gb
        yield a, b
        a, b = a << 1, b << 1
        a, b = a - N if a >= N else a, b - N if b >= N else b


def _distinct(walk) -> list[tuple[int, int]]:
    """The distinct chords of a walk as sorted pairs, in order of first appearance."""
    return list(dict.fromkeys((a, b) if a < b else (b, a) for a, b in walk))


def _chord(c: tuple[int, int], N: int, factors: dict, e: int = 0) -> Chord:
    """The Chord of sorted numerators over N 2^e; factors.get(x) is gcd(x, N), or None and one gcd runs."""
    x, y = c
    return Chord(Angle(_over(x, N, e, factors.get(x))), Angle(_over(y, N, e, factors.get(y))))


def orbit_chords(pair) -> list[Chord]:
    """Distinct chords {sigma^k(lo), sigma^k(hi)}, k = 0..period-1."""
    N = math.lcm(pair.lo.denominator, pair.hi.denominator)
    factors: dict = {}
    return [_chord(c, N, factors) for c in _distinct(_orbit_ints(pair, N, factors))]


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
    When N is odd, doubling and the preimage step (2y = x mod N) keep each
    endpoint's gcd with N, so the Chords are built without a gcd.
    """
    if depth > len(comb.levels):
        raise ValueError("depth exceeds tower size")
    levels = comb.levels[:depth]
    N = math.lcm(*(t.denominator for pair in levels for t in (pair.lo, pair.hi)))
    M = N << preimage_depth
    half = M >> 1
    level_factors: dict = {}
    family: dict[tuple[int, int], None] = {}  # insertion-ordered set
    ends, partners = [], []  # sorted endpoints of family, each with its chord's other endpoint

    def add(c: tuple[int, int]) -> None:
        family[c] = None
        for x, y in (c, c[::-1]):
            k = bisect_left(ends, x)
            ends.insert(k, x)
            partners.insert(k, y)

    for pair in levels:
        for x, y in _distinct(_orbit_ints(pair, N, level_factors)):
            c = (x << preimage_depth, y << preimage_depth)
            if c not in family:
                add(c)
    # gcd(x, N) of each endpoint x over M (none is recorded for an even N)
    factors = {x << preimage_depth: g for x, g in level_factors.items()}
    frontier = list(family)
    for _ in range(preimage_depth):
        new_frontier = []
        for a, b in frontier:
            # a < b, so a0 < b0 < a1 < b1
            a0, b0 = a >> 1, b >> 1
            a1, b1 = a0 + half, b0 + half
            for placed in (((a0, b0), (a1, b1)), ((a0, b1), (b0, a1))):
                if not any(_crosses(ends, partners, c) for c in placed) and not _linked(*placed):
                    break
            else:
                raise ValueError(f"no unlinked preimage placement for {_chord((a, b), N, factors, preimage_depth)}")
            factors[a0] = factors[a1] = factors.get(a)
            factors[b0] = factors[b1] = factors.get(b)
            for c in placed:
                if c not in family:
                    add(c)
                    new_frontier.append(c)
        frontier = new_frontier
    return tuple(_chord(c, N, factors, preimage_depth) for c in sorted(family))


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
