"""Chords in the unit disk: linkage tests, finite invariant families, SVG export."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .circle import Angle, double, preimages

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
    if {c1.a, c1.b} & {c2.a, c2.b}:
        return False

    def inside(t: Angle) -> bool:
        # strictly inside the open arc (c1.a, c1.b) going counterclockwise
        return 0 < (t.frac - c1.a.frac) % 1 < (c1.b.frac - c1.a.frac) % 1

    return inside(c2.a) != inside(c2.b)


def orbit_chords(pair) -> list[Chord]:
    """Distinct chords {sigma^k(lo), sigma^k(hi)}, k = 0..period-1."""
    seen: dict[Chord, None] = {}
    a, b = pair.lo, pair.hi
    for _ in range(pair.period):
        seen.setdefault(Chord(a, b))
        a, b = double(a), double(b)
    return list(seen)


def _crosses(ends: list, partners: list, chord: Chord) -> bool:
    """True iff chord crosses a chord of the sorted endpoint list.

    ends is sorted and partners[k] is the other endpoint of the chord that
    owns ends[k].  A family chord crosses (a, b) exactly when it has an
    endpoint strictly inside (a, b) and its other endpoint lies outside [a, b].
    """
    a, b = chord.a.frac, chord.b.frac
    lo, hi = bisect_right(ends, a), bisect_left(ends, b)
    return any(not a <= partners[k] <= b for k in range(lo, hi))


def build(comb, depth: int, preimage_depth: int = 0) -> tuple[Chord, ...]:
    """Finite chord family of a tower: level orbit chords plus chosen preimages.

    Preimage chords are added one generation at a time; for each chord the
    pairing of its four endpoint preimages is the one unlinked with the
    family built so far.
    """
    if depth > len(comb.levels):
        raise ValueError("depth exceeds tower size")
    family: dict[Chord, None] = {}  # insertion-ordered set
    ends, partners = [], []  # sorted endpoints of family, each with its chord's other endpoint

    def add(c: Chord) -> None:
        family[c] = None
        for x, y in ((c.a.frac, c.b.frac), (c.b.frac, c.a.frac)):
            k = bisect_left(ends, x)
            ends.insert(k, x)
            partners.insert(k, y)

    for pair in comb.levels[:depth]:
        for c in orbit_chords(pair):
            if c not in family:
                add(c)
    frontier = list(family)
    for _ in range(preimage_depth):
        new_frontier = []
        for chord in frontier:
            a0, a1 = preimages(chord.a)
            b0, b1 = preimages(chord.b)
            pairings = ((Chord(a0, b0), Chord(a1, b1)), (Chord(a0, b1), Chord(a1, b0)))
            placed = None
            for cand in pairings:
                if not any(_crosses(ends, partners, c) for c in cand) and not linked(*cand):
                    placed = cand
                    break
            if placed is None:
                raise ValueError(f"no unlinked preimage placement for {chord}")
            for c in placed:
                if c not in family:
                    add(c)
                    new_frontier.append(c)
        frontier = new_frontier
    return tuple(sorted(family, key=lambda c: (c.a.frac, c.b.frac)))


def verify_unlinked(family) -> dict:
    """Linkage scan of a chord family; failures are returned as witness pairs.

    The family is pairwise unlinked exactly when its sorted endpoints nest
    like balanced parentheses.  At a shared point chords close before chords
    open, the innermost (latest opened) closes first and the longest opens
    first; the index orders duplicate chords.  Only a family that fails this
    sweep gets the all-pairs scan, which lists every linked pair in order.
    """
    family = list(family)
    events = []
    for i, c in enumerate(family):
        a, b = c.a.frac, c.b.frac
        events.append((a, 1, -b, i))
        events.append((b, 0, -a, -i))
    events.sort()
    stack = []
    for _, opens, _, i in events:
        if opens:
            stack.append(i)
        elif stack.pop() != -i:
            witnesses = [(c, d) for j, c in enumerate(family) for d in family[j + 1:] if linked(c, d)]
            return {"pass": False, "witnesses": witnesses}
    return {"pass": True, "witnesses": []}


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
        gap = (chord.b.frac - chord.a.frac) % 1
        if circular_arcs and gap != Fraction(1, 2):
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
