import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from renormray.circle import Angle
from renormray.lamination import Chord, build, export_svg, linked, orbit_chords, verify_unlinked
from renormray.towers import RayPair, Tower, feigenbaum_tower, rabbit_tower, validate

from fraction_reference import _ref_build, _ref_linked, _ref_orbit_chords, _ref_verify_unlinked, outcome

rationals = st.fractions(min_value=0, max_value=1, max_denominator=1000)


def test_chord_canonical_order():
    c = Chord(Angle(2, 3), Angle(1, 3))
    assert c.a == Angle(1, 3) and c.b == Angle(2, 3)


def test_chord_rejects_degenerate():
    with pytest.raises(ValueError):
        Chord(Angle(1, 3), Angle(1, 3))


def _ref_chord_ends(a, b):
    """Chord's endpoints as first ordered: Fraction comparisons, None for equal angles."""
    if a.frac == b.frac:
        return None
    return (b, a) if b.frac < a.frac else (a, b)


def test_chord_order_matches_fraction_comparison():
    # equal angles built unreduced and reduced, then seeded pairs over small
    # and odd wide denominators, with shared denominators and endpoint 0
    rng = random.Random(7)
    pairs = [(Angle(2, 6), Angle(1, 3)), (Angle(1, 3), Angle(2, 6)), (Angle(0), Angle(5, 5)), (Angle(0), Angle(1, 2))]
    for _ in range(3000):
        dens = [rng.choice([1, 2, 3, 6, 7, 12, 15, 255, (1 << 61) - 1, (1 << 127) + 1]) for _ in range(2)]
        if rng.random() < 0.3:
            dens[1] = dens[0]
        a, b = (Angle(rng.randrange(3 * d), d) for d in dens)
        pairs.append((a, b))
        pairs.append((a, Angle(a.numerator * 4, a.denominator * 4)))  # the same angle
    equal = 0
    for a, b in pairs:
        ends = _ref_chord_ends(a, b)
        if ends is None:
            equal += 1
            with pytest.raises(ValueError, match="^chord endpoints must differ$"):
                Chord(a, b)
        else:
            c = Chord(a, b)
            assert (c.a, c.b) == ends and (c.a.frac, c.b.frac) == (ends[0].frac, ends[1].frac)
    assert equal > 3000
    # the benchmark digests chords through their dataclass fields
    assert [f.name for f in dataclasses.fields(Chord)] == ["a", "b"]


def test_linked_examples():
    assert linked(Chord(Angle(0), Angle(1, 2)), Chord(Angle(1, 4), Angle(3, 4)))
    assert not linked(Chord(Angle(0), Angle(1, 4)), Chord(Angle(1, 2), Angle(3, 4)))
    # shared endpoint does not link
    assert not linked(Chord(Angle(0), Angle(1, 2)), Chord(Angle(1, 2), Angle(3, 4)))


@given(rationals, rationals, rationals, rationals)
@example(Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3))
def test_linked_symmetric(a, b, c, d):
    # chords need four distinct points of R/Z: 0 and 1 are the same point
    if len({x % 1 for x in (a, b, c, d)}) < 4:
        return
    c1, c2 = Chord(Angle(a), Angle(b)), Chord(Angle(c), Angle(d))
    assert linked(c1, c2) == linked(c2, c1) == _ref_linked(c1, c2)


def test_orbit_chords_feigenbaum_level1():
    pair = feigenbaum_tower(1).level(1)
    chords = orbit_chords(pair)
    assert chords == [Chord(Angle(1, 3), Angle(2, 3))]


def test_build_depth3_count():
    fam = build(feigenbaum_tower(3), 3, 0)
    # levels contribute 1 + 2 + 4 distinct chords (mirror images coincide)
    assert len(fam) == 7
    assert verify_unlinked(fam)["pass"]


def test_build_with_preimages_unlinked():
    fam = build(feigenbaum_tower(2), 2, 2)
    assert verify_unlinked(fam)["pass"]
    assert len(fam) > 3


def test_verify_unlinked_reports_witness():
    fam = (Chord(Angle(0), Angle(1, 2)), Chord(Angle(1, 4), Angle(3, 4)))
    report = verify_unlinked(fam)
    assert not report["pass"] and len(report["witnesses"]) == 1


@st.composite
def small_chords(draw):
    # denominators 4..16 make shared endpoints and duplicate chords common
    den = draw(st.integers(4, 16))
    a, b = draw(st.lists(st.integers(0, den - 1), min_size=2, max_size=2, unique=True))
    return Chord(Angle(a, den), Angle(b, den))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(small_chords(), min_size=1, max_size=9))
@example(
    [
        Chord(Angle(1, 3), Angle(2, 3)),
        Chord(Angle(1, 3), Angle(2, 3)),
        Chord(Angle(1, 3), Angle(1, 2)),
        Chord(Angle(1, 2), Angle(2, 3)),
        Chord(Angle(0), Angle(1, 3)),
        Chord(Angle(2, 3), Angle(0)),
    ]
)
def test_verify_unlinked_matches_all_pairs(family):
    witnesses = [(c, d) for i, c in enumerate(family) for d in family[i + 1:] if linked(c, d)]
    assert verify_unlinked(family) == {"pass": not witnesses, "witnesses": witnesses}


def _digest(family):
    return hashlib.sha256(" ".join(f"{c.a},{c.b}" for c in family).encode()).hexdigest()[:16]


# (size, digest of the sorted family), recorded before build used the endpoint query
@pytest.mark.parametrize(
    "tower, pre, size, digest",
    [
        ("F4", 0, 15, "a5e2a0f4548848e6"),
        ("F4", 1, 31, "4b88c0670f3cf04a"),
        ("F4", 2, 63, "d220c63357b18c2c"),
        ("F4", 3, 127, "75240892d7a51c47"),
        ("F4", 4, 255, "6377034a2d6f0840"),
        ("R3", 0, 39, "7d0c8ae99cb7ae52"),
        ("R3", 1, 79, "d2832b78877d5034"),
    ],
)
def test_build_family_is_pinned(tower, pre, size, digest):
    comb = feigenbaum_tower(4) if tower == "F4" else rabbit_tower(3)
    family = build(comb, comb.depth, pre)
    assert (len(family), _digest(family)) == (size, digest)
    assert verify_unlinked(family)["pass"]


def test_validate_cross_level_witnesses_are_pinned():
    # level 3 of the Feigenbaum tower replaced by the rabbit pair: 22 linked pairs, five reported
    levels = list(feigenbaum_tower(4).levels)
    levels[2] = RayPair(3, Angle(1, 7), Angle(2, 7))
    entry = validate(Tower(tuple(levels))).entries[-1]
    assert (entry.check, entry.level, entry.passed) == ("unlinked_across_levels", 0, False)
    assert entry.witness == (
        "Chord(1/3, 2/3) x Chord(2/7, 4/7); Chord(1/3, 2/3) x Chord(1/7, 4/7); "
        "Chord(2/5, 3/5) x Chord(2/7, 4/7); Chord(2/5, 3/5) x Chord(1/7, 4/7); "
        "Chord(1/5, 4/5) x Chord(1/7, 2/7)"
    )


def test_export_svg_deterministic():
    fam = build(rabbit_tower(2), 2, 0)
    s1, s2 = export_svg(fam), export_svg(fam)
    assert s1 == s2
    assert s1.startswith("<?xml") and "</svg>" in s1
    assert s1.count("<line") == len(fam)


def test_export_svg_arc_mode():
    fam = build(rabbit_tower(1), 1, 0)
    s = export_svg(fam, circular_arcs=True)
    assert "<path" in s or "<line" in s


def test_orbit_chords_match_fraction_reference():
    # stock levels, every pair (k/(2^p - 1), l/(2^p - 1)) valid or not, and
    # pairs that doubling collapses to one point, with even denominators, or
    # of period 0
    pairs = [*feigenbaum_tower(8).levels, *rabbit_tower(4).levels]
    for p in range(2, 6):
        m = (1 << p) - 1
        pairs += [RayPair(p, Angle(k, m), Angle(l, m)) for k in range(m) for l in range(m)]
    pairs += [
        RayPair(2, Angle(1, 4), Angle(3, 4)),
        RayPair(3, Angle(1, 6), Angle(5, 12)),
        RayPair(4, Angle(2, 5), Angle(3, 5) + Fraction(1, 1 << 40)),
        RayPair(0, Angle(1, 3), Angle(2, 3)),
    ]
    for pair in pairs:
        assert outcome(orbit_chords, pair) == outcome(_ref_orbit_chords, pair)


def _endpoint_parts(derive, *args):
    """Every chord endpoint of derive(*args) as (numerator, denominator)."""
    return [(t.numerator, t.denominator) for c in derive(*args) for t in (c.a, c.b)]


def test_chord_endpoints_equal_gcd_reduced_angles():
    # build and orbit_chords give every endpoint its angle without a gcd,
    # read off the level angles or halved by preimages(); each must come out
    # reduced and in [0, 1).  The hand-built towers have lo and hi over
    # different reduced denominators (N odd) or an even denominator.
    combs = [feigenbaum_tower(d) for d in range(1, 9)] + [rabbit_tower(d) for d in range(1, 5)]
    combs += [
        Tower((RayPair(4, Angle(1, 5), Angle(4, 15)),)),
        Tower((RayPair(4, Angle(1, 3), Angle(2, 5)),)),
        Tower((RayPair(6, Angle(1, 63), Angle(16, 21)),)),
        Tower((RayPair(2, Angle(1, 3), Angle(2, 3)), RayPair(2, Angle(1, 6), Angle(1, 3)))),
    ]
    cases = [(build, comb, comb.depth, pre) for comb in combs for pre in range(5)]
    cases += [(orbit_chords, pair) for comb in combs for pair in comb.levels]
    for case in cases:
        for num, den in _endpoint_parts(*case):
            assert math.gcd(num, den) == 1 and 0 <= num < den, (case, num, den)


BUILD_CASES = [("F4", pre) for pre in range(6)] + [("R3", pre) for pre in range(3)] + [("F6", pre) for pre in range(2)]


@pytest.mark.parametrize("tower, pre", BUILD_CASES, ids=[f"{t}-pre{p}" for t, p in BUILD_CASES])
def test_build_and_verify_match_fraction_reference(tower, pre):
    comb = {"F4": feigenbaum_tower(4), "R3": rabbit_tower(3), "F6": feigenbaum_tower(6)}[tower]
    family = build(comb, comb.depth, pre)
    assert family == _ref_build(comb, comb.depth, pre)
    assert verify_unlinked(family) == _ref_verify_unlinked(family) == {"pass": True, "witnesses": []}


def _linked_towers():
    # F4 with a level swapped, moved off its period (denominator 5 * 2^40) or
    # replaced by the rabbit pair, and single self-linked or wide pairs
    base = list(feigenbaum_tower(4).levels)
    for k in (2, 3, 4):
        pair = base[k - 1]
        for bad in (
            RayPair(pair.period, pair.hi, pair.lo),
            RayPair(pair.period, pair.lo, pair.hi + Fraction(1, 1 << 40)),
            RayPair(3, Angle(1, 7), Angle(2, 7)),
        ):
            yield Tower(tuple(base[: k - 1] + [bad] + base[k:]))
    for lo, hi in ((1, 3), (1, 7)):
        yield Tower((RayPair(4, Angle(lo, 15), Angle(hi, 15)),))
    yield Tower((RayPair(3, Angle(1, 7), Angle(6, 7)),))


def test_build_matches_fraction_reference_on_linked_towers():
    # the family, or the text of "no unlinked preimage placement", and the sweep's witnesses
    raised = 0
    for comb in _linked_towers():
        for pre in range(3):
            got = outcome(build, comb, comb.depth, pre)
            assert got == outcome(_ref_build, comb, comb.depth, pre)
            if isinstance(got[0], Chord):
                assert verify_unlinked(got) == _ref_verify_unlinked(got)
            else:
                raised += 1
    assert raised == 10


def _chords(*ends):
    return [Chord(Angle(Fraction(a)), Angle(Fraction(b))) for a, b in ends]


LINKED_FAMILIES = {
    "mixed_denominators": _chords(("1/3", "2/3"), ("1/4", "1/2"), ("2/5", "9/10"), ("0", "5/7"), ("1/6", "5/6")),
    "shared_endpoints": _chords(("0", "1/2"), ("1/2", "3/4"), ("1/4", "3/4"), ("0", "1/4"), ("1/8", "5/8")),
    "duplicates": _chords(("1/3", "2/3"), ("1/3", "2/3"), ("1/6", "1/2"), ("1/6", "1/2"), ("1/2", "5/6")),
    "nested_then_crossing": _chords(("1/7", "6/7"), ("2/7", "5/7"), ("3/7", "4/7"), ("1/2", "13/14"), ("1/3", "2/3")),
    "huge_denominators": _chords(("1/3", "2/3"), (Fraction(1, 3) + Fraction(1, 1 << 200), "5/7")),
}


@pytest.mark.parametrize("name", sorted(LINKED_FAMILIES))
def test_verify_unlinked_witnesses_match_fraction_reference(name):
    family = LINKED_FAMILIES[name]
    report = verify_unlinked(family)
    assert not report["pass"] and report["witnesses"]
    assert report == _ref_verify_unlinked(family)


@st.composite
def mixed_chords(draw):
    # even and odd denominators 2..60, so one family mixes many
    den = draw(st.integers(2, 60))
    a, b = draw(st.lists(st.integers(0, den - 1), min_size=2, max_size=2, unique=True))
    return Chord(Angle(a, den), Angle(b, den))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(mixed_chords(), max_size=12))
def test_verify_unlinked_matches_fraction_reference(family):
    assert verify_unlinked(family) == _ref_verify_unlinked(family)
