import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from renormray.circle import Angle
from renormray.lamination import Chord, build, export_svg, linked, orbit_chords, verify_unlinked
from renormray.towers import RayPair, Tower, feigenbaum_tower, rabbit_tower, validate

rationals = st.fractions(min_value=0, max_value=1, max_denominator=1000)


def test_chord_canonical_order():
    c = Chord(Angle(2, 3), Angle(1, 3))
    assert c.a == Angle(1, 3) and c.b == Angle(2, 3)


def test_chord_rejects_degenerate():
    with pytest.raises(ValueError):
        Chord(Angle(1, 3), Angle(1, 3))


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
    assert linked(c1, c2) == linked(c2, c1)


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
