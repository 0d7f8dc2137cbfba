from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from renormray.circle import Angle
from renormray.lamination import Chord, build, export_svg, linked, orbit_chords, verify_unlinked
from renormray.towers import feigenbaum_tower, rabbit_tower

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
