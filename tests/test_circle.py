from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from renormray.circle import (
    Angle,
    Arc,
    ArcSet,
    LimitAngle,
    angle_from_words,
    binary_words,
    double,
    orbit_info,
    preimages,
    sigma_pow,
)

rationals = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


def test_angle_parse_and_str():
    assert Angle.parse("3/7") == Angle(3, 7)
    assert Angle.parse("5/3") == Angle(2, 3)
    assert str(Angle(1, 3)) == "1/3"
    assert Angle(7, 7) == Angle(0)


@given(rationals)
def test_double_is_sigma(u):
    t = Angle(u)
    assert double(t) == Angle(2 * u)
    assert sigma_pow(t, 1) == double(t)


@given(rationals, st.integers(min_value=0, max_value=40))
def test_sigma_pow_matches_repeated_doubling(u, m):
    t = Angle(u)
    w = t
    for _ in range(m):
        w = double(w)
    assert sigma_pow(t, m) == w


@given(rationals)
def test_preimages_double_back(u):
    t = Angle(u)
    a, b = preimages(t)
    assert double(a) == t and double(b) == t
    assert (a.frac - b.frac) % 1 == Fraction(1, 2)


def test_orbit_info_examples():
    assert orbit_info(Angle(1, 3)) == (0, 2)
    assert orbit_info(Angle(1, 6)) == (1, 2)
    assert orbit_info(Angle(1, 7)) == (0, 3)
    assert orbit_info(Angle(5, 16)) == (4, 1)
    assert orbit_info(Angle(0)) == (0, 1)


@given(rationals)
def test_orbit_info_consistent_with_dynamics(u):
    t = Angle(u)
    pre, per = orbit_info(t)
    assert sigma_pow(t, pre + per) == sigma_pow(t, pre)
    if pre > 0:
        assert sigma_pow(t, pre - 1 + per) != sigma_pow(t, pre - 1)


@given(rationals)
def test_binary_words_roundtrip(u):
    t = Angle(u)
    pre, per = binary_words(t)
    assert angle_from_words(pre, per) == t


def test_binary_words_examples():
    assert binary_words(Angle(1, 3)) == ("", "01")
    assert binary_words(Angle(1, 6)) == ("0", "01")
    assert angle_from_words("", "1") == Angle(0)  # 0.111... = 1 = 0 mod 1


def test_arc_contains_wraps():
    a = Arc(Angle(3, 4), Fraction(1, 2))
    assert a.contains(Angle(7, 8))
    assert a.contains(Angle(1, 8))
    assert not a.contains(Angle(1, 2))


@given(st.lists(st.tuples(rationals, st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=10**4)), max_size=4))
def test_arcset_canonical_order_independent(pieces):
    arcs = [Arc(Angle(s), l) for s, l in pieces]
    assert ArcSet(arcs).components == ArcSet(reversed(arcs)).components


def test_arcset_merges_touching():
    s = ArcSet([Arc(Angle(0), Fraction(1, 4)), Arc(Angle(1, 4), Fraction(1, 4))])
    assert len(s.components) == 1
    assert s.components[0].length == Fraction(1, 2)


def test_arcset_wrap_merge():
    s = ArcSet([Arc(Angle(7, 8), Fraction(1, 4)), Arc(Angle(1, 2), Fraction(1, 8))])
    assert len(s.components) == 2
    assert s.contains(Angle(0))


def _overlap_oracle(x, y):
    return ArcSet([x]).intersect(ArcSet([y])).total_length > 0


arc_lengths = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
)
arcs = st.builds(Arc, st.fractions(min_value=0, max_value=1, max_denominator=64).map(Angle), arc_lengths)


@given(arcs, arcs)
def test_arc_overlaps_matches_arcset_intersection(x, y):
    assert x.overlaps(y) == _overlap_oracle(x, y)
    assert y.overlaps(x) == x.overlaps(y)


@pytest.mark.parametrize(
    "x, y, expected",
    [
        ((0, Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)), False),  # shared endpoint only
        ((Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4)), False),  # touch at both ends across 0
        ((Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 8)), True),  # wraps across 0
        ((Fraction(1, 8), 0), (0, Fraction(1, 2)), False),  # zero length inside the other arc
        ((0, 1), (Fraction(1, 3), 0), False),  # zero length inside the full circle
        ((0, 1), (Fraction(1, 3), Fraction(1, 100)), True),  # full circle
        ((Fraction(1, 2), 1), (0, 1), True),
    ],
)
def test_arc_overlaps_examples(x, y, expected):
    a, b = Arc(Angle(x[0]), x[1]), Arc(Angle(y[0]), y[1])
    assert a.overlaps(b) == b.overlaps(a) == _overlap_oracle(a, b) == expected


def test_arcset_subset():
    big = ArcSet([Arc(Angle(0), Fraction(1, 2))])
    small = ArcSet([Arc(Angle(1, 8), Fraction(1, 8))])
    assert small.is_subset_of(big)
    assert not big.is_subset_of(small)


def test_limit_angle_of_rational():
    lim = LimitAngle.from_angle(Angle(1, 3))
    d = (lim.refine(10).frac - Fraction(1, 3)) % 1
    assert min(d, 1 - d) < Fraction(1, 1 << 10)


def test_limit_angle_budget_exhaustion():
    lim = LimitAngle(lambda d: (Fraction(0), Fraction(1, 2 ** d)), max_depth=3)
    with pytest.raises(ValueError):
        lim.prefix_bits(30)
