from fractions import Fraction
from math import gcd

import pytest

from renormray.circle import Angle, angle_from_words, double
from renormray.rotation import (
    minimal_enclosing_arc,
    minimal_rotation_set,
    minimal_rotation_set_bruteforce,
    rotation_number,
    sturmian_word,
)


def test_halves():
    rs = minimal_rotation_set(Fraction(1, 2))
    assert [str(p) for p in rs.points] == ["1/3", "2/3"]


def test_third():
    rs = minimal_rotation_set(Fraction(1, 3))
    assert [str(p) for p in rs.points] == ["1/7", "2/7", "4/7"]


def test_zero():
    rs = minimal_rotation_set(Fraction(0))
    assert [str(p) for p in rs.points] == ["0"]


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        minimal_rotation_set(Fraction(3, 2))


def test_sturmian_word_balanced():
    w = sturmian_word(2, 5)
    assert len(w) == 5 and w.count("1") == 2


def test_rotation_number_detects_non_rotation():
    pts = (Angle(1, 7), Angle(2, 7), Angle(3, 7))
    assert rotation_number(pts) is None


def test_rotation_number_roundtrip_small():
    for q in range(1, 9):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            nu = Fraction(p, q)
            assert rotation_number(minimal_rotation_set(nu).points) == nu


def test_bruteforce_agrees_small():
    for q in range(1, 9):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            nu = Fraction(p, q)
            assert minimal_rotation_set(nu).points == minimal_rotation_set_bruteforce(nu).points


def _reduced(qmax):
    return [Fraction(p, q) for q in range(1, qmax + 1) for p in range(q) if gcd(p, q) == 1]


def _angle_sorting_oracle(nu):
    """The oracle as first written: each period-q orbit as sorted Angles, kept
    when rotation_number gives nu."""
    p, q = nu.numerator, nu.denominator
    if p == 0:
        return (Angle(0),)
    mod = (1 << q) - 1
    seen, found = set(), []
    for k in range(1, mod):
        if k in seen:
            continue
        orbit = []
        x = k
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = (2 * x) % mod
        if len(orbit) != q:
            continue
        pts = tuple(sorted(Angle(j, mod) for j in orbit))
        if rotation_number(pts) == nu:
            found.append(pts)
    assert len(found) == 1
    return found[0]


def _doubled_seed(nu):
    """The construction as first written: the Sturmian seed doubled q - 1 times."""
    p, q = nu.numerator, nu.denominator
    if p == 0:
        return (Angle(0),)
    points = [angle_from_words("", sturmian_word(p, q))]
    for _ in range(q - 1):
        points.append(double(points[-1]))
    return tuple(sorted(points))


def test_bruteforce_matches_angle_sorting_oracle():
    for nu in _reduced(12):
        assert minimal_rotation_set_bruteforce(nu).points == _angle_sorting_oracle(nu), nu


def test_construction_matches_doubled_seed():
    for nu in _reduced(64):
        assert minimal_rotation_set(nu).points == _doubled_seed(nu), nu


def test_enclosing_arc_semicircle():
    arc, fits = minimal_enclosing_arc(minimal_rotation_set(Fraction(2, 5)).points)
    assert fits and arc.length <= Fraction(1, 2)


def test_enclosing_arc_singleton():
    arc, fits = minimal_enclosing_arc((Angle(1, 3),))
    assert fits and arc.length == 0 and arc.start == Angle(1, 3)
