import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from renormray.circle import Angle, angle_from_words, double
from renormray.rotation import (
    minimal_enclosing_arc,
    minimal_rotation_set,
    minimal_rotation_set_bruteforce,
    _cycle,
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


def _ref_rotation_number(points):
    """rotation_number as first written: a dict of sorted Angles and double()."""
    pts = tuple(sorted(set(points)))
    if not pts:
        raise ValueError("empty set")
    index = {t: i for i, t in enumerate(pts)}
    n = len(pts)
    step = None
    for i, t in enumerate(pts):
        j = index.get(double(t))
        if j is None:
            return None
        s = (j - i) % n
        if step is None:
            step = s
        elif s != step:
            return None
    return Fraction(step, n)


@pytest.mark.parametrize("den", [15, 31])
def test_rotation_number_matches_reference_on_small_subsets(den):
    # every subset of at most four angles k/den: orbits, unions of orbits and
    # sets that doubling does not keep
    angles = [Angle(k, den) for k in range(den)]
    found = 0
    for size in range(1, 5):
        for pts in itertools.combinations(angles, size):
            rho = rotation_number(pts)
            assert rho == _ref_rotation_number(pts), pts
            found += rho is not None
    assert found  # some subsets are rotation sets


def _orbit(k, mod):
    return [Angle(x, mod) for x in _cycle(k, mod)]


def test_rotation_number_matches_reference_on_mixed_sets():
    # unions of orbits over several denominators, with duplicates, minimal
    # rotation sets, and the same sets with a stray point or a point dropped
    rng = random.Random(20261020)
    dens = [1, 3, 7, 9, 15, 21, 31, 63, 127, 255, 1023]
    rotation_sets = 0
    for _ in range(600):
        pts = []
        for _ in range(rng.randint(1, 3)):
            mod = rng.choice(dens)
            pts += _orbit(rng.randrange(mod), mod)
        if rng.random() < 0.3:
            pts += minimal_rotation_set(rng.choice(_reduced(9))).points
        pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicates
        rng.shuffle(pts)
        variants = [pts, pts + [Angle(rng.randrange(1, 50), rng.choice([4, 6, 10, 17, 45]))], pts[1:]]
        for variant in variants:
            if variant:
                rho = rotation_number(variant)
                assert rho == _ref_rotation_number(variant), variant
                rotation_sets += rho is not None
    assert rotation_sets > 100


def test_rotation_number_takes_any_iterable_and_rejects_empty():
    pts = minimal_rotation_set(Fraction(2, 5)).points
    assert rotation_number(iter(pts)) == rotation_number(list(pts)) == Fraction(2, 5)
    for empty in ((), [], iter(())):
        with pytest.raises(ValueError, match="empty set"):
            rotation_number(empty)


def _ref_cycle(k, mod):
    """_cycle as first written: two modular doublings per step."""
    orbit = [k]
    while 2 * orbit[-1] % mod != k:
        orbit.append(2 * orbit[-1] % mod)
    return orbit


def test_cycle_matches_two_doubling_walk():
    for q in range(1, 13):
        mod = (1 << q) - 1
        for k in range(mod):
            assert _cycle(k, mod) == _ref_cycle(k, mod), (k, mod)
