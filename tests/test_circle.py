import copy
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from renormray import circle
from renormray.circle import (
    Angle,
    Arc,
    ArcSet,
    LimitAngle,
    _DIV_CUTOFF,
    _coprime,
    _divmod,
    _mult_order_2,
    _over,
    angle_from_words,
    binary_words,
    double,
    orbit_info,
    preimages,
    sigma_pow,
)
from renormray.towers import RayPair, feigenbaum_tower, rabbit_tower, subwindow, window_at, window_endpoints

from fraction_reference import _ref_preimages, int_refiner

rationals = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


def test_angle_parse_and_str():
    assert Angle.parse("3/7") == Angle(3, 7)
    assert Angle.parse("5/3") == Angle(2, 3)
    assert str(Angle(1, 3)) == "1/3"
    assert Angle(7, 7) == Angle(0)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str-to-int digit limit")
def test_angle_parse_round_trips_past_the_int_str_digit_limit():
    # the smallest limit the interpreter allows, set for this test alone
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for a in (Angle(1, 10**700 + 1), Angle(10**650 + 7, 3 * 10**700 + 2)):
            assert len(str(a)) > 700 and Angle.parse(str(a)) == a
        assert Angle.parse(" +1" + "0" * 700 + "_1 ") == Angle(0)
        # a malformed literal raises, though int() counts its leading digits
        # against the limit first
        digits = "1" * 700
        for text in (digits + "x", digits + ".5", digits + "e3", "1__0" * 200, "_" + digits, digits + "_",
                     "nan", "", f"1/{digits}/3", f"{digits}/", f"+-{digits}"):
            with pytest.raises(ValueError):
                Angle.parse(text)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


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
@example(Fraction(0))
@example(Fraction(2, 7))
@example(Fraction(3, 7))
@example(Fraction(5, 12))
@example(Fraction(1, 2))
def test_preimages_double_back(u):
    # odd and even denominators, t = 0, and both parities of the numerator
    # over an odd denominator; each preimage is built reduced, without a gcd
    t = Angle(u)
    a, b = preimages(t)
    assert double(a) == t and double(b) == t
    assert (a.frac - b.frac) % 1 == Fraction(1, 2)
    assert (a, b) == _ref_preimages(t)
    for s in (a, b):
        assert math.gcd(s.numerator, s.denominator) == 1 and 0 <= s.numerator < s.denominator


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


def test_angle_from_words_matches_fraction_formula():
    # every preperiodic word of up to 4 digits and periodic word of 1 to 8,
    # all-zeros and all-ones blocks included, by numerator and denominator
    words = [format(x, f"0{n}b") for n in range(9) for x in range(1 << n)]
    for pre in (w for w in words if len(w) <= 4):
        head = int(pre, 2) if pre else 0
        for per in words[1:]:
            want = (head + Fraction(int(per, 2), 2 ** len(per) - 1)) / 2 ** len(pre) % 1
            got = angle_from_words(pre, per).frac
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), (pre, per)


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
    assert ArcSet(arcs).arcs == ArcSet(reversed(arcs)).arcs


def test_arcset_merges_touching():
    s = ArcSet([Arc(Angle(0), Fraction(1, 4)), Arc(Angle(1, 4), Fraction(1, 4))])
    assert len(s.arcs) == 1
    assert s.arcs[0].length == Fraction(1, 2)


def test_arcset_wrap_merge():
    s = ArcSet([Arc(Angle(7, 8), Fraction(1, 4)), Arc(Angle(1, 2), Fraction(1, 8))])
    assert len(s.arcs) == 2
    assert s.contains(Angle(0))


# Reference implementation, the segment-based ArcSet that the cyclic merge
# replaced: cut each arc into linear segments of [0, 1], merge the segments,
# and stitch the piece across 0 back together.


def _ref_segments(arc):
    s = arc.start.frac
    e = s + arc.length
    if e <= 1:
        return [(s, e)]
    return [(s, Fraction(1)), (Fraction(0), e - 1)]


def _ref_canonical(arcs):
    arcs = [a for a in arcs if a.length > 0]
    if not arcs:
        return ()
    if any(a.is_full_circle for a in arcs):
        return (Arc(Angle(0), Fraction(1)),)
    segs = []
    for a in arcs:
        segs.extend(_ref_segments(a))
    segs.sort()
    merged = [list(segs[0])]
    for s, e in segs[1:]:
        if s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    wrap = None
    if len(merged) > 1 and merged[0][0] == 0 and merged[-1][1] == 1:
        first = merged.pop(0)
        last = merged.pop()
        wrap = Arc(Angle(last[0]), (1 - last[0]) + first[1])
    elif len(merged) == 1 and merged[0][0] == 0 and merged[0][1] == 1:
        return (Arc(Angle(0), Fraction(1)),)
    out = [Arc(Angle(s), e - s) for s, e in merged]
    if wrap is not None:
        out.append(wrap)
    out = [a for a in out if a.length > 0]
    total = sum((a.length for a in out), Fraction(0))
    if total > 1:
        raise ValueError("arc set total length exceeds 1")
    if total == 1 and len(out) == 1:
        return (Arc(out[0].start, Fraction(1)),)
    return tuple(out)


def _ref_intersect(xs, ys):
    pieces = []
    for s1, e1 in [seg for a in xs for seg in _ref_segments(a)]:
        for s2, e2 in [seg for a in ys for seg in _ref_segments(a)]:
            lo, hi = max(s1, s2), min(e1, e2)
            if hi > lo:
                pieces.append(Arc(Angle(lo), hi - lo))
    return _ref_canonical(pieces)


def _overlap_oracle(x, y):
    return bool(_ref_intersect([x], [y]))


def _meet(a, b):
    # the pieces two arcs share, through the public intersection
    return ArcSet([a]).intersect(ArcSet([b])).arcs


# starts and lengths on a coarse grid, so shared endpoints, arcs that touch
# across 0 and exact half and full circles are common
grid = st.sampled_from([Fraction(k, 24) for k in range(25)])
family_arcs = st.builds(
    Arc,
    grid.map(Angle),
    st.one_of(grid, st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]), st.fractions(0, 1, max_denominator=60)),
)
families = st.lists(family_arcs, max_size=9)


@settings(max_examples=250)
@given(families, families)
def test_arcset_matches_reference(xs, ys):
    x, y = ArcSet(xs), ArcSet(ys)
    assert x.arcs == _ref_canonical(xs)
    assert x.intersect(y).arcs == _ref_intersect(x.arcs, y.arcs)
    assert x.is_subset_of(y) == (_ref_intersect(x.arcs, y.arcs) == x.arcs)
    assert ArcSet(xs[: len(xs) // 2]).is_subset_of(x)


@settings(max_examples=250)
@given(family_arcs.filter(lambda a: a.length > 0), family_arcs.filter(lambda a: a.length > 0))
def test_meet_matches_reference(a, b):
    # the intersection of two arcs keeps only pieces of positive length
    pieces = _meet(a, b)
    assert all(p.length > 0 for p in pieces)
    assert pieces == _ref_intersect([a], [b])


@pytest.mark.parametrize(
    "arcs, expected",
    [
        # the last arc runs across 0 over two leading arcs
        ([(0, Fraction(1, 16)), (Fraction(1, 8), Fraction(1, 16)), (Fraction(3, 4), Fraction(1, 2))], [(Fraction(3, 4), Fraction(1, 2))]),
        # two half-circles join into the full circle
        ([(Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2))], [(0, 1)]),
        ([(Fraction(1, 2), Fraction(1, 2)), (0, Fraction(1, 2))], [(0, 1)]),
        # overlap beyond a full turn is capped at the full circle
        ([(0, Fraction(3, 4)), (Fraction(1, 2), Fraction(3, 4))], [(0, 1)]),
        # an arc of length 1 is the full circle, whatever its start
        ([(Fraction(1, 3), 1)], [(0, 1)]),
        # an arc that ends exactly at 0 keeps its start when no arc starts at 0
        ([(Fraction(3, 4), Fraction(1, 4)), (Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 8))],
         [(Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 2), Fraction(1, 8)), (Fraction(3, 4), Fraction(1, 4))]),
    ],
)
def test_arcset_canonical_examples(arcs, expected):
    got = ArcSet(Arc(Angle(s), l) for s, l in arcs).arcs
    assert got == tuple(Arc(Angle(s), l) for s, l in expected)
    assert got == _ref_canonical([Arc(Angle(s), l) for s, l in arcs])


def test_meet_touching_arcs_share_nothing():
    # the arcs meet only at their ends, on either side of 0
    assert _meet(Arc(Angle(0), Fraction(1, 4)), Arc(Angle(3, 4), Fraction(1, 4))) == ()
    assert _meet(Arc(Angle(3, 4), Fraction(1, 2)), Arc(Angle(1, 4), Fraction(1, 2))) == ()


@pytest.mark.parametrize(
    "x, y, expected",
    [
        ((0, Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4)), False),  # shared endpoint only
        ((Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 4)), False),  # touch at both ends across 0
        ((Fraction(3, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 8)), True),  # wraps across 0
        ((0, 1), (Fraction(1, 3), Fraction(1, 100)), True),  # full circle
        ((Fraction(1, 2), 1), (0, 1), True),
    ],
)
def test_meet_examples(x, y, expected):
    a, b = Arc(Angle(x[0]), x[1]), Arc(Angle(y[0]), y[1])
    assert bool(_meet(a, b)) == bool(_meet(b, a)) == _overlap_oracle(a, b) == expected


def _tower_arc_groups():
    # the windows and sub-windows of the two deepest levels of F6 and R3 at
    # j in {1, 2, p}: starts over den 2^p and den 2^(2p), up to 2^192 at F6
    groups = []
    for comb in (feigenbaum_tower(6), rabbit_tower(3)):
        for pair in comb.levels[-2:]:
            for j in sorted({1, 2, pair.period}):
                groups += [list(window_at(pair, j).arcs), list(subwindow(pair, j).arcs)]
    # the arcs of every second window, moved to end exactly at 0, to start
    # there, to run across 0, and followed by an arc that starts where they end
    for arc in [a for g in groups[::4] for a in g]:
        length = arc.length
        groups.append([Arc(Angle(-length), length), Arc(Angle(0), length / 3)])
        groups.append([Arc(Angle(-length / 3), length), Arc(arc.end, length / 5), arc])
    return groups


def test_integer_offsets_match_reference_on_tower_arcs():
    groups = _tower_arc_groups()
    big = {a.start.denominator for g in groups for a in g if a.start.denominator > 1 << 64}
    assert len(big) > 2  # unequal denominators above 2^64
    for xs in groups:
        x = ArcSet(xs)
        assert x.arcs == _ref_canonical(xs)
        for ys in groups:
            y = ArcSet(ys)
            assert x.intersect(y).arcs == _ref_intersect(x.arcs, y.arcs)
            assert x.is_subset_of(y) == (_ref_intersect(x.arcs, y.arcs) == x.arcs)
        for a in xs:
            for b in groups[0] + groups[-1]:
                pieces = _meet(a, b)
                assert all(p.length > 0 for p in pieces)
                assert pieces == _ref_intersect([a], [b])


def test_arcset_subset():
    big = ArcSet([Arc(Angle(0), Fraction(1, 2))])
    small = ArcSet([Arc(Angle(1, 8), Fraction(1, 8))])
    assert small.is_subset_of(big)
    assert not big.is_subset_of(small)


def test_limit_angle_of_rational():
    lim = LimitAngle.from_angle(Angle(1, 3))
    d = (lim.refine(10).frac - Fraction(1, 3)) % 1
    assert min(d, 1 - d) < Fraction(1, 1 << 10)


@pytest.mark.parametrize("first, second", [
    ((1, 3, 2), (1, 7, 2)),  # 1/12 then 1/28
    ((1, 3, 2), (2, 3, 3)),  # 1/12 twice, over different 2^e: not growing
    ((1, 1, 5), (1, 1, 0)),  # 1/32 then 1
    ((1, 15, 3), (1, 3, 5)),  # 1/120 then 1/96
    ((5, 1, 43), (3, 1, 42)),  # 5/2^43 then 6/2^43
])
def test_limit_angle_rejects_growing_arcs_exactly(first, second):
    arcs = [(0, l, den, e) for l, den, e in (first, second)]
    lim = LimitAngle(lambda depth: arcs[depth - 1], max_depth=2)
    grows = Fraction(second[0], second[1] << second[2]) > Fraction(first[0], first[1] << first[2])
    if grows:
        with pytest.raises(ValueError, match="refiner arcs are not shrinking"):
            lim.prefix_bits(40)
    else:
        with pytest.raises(ValueError, match="insufficient depth: 40 bits need more than 2 refinements"):
            lim.prefix_bits(40)


def test_limit_angle_budget_exhaustion():
    lim = LimitAngle(lambda d: (0, 1, 1, d), max_depth=3)
    with pytest.raises(ValueError):
        lim.prefix_bits(30)


@pytest.mark.parametrize(
    "start, nbits, expected",
    [
        (Fraction(1, 2) - Fraction(1, 1 << 20), 4, 8),  # straddles 1/2: the upper cell
        (Fraction(3, 8) - Fraction(1, 1 << 20), 3, 3),  # straddles 3/8
        (1 - Fraction(1, 1 << 20), 4, 0),  # runs past 1: the upper cell is the one at 0
    ],
)
def test_limit_angle_prefix_across_dyadic_boundary(start, nbits, expected):
    lim = LimitAngle(int_refiner(lambda d: (start, Fraction(1, 1 << 19))), max_depth=1)
    assert lim.prefix_bits(nbits) == expected
    assert lim.refine(nbits) == Angle(expected, 1 << nbits)


def _ref_prefix_bits(start, length, nbits):
    # the Fraction formula: floor of start mod 1 and of its sum with length, times 2^nbits
    lo = ((start % 1).numerator << nbits) // (start % 1).denominator
    end = start % 1 + length
    hi = (end.numerator << nbits) // end.denominator
    return lo if lo == hi else hi % (1 << nbits)


@settings(max_examples=300)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=1000),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=1 << 12),
    st.booleans(),
    st.sampled_from([1, 3, 15]),
    st.integers(min_value=0, max_value=60),
)
def test_prefix_bits_matches_fraction_formula(start, nbits, length_num, cell, straddle, scale, extra):
    # lengths up to 2^-(nbits+2), zero included; a straddling start sits just
    # below the dyadic point cell/2^nbits, which may lie outside [0, 1).  The
    # refiner's integers are left unreduced, over den 2^e with e below or
    # above nbits
    length = Fraction(length_num, 1 << (nbits + 4))
    if straddle:
        start = Fraction(cell - 2048, 1 << nbits) - length / 2
    lim = LimitAngle(int_refiner(lambda depth: (start, length), scale, extra), max_depth=1)
    assert lim.prefix_bits(nbits) == _ref_prefix_bits(start, length, nbits)


def _window_fractions(pair):
    # every endpoint, start and length that window_endpoints, window_at and
    # subwindow return at j = 1..p
    out = []
    for j in range(1, pair.period + 1):
        out += [t.frac for t in window_endpoints(pair, j)]
        for arc in [*window_at(pair, j), *subwindow(pair, j).arcs]:
            out += [arc.start.frac, arc.length]
    return out


def test_coprime_fractions_behave_like_fraction():
    # _coprime sets Fraction's slots directly; _over reduces by a known or a
    # den-only gcd.  Each result must be Fraction(num, den) of its parts in
    # value, hash, order, text, pickling and arithmetic.  The window values
    # of pairs whose lo and hi have different reduced denominators are
    # reduced by a common factor other than 1.
    big = (1 << 200) + 1, 3**150
    got = [_coprime(n, d) for n, d in ((0, 1), (1, 1), (7, 1), (1, 2), (-3, 4), (5, 7), big, (-big[1], big[0]))]
    for x in (0, 1, 6, 12, -40, 3**40 << 5, -(5**30) << 70):
        for den in (1, 3, 15, 12, 2**64 * 3, 3**50):
            for e in (0, 1, 4, 70):
                got.append(_over(x, den, e))
                ref = Fraction(x, den << e)
                assert (got[-1].numerator, got[-1].denominator) == (ref.numerator, ref.denominator)
                if den % 2:
                    got.append(_over(x, den, e, math.gcd(x, den)))
    for pair in (RayPair(4, Angle(1, 5), Angle(4, 15)), RayPair(4, Angle(1, 3), Angle(2, 5)), RayPair(6, Angle(1, 63), Angle(2, 9))):
        got += _window_fractions(pair)
    want = [Fraction(f.numerator, f.denominator) for f in got]
    for f, w in zip(got, want):
        assert type(f) is Fraction
        assert (f.numerator, f.denominator) == (w.numerator, w.denominator)
        assert f == w and w == f and hash(f) == hash(w)
        assert (str(f), repr(f), float(f)) == (str(w), repr(w), float(w))
        for back in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert type(back) is Fraction and (back.numerator, back.denominator) == (w.numerator, w.denominator)
        assert (f + 1, f * 2, -f, f % 1, f / 3) == (w + 1, w * 2, -w, w % 1, w / 3)
        if w.denominator == 1:
            assert f == w.numerator and hash(f) == hash(w.numerator)
    assert len({*got}) == len({*want})
    order = sorted(range(len(got)), key=want.__getitem__)
    assert sorted(range(len(got)), key=got.__getitem__) == order
    assert all(got[i] <= got[k] and not got[k] < got[i] for i, k in zip(order, order[1:]))


def _divmod_cases():
    # (a, b) pairs whose divisor and quotient widths straddle the cutoff,
    # drawn from a fixed seed; odd and even divisor widths, at the top level
    # and one recursion down, take and skip the pad shift
    rng = random.Random(28)
    C = _DIV_CUTOFF
    widths = (C - 1, C, C + 1, C + 2, 2 * C + 1, 2 * C + 2, 2 * C + 3, 4 * C + 6)
    cases = []
    for nb in widths:
        for qb in widths + (1, 3 * C + 5, 9 * C):
            b = rng.getrandbits(nb) | 1 << (nb - 1)
            cases.append((rng.getrandbits(nb + qb), b))
    for nb in (C + 1, 2 * C + 2, 2 * C + 3):
        b = rng.getrandbits(nb) | 1 << (nb - 1)
        q = rng.getrandbits(nb + 7)
        cases += [(0, b), (b - 1, b), (b, b), (q * b, b), (q * b - 1, b), (q * b + b - 1, b), (-q * b - 5, b), (q * b + 5, -b)]
        cases += [(q, 1), (q * b, 1 << nb), (q * b + 1, 1 << nb)]
        # b = 2^n - 1: the top half of each partial remainder equals b's top
        # half, and the quotient estimate 2^h - 1 needs no division
        m = (1 << nb) - 1
        cases += [(m * m, m), (m << nb, m), ((m << nb) - 1, m), (m * q + m - 1, m), ((1 << 3 * nb) - 1, m)]
    return cases


def test_divmod_matches_builtin():
    for a, b in _divmod_cases():
        assert _divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())
    with pytest.raises(ZeroDivisionError):
        _divmod(1 << 3 * _DIV_CUTOFF, 0)


def test_divmod_recurses_exactly_when_divisor_and_quotient_are_wide(monkeypatch):
    # builtin divmod gives the same values, so the path taken is counted
    calls = []
    recurse = circle._div2n1n
    monkeypatch.setattr(circle, "_div2n1n", lambda *args: calls.append(args) or recurse(*args))
    C = _DIV_CUTOFF
    for nb, qb, wide in ((C, 3 * C, False), (3 * C, C, False), (C + 1, C + 2, True), (50, 9 * C, False)):
        calls.clear()
        a, b = (1 << (nb + qb)) - 12345, (1 << (nb - 1)) + 99
        assert _divmod(a, b) == divmod(a, b)
        assert bool(calls) == wide, (nb, qb)


def _old_mult_order_2(m):
    # the order of 2 modulo odd m stepped by (2 r) mod m, as it was computed
    # before the walk doubled by a shift and one subtraction
    if m == 1:
        return 1
    r, k = 2 % m, 1
    while r != 1:
        r, k = (2 * r) % m, k + 1
    return k


def test_mult_order_2_matches_the_division_step():
    odd = [t.denominator for comb in (feigenbaum_tower(10), rabbit_tower(5))
           for pair in comb.levels for t in (pair.lo, pair.hi)]
    for m in odd + list(range(1, 2000, 2)):
        assert _mult_order_2(m) == _old_mult_order_2(m), m
