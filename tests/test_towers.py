import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from renormray import circle, towers
from renormray.circle import HALF, Angle, Arc, ArcSet, LimitAngle, angle_from_words, double, sigma_pow
from renormray.lamination import _orbit_ints, build, orbit_chords
from renormray.towers import (
    RABBIT_PAIR,
    ComponentAddress,
    RayPair,
    Tower,
    feigenbaum_tower,
    in_shadow,
    KcShadow,
    omega_probe,
    pair_words,
    rabbit_tower,
    shadow_Kc,
    shadow_component,
    Subwindow,
    ThetaResult,
    _apart,
    subwindow,
    theta,
    tune,
    validate,
    window_at,
    window_endpoints,
    window_length,
)

from fraction_reference import (
    _ref_build,
    _ref_check,
    _ref_tune,
    _ref_in_shadow,
    _ref_kc_refiners,
    _ref_omega_probe,
    _ref_orbit_chords,
    _ref_theta,
    _ref_verify_unlinked,
    _ref_window_at,
    _ref_window_endpoints,
    _ref_subwindow,
    int_refiner,
    outcome as _outcome,
    refiner_fractions,
)


def test_feigenbaum_levels():
    t = feigenbaum_tower(3)
    assert [(p.period, str(p.lo), str(p.hi)) for p in t.levels] == [
        (2, "1/3", "2/3"),
        (4, "2/5", "3/5"),
        (8, "7/17", "10/17"),
    ]


def test_rabbit_levels():
    t = rabbit_tower(2)
    assert t.level(1).period == 3 and t.level(2).period == 9
    assert str(t.level(1).lo) == "1/7"


def test_pair_words():
    assert pair_words(RayPair(2, Angle(1, 3), Angle(2, 3))) == ("01", "10")
    assert pair_words(RayPair(3, Angle(1, 7), Angle(2, 7))) == ("001", "010")


@pytest.mark.parametrize("period", [0, -1])
def test_pair_words_rejects_period_below_one(period):
    # period 0 once gave ('0', '0') and period -1 a "negative shift count"
    with pytest.raises(ValueError) as exc:
        pair_words(RayPair(period, Angle(1, 3), Angle(2, 3)))
    assert str(exc.value) == "period must be >= 1"


def test_tune_substitutes_words():
    base = RayPair(2, Angle(1, 3), Angle(2, 3))
    # 1/3 = 0.(01): substituting 01 -> 0110 gives 0.(0110) = 2/5
    assert tune(base, Angle(1, 3)) == Angle(2, 5)
    assert tune(base, Angle(2, 3)) == Angle(3, 5)


# the characteristic pairs of period <= 4 (Lavaurs), then a mixed-denominator
# pair, a pair over two odd denominators and a pair with lo > hi
TUNE_BASES = [
    RayPair(p, Angle(k, (1 << p) - 1), Angle(l, (1 << p) - 1))
    for p, k, l in [(2, 1, 2), (3, 1, 2), (3, 3, 4), (3, 5, 6), (4, 1, 2), (4, 3, 4), (4, 6, 9), (4, 7, 8), (4, 11, 12), (4, 13, 14)]
] + [RayPair(4, Angle(1, 5), Angle(1, 3)), RayPair(6, Angle(1, 9), Angle(1, 7)), RayPair(2, Angle(2, 3), Angle(1, 3))]


def test_tune_matches_word_substitution():
    """tune() on the pair's numerators equals substituting the pair words,
    by numerator and denominator, for every reduced t with denominator < 80:
    periodic, preperiodic and 0."""
    ts = [Angle(0)] + [Angle(n, d) for d in range(2, 80) for n in range(1, d) if math.gcd(n, d) == 1]
    for base in TUNE_BASES:
        for t in ts:
            got, ref = tune(base, t), _ref_tune(base, t)
            assert (got.numerator, got.denominator) == (ref.numerator, ref.denominator), (base, t)


@pytest.mark.parametrize("base, message", [
    (RayPair(0, Angle(1, 3), Angle(2, 3)), "period must be >= 1"),
    (RayPair(-1, Angle(1, 3), Angle(2, 3)), "period must be >= 1"),
    (RayPair(2, Angle(1, 3), Angle(1, 5)), "1/5 is not periodic with period dividing 2"),
    (RayPair(4, Angle(1, 3), Angle(1, 3)), "degenerate pair"),
])
def test_tune_raises(base, message):
    with pytest.raises(ValueError) as exc:
        tune(base, Angle(1, 3))
    assert str(exc.value) == message


def test_feigenbaum_tower_closed_form():
    """Level n of the period-doubling tower is (t, 1 - t) over 2^(2^(n-1)) + 1."""
    for n, pair in enumerate(feigenbaum_tower(17).levels, start=1):
        den = (1 << (1 << (n - 1))) + 1
        assert pair.lo.denominator == pair.hi.denominator == den
        assert pair.lo.frac + pair.hi.frac == 1


def test_rabbit_tower_matches_word_substitution():
    levels = [RABBIT_PAIR]
    for d in range(1, 7):
        ints = [(p.period, t.numerator, t.denominator) for p in rabbit_tower(d).levels for t in (p.lo, p.hi)]
        assert ints == [(p.period, t.numerator, t.denominator) for p in levels for t in (p.lo, p.hi)]
        prev = levels[-1]
        levels.append(RayPair(3 * prev.period, _ref_tune(prev, RABBIT_PAIR.lo), _ref_tune(prev, RABBIT_PAIR.hi)))


def test_window_first_level():
    pair = feigenbaum_tower(1).level(1)
    comps = window_at(pair, 1).arcs
    assert [(str(a.start), str(a.end)) for a in comps] == [("1/3", "5/12"), ("7/12", "2/3")]
    _, lo1, hi1, _ = window_endpoints(pair, 1)
    assert lo1 == Angle(5, 12) and hi1 == Angle(7, 12)


def test_window_endpoint_dynamics():
    for pair in feigenbaum_tower(4).levels:
        _, lo1, hi1, _ = window_endpoints(pair, 1)
        assert sigma_pow(lo1, pair.period) == pair.hi
        assert sigma_pow(hi1, pair.period) == pair.lo


def test_window_at_length_formula():
    pair = feigenbaum_tower(3).level(3)
    for j in range(1, pair.period + 1):
        s = window_at(pair, j)
        assert all(a.length == window_length(pair, j) for a in s.arcs)
        assert window_length(pair, j) == pair.width / (1 << (pair.period - j + 1))


def test_window_shift_is_sigma_image():
    # sigma(s_{n,j}) = s_{n,j+1}, component by component
    pair = feigenbaum_tower(2).level(2)
    for j in range(1, pair.period):
        image = sorted((Arc(double(a.start), 2 * a.length) for a in window_at(pair, j)), key=lambda a: a.start)
        assert image == sorted(window_at(pair, j + 1).arcs, key=lambda a: a.start)


def test_subwindow_example():
    pair = feigenbaum_tower(1).level(1)
    sub = subwindow(pair, 2)
    got = [(str(a.start), str(a.end)) for a in sub.arcs.arcs]
    assert got == [("1/6", "5/24"), ("7/24", "1/3"), ("2/3", "17/24"), ("19/24", "5/6")]


def test_subwindow_maps_onto_windows():
    pair = feigenbaum_tower(2).level(2)
    for j in range(1, pair.period + 1):
        sub = subwindow(pair, j)
        p = pair.period
        targets = {(a.start, a.end) for a in window_at(pair, j).arcs}
        for arc in sub.labeled.values():
            img = (sigma_pow(arc.start, p), sigma_pow(arc.end, p))
            assert img in targets


def test_invalid_pair_rejected():
    bad_pairs = [
        RayPair(2, Angle(1, 5), Angle(2, 3)),  # 1/5 is not fixed by sigma^2
        RayPair(2, Angle(2, 3), Angle(1, 3)),  # swapped
        RayPair(3, Angle(1, 7), Angle(6, 7)),  # width 5/7 >= 1/2
    ]
    for bad in bad_pairs:
        for j in range(1, bad.period + 1):
            for derive in (window_endpoints, window_at, subwindow):
                with pytest.raises(ValueError):
                    derive(bad, j)


# pairs that fail check() or the width bound, or are degenerate, of period
# 0 and with even denominators; every (k/(2^p - 1), l/(2^p - 1)), p <= 5,
# valid or not; and pairs whose lo and hi have different reduced denominators
HAND_BUILT_PAIRS = [
    RayPair(2, Angle(1, 5), Angle(2, 3)),
    RayPair(2, Angle(2, 3), Angle(1, 3)),
    RayPair(3, Angle(1, 7), Angle(6, 7)),
    RayPair(2, Angle(1, 4), Angle(3, 4)),
    RayPair(3, Angle(1, 6), Angle(5, 12)),
    RayPair(4, Angle(2, 5), Angle(3, 5) + Fraction(1, 1 << 40)),
    RayPair(0, Angle(1, 3), Angle(2, 3)),
    RayPair(4, Angle(1, 5), Angle(4, 15)),
    RayPair(4, Angle(1, 3), Angle(2, 5)),
    RayPair(6, Angle(1, 63), Angle(16, 21)),
    RayPair(2, Angle(1, 6), Angle(1, 3)),
] + [
    RayPair(p, Angle(k, (1 << p) - 1), Angle(l, (1 << p) - 1))
    for p in range(2, 6) for k in range((1 << p) - 1) for l in range((1 << p) - 1)
]


def test_pair_words_read_back_as_the_pair():
    # the oracle: 0.(w) is lo exactly when w is lo's period-p word, read back
    # by angle_from_words, which shares no code with pair_words
    levels = [*feigenbaum_tower(8).levels, *rabbit_tower(4).levels]
    periodic = 0
    for pair in HAND_BUILT_PAIRS + levels:
        p = pair.period
        if p < 1 or any(((1 << p) - 1) % t.denominator for t in (pair.lo, pair.hi)):
            with pytest.raises(ValueError):
                pair_words(pair)
            continue
        w0, w1 = pair_words(pair)
        assert len(w0) == len(w1) == p
        assert angle_from_words("", w0) == pair.lo and angle_from_words("", w1) == pair.hi, pair
        periodic += 1
    # every level, five of the first eleven hand-built pairs and every pair over 2^p - 1
    assert periodic == len(levels) + 5 + sum(((1 << p) - 1) ** 2 for p in range(2, 6))


@pytest.mark.parametrize("pair, message", [
    (RayPair(2, Angle(1, 3), Angle(1, 5)), "1/5 is not periodic with period dividing 2"),
    (RayPair(2, Angle(1, 5), Angle(1, 7)), "1/5 is not periodic with period dividing 2"),
    (RayPair(4, Angle(1, 6), Angle(1, 3)), "1/6 is not periodic with period dividing 4"),
])
def test_pair_words_rejects_an_angle_sigma_p_does_not_fix(pair, message):
    # the first such angle is named, lo before hi
    with pytest.raises(ValueError) as exc:
        pair_words(pair)
    assert str(exc.value) == message


def test_pair_words_of_a_degenerate_pair():
    # tune() rejects lo == hi; the words themselves are defined
    assert pair_words(RayPair(4, Angle(1, 3), Angle(1, 3))) == ("0101", "0101")
    assert pair_words(RayPair(2, Angle(0), Angle(0))) == ("00", "00")


def _pair_queries(pair, n):
    """Each pair query as a function of the tower's levels, pair being level n."""
    p = max(pair.period, 1)
    queries = [lambda levels: levels[n - 1].check(), lambda levels: levels[n - 1].width]
    for j in range(1, p + 1):
        queries += [lambda levels, j=j, d=d: d(levels[n - 1], j) for d in (window_at, window_endpoints, subwindow)]
    for t in (pair.lo, Angle(1, 5)):
        queries += [
            lambda levels, t=t: in_shadow(t, Tower(levels), n, 1),
            lambda levels, t=t: in_shadow(t, Tower(levels), n, p),
            lambda levels, t=t: theta(Tower(levels), n, t),
        ]
    return queries


def _tower_queries(depth):
    def kc(levels, d):
        shad = shadow_Kc(Tower(levels), d)
        return shad.s, _outcome(shad.tau1.refine, 8), _outcome(shad.tau2.refine, 8)

    return [lambda levels, d=d: kc(levels, d) for d in range(1, depth + 1)] + [lambda levels: validate(Tower(levels)).to_json()]


def _fresh(levels):
    return [RayPair(pair.period, pair.lo, pair.hi) for pair in levels]


def _assert_record_keeps_results(levels, queries):
    # each query fills the record of fresh levels, reads it on a second call,
    # runs again on fresh equal levels and on the given ones (whose records
    # tuning or earlier queries may have filled); values, or exception types
    # and texts, agree, and an unreduced Fraction shows
    for query in queries:
        first = _fresh(levels)
        runs = [_parts(_outcome(query, lv)) for lv in (first, first, _fresh(levels), levels)]
        assert runs[0] == runs[1] == runs[2] == runs[3], (levels, runs[0])


def test_record_keeps_tower_results():
    for comb in (feigenbaum_tower(8), rabbit_tower(4)):
        levels = list(comb.levels)
        queries = [q for n, pair in enumerate(levels, start=1) for q in _pair_queries(pair, n)]
        _assert_record_keeps_results(levels, queries)
        for depth in range(1, comb.depth + 1):
            _assert_record_keeps_results(levels[:depth], _tower_queries(depth))


def test_record_keeps_hand_built_results():
    for pair in HAND_BUILT_PAIRS:
        _assert_record_keeps_results([pair], _pair_queries(pair, 1) + _tower_queries(1))
    # the two-level hand-built tower of the lamination tests
    levels = [RayPair(2, Angle(1, 3), Angle(2, 3)), RayPair(2, Angle(1, 6), Angle(1, 3))]
    queries = [q for n, pair in enumerate(levels, start=1) for q in _pair_queries(pair, n)]
    _assert_record_keeps_results(levels, queries + _tower_queries(2))


def test_check_returns_a_copy_of_the_record():
    pair = RayPair(2, Angle(1, 5), Angle(2, 3))
    problems = pair.check()
    assert problems == ["sigma^2(1/5) = 4/5 != 1/5"]
    problems.append("edited")
    problems.clear()
    assert pair.check() == ["sigma^2(1/5) = 4/5 != 1/5"]


def test_record_is_not_a_field():
    assert [f.name for f in dataclasses.fields(RayPair)] == ["period", "lo", "hi"]
    filled, bare = feigenbaum_tower(3).level(2), RayPair(4, Angle(2, 5), Angle(3, 5))
    window_at(filled, 1)
    assert set(vars(filled)) == {"period", "lo", "hi", "_record", "_width_gcd"}
    assert set(vars(bare)) == {"period", "lo", "hi"}
    # perfbench's digests hash pairs and their reprs
    assert filled == bare and hash(filled) == hash(bare) and repr(filled) == repr(bare)


def test_record_runs_each_check_once(monkeypatch):
    # the first window query pays 2^p mod den and gcd(b - a, den); later
    # window, width and check queries on the pair read them from its record
    level = feigenbaum_tower(6).level(6)
    pair = RayPair(level.period, level.lo, level.hi)
    width = level.hi.frac - level.lo.frac
    calls = {"gcd": 0, "pow": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(math, "gcd", counting("gcd", math.gcd))
    monkeypatch.setattr(towers, "pow", counting("pow", pow), raising=False)
    window_at(pair, 1)
    assert calls == {"gcd": 1, "pow": 1}
    for j in (1, 2, 64):
        window_at(pair, j)
        subwindow(pair, j)
        window_endpoints(pair, j)
    assert (pair.check(), pair.width) == ([], width)
    assert calls == {"gcd": 1, "pow": 1}


def test_shadow_examples():
    comb = feigenbaum_tower(2)
    assert in_shadow(Angle(1, 3), comb, 1, 1)
    assert in_shadow(Angle(2, 5), comb, 1, 1)
    assert not in_shadow(Angle(1, 7), comb, 1, 1)


def test_shadow_orbit_must_stay():
    comb = feigenbaum_tower(1)
    # 5/12 is in the window but its sigma^2 image 2/3... stays; 1/12 maps out
    assert not in_shadow(Angle(1, 12), comb, 1, 1)


def test_theta_examples():
    comb = feigenbaum_tower(2)
    assert theta(comb, 1, Angle(2, 3)).value == Angle(0)
    assert theta(comb, 1, Angle(4, 5)).value == Angle(1, 3)
    assert theta(comb, 1, Angle(1, 5)).value == Angle(2, 3)
    res = theta(comb, 1, Angle(1, 3))
    assert res.value == Angle(0) and res.boundary_collapse


@pytest.mark.parametrize(
    "tower, n",
    [(feigenbaum_tower, n) for n in (1, 2, 3)] + [(rabbit_tower, n) for n in (1, 2)],
    ids=["F1", "F2", "F3", "R1", "R2"],
)
def test_theta_tie_break_at_window_endpoints(tower, n):
    # the four endpoints of s_{n,p} read eps = 0 and are flagged; without the
    # tie-break t'_p and t~'_p would read 1/2
    comb = tower(n)
    pair = comb.level(n)
    for t in window_endpoints(pair, pair.period):
        res = theta(comb, n, t)
        assert (res.value, res.boundary_collapse) == (Angle(0), True)


def test_theta_precondition():
    comb = feigenbaum_tower(1)
    with pytest.raises(ValueError):
        theta(comb, 1, Angle(1, 7))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_theta_semiconjugacy_property(a, b):
    comb = feigenbaum_tower(1)
    den = 2 * b + 1
    u = Angle(a % den, den)
    pair = comb.level(1)
    t = sigma_pow(tune(pair, u), pair.period - 1)
    if not in_shadow(t, comb, 1, pair.period):
        return
    lhs = theta(comb, 1, sigma_pow(t, pair.period)).value
    assert lhs == double(theta(comb, 1, t).value)


def test_shadow_kc_limits():
    comb = feigenbaum_tower(8)
    shad = shadow_Kc(comb, 1)
    bits = format(shad.tau1.prefix_bits(8), "08b")
    assert bits == "01101001"  # Thue-Morse prefix
    assert shad.tau1.refine(8) + shad.tau2.refine(8) in (Angle(0), Angle(1, 256), Angle(255, 256))


def test_shadow_kc_rejects_growing_windows():
    # rabbit level over basilica level: window components 1/56, then 1/12
    comb = Tower((RayPair(3, Angle(1, 7), Angle(2, 7)), RayPair(2, Angle(1, 3), Angle(2, 3))))
    with pytest.raises(ValueError, match="do not shrink"):
        shadow_Kc(comb, 1)


def test_component_shadow_critical():
    comb = feigenbaum_tower(3)
    addr = ComponentAddress.critical(comb, 3)
    shad = shadow_component(comb, addr, 3)
    assert len(shad.components.arcs) <= 4
    assert sum(a.length for a in shad.components.arcs) > 0
    assert shad.classification == "case2(0)"


def _arcs(s):
    return [(str(a.start), str(a.length)) for a in s]


@pytest.mark.parametrize(
    "n, components, windows",
    [
        (2, [("2/5", "1/1280"), ("527/1280", "1/1280"), ("47/80", "1/1280"), ("767/1280", "1/1280")],
         [("2/5", "1/80"), ("47/80", "1/80")]),
        (3, [("7/17", "3/1114112"), ("459517/1114112", "3/1114112"), ("2557/4352", "3/1114112"),
             ("655357/1114112", "3/1114112")],
         [("7/17", "3/4352"), ("2557/4352", "3/4352")]),
        (4, [("106/257", "45/1103806595072"), ("455269482451/1103806595072", "45/1103806595072"),
             ("9895891/16842752", "45/1103806595072"), ("648540061651/1103806595072", "45/1103806595072")],
         [("106/257", "45/16842752"), ("9895891/16842752", "45/16842752")]),
    ],
)
def test_component_shadow_window_intersection_is_pinned(n, components, windows):
    # j_n = 1 at every level: p_n - j_n varies, so the window intersection is
    # returned too; values recorded with the ArcSet-built sub-windows
    shad = shadow_component(feigenbaum_tower(4), ComponentAddress.constant(1, n), n)
    assert shad.classification == "undetermined/case1-so-far"
    assert _arcs(shad.components) == components
    assert _arcs(shad.window_intersection) == windows


def test_component_address_compatibility():
    with pytest.raises(ValueError):
        ComponentAddress((1, 2)).check_compatible(feigenbaum_tower(2), 2)


def test_omega_probe_rational_source():
    # source 1/3 = 0.(01); target 2/3 = 0.(10) is hit after one shift
    hits = omega_probe(Angle(1, 3), [Angle(2, 3)], horizon=8, bits=6)
    assert hits[0][1] == 1


def test_omega_probe_no_hit_reported_as_none():
    hits = omega_probe(Angle(0), [Angle(1, 2)], horizon=10, bits=6)
    assert hits[0][1] is None


def _omega_oracle(source, targets, horizon, bits):
    # the Fraction formula: dist(w / 2^win, target) < 2^-bits on each win-bit window
    win = bits + 4
    total = horizon + win
    sbits = format(source.prefix_bits(total), f"0{total}b")
    out = []
    for target in targets:
        hit = None
        for k in range(1, horizon + 1):
            d = (Fraction(int(sbits[k:k + win], 2), 1 << win) - target.frac) % 1
            if min(d, 1 - d) < Fraction(1, 1 << bits):
                hit = k
                break
        out.append((target, hit))
    return out


@pytest.mark.parametrize("bits", [2, 3, 8, 12])
def test_omega_probe_matches_fraction_oracle(bits):
    sources = [
        shadow_Kc(feigenbaum_tower(10), 1).tau1,
        LimitAngle.from_angle(Angle(1, 3)),
        LimitAngle.from_angle(Angle(0)),
        LimitAngle.from_angle(Angle(5, 7)),
    ]
    horizon = 40
    for src in sources:
        # a target exactly 2^-bits above the first window: strict < means no hit there
        w1 = Fraction(src.prefix_bits(1 + bits + 4) % (1 << (bits + 4)), 1 << (bits + 4))
        edge = Angle(w1 + Fraction(1, 1 << bits))
        targets = [Angle(0), Angle(1023, 1024), Angle(1, 3), Angle(5, 7), Angle(3, 8), edge]
        hits = omega_probe(src, targets, horizon, bits)
        assert hits == _omega_oracle(src, targets, horizon, bits)
        edge_hit = hits[-1][1]
        assert edge_hit is None or edge_hit > 1


def test_validate_passes_stock_towers():
    assert validate(feigenbaum_tower(4)).passed
    assert validate(rabbit_tower(3)).passed


def test_validate_flags_bad_tower():
    bad = Tower((RayPair(2, Angle(1, 3), Angle(2, 3)), RayPair(4, Angle(1, 5), Angle(2, 5))))
    report = validate(bad)
    assert not report.passed
    assert any(e.check in ("nesting_S", "nesting_s") for e in report.failures())


def test_validate_flags_nonperiodic_pair():
    bad = Tower((RayPair(2, Angle(1, 5), Angle(2, 3)),))
    report = validate(bad)
    assert any(e.check == "pair_periodic" and not e.passed for e in report.entries)


SPLICED_REPORT = [
    {"check": "pair_periodic", "level": 1, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 1, "pass": True, "witness": "width 1/3"},
    {"check": "pair_periodic", "level": 2, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 2, "pass": True, "witness": "width 1/7"},
    {"check": "period_divisibility", "level": 2, "pass": False, "witness": "3 over 2"},
    {"check": "nesting_S", "level": 2, "pass": False, "witness": "[1/7,2/7] in [1/3,2/3]"},
    {"check": "nesting_s", "level": 2, "pass": False, "witness": "s_{n+1,1} in s_{n,1}"},
    {"check": "orbit_exclusion", "level": 1, "pass": True, "witness": ""},
    {"check": "unlinked_chords", "level": 1, "pass": True, "witness": ""},
    {"check": "min_length_2inf", "level": 1, "pass": True, "witness": ""},
    {"check": "orbit_exclusion", "level": 2, "pass": True, "witness": ""},
    {"check": "unlinked_chords", "level": 2, "pass": True, "witness": ""},
    {"check": "min_length_2inf", "level": 2, "pass": True, "witness": ""},
    {
        "check": "unlinked_across_levels",
        "level": 0,
        "pass": False,
        "witness": "Chord(1/3, 2/3) x Chord(2/7, 4/7); Chord(1/3, 2/3) x Chord(1/7, 4/7)",
    },
]

SELF_LINKED_WITNESS = "Chord(1/15, 1/5) x Chord(2/15, 2/5); Chord(2/15, 2/5) x Chord(4/15, 4/5)"
SELF_LINKED_REPORT = [
    {"check": "pair_periodic", "level": 1, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 1, "pass": True, "witness": "width 2/15"},
    {"check": "orbit_exclusion", "level": 1, "pass": False, "witness": "sigma^1 hits 2/15"},
    {"check": "unlinked_chords", "level": 1, "pass": False, "witness": SELF_LINKED_WITNESS},
    {
        "check": "min_length_2inf",
        "level": 1,
        "pass": False,
        "witness": "k=1: no arc avoids S_n interior; k=3: avoiding arc shorter than S_n",
    },
    {"check": "unlinked_across_levels", "level": 0, "pass": False, "witness": SELF_LINKED_WITNESS},
]


# width 5/7: pair_width fails, and min_length_2inf still runs with S_n longer than 1/2
WIDE_REPORT = [
    {"check": "pair_periodic", "level": 1, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 1, "pass": False, "witness": "width 5/7"},
    {
        "check": "orbit_exclusion",
        "level": 1,
        "pass": False,
        "witness": "sigma^1 hits 2/7; sigma^1 hits 5/7; sigma^2 hits 4/7; sigma^2 hits 3/7",
    },
    {"check": "unlinked_chords", "level": 1, "pass": True, "witness": ""},
    {
        "check": "min_length_2inf",
        "level": 1,
        "pass": False,
        "witness": "k=1: no arc avoids S_n interior; k=2: no arc avoids S_n interior",
    },
    {"check": "unlinked_across_levels", "level": 0, "pass": True, "witness": ""},
]

SHORT_AVOIDING_WITNESS = "Chord(1/15, 7/15) x Chord(2/15, 14/15); Chord(1/15, 7/15) x Chord(4/15, 13/15)"
SHORT_AVOIDING_REPORT = [
    {"check": "pair_periodic", "level": 1, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 1, "pass": True, "witness": "width 2/5"},
    {"check": "orbit_exclusion", "level": 1, "pass": False, "witness": "sigma^1 hits 2/15; sigma^2 hits 4/15"},
    {"check": "unlinked_chords", "level": 1, "pass": False, "witness": SHORT_AVOIDING_WITNESS},
    {
        "check": "min_length_2inf",
        "level": 1,
        "pass": False,
        "witness": "k=1: no arc avoids S_n interior; k=2: no arc avoids S_n interior; "
        "k=3: avoiding arc shorter than S_n",
    },
    {"check": "unlinked_across_levels", "level": 0, "pass": False, "witness": SHORT_AVOIDING_WITNESS},
]


# level 2 is periodic but 13/15 wide, so its window cannot be built and
# nesting_s fails without a witness
WIDE_INNER_REPORT = [
    {"check": "pair_periodic", "level": 1, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 1, "pass": True, "witness": "width 1/3"},
    {"check": "pair_periodic", "level": 2, "pass": True, "witness": ""},
    {"check": "pair_width", "level": 2, "pass": False, "witness": "width 13/15"},
    {"check": "period_divisibility", "level": 2, "pass": True, "witness": "4 over 2"},
    {"check": "nesting_S", "level": 2, "pass": False, "witness": "[1/15,14/15] in [1/3,2/3]"},
    {"check": "nesting_s", "level": 2, "pass": False, "witness": "s_{n+1,1} in s_{n,1}"},
    {"check": "orbit_exclusion", "level": 1, "pass": True, "witness": ""},
    {"check": "unlinked_chords", "level": 1, "pass": True, "witness": ""},
    {"check": "min_length_2inf", "level": 1, "pass": True, "witness": ""},
    {
        "check": "orbit_exclusion",
        "level": 2,
        "pass": False,
        "witness": "sigma^1 hits 2/15; sigma^1 hits 13/15; sigma^2 hits 4/15; sigma^2 hits 11/15; "
        "sigma^3 hits 8/15; sigma^3 hits 7/15",
    },
    {"check": "unlinked_chords", "level": 2, "pass": True, "witness": ""},
    {
        "check": "min_length_2inf",
        "level": 2,
        "pass": False,
        "witness": "k=1: no arc avoids S_n interior; k=2: no arc avoids S_n interior; "
        "k=3: no arc avoids S_n interior",
    },
    {"check": "unlinked_across_levels", "level": 0, "pass": True, "witness": ""},
]


@pytest.mark.parametrize(
    "levels, expected",
    [
        ((RayPair(2, Angle(1, 3), Angle(2, 3)), RayPair(3, Angle(1, 7), Angle(2, 7))), SPLICED_REPORT),
        ((RayPair(2, Angle(1, 3), Angle(2, 3)), RayPair(4, Angle(1, 15), Angle(14, 15))), WIDE_INNER_REPORT),
        ((RayPair(4, Angle(1, 15), Angle(3, 15)),), SELF_LINKED_REPORT),
        ((RayPair(3, Angle(1, 7), Angle(6, 7)),), WIDE_REPORT),
        ((RayPair(4, Angle(1, 15), Angle(7, 15)),), SHORT_AVOIDING_REPORT),
    ],
    ids=["spliced", "wide_inner", "self_linked", "wide", "short_avoiding"],
)
def test_validate_report_is_pinned(levels, expected):
    # the full report: every check, its order, and the witnesses with their order
    assert validate(Tower(levels)).to_json() == expected


def _ref_validate(comb):
    entries = []

    def overlaps(x, y):
        # x and y share a sub-arc of positive length
        if x.length == 0 or y.length == 0:
            return False
        d = (y.start.frac - x.start.frac) % 1
        return d < x.length or d + y.length > 1

    def add(check, level, passed, witness=""):
        entries.append({"check": check, "level": level, "pass": passed, "witness": witness})

    pair_ok = []
    for n, pair in enumerate(comb.levels, start=1):
        problems = _ref_check(pair)
        pair_ok.append(not problems)
        add("pair_periodic", n, not problems, "; ".join(problems))
        if not problems:
            add("pair_width", n, pair.width < HALF, f"width {pair.width}")
    for n in range(1, comb.depth):
        a, b = comb.level(n), comb.level(n + 1)
        add("period_divisibility", n + 1, b.period % a.period == 0 and b.period >= 2 * a.period,
            f"{b.period} over {a.period}")
        if not (pair_ok[n - 1] and pair_ok[n]):
            continue
        add("nesting_S", n + 1, a.lo <= b.lo and b.hi <= a.hi and b.lo < b.hi, f"[{b.lo},{b.hi}] in [{a.lo},{a.hi}]")
        try:
            nest_small = _ref_window_at(b, 1).is_subset_of(_ref_window_at(a, 1))
        except ValueError:
            nest_small = False
        add("nesting_s", n + 1, nest_small, "s_{n+1,1} in s_{n,1}")
    all_chords = []
    for n, pair in enumerate(comb.levels, start=1):
        if not pair_ok[n - 1]:
            continue
        interior = Arc(pair.lo, pair.width)
        hits, short = [], []
        a, b = pair.lo, pair.hi
        # sigma^m returns the pair first at m | p; when m < p, each residue of
        # k mod m is named once, at its first k = 1..m
        m = next(k for k in range(1, pair.period + 1) if (sigma_pow(a, k), sigma_pow(b, k)) == (a, b))
        for k in range(1, min(pair.period, m + 1)):
            a, b = double(a), double(b)
            where = f"k={k}" if m == pair.period else f"k = {k % m} mod {m}"
            inside = [x for x in (a, b) if 0 < (x.frac - pair.lo.frac) % 1 < pair.width]
            hits += [f"sigma^{k} hits {x}" if m == pair.period else f"sigma^k hits {x} for {where}" for x in inside]
            arcs = [Arc(a, (b.frac - a.frac) % 1), Arc(b, (a.frac - b.frac) % 1)]
            disjoint = [arc for arc in arcs if not overlaps(arc, interior)]
            if not disjoint:
                short.append(f"{where}: no arc avoids S_n interior")
            elif any(arc.length < pair.width for arc in disjoint):
                short.append(f"{where}: avoiding arc shorter than S_n")
        add("orbit_exclusion", n, not hits, "; ".join(hits))
        chords = _ref_orbit_chords(pair)
        all_chords += chords
        witnesses = _ref_verify_unlinked(chords)["witnesses"]
        add("unlinked_chords", n, not witnesses, "; ".join(f"{c} x {d}" for c, d in witnesses))
        add("min_length_2inf", n, not short, "; ".join(short))
    if all(pair_ok):
        witnesses = _ref_verify_unlinked(all_chords)["witnesses"]
        add("unlinked_across_levels", 0, not witnesses, "; ".join(f"{c} x {d}" for c, d in witnesses[:5]))
    return entries


def _assert_windows_match(pair, js):
    assert pair.check() == _ref_check(pair)
    for j in js:
        assert _outcome(window_endpoints, pair, j) == _outcome(_ref_window_endpoints, pair, j)
        assert _outcome(window_at, pair, j) == _outcome(_ref_window_at, pair, j)
        got = _outcome(subwindow, pair, j)
        if isinstance(got, Subwindow):
            got = got.arcs, got.labeled
        assert got == _outcome(_ref_subwindow, pair, j)


STOCK_TOWERS = [(feigenbaum_tower, d) for d in range(1, 11)] + [(rabbit_tower, d) for d in range(1, 6)]
STOCK_IDS = [f"F{d}" for d in range(1, 11)] + [f"R{d}" for d in range(1, 6)]


@pytest.mark.parametrize("tower, depth", STOCK_TOWERS, ids=STOCK_IDS)
def test_windows_match_fraction_reference_on_stock_towers(tower, depth):
    comb = tower(depth)
    pair = comb.level(depth)
    p = pair.period
    _assert_windows_match(pair, sorted(set(range(1, min(p, 64) + 1)) | {1, 2, p}))
    assert validate(comb).to_json() == _ref_validate(comb)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_windows_match_fraction_reference_on_single_pairs(p):
    # every pair (k/(2^p - 1), l/(2^p - 1)), valid or not, at j in {1, 2, p}
    # and just outside 1..p
    m = (1 << p) - 1
    for k in range(m):
        for l in range(m):
            pair = RayPair(p, Angle(k, m), Angle(l, m))
            _assert_windows_match(pair, (0, 1, 2, p, p + 1))
            assert validate(Tower((pair,))).to_json() == _ref_validate(Tower((pair,)))


def _broken_towers():
    # a swapped, a perturbed and a spliced-in level at each of levels 2..4 of F4
    base = list(feigenbaum_tower(4).levels)
    for k in (2, 3, 4):
        pair = base[k - 1]
        for bad in (
            RayPair(pair.period, pair.hi, pair.lo),
            RayPair(pair.period, pair.lo, pair.hi + Fraction(1, 1 << 40)),
            RayPair(3, Angle(1, 7), Angle(2, 7)),
        ):
            yield Tower(tuple(base[: k - 1] + [bad] + base[k:]))


def test_validate_matches_fraction_reference_on_broken_towers():
    for comb in _broken_towers():
        report = validate(comb)
        assert not report.passed
        assert report.to_json() == _ref_validate(comb)
        for j in (1, 2):
            pair = comb.level(comb.depth)
            assert _outcome(window_at, pair, j) == _outcome(_ref_window_at, pair, j)


@pytest.mark.parametrize("swap", [False, True], ids=["as_given", "swapped"])
def test_validate_witnesses_over_the_tower_lcm(swap):
    # (1/15, 4/15) is periodic but not a renormalization pair; its orbit
    # checks fail over N = lcm(15, 17) = 255, not over its own 15, and the
    # cross-level scan runs on both levels
    levels = (RayPair(4, Angle(1, 15), Angle(4, 15)), RayPair(8, Angle(7, 17), Angle(10, 17)))
    comb = Tower(levels[::-1] if swap else levels)
    report = validate(comb).to_json()
    assert report == _ref_validate(comb)
    n = 2 if swap else 1
    failed = {(e["check"], e["level"]) for e in report if not e["pass"]}
    assert {("orbit_exclusion", n), ("unlinked_chords", n), ("min_length_2inf", n), ("unlinked_across_levels", 0)} <= failed
    exclusion = next(e for e in report if e["check"] == "orbit_exclusion" and e["level"] == n)
    assert exclusion["witness"] == "sigma^1 hits 2/15; sigma^3 hits 2/15"


# pairs whose period is a multiple of their own: the walks return after
# their own period m and repeat; (1/15, 4/15) has orbit witnesses, and the
# wide (1/5, 4/5) reports its avoiding arc at k = m, the residue 0
REPEATING_PAIRS = [(8, "1/15", "4/15"), (12, "1/15", "4/15"), (8, "1/5", "4/5"), (4, "1/3", "2/3"),
                   (6, "1/7", "2/7"), (8, "2/5", "3/5"), (9, "1/7", "6/7")]


@pytest.mark.parametrize("period, lo, hi", REPEATING_PAIRS, ids=[f"{p}-{lo}-{hi}" for p, lo, hi in REPEATING_PAIRS])
def test_walks_of_a_multiple_period_match_fraction_reference(period, lo, hi):
    pair = RayPair(period, Angle.parse(lo), Angle.parse(hi))
    towers = [Tower((pair,)), Tower((feigenbaum_tower(1).level(1), pair))]
    for comb in towers:
        assert validate(comb).to_json() == _ref_validate(comb)
        for pre in range(3):
            assert _outcome(build, comb, comb.depth, pre) == _outcome(_ref_build, comb, comb.depth, pre)
    assert orbit_chords(pair) == _ref_orbit_chords(pair)


def test_validate_of_a_huge_period_is_that_of_its_own_period():
    # sigma^2 returns (1/3, 2/3), so a period of 10^12 walks two steps
    huge, own = (RayPair(p, Angle(1, 3), Angle(2, 3)) for p in (10**12, 2))
    assert list(itertools.islice(_orbit_ints(huge, 3), 3)) == [(1, 2), (2, 1)]
    assert validate(Tower((huge,))).to_json() == validate(Tower((own,))).to_json()
    assert build(Tower((huge,)), 1, 2) == build(Tower((own,)), 1, 2)
    assert orbit_chords(huge) == orbit_chords(own)


def _witness(report, check):
    return next(e["witness"] for e in report if e["check"] == check)


def test_validate_names_each_residue_of_a_returning_walk_once():
    # sigma^4 returns (1/15, 4/15): at period 8 and 10^12 each witness of
    # period 4 is named once for its residue of k mod 4, and not per k
    own, twice, huge = (validate(Tower((RayPair(p, Angle(1, 15), Angle(4, 15)),))).to_json() for p in (4, 8, 10**12))
    assert _witness(own, "orbit_exclusion") == "sigma^1 hits 2/15; sigma^3 hits 2/15"
    assert _witness(twice, "orbit_exclusion") == "sigma^k hits 2/15 for k = 1 mod 4; sigma^k hits 2/15 for k = 3 mod 4"
    assert _witness(twice, "min_length_2inf") == (
        "k = 1 mod 4: no arc avoids S_n interior; k = 3 mod 4: no arc avoids S_n interior")
    assert huge == twice
    angles = [w.split(" for ")[0].split(" hits ")[1] for w in _witness(twice, "orbit_exclusion").split("; ")]
    assert angles == [w.split(" hits ")[1] for w in _witness(own, "orbit_exclusion").split("; ")]
    assert all(e["witness"].isascii() for e in twice)
    # only the report of a walk shorter than the period changes form
    assert [e for e in own if e["check"] not in ("orbit_exclusion", "min_length_2inf")] == [
        e for e in twice if e["check"] not in ("orbit_exclusion", "min_length_2inf")]


def test_validate_names_residue_zero_of_a_returning_walk():
    # sigma^4 returns the wide (1/5, 4/5), whose own chord has an avoiding
    # arc shorter than S_n: at period 8 residue 0 is named last, for k = 4
    report = validate(Tower((RayPair(8, Angle(1, 5), Angle(4, 5)),))).to_json()
    assert _witness(report, "min_length_2inf") == (
        "k = 1 mod 4: no arc avoids S_n interior; k = 2 mod 4: avoiding arc shorter than S_n; "
        "k = 3 mod 4: no arc avoids S_n interior; k = 0 mod 4: avoiding arc shorter than S_n")


def _parts(value):
    """Every Fraction in a window value as (numerator, denominator), so that an unreduced one shows."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, Angle):
        return _parts(value.frac)
    if isinstance(value, Arc):
        return _parts(value.start), _parts(value.length)
    if isinstance(value, Subwindow):
        return _parts((value.arcs, value.labeled))
    if isinstance(value, (ArcSet, tuple)):
        return tuple(_parts(v) for v in value)
    if isinstance(value, dict):
        return {k: _parts(v) for k, v in value.items()}
    return value


def _exact_period_pairs(max_p):
    # every pair k/(2^p - 1) < l/(2^p - 1), p <= max_p, that passes
    # RayPair.check and has width < 1/2
    for p in range(2, max_p + 1):
        m = (1 << p) - 1
        for k in range(1, m):
            for l in range(k + 1, m):
                pair = RayPair(p, Angle(k, m), Angle(l, m))
                if not pair.check() and pair.width < HALF:
                    yield pair


def test_window_fractions_match_fraction_reference_by_parts():
    # window and sub-window starts share gcd(a, den) with den and t', t~
    # share gcd(b, den); these differ from 1 only where lo and hi have
    # different reduced denominators
    mixed = 0
    for pair in _exact_period_pairs(6):
        mixed += pair.lo.denominator != pair.hi.denominator
        for j in sorted({1, 2, pair.period}):
            for derive, ref in (
                (window_endpoints, _ref_window_endpoints),
                (window_at, _ref_window_at),
                (subwindow, _ref_subwindow),
            ):
                assert _parts(_outcome(derive, pair, j)) == _parts(_outcome(ref, pair, j)), (pair, j, derive)
    assert mixed == 934


def _kc_towers():
    # a lower level with even denominators, swapped, moved off its period
    # (denominator 3 * 2^40) or of the wrong period, under a valid top level
    # whose lo and hi have different reduced denominators (1/5 and 4/15), or
    # under F2's level 2; and an invalid top level
    mixed, f2 = RayPair(4, Angle(1, 5), Angle(4, 15)), feigenbaum_tower(2).level(2)
    for low in (
        RayPair(2, Angle(1, 4), Angle(3, 4)),
        RayPair(2, Angle(2, 3), Angle(1, 3)),
        RayPair(2, Angle(1, 3), Angle(2, 3) + Fraction(1, 1 << 40)),
        RayPair(3, Angle(1, 3), Angle(2, 3)),
    ):
        for top in (mixed, f2):
            yield Tower((low, top))
    yield Tower((feigenbaum_tower(1).level(1), RayPair(4, Angle(1, 4), Angle(3, 8))))


def test_kc_shadow_with_invalid_lower_level_matches_fraction_reference():
    # the refiners read levels that no call validates; their unreduced
    # integers are compared as the Fractions they stand for
    refined = 0
    for comb in _kc_towers():
        left, right = _ref_kc_refiners(comb)
        for depth in range(1, comb.depth + 1):
            shad = _outcome(shadow_Kc, comb, depth)
            if not isinstance(shad, KcShadow):
                continue
            refined += 1
            assert _parts(shad.s) == _parts(_ref_window_at(comb.level(depth), 1))
            for got, ref in ((shad.tau1, left), (shad.tau2, right)):
                assert [_parts(refiner_fractions(got.refiner(m))) for m in range(1, comb.depth + 1)] == [
                    _parts(ref(m)) for m in range(1, comb.depth + 1)
                ]
                for bits in (1, 3, 5, 8):
                    want = _outcome(LimitAngle(int_refiner(ref), comb.depth).refine, bits)
                    assert _parts(_outcome(got.refine, bits)) == _parts(want)
    assert refined >= 6


def _hex(q):
    # hex digits are not subject to the 4300-digit limit on decimal str(int)
    return f"{q.numerator:x}/{q.denominator:x}"


def test_deep_kc_shadow_is_pinned():
    # depth 17: 65,537-bit pair denominators; digest recorded with the
    # Fraction derivation of the windows
    shad = shadow_Kc(feigenbaum_tower(17), 17)
    parts = [f"{_hex(a.start.frac)}+{_hex(a.length)}" for a in shad.s]
    parts += [_hex(shad.tau1.refine(64).frac), _hex(shad.tau2.refine(64).frac)]
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16] == "c64f09d7e26a8077"


def _pinned_shadow_lines(comb, name):
    # in_shadow at j in {1, 2, p} and theta's value and flag, or the text of
    # the ValueError raised, for every level of the tower.  The ends of the
    # four arcs of s^1_{n,p} are the endpoints of s_{n,p} and four points
    # that sigma^p maps onto them: there the tie-break shows in theta's value
    angles = sorted({Angle(k, (1 << q) - 1) for q in range(1, 8) for k in range((1 << q) - 1)}, key=lambda a: a.frac)
    for n, pair in enumerate(comb.levels, start=1):
        p = pair.period
        ends = [x for arc in subwindow(pair, p).arcs for x in (arc.start, arc.end)]
        assert set(window_endpoints(pair, p)) <= set(ends)
        for t in angles + ends:
            for j in sorted({1, 2, p}):
                yield f"{name} n={n} t={t} j={j} {_outcome(in_shadow, t, comb, n, j)}"
            res = _outcome(theta, comb, n, t)
            if isinstance(res, ThetaResult):
                res = res.value, res.boundary_collapse
            yield f"{name} n={n} t={t} theta {res}"


def test_shadow_and_theta_are_pinned():
    # every k/(2^q - 1) with q <= 7 and the ends of the arcs of s^1_{n,p};
    # digest recorded before in_shadow and theta shared one orbit walk
    lines = [*_pinned_shadow_lines(feigenbaum_tower(4), "F"), *_pinned_shadow_lines(rabbit_tower(3), "R")]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "33a254a594971695"


def test_window_algebra_check_fails_on_a_wrong_delta(monkeypatch):
    from renormray import selftest

    monkeypatch.setattr(selftest, "window_length", lambda pair, j: 2 * window_length(pair, j))
    check = selftest.check_window_algebra()
    assert not check.passed and "Delta differs from the arcs" in check.detail


def test_shadow_consistency_check_reports_in_shadow_error(monkeypatch):
    # a full-circle s_{n,1} (one span of length 1 over 1) admits every orbit,
    # so the two criteria disagree
    from renormray import selftest, towers

    monkeypatch.setattr(towers, "_window_at", lambda win: (1, 1, (0,), 1))
    check = selftest.check_shadow_consistency()
    assert not check.passed and "shadow criteria disagree" in check.detail


@pytest.mark.parametrize("depth, digest", [(11, "55fedc55fb2194f7"), (12, "e444e28a8789b857")])
def test_validate_is_pinned_on_deep_feigenbaum(depth, digest):
    # the cross-level sweep at 2047 and 4095 chords; digests recorded with the
    # Fraction walks, which take seconds here (F1..F10 run _ref_validate live)
    report = validate(feigenbaum_tower(depth)).to_json()
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()[:16] == digest


def _with_digit_limit(digits, fn):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_validate_texts_pass_the_int_str_digit_limit():
    # F13's passing pair_width and nesting_S texts, a failing pair's witness,
    # the tower's JSON and the reprs of its last pair and windows hold
    # integers of more than 640 digits
    comb = feigenbaum_tower(13)
    last = comb.levels[-1]
    swapped = Tower(comb.levels[:-1] + (RayPair(last.period, last.hi, last.lo),))

    def texts():
        reports = [json.dumps(validate(t).to_json(), sort_keys=True) for t in (comb, swapped)]
        return reports + [json.dumps(comb.to_json()), repr(last), repr(window_at(last, 1).arcs)]

    got = _with_digit_limit(640, texts)
    assert got == _with_digit_limit(0, texts)
    # the digest of F13's report, recorded with the limit lifted
    assert hashlib.sha256(got[0].encode()).hexdigest()[:16] == "4005bb277b6c5379"
    assert all(e["pass"] for e in json.loads(got[0]))
    assert [(e["check"], e["level"]) for e in json.loads(got[1]) if not e["pass"]] == [("pair_periodic", 13)]


@st.composite
def equal_length_arcs(draw):
    # starts over L, mostly one length plus a gap of -1 (meeting), 0
    # (touching) or 1 (apart) from the last, and a first arc that may end
    # exactly at 0 so that the next one touches it across 0
    L = draw(st.one_of(st.integers(2, 64), st.integers((1 << 64) + 1, 1 << 200)))
    length = draw(st.integers(1, max(1, L // 3)))
    x = draw(st.one_of(st.just(L - length), st.integers(0, L - 1)))
    starts = []
    for gap in draw(st.lists(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(0, L)), max_size=5)):
        starts.append(x % L)
        x += length + gap
    return L, length, starts


@settings(max_examples=300, deadline=None)
@given(equal_length_arcs())
def test_apart_counts_arcset_components(case):
    # _apart stands in for len(ArcSet(arcs)) == len(arcs) on the window paths
    L, length, starts = case
    arcs = [Arc(Angle(x, L), Fraction(length, L)) for x in starts]
    assert _apart(starts, length, L) == (len(ArcSet(arcs)) == len(arcs))


def _subwindow_verdict(win, p):
    """_subwindow()'s checks as first written: each arc's start and end are tested apart."""
    den, D, (t, t1, tt1, tt), dj = win
    E, host_len = D << p, dj << p
    starts = (t << p, ((t1 << p) - dj) % E, tt1 << p, ((tt << p) - dj) % E)
    for x, target in zip(starts, (t, tt1, t, tt1)):
        if x % D != target or (x + dj) % D != (target + dj) % D:
            return "sub-window endpoint check failed"
    for x in starts:
        host = t if (x - (t << p)) % E <= host_len else tt1
        if not ((x - (host << p)) % E <= host_len and (x + dj - (host << p)) % E <= host_len):
            return "sub-window leaves its window"
    if not _apart(starts, dj, E):
        return "expected four sub-window components"
    return starts


def test_subwindow_checks_keep_their_verdicts():
    # every window tuple over D = den 2^p with 2 dj < D, consistent or not:
    # one comparison per check gives the verdicts of the two-sided tests
    seen = set()
    for den, p in [(3, 1), (5, 1), (3, 2)]:
        D = den << p
        for ends in itertools.product(range(D), repeat=4):
            for dj in range(1, (D + 1) // 2):
                win = (den, D, ends, dj)
                expected = _subwindow_verdict(win, p)
                try:
                    got = towers._subwindow(win, p)[2]
                except ValueError as exc:
                    got = str(exc).removeprefix("inconsistent pair: ")
                assert got == expected, (win, p)
                seen.add(expected if isinstance(expected, str) else "ok")
    assert len(seen) == 4


def test_semiconjugacy_check_fails_on_a_complemented_theta(monkeypatch):
    # 1 - theta satisfies theta(sigma^p t) = 2 theta(t) as well; theta(t) = s
    # for t = sigma^(p-1)(tune(pair, s)) tells the two apart
    from renormray import selftest

    def complemented(comb, n, t):
        res = theta(comb, n, t)
        return ThetaResult(Angle(1 - res.value.frac), res.boundary_collapse)

    monkeypatch.setattr(selftest, "theta", complemented)
    check = selftest.check_semiconjugacy()
    assert not check.passed and "theta" in check.detail


def test_theta_rejects_swapped_inner_labels(monkeypatch):
    # lo_inner and hi_inner swapped: theta(4/5) would read 0 (true value 1/3)
    from renormray import towers

    real = towers._subwindow

    def swapped(win, p):
        den, E, (lo_outer, lo_inner, hi_inner, hi_outer), d1 = real(win, p)
        return den, E, (lo_outer, hi_inner, lo_inner, hi_outer), d1

    monkeypatch.setattr(towers, "_subwindow", swapped)
    for t in (Angle(4, 5), Angle(1, 5)):
        with pytest.raises(ValueError, match="disagrees with the component"):
            theta(feigenbaum_tower(2), 1, t)


def _shadow_angles(pair, rng, samples, max_den):
    """Window and sub-window endpoints at j = 1 and p, tuned samples and their
    neighbours, and (at p <= 8) every k/d with d < max_den."""
    p = pair.period
    out = []
    for j in sorted({1, p}):
        out += window_endpoints(pair, j)
        out += [x for arc in subwindow(pair, j).arcs for x in (arc.start, arc.end)]
    for _ in range(samples):
        den = 2 * rng.randrange(1, 40) + 1
        t = sigma_pow(tune(pair, Angle(rng.randrange(1, den), den)), p - 1)
        out += [t, Angle(t.numerator - 1, t.denominator), Angle(t.numerator + 1, t.denominator)]
    if p <= 8:
        out += [Angle(k, d) for d in range(1, max_den) for k in range(d)]
    return out


def _theta_outcome(theta_fn, comb, n, t):
    res = _outcome(theta_fn, comb, n, t)
    return (res.value, res.boundary_collapse) if isinstance(res, ThetaResult) else res


@pytest.mark.parametrize(
    "tower, depth", [(feigenbaum_tower, 5), (rabbit_tower, 3)], ids=["F1-F5", "R1-R3"]
)
def test_shadow_and_theta_match_fraction_reference(tower, depth):
    comb = tower(depth)
    rng = random.Random(f"shadow-{depth}")
    inside = 0
    for n, pair in enumerate(comb.levels, start=1):
        p = pair.period
        for t in _shadow_angles(pair, rng, 12, 24):
            for j in sorted({1, 2, p}):
                got = _outcome(in_shadow, t, comb, n, j)
                assert got == _outcome(_ref_in_shadow, t, comb, n, j), (n, t, j)
                inside += got is True
            assert _theta_outcome(theta, comb, n, t) == _theta_outcome(_ref_theta, comb, n, t), (n, t)
    assert inside > 100


@pytest.mark.parametrize("p", [2, 3, 4])
def test_shadow_and_theta_match_fraction_reference_on_single_pairs(p):
    # every pair (k/(2^p - 1), l/(2^p - 1)), valid or not, on the grid a/(2(2^p - 1))
    m = (1 << p) - 1
    grid = [Angle(a, 2 * m) for a in range(2 * m)]
    for k in range(1, m):
        for l in range(k + 1, m):
            comb = Tower((RayPair(p, Angle(k, m), Angle(l, m)),))
            for t in grid:
                for j in sorted({1, 2, p}):
                    assert _outcome(in_shadow, t, comb, 1, j) == _outcome(_ref_in_shadow, t, comb, 1, j)
                assert _theta_outcome(theta, comb, 1, t) == _theta_outcome(_ref_theta, comb, 1, t)


def test_omega_probe_matches_fraction_reference_on_seeded_triples():
    rng = random.Random("omega")
    sources = [
        shadow_Kc(feigenbaum_tower(10), 1).tau1,
        shadow_Kc(rabbit_tower(5), 1).tau1,
        LimitAngle.from_angle(Angle(1, 3)),
        LimitAngle.from_angle(Angle(0)),
        LimitAngle.from_angle(Angle(5, 7)),
        LimitAngle.from_angle(Angle(12345, 65521)),
    ]
    hits = misses = 0
    for _ in range(240):
        src = rng.choice(sources)
        bits = rng.randint(2, 20)
        horizon = rng.randint(1, 120)
        win = bits + 4
        prefix = src.prefix_bits(horizon + win)
        # a window of the prefix (a hit), a point 2^-bits beside one, and arbitrary rationals
        k = rng.randint(1, horizon)
        w = (prefix >> (horizon - k)) % (1 << win)
        targets = [Angle(w, 1 << win), Angle(w + (1 << 4), 1 << win)]
        for _ in range(3):
            den = rng.randrange(1, 1 << rng.randint(1, 24))
            targets.append(Angle(rng.randrange(den), den))
        got = omega_probe(src, targets, horizon, bits)
        assert got == _ref_omega_probe(src, targets, horizon, bits)
        hits += sum(hit is not None for _, hit in got)
        misses += sum(hit is None for _, hit in got)
    assert hits > 200 and misses > 200


def test_omega_probe_matches_fraction_reference_on_wrapping_runs_and_last_windows():
    # the windows near 0, 2^-20 and 1 - 2^-20 run across 0 mod 2^win; the
    # window at k = horizon ends at the prefix's last digit
    sources = [
        LimitAngle.from_angle(Angle(1, 1025)),  # 0.(0^10 1^10): windows near 0 and near 1
        LimitAngle.from_angle(Angle((1 << 40) - 1, 1 << 40)),
        shadow_Kc(feigenbaum_tower(6), 6).tau1,
        shadow_Kc(rabbit_tower(3), 3).tau1,
    ]
    wrapped = {"above 0": 0, "below 1": 0}
    last = misses = 0
    for src in sources:
        for bits in (2, 8, 12):
            win = bits + 4
            for horizon in (1, 2, 3, 9):
                total = horizon + win
                prefix = src.prefix_bits(total)
                w = prefix % (1 << win)
                targets = [Angle(0), Angle(1, 1 << 20), Angle((1 << 20) - 1, 1 << 20)]
                targets += [Angle(w, 1 << win), Angle(w + (1 << (win - 1)), 1 << win)]
                got = omega_probe(src, targets, horizon, bits)
                assert got == _ref_omega_probe(src, targets, horizon, bits)
                for _, k in got[:3]:
                    if k is not None:
                        hit = (prefix >> (total - k - win)) % (1 << win)
                        wrapped["above 0" if hit < 1 << (win - 1) else "below 1"] += 1
                last += got[3][1] == horizon
                misses += sum(k is None for _, k in got)
    assert min(wrapped.values()) >= 20 and last >= 20 and misses >= 50


def test_deep_prefix_bits_runs_no_gcd_and_builds_no_fraction(monkeypatch):
    # README's omega example reads 65,548 digits of the F17 limit: one wide
    # division (circle._divmod) and shifts on the refiner's integers, counted
    # rather than timed
    comb = feigenbaum_tower(17)
    tau1 = shadow_Kc(comb, 17).tau1
    want = LimitAngle(int_refiner(_ref_kc_refiners(comb)[0]), comb.depth).prefix_bits(65548)
    calls = {"gcd": 0, "Fraction": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)

        return counted

    monkeypatch.setattr(math, "gcd", counting("gcd", math.gcd))
    monkeypatch.setattr(Fraction, "__new__", counting("Fraction", Fraction.__new__))
    monkeypatch.setattr(circle, "_coprime", counting("Fraction", circle._coprime))
    got = tau1.prefix_bits(65548)
    during = dict(calls)
    Fraction(2, 4)  # the counters see a Fraction and its gcd
    monkeypatch.undo()
    assert during == {"gcd": 0, "Fraction": 0}
    assert calls == {"gcd": 1, "Fraction": 1}
    assert got == want


def _substituted(words, start, times):
    # the word start with each digit replaced by its word, times times; no division
    table = {ord("0"): words[0], ord("1"): words[1]}
    for _ in range(times):
        start = start.translate(table)
    return start


def test_deep_limit_digits_equal_the_substitution_words():
    # the widest divisions of the exact layer, checked digit by digit against
    # string builds: F17's tau1 is the Thue-Morse word and tau2 its
    # complement (Allouche-Shallit); R10's tau1 is the fixed point of
    # 0 -> 001, 1 -> 010 from 0.  The rabbit tau2 is not the iterate from 1:
    # 010 does not start with 1, so those iterates do not extend each other
    swap = str.maketrans("01", "10")
    thue_morse = "0"
    while len(thue_morse) < 65548:
        thue_morse += thue_morse.translate(swap)
    shad = shadow_Kc(feigenbaum_tower(17), 1)
    assert format(shad.tau1.prefix_bits(65548), "065548b") == thue_morse[:65548]
    assert format(shad.tau2.prefix_bits(65548), "065548b") == thue_morse[:65548].translate(swap)
    fixed = _substituted(("001", "010"), "0", 11)
    assert format(shadow_Kc(rabbit_tower(10), 1).tau1.prefix_bits(88573), "088573b") == fixed[:88573]


@pytest.mark.parametrize("make, d", [(feigenbaum_tower, 17), (rabbit_tower, 10)])
def test_deep_pair_words_are_the_iterated_base_words(make, d):
    # pair_words divides 2^p - 1 by the level's den, p = 2^17 and 3^10 digits
    comb = make(d)
    base = pair_words(comb.level(1))
    assert pair_words(comb.level(d)) == (_substituted(base, "0", d), _substituted(base, "1", d))
