"""The Fraction walks of the exact layer, kept as references for its integer kernel.

These are the implementations that stepped and compared Fractions before
the window derivation and the chord, itinerary and omega walks moved to
numerators over one common denominator, the string substitution that
tuned angles before tune() computed them from the pair's numerators, and
the Fraction halving of preimages() before it built reduced angles from
the numerator and denominator.  Tests
compare the integer code against them for equal values, or equal exception
types and texts.  The shadow and theta references read the windows from the
Fraction derivation below, not from renormray.towers.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from renormray.circle import (
    Angle,
    Arc,
    ArcSet,
    LimitAngle,
    angle_from_words,
    binary_words,
    double,
    sigma_pow,
)
from renormray.lamination import Chord
from renormray.towers import pair_words


def outcome(derive, *args):
    """The value, or the type and text of the ValueError raised."""
    try:
        return derive(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _ref_linked(c1, c2):
    if {c1.a, c1.b} & {c2.a, c2.b}:
        return False

    def inside(t):
        return 0 < (t.frac - c1.a.frac) % 1 < (c1.b.frac - c1.a.frac) % 1

    return inside(c2.a) != inside(c2.b)


def _ref_orbit_chords(pair):
    seen = {}
    a, b = pair.lo, pair.hi
    for _ in range(pair.period):
        seen.setdefault(Chord(a, b))
        a, b = double(a), double(b)
    return list(seen)


def _ref_preimages(t):
    a = Angle(t.frac / 2)
    b = Angle(t.frac / 2 + Fraction(1, 2))
    return (a, b) if a < b else (b, a)


def _ref_crosses(ends, partners, chord):
    a, b = chord.a.frac, chord.b.frac
    lo, hi = bisect_right(ends, a), bisect_left(ends, b)
    return any(not a <= partners[k] <= b for k in range(lo, hi))


def _ref_build(comb, depth, preimage_depth=0):
    if depth > len(comb.levels):
        raise ValueError("depth exceeds tower size")
    family = {}
    ends, partners = [], []

    def add(c):
        family[c] = None
        for x, y in ((c.a.frac, c.b.frac), (c.b.frac, c.a.frac)):
            k = bisect_left(ends, x)
            ends.insert(k, x)
            partners.insert(k, y)

    for pair in comb.levels[:depth]:
        for c in _ref_orbit_chords(pair):
            if c not in family:
                add(c)
    frontier = list(family)
    for _ in range(preimage_depth):
        new_frontier = []
        for chord in frontier:
            a0, a1 = _ref_preimages(chord.a)
            b0, b1 = _ref_preimages(chord.b)
            pairings = ((Chord(a0, b0), Chord(a1, b1)), (Chord(a0, b1), Chord(a1, b0)))
            placed = None
            for cand in pairings:
                if not any(_ref_crosses(ends, partners, c) for c in cand) and not _ref_linked(*cand):
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


def _ref_verify_unlinked(family):
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
            witnesses = [(c, d) for j, c in enumerate(family) for d in family[j + 1:] if _ref_linked(c, d)]
            return {"pass": False, "witnesses": witnesses}
    return {"pass": True, "witnesses": []}


def _ref_tune(base, t):
    w0, w1 = pair_words(base)
    if w0 == w1:
        raise ValueError("degenerate pair")
    pre, per = binary_words(t)

    def sub(bits):
        return "".join(w0 if b == "0" else w1 for b in bits)

    return angle_from_words(sub(pre), sub(per))


def _ref_window_length(pair, j):
    return pair.width / (1 << (pair.period - j + 1))


def _ref_check(pair):
    problems = []
    if pair.period < 1:
        problems.append(f"period {pair.period} < 1")
        return problems
    if not (Angle(0) < pair.lo < pair.hi):
        problems.append(f"angles not ordered: 0 < {pair.lo} < {pair.hi} < 1 fails")
    if sigma_pow(pair.lo, pair.period) != pair.lo:
        problems.append(f"sigma^{pair.period}({pair.lo}) = {sigma_pow(pair.lo, pair.period)} != {pair.lo}")
    if sigma_pow(pair.hi, pair.period) != pair.hi:
        problems.append(f"sigma^{pair.period}({pair.hi}) = {sigma_pow(pair.hi, pair.period)} != {pair.hi}")
    return problems


def _ref_window_endpoints(pair, j):
    if not 1 <= j <= pair.period:
        raise ValueError(f"j must lie in 1..{pair.period}")
    problems = _ref_check(pair)
    if problems or pair.width >= Fraction(1, 2):
        raise ValueError("pair is not a valid renormalization pair: " + "; ".join(problems or ["width >= 1/2"]))
    delta = _ref_window_length(pair, 1)
    lo1 = pair.lo + delta
    hi1 = pair.hi - delta
    if sigma_pow(lo1, pair.period) != pair.hi or sigma_pow(hi1, pair.period) != pair.lo:
        raise ValueError("pair is not a valid renormalization pair: window endpoint check failed")
    return tuple(sigma_pow(t, j - 1) for t in (pair.lo, lo1, hi1, pair.hi))


def _ref_window_at(pair, j):
    t_j, t1_j, tt1_j, tt_j = _ref_window_endpoints(pair, j)
    delta = _ref_window_length(pair, j)
    if not delta < Fraction(1, 2):
        raise ValueError("inconsistent pair: window component length is not below 1/2")
    if not (t1_j == t_j + delta and tt_j == tt1_j + delta):
        raise ValueError("inconsistent pair: window endpoint images are not plain arcs")
    s = ArcSet([Arc(t_j, delta), Arc(tt1_j, delta)])
    if len(s) != 2:
        raise ValueError("window components are not disjoint")
    return s


def _ref_subwindow(pair, j):
    p = pair.period
    t_j, t1_j, tt1_j, tt_j = _ref_window_endpoints(pair, j)
    delta = _ref_window_length(pair, j)
    delta1 = delta / (1 << p)
    labeled = {
        "lo_outer": Arc(t_j, delta1),
        "lo_inner": Arc(t1_j - delta1, delta1),
        "hi_inner": Arc(tt1_j, delta1),
        "hi_outer": Arc(tt_j - delta1, delta1),
    }
    windows = {"lo": Arc(t_j, delta), "hi": Arc(tt1_j, delta)}
    onto = {"lo_outer": "lo", "lo_inner": "hi", "hi_inner": "lo", "hi_outer": "hi"}
    for label, arc in labeled.items():
        target = windows[onto[label]]
        if sigma_pow(arc.start, p) != target.start or sigma_pow(arc.end, p) != target.end:
            raise ValueError("inconsistent pair: sub-window endpoint check failed")
    for arc in labeled.values():
        host = windows["lo"] if windows["lo"].contains(arc.start) else windows["hi"]
        if not (host.contains(arc.start) and host.contains(arc.end)):
            raise ValueError("inconsistent pair: sub-window leaves its window")
    arcs = ArcSet(labeled.values())
    if len(arcs) != 4:
        raise ValueError("inconsistent pair: expected four sub-window components")
    return arcs, labeled


def _ref_kc_arcs(comb):
    """shadow_Kc's (left, right) arcs in Fractions: per level m, the window components [lo, lo + Delta] and [hi - Delta, hi] as (start, length)."""
    left, right = [], []
    for pair in comb.levels:
        delta = pair.width / (1 << pair.period)
        left.append((pair.lo.frac, delta))
        right.append(((pair.hi.frac - delta) % 1, delta))
    return left, right


def int_arc(start, length, scale=1, extra=0):
    """A LimitAngle arc of the Fractions (start, length) as integers (s, l, den, e).

    The denominator is the product of the two, times an odd scale and
    2^extra, and its power of two goes into e; so den is odd and the
    integers are not reduced.
    """
    D = start.denominator * length.denominator * scale
    e = (D & -D).bit_length() - 1
    s, l = (x.numerator * (D // x.denominator) << extra for x in (start, length))
    return s, l, D >> e, e + extra


def arc_fractions(arc):
    """A LimitAngle arc's integers (s, l, den, e) as the Fractions (start, length)."""
    s, l, den, e = arc
    return Fraction(s, den << e), Fraction(l, den << e)


def _ref_itinerary(t, p, arcs):
    index = {}
    held = []
    u = t
    while u not in index:
        k = next((i for i, arc in enumerate(arcs) if arc.contains(u)), None)
        if k is None:
            return None
        index[u] = len(held)
        held.append(k)
        u = sigma_pow(u, p)
    return list(index), held, index[u]


def _ref_in_shadow(t, comb, n, j):
    pair = comb.level(n)
    result = _ref_itinerary(t, pair.period, _ref_subwindow(pair, j)[0]) is not None
    if j == 1 and (_ref_itinerary(t, pair.period, _ref_window_at(pair, 1)) is not None) != result:
        raise ValueError("s_{n,1} and s^1_{n,1} shadow criteria disagree")
    return result


def _ref_theta(comb, n, t):
    """(value, boundary_collapse), checked by the second walk theta(sigma^p t) = 2 theta(t)."""
    pair = comb.level(n)
    p = pair.period
    labeled = _ref_subwindow(pair, p)[1]
    arcs = [labeled[k] for k in ("lo_outer", "lo_inner", "hi_inner", "hi_outer")]
    boundary = {arcs[0].start, arcs[1].end, arcs[2].start, arcs[3].end}

    def itinerary(u):
        walk = _ref_itinerary(u, p, arcs)
        if walk is None:
            return None
        orbit, held, start = walk
        bits = "".join("0" if k < 2 or x in boundary else "1" for x, k in zip(orbit, held))
        return angle_from_words(bits[:start], bits[start:]), any(x in boundary for x in orbit)

    result = itinerary(t)
    if result is None:
        raise ValueError(f"{t} is not in the level-{n} shadow of the small Julia set")
    check = itinerary(sigma_pow(t, p))
    if check is None or check[0] != double(result[0]):
        raise ValueError("semiconjugacy identity failed")
    return result


def _ref_omega_probe(source, targets, horizon, bits):
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if bits < 2:
        raise ValueError("bits must be >= 2")
    slack = 4
    total = horizon + bits + slack
    src = source if isinstance(source, LimitAngle) else LimitAngle.from_angle(source)
    sbits = format(src.prefix_bits(total), f"0{total}b")
    win = bits + slack
    results = []
    for target in targets:
        p, q = target.numerator, target.denominator
        pw, qw, tol = p << win, q << win, q << slack
        hit = None
        for k in range(1, horizon + 1):
            d = (int(sbits[k:k + win], 2) * q - pw) % qw
            if min(d, qw - d) < tol:
                hit = k
                break
        results.append((target, hit))
    return results

