"""The Fraction walks of the exact layer, kept as references for its integer kernel.

These are the implementations that stepped and compared Fractions before
the chord, itinerary and omega walks moved to numerators over one common
denominator.  Tests compare the integer code against them for equal values,
or equal exception types and texts.
"""

from bisect import bisect_left, bisect_right

from renormray.circle import LimitAngle, angle_from_words, double, preimages, sigma_pow
from renormray.lamination import Chord
from renormray.towers import subwindow, window_at


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
            a0, a1 = preimages(chord.a)
            b0, b1 = preimages(chord.b)
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
    result = _ref_itinerary(t, pair.period, subwindow(pair, j).arcs) is not None
    if j == 1 and (_ref_itinerary(t, pair.period, window_at(pair, 1)) is not None) != result:
        raise ValueError("s_{n,1} and s^1_{n,1} shadow criteria disagree")
    return result


def _ref_theta(comb, n, t):
    """(value, boundary_collapse), checked by the second walk theta(sigma^p t) = 2 theta(t)."""
    pair = comb.level(n)
    p = pair.period
    labeled = subwindow(pair, p).labeled
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

