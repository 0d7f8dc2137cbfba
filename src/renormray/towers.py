"""Renormalization towers of ray pairs and their angle combinatorics.

A tower is a list of periodic ray pairs (p_n, t_n, t~_n) with nested windows.
This module builds towers by Douady tuning, computes the two-arc windows at
every position, the four-arc sub-windows, angle shadows of small Julia sets,
the itinerary semiconjugacy collapsing window dynamics to plain doubling, and
omega-limit probes on binary prefixes.  All of it is exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .circle import (
    HALF,
    Angle,
    Arc,
    ArcSet,
    LimitAngle,
    _coprime,
    _digits,
    _divmod,
    _over,
    _text,
    angle_from_words,
    sigma_pow,
)
from .lamination import _chord, _distinct, _orbit_ints, _witnesses


@dataclass(frozen=True)
class RayPair:
    """A pair of angles 0 < lo < hi < 1, each fixed by sigma^period.

    The fields are frozen, so a pair's criteria are tested once per object,
    in a private record that every check, window, shadow, tuning and word
    query reads: its integers, the angles sigma^p does not fix and check()'s
    problems.  The first width or window value keeps gcd(b - a, den).
    Neither is a field: equality, hashing and repr see period, lo and hi.
    """

    period: int
    lo: Angle
    hi: Angle

    def check(self) -> list[str]:
        """Invariant violations as human-readable strings (empty when valid)."""
        return list(self._record[4])

    @property
    def width(self) -> Fraction:
        a, b, den = self._record[:3]
        g = self._width_gcd
        return _coprime((b - a) // g, den // g)

    def require_valid(self):
        _valid(self)

    @cached_property
    def _record(self) -> tuple[int, int, int, tuple[Angle, ...] | None, tuple[str, ...]]:
        """(a, b, den, unfixed, problems): _over_den()'s integers, the angles sigma^p does not fix (None for a period below 1) and check()'s problems."""
        a, b, den = _over_den(self)
        p = self.period
        if p < 1:
            return a, b, den, None, (f"period {p} < 1",)
        r = pow(2, p, den)
        # sigma^p(t) = t exactly when t's denominator, a divisor of den, divides 2^p - 1
        unfixed = tuple(t for t in (self.lo, self.hi) if (r - 1) % t.denominator)
        problems = [] if 0 < a < b else [f"angles not ordered: 0 < {self.lo} < {self.hi} < 1 fails"]
        problems += [f"sigma^{p}({t}) = {sigma_pow(t, p)} != {t}" for t in unfixed]
        return a, b, den, unfixed, tuple(problems)

    @cached_property
    def _width_gcd(self) -> int:
        """gcd(b - a, den): the factor that reduces the width, and every window length of a valid pair."""
        a, b, den = self._record[:3]
        return math.gcd(b - a, den)


def _over_den(pair: RayPair) -> tuple[int, int, int]:
    """(a, b, den) with lo = a/den and hi = b/den over their least common denominator.

    The exact layer derives a pair's windows and checks on these integers:
    window endpoints are numerators over den 2^p, and sigma is a shift and a
    reduction, so no Fraction is built or reduced until a value is returned.
    """
    d0, d1 = pair.lo.denominator, pair.hi.denominator
    den = d0 if d0 == d1 else math.lcm(d0, d1)
    return pair.lo.numerator * (den // d0), pair.hi.numerator * (den // d1), den


def _valid(pair: RayPair) -> tuple[int, int, int]:
    """(a, b, den) of a pair read from its record: ordered, fixed by sigma^p (den | 2^p - 1), width below 1/2; else ValueError."""
    a, b, den, _, problems = pair._record
    if problems or not 2 * (b - a) < den:
        raise ValueError("pair is not a valid renormalization pair: " + "; ".join(problems or ["width >= 1/2"]))
    return a, b, den


@dataclass(frozen=True)
class Tower:
    """Levels of ray pairs with periods p_1 < p_2 < ...

    Construction is permissive so that validate() can report problems of
    hand-built towers; the generators below always emit valid towers.
    """

    levels: tuple[RayPair, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))

    def level(self, n: int) -> RayPair:
        """1-based level access."""
        if not 1 <= n <= len(self.levels):
            raise ValueError(f"level {n} outside tower of depth {len(self.levels)}")
        return self.levels[n - 1]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def to_json(self) -> list:
        return [
            {"period": p.period, "lo": p.lo.to_json(), "hi": p.hi.to_json()}
            for p in self.levels
        ]


# canonical base pairs for tuning towers
PERIOD_DOUBLING_PAIR = RayPair(2, Angle(1, 3), Angle(2, 3))
RABBIT_PAIR = RayPair(3, Angle(1, 7), Angle(2, 7))


def pair_words(pair: RayPair) -> tuple[str, str]:
    """Length-p binary words of the two pair angles (denominators | 2^p - 1)."""
    p, a, b, den = _tuning(pair)
    # lo = a/den is 0.(w) with w = lo (2^p - 1) = a (2^p - 1)/den, and likewise hi
    m = _divmod((1 << p) - 1, den)[0]
    return format(a * m, f"0{p}b"), format(b * m, f"0{p}b")


def tune(base: RayPair, t: Angle) -> Angle:
    """Douady tuning: substitute the pair words for the binary digits of t.

    The tuned angle is computed from the pair's numerators and t's digit
    blocks as integers; no word is built (see _tune).
    """
    ints = p, a, b, den = _tuning(base)
    if a == b:
        raise ValueError("degenerate pair")
    return Angle(_tune(ints, _digits(t)))


def _tuning(base: RayPair) -> tuple[int, int, int, int]:
    """(p, a, b, den) of a pair whose words are defined: lo = a/den and hi = b/den with den | 2^p - 1.

    It reads the periodicity verdict of the pair's record, as check() does.
    """
    a, b, den, unfixed, _ = base._record
    if unfixed is None:
        raise ValueError("period must be >= 1")
    if unfixed:
        raise ValueError(f"{unfixed[0]} is not periodic with period dividing {base.period}")
    return base.period, a, b, den


def _spread(x: int, n: int, p: int) -> int:
    """x < 2^n with its bit i moved to bit p i."""
    if n <= 8:
        return sum(1 << p * i for i in range(n) if x >> i & 1)
    m = n // 2
    return _spread(x & ((1 << m) - 1), m, p) | _spread(x >> m, n - m, p) << p * m


def _tune(ints: tuple[int, int, int, int], digits: tuple[int, int, int, int]) -> Fraction:
    """tune() on _tuning()'s integers and _digits() of t, as a reduced Fraction.

    Substituting the words of lo = a/den and hi = b/den for t's digits gives
    lo + (hi - lo)(2^p - 1) psi(t), psi(t) reading t's digits in base 2^p.
    With R = (2^(pq) - 1)/(2^p - 1), the sum of 2^(p i) over i < q,
    (2^p - 1) psi(t) = (spread(h)(2^(pq) - 1) + spread(k)) / (R 2^(pe)).
    den and R are odd, and gcd(x, den R) = g1 gcd(x/g1, R) with
    g1 = gcd(x, den), so the reduction runs one gcd at den's size and one at
    R's, not one at the size of 2^(pq) - 1.  g1 starts with Euclid's first
    step, gcd(x, den) = gcd(x mod den, den), taken by _divmod; when x mod den
    is 0, as at every Feigenbaum level, g1 = den and that step's quotient is
    x / g1, so neither the gcd nor a second division runs.
    """
    p, a, b, den = ints
    e, h, q, k = digits
    R = _spread((1 << q) - 1, q, p)
    sh = _spread(h, e, p)
    pe = p * e
    x = (a * R << pe) + (b - a) * ((sh << p * q) - sh + _spread(k, q, p))
    y, r = _divmod(x, den)
    if r:
        g1 = math.gcd(r, den)
        x //= g1
    else:
        g1, x = den, y
    g2 = math.gcd(x, R)
    x //= g2
    v = min(pe, (x & -x).bit_length() - 1) if x else pe
    return _coprime(x >> v, (den // g1) * (R // g2) << (pe - v))


def self_tuned_tower(base: RayPair, depth: int) -> Tower:
    """Tower obtained by repeatedly tuning the base pair by itself."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    base.require_valid()
    digits = _digits(base.lo), _digits(base.hi)
    levels = [base]
    for _ in range(depth - 1):
        prev = levels[-1]
        ints = _tuning(prev)
        lo, hi = (Angle(_tune(ints, d)) for d in digits)
        levels.append(RayPair(prev.period * base.period, lo, hi))
    return Tower(tuple(levels))


def feigenbaum_tower(depth: int) -> Tower:
    """Period-doubling tower: level n has period 2^n, starting from (1/3, 2/3)."""
    return self_tuned_tower(PERIOD_DOUBLING_PAIR, depth)


def rabbit_tower(depth: int) -> Tower:
    """Self-tuned rabbit tower: periods 3^n, starting from (1/7, 2/7)."""
    return self_tuned_tower(RABBIT_PAIR, depth)


def window_endpoints(pair: RayPair, j: int) -> tuple[Angle, Angle, Angle, Angle]:
    """(t_j, t'_j, t~'_j, t~_j): the sigma^(j-1) images of the window endpoints.

    The window s_{n,1} is [t, t'] u [t~', t~] with t' = t + Delta and
    t~' = t~ - Delta, Delta = (t~ - t)/2^p.  This is the one checked
    derivation of a pair's windows: the pair is validated, so sigma^p maps
    t' to t~ and t~' to t exactly.
    """
    den, _, ends, _ = _window(pair, j)
    # with 2^p = 1 mod den, t and t~' are 2^(j-1) a and t' and t~ are 2^(j-1) b
    # mod den, so they share gcd(a, den) and gcd(b, den) with den
    g_lo, g_hi = den // pair.lo.denominator, den // pair.hi.denominator
    return tuple(Angle(_over(x, den, pair.period, g)) for x, g in zip(ends, (g_lo, g_hi, g_lo, g_hi)))


def _window(pair: RayPair, j: int) -> tuple[int, int, list[int], int]:
    """window_endpoints() as integers: (den, D, the four numerators over D, dj).

    With lo = a/den, hi = b/den and c = b - a, the endpoints of s_{n,1} over
    D = den 2^p are a 2^p, a 2^p + c, b 2^p - c and b 2^p; sigma^(j-1) is a
    shift and a reduction mod D, and Delta_{n,j} = dj/D.
    """
    if not 1 <= j <= pair.period:
        raise ValueError(f"j must lie in 1..{pair.period}")
    a, b, den = _valid(pair)
    # sigma^p maps t' = (a 2^p + c)/D to (a 2^p + c mod den)/den = t~, since
    # den divides 2^p - 1 for a valid pair, and likewise t~' to t
    p, c = pair.period, b - a
    D, k = den << p, j - 1
    ends = [(x << k) % D for x in (a << p, (a << p) + c, (b << p) - c, b << p)]
    return den, D, ends, c << k


def window_length(pair: RayPair, j: int) -> Fraction:
    """Component length Delta_{n,j} = (t~ - t) / 2^(p - j + 1)."""
    return pair.width / (1 << (pair.period - j + 1))


def window_at(pair: RayPair, j: int) -> ArcSet:
    """s_{n,j} = sigma^(j-1)(s_{n,1}): two arcs of length Delta_{n,j} < 1/2."""
    p = pair.period
    den, _, starts, dj = _window_at(_window(pair, j))
    # den is odd, so dj = (b - a) 2^(j-1) shares gcd(b - a, den) with den
    delta = _over(dj, den, p, pair._width_gcd)
    # both starts are 2^(j-1) a mod den (window_endpoints); _window_at has
    # shown the two arcs apart, so sorted by start they are canonical
    g = den // pair.lo.denominator
    return ArcSet._canonical(tuple(Arc(Angle(_over(x, den, p, g)), delta) for x in sorted(starts)))


def _window_at(win) -> tuple[int, int, tuple[int, int], int]:
    """window_at() as integers from _window(pair, j): (den, D, the starts of the t and t~' components over D, dj)."""
    den, D, (t, t1, tt1, tt), dj = win
    # dj/D = (b - a) 2^(j-1)/(den 2^p) < 1/2, as 2(b - a) < den and j <= p;
    # sigma^(j-1) is injective on each component, so images are plain arcs
    if not (t1 == (t + dj) % D and tt == (tt1 + dj) % D):
        raise ValueError("inconsistent pair: window endpoint images are not plain arcs")
    if not _apart((t, tt1), dj, D):
        raise ValueError("window components are not disjoint")
    return den, D, (t, tt1), dj


def _apart(starts, length: int, L: int) -> bool:
    """True iff closed arcs of one length at these starts over L neither meet nor touch.

    Arcs at x and y meet or touch, and an ArcSet merges them, exactly when (y - x + length) mod L <= 2 length.
    """
    twice = 2 * length
    for x, y in combinations(starts, 2):
        if (y - x + length) % L <= twice:
            return False
    return True


@dataclass(frozen=True)
class Subwindow:
    """The four endpoint-adjacent 1-windows of s_{n,j}, with labels."""

    labeled: dict
    arcs: ArcSet


def subwindow(pair: RayPair, j: int) -> Subwindow:
    """s^1_{n,j}: four arcs of length Delta_{n,j}/2^p adjacent to the endpoints.

    sigma^p maps each arc homeomorphically onto one window of s_{n,j}; the
    endpoint images are checked exactly.
    """
    p = pair.period
    den, _, starts, dj = _subwindow(_window(pair, j), p)
    delta1 = _over(dj, den, 2 * p, pair._width_gcd)
    # every start is 2^(j-1) a mod den, as the window starts are
    g = den // pair.lo.denominator
    labels = ("lo_outer", "lo_inner", "hi_inner", "hi_outer")
    labeled = {label: Arc(Angle(_over(x, den, 2 * p, g)), delta1) for label, x in zip(labels, starts)}
    arcs = tuple(labeled[label] for _, label in sorted(zip(starts, labels)))
    return Subwindow(labeled, ArcSet._canonical(arcs))


def _subwindow(win, p: int) -> tuple[int, int, tuple[int, int, int, int], int]:
    """subwindow() as integers from _window(pair, j): (den, E = den 2^(2p), the four starts over E in label order, their length)."""
    den, D, (t, t1, tt1, tt), dj = win
    # over E = D 2^p the sub-window arcs have length dj and the windows dj 2^p;
    # sigma^p(x/E) = x/D mod 1
    E, host_len = D << p, dj << p
    starts = (t << p, ((t1 << p) - dj) % E, tt1 << p, ((tt << p) - dj) % E)
    # lo_outer and hi_inner map onto the lo window, lo_inner and hi_outer onto
    # the hi one: sigma^p maps x to the window's start and so x + dj to its end
    for x, target in zip(starts, (t, tt1, t, tt1)):
        if x % D != target:
            raise ValueError("inconsistent pair: sub-window endpoint check failed")
    # the arc [x, x + dj] lies in its host window exactly when it starts at most
    # host_len - dj past the host's start, as 2 dj < D
    for x in starts:
        host = t if (x - (t << p)) % E <= host_len else tt1
        if (x - (host << p)) % E > host_len - dj:
            raise ValueError("inconsistent pair: sub-window leaves its window")
    if not _apart(starts, dj, E):
        raise ValueError("inconsistent pair: expected four sub-window components")
    return den, E, starts, dj


def _spans(starts, length: int, M: int, L: int) -> list[tuple[int, int]]:
    """(start, length) numerators over L of arcs given over M, a divisor of L."""
    k = L // M
    return [(x * k, length * k) for x in starts]


def in_shadow(t: Angle, comb: Tower, n: int, j: int) -> bool:
    """Exact membership of t in the angle shadow of f^j(J_n).

    Checks sigma^(k p_n)(t) in s^1_{n,j} over the whole (finite) sigma^(p_n)
    orbit of t.  For j = 1 the equivalent criterion through s_{n,1} is
    checked to agree.  The walks run on numerators over lcm(E, t's denominator).
    """
    pair = comb.level(n)
    p = pair.period
    win = _window(pair, j)
    _, E, starts, d1 = _subwindow(win, p)
    L = math.lcm(E, t.denominator)
    u = t.numerator * (L // t.denominator)
    result = _itinerary(u, L, p, _spans(starts, d1, E, L)) is not None
    if j == 1:
        _, D, ends, dj = _window_at(win)
        if (_itinerary(u, L, p, _spans(ends, dj, D, L)) is not None) != result:
            raise ValueError("s_{n,1} and s^1_{n,1} shadow criteria disagree")
    return result


def _itinerary(u: int, L: int, p: int, spans) -> tuple[list[int], list[int], int] | None:
    """The sigma^p orbit of u/L, the index of the span holding each point, and where the cycle starts.

    Spans are (start, length) numerators over L: u/L lies in one exactly
    when (u - start) mod L <= length, and sigma^p is u -> u 2^p mod L.  None
    as soon as a point of the orbit lies in none of the spans.  The orbit of
    u/L is finite, so the walk ends at the first repeated point.
    """
    index: dict[int, int] = {}  # the orbit so far, in order
    held: list[int] = []
    while u not in index:
        k = next((i for i, (s, length) in enumerate(spans) if (u - s) % L <= length), None)
        if k is None:
            return None
        index[u] = len(held)
        held.append(k)
        u = (u << p) % L
    return list(index), held, index[u]


@dataclass(frozen=True)
class KcShadow:
    s: ArcSet
    tau1: LimitAngle
    tau2: LimitAngle


def shadow_Kc(comb: Tower, depth: int) -> KcShadow:
    """The window s_{depth,1} containing the K_c shadow, plus the two limit angles.

    tau1 = lim t_n and tau2 = lim t~_n are returned as nested-arc limits over
    the left and right window components; the component length at level n is
    (t~_n - t_n)/2^(p_n), which shrinks to zero.  With t_n = a/den and
    t~_n = b/den over their common denominator, the refiners return the
    components as integers over den 2^(p_n), so refining runs no gcd.
    """
    if not 1 <= depth <= comb.depth:
        raise ValueError("depth exceeds tower size")
    # the level-n component length is (b_n - a_n) / D_n with D_n = den_n 2^(p_n)
    ints = [(*_over_den(pair), pair.period) for pair in comb.levels]
    lengths = [(b - a, den << p) for a, b, den, p in ints]
    for n in range(1, comb.depth):
        (c0, d0), (c1, d1) = lengths[n - 1], lengths[n]
        if not c1 * d0 < c0 * d1:
            raise ValueError(f"window components do not shrink from level {n} to level {n + 1}")

    # the level-m components [lo, lo + Delta] and [hi - Delta, hi] over den 2^p, unreduced
    def left(m: int) -> tuple[int, int, int, int]:
        a, b, den, p = ints[m - 1]
        return a << p, b - a, den, p

    def right(m: int) -> tuple[int, int, int, int]:
        a, b, den, p = ints[m - 1]
        return ((b << p) - (b - a)) % (den << p), b - a, den, p

    tau1 = LimitAngle(left, max_depth=comb.depth)
    tau2 = LimitAngle(right, max_depth=comb.depth)
    return KcShadow(window_at(comb.level(depth), 1), tau1, tau2)


@dataclass(frozen=True)
class ComponentAddress:
    """Per-level positions j_n (1 <= j_n <= p_n) of a component of J_infinity."""

    js: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "js", tuple(self.js))

    def check_compatible(self, comb: Tower, depth: int):
        if depth > len(self.js) or depth > comb.depth:
            raise ValueError("address or tower shorter than requested depth")
        for n in range(1, depth + 1):
            p = comb.level(n).period
            if not 1 <= self.js[n - 1] <= p:
                raise ValueError(f"address entry j_{n} = {self.js[n - 1]} outside 1..{p}")
            if n > 1:
                prev_p = comb.level(n - 1).period
                if (self.js[n - 1] - self.js[n - 2]) % prev_p != 0:
                    raise ValueError(f"incompatible address at level {n}: j_{n} != j_{n - 1} (mod p_{n - 1})")

    @classmethod
    def critical(cls, comb: Tower, depth: int) -> "ComponentAddress":
        """Address j_n = p_n of the component through the critical point."""
        return cls(tuple(comb.level(n).period for n in range(1, depth + 1)))

    @classmethod
    def constant(cls, j: int, depth: int) -> "ComponentAddress":
        return cls((j,) * depth)


@dataclass(frozen=True)
class ComponentShadow:
    components: ArcSet
    classification: str
    window_intersection: ArcSet | None


def shadow_component(comb: Tower, addr: ComponentAddress, depth: int) -> ComponentShadow:
    """Finite-depth shadow of a J_infinity component from its address.

    Intersects the four-arc sub-windows s^1_{n,j_n} over n <= depth (at most
    four components survive).  When p_n - j_n is a constant N the component
    maps onto the critical one after N steps ("case2(N)"); otherwise the
    two-arc window intersection is returned as well.
    """
    addr.check_compatible(comb, depth)
    inter = None
    offsets = set()
    for n in range(1, depth + 1):
        pair = comb.level(n)
        jn = addr.js[n - 1]
        offsets.add(pair.period - jn)
        s1 = subwindow(pair, jn).arcs
        inter = s1 if inter is None else inter.intersect(s1)
    if len(inter) > 4:
        raise ArithmeticError("component shadow has more than four components")
    if len(offsets) == 1:
        return ComponentShadow(inter, f"case2({offsets.pop()})", None)
    winter = None
    for n in range(1, depth + 1):
        s = window_at(comb.level(n), addr.js[n - 1])
        winter = s if winter is None else winter.intersect(s)
    return ComponentShadow(inter, "undetermined/case1-so-far", winter)


@dataclass(frozen=True)
class ThetaResult:
    value: Angle
    boundary_collapse: bool


def theta(comb: Tower, n: int, t: Angle) -> ThetaResult:
    """Itinerary semiconjugacy collapsing level-n window dynamics to doubling.

    theta(t) = sum_j eps(sigma^(j p)(t)) / 2^(j+1) with eps = 0 on S_{n,0} and
    1 on S'_{n,0}, the components of s_{n,p} holding the lo and hi arcs of
    s^1_{n,p}; exact because the itinerary of a rational t is eventually
    periodic.  One sigma^p orbit walk over those four arcs checks the shadow
    precondition and reads the itinerary.  Orbits meeting an endpoint of
    s_{n,p} are flagged (eps = 0 is used there as a tie-break).  Every other
    point's label is checked against the component of window_at(pair, p)
    that holds it, S_{n,0} being the one that starts at sigma^(p-1)(lo).
    """
    pair = comb.level(n)
    p = pair.period
    win = _window(pair, p)
    _, E, starts, d1 = _subwindow(win, p)
    # the components of s_{n,p}: S_{n,0}, the one starting at sigma^(p-1)(lo), first
    _, D, ends, dj = _window_at(win)
    L = math.lcm(E, t.denominator)
    # spans 0 and 1 (lo_outer, lo_inner) read eps = 0, spans 2 and 3 eps = 1
    spans = _spans(starts, d1, E, L)
    walk = _itinerary(t.numerator * (L // t.denominator), L, p, spans)
    if walk is None:
        raise ValueError(f"{t} is not in the level-{n} shadow of the small Julia set")
    orbit, held, start = walk
    (s0, _), (s1, l1), (s2, _), (s3, l3) = spans
    boundary = {s0, (s1 + l1) % L, s2, (s3 + l3) % L}
    windows = _spans(ends, dj, D, L)
    bits = ""
    for x, k in zip(orbit, held):
        if x in boundary:
            bits += "0"
            continue
        eps = int(k >= 2)
        w, length = windows[eps]
        if (x - w) % L > length:
            raise ValueError(f"theta label {eps} of {Angle(x, L)} disagrees with the component of s_{{n,p}} holding it")
        bits += str(eps)
    return ThetaResult(angle_from_words(bits[:start], bits[start:]), any(x in boundary for x in orbit))


def omega_probe(source, targets, horizon: int, bits: int):
    """First hit times of doubled source prefixes near each target.

    For each target, the smallest k in 1..horizon with
    dist(sigma^k(source), target) < 2^-bits, computed on binary prefixes
    (doubling acts as the shift); None records no hit within the horizon,
    which is a report, not a refutation.  Targets are exact angles; the
    source is an exact angle or a nested-arc limit refinable to
    horizon + bits + 4 binary digits.  The win = bits + 4 digit windows near
    a target form one run of integers, or two where it wraps mod 2^win; each
    run is looked up in the prefix as the common prefixes of its aligned
    binary blocks.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if bits < 2:
        raise ValueError("bits must be >= 2")
    slack = 4
    total = horizon + bits + slack
    src = source if isinstance(source, LimitAngle) else LimitAngle.from_angle(source)
    sbits = format(src.prefix_bits(total), f"0{total}b")
    win = bits + slack
    W = 1 << win
    results = []
    for target in targets:
        # with target p/q, dist(w/W, p/q) < 2^-bits exactly when w lies
        # strictly within 2^slack of pW/q mod W: the integers c - 2^slack + 1
        # up to c + 2^slack, less one when pW/q = c is itself an integer
        p, q = target.numerator, target.denominator
        c, rem = divmod(p << win, q)
        lo, hi = c - (1 << slack) + 1, c + (1 << slack) - (rem == 0)
        runs = [(lo, hi)] if 0 <= lo and hi < W else [(lo % W, W - 1), (0, hi % W)]
        hit, end = None, total
        for lo, hi in runs:
            for x, j in _aligned_blocks(lo, hi):
                # a window of the block at k starts with its win - j digits
                # and must end by end
                k = sbits.find(format(x, f"0{win - j}b"), 1, end - j)
                if k != -1:
                    # a later block counts only where it occurs before k
                    hit, end = k, k - 1 + win
        results.append((target, hit))
    return results


def _aligned_blocks(lo: int, hi: int):
    """(x, j) for the fewest aligned blocks [x 2^j, (x + 1) 2^j) covering lo..hi, in order."""
    while lo <= hi:
        j = (hi - lo + 1).bit_length() - 1
        if lo:
            j = min(j, (lo & -lo).bit_length() - 1)
        yield lo >> j, j
        lo += 1 << j


@dataclass(frozen=True)
class CheckResult:
    check: str
    level: int
    passed: bool
    witness: str = ""

    def to_json(self) -> dict:
        return {"check": self.check, "level": self.level, "pass": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]


def validate(comb: Tower) -> ValidationReport:
    """Full invariant scan of a tower; failures become report entries."""
    entries: list[CheckResult] = []

    def add(check, level, passed, witness=""):
        entries.append(CheckResult(check, level, passed, witness))

    def linkage(chords, limit=None):
        # pass, and the first limit linked pairs as Chords over N
        found = _witnesses(chords)[:limit]
        return not found, "; ".join(f"{_chord(chords[i], N)} x {_chord(chords[k], N)}" for i, k in found)

    pair_ok = []
    for n, pair in enumerate(comb.levels, start=1):
        problems = pair.check()
        ok = not problems
        pair_ok.append(ok)
        add("pair_periodic", n, ok, "; ".join(problems))
        if ok:
            width = pair.width
            add("pair_width", n, width < HALF, f"width {_text(width.numerator, width.denominator)}")
    for n in range(1, comb.depth):
        a, b = comb.level(n), comb.level(n + 1)
        # a period <= 0 fails here rather than dividing by it
        ratio_ok = a.period > 0 and b.period % a.period == 0 and b.period >= 2 * a.period
        add("period_divisibility", n + 1, ratio_ok, f"{b.period} over {a.period}")
        if not (pair_ok[n - 1] and pair_ok[n]):
            continue
        nest_big = a.lo <= b.lo and b.hi <= a.hi and b.lo < b.hi
        add("nesting_S", n + 1, nest_big, f"[{b.lo},{b.hi}] in [{a.lo},{a.hi}]")
        try:
            nest_small = window_at(b, 1).is_subset_of(window_at(a, 1))
        except ValueError:
            nest_small = False
        add("nesting_s", n + 1, nest_small, "s_{n+1,1} in s_{n,1}")
    # every passing level's sigma-orbit, walked once over the lcm N of their
    # denominators, feeds orbit_exclusion, min_length_2inf and the chords
    N = math.lcm(*(t.denominator for pair, ok in zip(comb.levels, pair_ok) if ok for t in (pair.lo, pair.hi)))
    all_chords = []
    for n, pair in enumerate(comb.levels, start=1):
        if not pair_ok[n - 1]:
            continue
        # sigma^p fixes lo and hi, so the walk returns after m steps, m | p,
        # and step k of k = 1..p - 1 repeats step k mod m (residue 0 included);
        # S_n = (lo0, hi0) does not run across 0
        walk = list(_orbit_ints(pair, N))
        lo0, hi0 = walk[0]
        width = hi0 - lo0
        marks = []  # (endpoints inside S_n, avoiding-arc note) of each step of the walk
        for a, b in walk:
            # the points cut the circle into [u, v] and [v, u + 1]; an arc avoids
            # S_n when they share at most a point: [u, v] when it misses S_n,
            # [v, u + 1] when [u, v] holds it, and never both
            u, v = (a, b) if a < b else (b, a)
            avoiding = v - u if hi0 <= u or v <= lo0 else N - (v - u) if u <= lo0 and hi0 <= v else None
            note = "no arc avoids S_n interior" if avoiding is None else "avoiding arc shorter than S_n" if avoiding < width else ""
            marks.append(([x for x in (a, b) if lo0 < x < hi0], note))
        # a walk that returns after m < p steps names each witness once per
        # residue of k mod m, in order of first k (residue 0 last, at k = m)
        m = len(walk)
        hits, short = [], []
        for k in range(1, min(pair.period, m + 1)):
            xs, note = marks[k % m]
            if m == pair.period:
                where = f"k={k}"
                hits += [f"sigma^{k} hits {Angle(x, N)}" for x in xs]
            else:
                where = f"k = {k % m} mod {m}"
                hits += [f"sigma^k hits {Angle(x, N)} for {where}" for x in xs]
            if note:
                short.append(f"{where}: {note}")
        add("orbit_exclusion", n, not hits, "; ".join(hits))
        chords = _distinct(walk)
        all_chords += chords
        add("unlinked_chords", n, *linkage(chords))
        add("min_length_2inf", n, not short, "; ".join(short))
    # cross-level unlinking
    if all(pair_ok):
        add("unlinked_across_levels", 0, *linkage(all_chords, 5))
    return ValidationReport(tuple(entries))
