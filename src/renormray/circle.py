"""Exact arithmetic on the circle R/Z.

Angles are reduced fractions taken mod 1, arcs are closed counterclockwise
intervals, and arc sets are canonical unions of disjoint arcs.  Everything in
this module is exact: no floats cross any interface here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable

HALF = Fraction(1, 2)


def _as_fraction(value, den=None) -> Fraction:
    if den is not None:
        return Fraction(value, den)
    if type(value) is Fraction:  # immutable, so it is kept as it is
        return value
    if isinstance(value, Angle):
        return value.frac
    return Fraction(value)


class Angle:
    """A point of R/Z stored as a reduced fraction in [0, 1)."""

    __slots__ = ("frac",)

    def __init__(self, value=0, den=None):
        frac = _as_fraction(value, den)
        if not 0 <= frac.numerator < frac.denominator:  # a value already in [0, 1) is kept as is
            frac %= 1
        object.__setattr__(self, "frac", frac)

    def __setattr__(self, *a):
        raise AttributeError("Angle is immutable")

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse 'p/q' or 'p' into an angle."""
        return cls(_rational(text))

    @property
    def numerator(self) -> int:
        return self.frac.numerator

    @property
    def denominator(self) -> int:
        return self.frac.denominator

    def __add__(self, other) -> "Angle":
        return Angle(self.frac + _as_fraction(other))

    def __sub__(self, other) -> "Angle":
        return Angle(self.frac - _as_fraction(other))

    def __eq__(self, other) -> bool:
        return isinstance(other, Angle) and self.frac == other.frac

    def __lt__(self, other: "Angle") -> bool:
        return self.frac < other.frac

    def __le__(self, other: "Angle") -> bool:
        return self.frac <= other.frac

    def __hash__(self):
        return hash(self.frac)

    def __repr__(self):
        return f"Angle({self})"

    def __str__(self):
        return _text(self.frac.numerator, self.frac.denominator)

    def to_json(self) -> dict:
        return {"num": _text(self.frac.numerator), "den": _text(self.frac.denominator)}


def _text(num: int, den: int = 1) -> str:
    """'num/den', or 'num' when den is 1, also past the interpreter's limit on int-to-str digits."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        from decimal import Decimal  # prints an integer of any length exactly

        return _text(Decimal(num), Decimal(den))


def _rational(text: str) -> Fraction:
    """The exact rational 'p/q' or 'p' of decimal integers, not reduced mod 1."""
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(_int(num), _int(den))
    return Fraction(_int(text))


def _int(text: str) -> int:
    """int(text) for decimal text, also past the interpreter's limit on str-to-int digits.

    int() rejects a well-formed integer literal only for that limit; decimal
    reads such a literal exactly.  Any other text raises int()'s ValueError.
    """
    try:
        return int(text)
    except ValueError:
        import re

        # int() also counts a malformed literal's leading digits against the
        # limit, and decimal accepts more than integers, so check the form
        if not re.fullmatch(r"[+-]?\d+(?:_\d+)*", text.strip()):
            raise
        from decimal import Decimal

        return int(Decimal(text))


def _over_lcm(fracs) -> tuple[int, list[int]]:
    """(L, nums): the fractions as numerators over L, the lcm of their denominators.

    Exact walks compare and step these plain integers instead of Fractions.
    """
    scale = dict.fromkeys(f.denominator for f in fracs)
    L = math.lcm(*scale)
    for d in scale:
        scale[d] = L // d
    return L, [f.numerator * scale[f.denominator] for f in fracs]


def _coprime(num: int, den: int) -> Fraction:
    """num/den for coprime num and den > 0, built without the gcd that Fraction() runs.

    It sets the two slots as Python 3.12's Fraction._from_coprime_ints does;
    the caller proves the pair coprime.
    """
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def _over(x: int, den: int, e: int, g: int | None = None) -> Fraction:
    """x / (den 2^e) as a reduced Fraction.

    The common power of two is shifted out first; what is left of x is then
    odd or over den alone, so gcd(x, den) is the rest of the common factor.
    A caller that knows that factor passes it as g, and no gcd runs.
    """
    v = min(e, (x & -x).bit_length() - 1) if x else e
    x >>= v
    if g is None:
        g = math.gcd(x, den)
    return _coprime(x // g, (den // g) << (e - v))


# builtin divmod is schoolbook division on Python 3.11; below this width of
# divisor or quotient, in bits, it is also the faster one (cutoffs of 2,500
# to 4,000 bits time alike, and below 2,000 the recursion costs more)
_DIV_CUTOFF = 4000


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b), by Burnikel-Ziegler recursive division when b and the quotient are both wide.

    Long division in base 2^n, n the width of b: with r < b, each step
    divides r 2^n plus the next n-bit digit of a, a number below b 2^n, by b
    (Burnikel and Ziegler, Fast Recursive Division, MPI-I-98-1-022, 1998).
    """
    n = b.bit_length()
    if a < 0 or b < 0 or n <= _DIV_CUTOFF or a.bit_length() - n <= _DIV_CUTOFF:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for i in range(a.bit_length() // n * n, -1, -n):
        d, r = _div2n1n(r << n | (a >> i) & mask, b, n)
        q = q << n | d
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b 2^n: two 3-halves-by-2-halves steps."""
    if a.bit_length() - n <= _DIV_CUTOFF:
        return divmod(a, b)
    if n & 1:  # an even width splits b in halves; doubling a and b keeps the quotient
        q, r = _div2n1n(a << 1, b << 1, n + 1)
        return q, r >> 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 2^h + a3, b) for b = b1 2^h + b2 with b1 of exactly h bits and a12 < b 2^h.

    The quotient estimate from a12 / b1 is at most 2 too large; the loop
    corrects it.  When a12's top half equals b1 the estimate is 2^h - 1.
    """
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def double(t: Angle) -> Angle:
    """The doubling map t -> 2t mod 1."""
    return Angle(2 * t.frac)


def sigma_pow(t: Angle, m: int) -> Angle:
    """m-fold doubling, computed with a modular power (fast for huge m)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return t
    den = t.frac.denominator
    return Angle((t.frac.numerator * pow(2, m, den)) % den, den)


def preimages(t: Angle) -> tuple[Angle, Angle]:
    """The preimages t/2 < t/2 + 1/2 under doubling: for t = n/d, m/(2d) with m = n, n + d, reduced as m/2 over d for an even m."""
    n, d = t.frac.numerator, t.frac.denominator
    m = n + d
    return (Angle(_coprime(n, d << 1) if n & 1 else _coprime(n >> 1, d)),
            Angle(_coprime(m, d << 1) if m & 1 else _coprime(m >> 1, d)))


def _mult_order_2(m: int) -> int:
    """Multiplicative order of 2 modulo odd m (order 1 when m == 1).

    Each step doubles r < m by a shift and at most one subtraction, as
    lamination._orbit_ints steps sigma, with no division.
    """
    if m == 1:
        return 1
    r = 2 % m
    k = 1
    while r != 1:
        r <<= 1
        if r >= m:
            r -= m
        k += 1
    return k


def orbit_info(t: Angle) -> tuple[int, int]:
    """Exact (preperiod, period) of t under the doubling map.

    The preperiod is the 2-adic valuation of the denominator and the period
    is the multiplicative order of 2 modulo its odd part.
    """
    den = t.frac.denominator
    pre = 0
    while den % 2 == 0:
        den //= 2
        pre += 1
    return pre, _mult_order_2(den)


def _digits(t: Angle) -> tuple[int, int, int, int]:
    """(e, h, q, k) with t = (h + k/(2^q - 1))/2^e: t's e preperiodic and q periodic binary digits as integers."""
    e, q = orbit_info(t)
    odd = t.denominator >> e
    h, rem = divmod(t.numerator, odd)
    return e, h, q, rem * _divmod((1 << q) - 1, odd)[0]


def binary_words(t: Angle) -> tuple[str, str]:
    """Preperiodic and periodic blocks of the binary expansion of t.

    t = 0.(pre)(per)(per)... in base 2; for t = 0 the blocks are ('', '0').
    """
    e, h, q, k = _digits(t)
    return format(h, f"0{e}b") if e else "", format(k, f"0{q}b")


def angle_from_words(pre_bits: str, per_bits: str) -> Angle:
    """Angle with binary expansion 0.(pre_bits) followed by repeating per_bits."""
    if not per_bits:
        raise ValueError("periodic block must be non-empty")
    # (head + per/M)/2^len(pre) with M = 2^len(per) - 1, one reduction over M 2^len(pre)
    head = int(pre_bits, 2) if pre_bits else 0
    M = (1 << len(per_bits)) - 1
    return Angle(_over(head * M + int(per_bits, 2), M, len(pre_bits)))


@dataclass(frozen=True)
class Arc:
    """Closed arc traversed counterclockwise from ``start`` over ``length``.

    length == 1 is the full circle; length == 0 is a degenerate point arc
    (used for e.g. single-point enclosing arcs).
    """

    start: Angle
    length: Fraction

    def __post_init__(self):
        length = self.length if type(self.length) is Fraction else Fraction(self.length)
        if not 0 <= length.numerator <= length.denominator:
            raise ValueError("arc length must lie in [0, 1]")
        object.__setattr__(self, "length", length)
        if not isinstance(self.start, Angle):
            object.__setattr__(self, "start", Angle(self.start))

    @property
    def end(self) -> Angle:
        return self.start + self.length

    @property
    def is_full_circle(self) -> bool:
        return self.length == 1

    def contains(self, t: Angle) -> bool:
        return (t.frac - self.start.frac) % 1 <= self.length

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "len": {"num": _text(self.length.numerator), "den": _text(self.length.denominator)},
        }

    def __repr__(self):
        return f"Arc[{self.start}, {self.end}] (len {_text(self.length.numerator, self.length.denominator)})"


def _arc_spans(arcs) -> tuple[int, list[tuple[int, int, Arc]]]:
    """(L, spans): each arc as (start, length, arc), numerators over L, the lcm of every start and length denominator."""
    scale = {}
    for a in arcs:
        scale[a.start.frac.denominator] = scale[a.length.denominator] = None
    L = math.lcm(*scale)
    for d in scale:
        scale[d] = L // d
    return L, [(a.start.frac.numerator * scale[a.start.frac.denominator],
                a.length.numerator * scale[a.length.denominator], a) for a in arcs]


def _union(L: int, spans) -> tuple[Arc, ...]:
    """The canonical arcs of the union of spans (start, length, arc) over L.

    Sorted by start, each span joins the last maximal one when it starts
    within its reach (so touching spans join); then the last one runs across
    0 over the leading ones within its reach, and an extent of L or more is
    the full circle.  Each arc starts at the Angle of the arc its first span
    came from; a Fraction is built only for a length that arc does not have.
    """
    out: list[list] = []  # [start, end, arc] of each maximal span
    for s, n, arc in sorted(spans, key=itemgetter(0)):
        if out and s <= out[-1][1]:
            if s + n > out[-1][1]:
                out[-1][1] = s + n
        elif n:
            out.append([s, s + n, arc])
    while len(out) > 1 and out[0][0] + L <= out[-1][1]:
        out[-1][1] = max(out[-1][1], out.pop(0)[1] + L)
    if out and out[-1][1] - out[-1][0] >= L:
        return (Arc(Angle(0), Fraction(1)),)
    return tuple(
        arc if (e - s) * arc.length.denominator == arc.length.numerator * L else Arc(arc.start, Fraction(e - s, L))
        for s, e, arc in out
    )


class ArcSet:
    """Canonical finite union of disjoint closed arcs in cyclic order.

    Overlapping or touching arcs are merged during canonicalization; the
    canonical form is order-independent.
    """

    __slots__ = ("arcs",)

    def __init__(self, arcs: Iterable[Arc] = ()):
        object.__setattr__(self, "arcs", _union(*_arc_spans(tuple(arcs))))

    @classmethod
    def _canonical(cls, arcs: tuple[Arc, ...]) -> "ArcSet":
        """The ArcSet of arcs already in canonical form, without the merge ArcSet() runs.

        The caller proves them of positive length, sorted by start, and
        pairwise neither meeting nor touching.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "arcs", arcs)
        return s

    def __setattr__(self, *a):
        raise AttributeError("ArcSet is immutable")

    def contains(self, t: Angle) -> bool:
        return any(a.contains(t) for a in self.arcs)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """Closed intersection; degenerate single-point overlaps are dropped.

        Over L, with d = (t - s) mod L the offset of b's start t from a's
        start s, b starts inside a when d < a's length, and b runs on across
        a's start when d + b's length > L.
        """
        k = len(self.arcs)
        L, spans = _arc_spans(self.arcs + other.arcs)
        pieces = []
        for s, la, a in spans[:k]:
            for t, lb, b in spans[k:]:
                d = (t - s) % L
                if d < la:
                    pieces.append((t, min(lb, la - d), b))
                if d + lb > L:
                    pieces.append((s, min(la, d + lb - L), a))
        return ArcSet._canonical(_union(L, pieces))

    def is_subset_of(self, other: "ArcSet") -> bool:
        # canonical forms are unique and intersect drops only single points
        return self.intersect(other) == self

    def __eq__(self, other) -> bool:
        return isinstance(other, ArcSet) and self.arcs == other.arcs

    def __hash__(self):
        return hash(self.arcs)

    def __iter__(self):
        return iter(self.arcs)

    def __len__(self):
        return len(self.arcs)

    def __repr__(self):
        return "ArcSet(" + " u ".join(f"[{a.start}, {a.end}]" for a in self.arcs) + ")"


@dataclass(frozen=True)
class LimitAngle:
    """An angle defined by nested shrinking arcs.

    ``refiner(depth)`` returns integers (s, l, den, e) with den >= 1: the
    closed arc from s/(den 2^e) over the length l/(den 2^e) contains the
    limit.  Start and length share that one denominator, which need not be
    reduced, so a refiner builds no Fraction and runs no gcd.  The arcs are
    nested and their lengths shrink to 0 within the declared depth budget.
    Exceeding the budget is an error, never silent truncation.
    """

    refiner: Callable[[int], tuple[int, int, int, int]]
    max_depth: int

    @classmethod
    def from_angle(cls, t: Angle) -> "LimitAngle":
        num, den = t.frac.numerator, t.frac.denominator
        return cls(lambda depth: (num, 0, den, 0), max_depth=1)

    def _arc_for_bits(self, nbits: int) -> tuple[int, int, int, int]:
        prev = None
        for depth in range(1, self.max_depth + 1):
            arc = self.refiner(depth)
            _, l, den, e = arc
            if prev is not None:
                # l/(den 2^e) > pl/(pden 2^pe), both sides times 2^-min(e, pe)
                _, pl, pden, pe = prev
                m = min(e, pe)
                if (l * pden) << (pe - m) > (pl * den) << (e - m):
                    raise ValueError("refiner arcs are not shrinking")
            prev = arc
            # l/(den 2^e) <= 2^-(nbits+2), both sides times 2^-min(e, nbits + 2)
            m = min(e, nbits + 2)
            if l << (nbits + 2 - m) <= den << (e - m):
                return arc
        raise ValueError(f"insufficient depth: {nbits} bits need more than {self.max_depth} refinements")

    def prefix_bits(self, nbits: int) -> int:
        """First nbits binary digits of the limit, as an integer."""
        if nbits < 1:
            raise ValueError("need at least one bit")
        s, l, den, e = self._arc_for_bits(nbits)
        # floor(s 2^n / (den 2^e)) and floor((s + l) 2^n / (den 2^e)), mod 2^n.
        # The power of two 2^(n - e) goes into s as a shift, so the one wide
        # division is by den alone, and _divmod runs it recursively; the
        # second floor is the first plus the carry of the remainder, with any
        # digits shifted out of s, over the length
        k = e - nbits
        if k > 0:
            lo, r = _divmod(s >> k, den)
            hi = lo + ((r << k) + (s & ((1 << k) - 1)) + l) // (den << k)
        else:
            lo, r = _divmod(s << -k, den)
            hi = lo + (r + (l << -k)) // den
        # when the arc straddles a dyadic boundary report the upper cell,
        # which is still within 2^-nbits of the limit
        return (lo if lo == hi else hi) & ((1 << nbits) - 1)

    def refine(self, bits: int) -> Angle:
        """Dyadic angle with denominator 2^bits within 2^-bits of the limit."""
        if bits < 1:
            raise ValueError("bit request must be >= 1")
        return Angle(self.prefix_bits(bits), 1 << bits)
