"""Exact arithmetic on the circle R/Z.

Angles are reduced fractions taken mod 1, arcs are closed counterclockwise
intervals, and arc sets are canonical unions of disjoint arcs.  Everything in
this module is exact: no floats cross any interface here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
        if "/" in text:
            num, den = text.split("/", 1)
            return cls(int(num), int(den))
        return cls(int(text))

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
        return f"Angle({self.frac})"

    def __str__(self):
        return f"{self.frac.numerator}/{self.frac.denominator}" if self.frac.denominator != 1 else str(self.frac.numerator)

    def to_json(self) -> dict:
        return {"num": str(self.frac.numerator), "den": str(self.frac.denominator)}


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
    """The two preimages t/2 and t/2 + 1/2 under doubling, ordered by value."""
    a = Angle(t.frac / 2)
    b = Angle(t.frac / 2 + HALF)
    return (a, b) if a < b else (b, a)


def _mult_order_2(m: int) -> int:
    """Multiplicative order of 2 modulo odd m (order 1 when m == 1)."""
    if m == 1:
        return 1
    r = 2 % m
    k = 1
    while r != 1:
        r = (2 * r) % m
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


def binary_words(t: Angle) -> tuple[str, str]:
    """Preperiodic and periodic blocks of the binary expansion of t.

    t = 0.(pre)(per)(per)... in base 2; for t = 0 the blocks are ('', '0').
    """
    pre_len, per_len = orbit_info(t)
    shifted = t.frac * 2**pre_len
    head = int(shifted)  # integer part carries the preperiodic digits
    frac = shifted - head
    per_int = int(frac * (2**per_len - 1))
    pre_bits = format(head, f"0{pre_len}b") if pre_len else ""
    per_bits = format(per_int, f"0{per_len}b")
    return pre_bits, per_bits


def angle_from_words(pre_bits: str, per_bits: str) -> Angle:
    """Angle with binary expansion 0.(pre_bits) followed by repeating per_bits."""
    if not per_bits:
        raise ValueError("periodic block must be non-empty")
    a = len(pre_bits)
    head = int(pre_bits, 2) if pre_bits else 0
    tail = Fraction(int(per_bits, 2), 2 ** len(per_bits) - 1)
    return Angle(Fraction(head + tail, 2**a))


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
            "len": {"num": str(self.length.numerator), "den": str(self.length.denominator)},
        }

    def __repr__(self):
        return f"Arc[{self.start}, {self.end}] (len {self.length})"


def _offset(a: Arc, b: Arc) -> tuple[int, int]:
    """The offset d = (b.start - a.start) mod 1 as an unreduced pair (n, q), 0 <= n < q."""
    x, y = a.start.frac, b.start.frac
    q = x.denominator
    if y.denominator == q:
        return (y.numerator - x.numerator) % q, q
    q *= y.denominator
    return (y.numerator * x.denominator - x.numerator * y.denominator) % q, q


def _min_length(length: Fraction, num: int, den: int) -> Fraction:
    """min(length, num/den), building a Fraction only when num/den is the smaller."""
    return length if length.numerator * den <= num * length.denominator else Fraction(num, den)


def _meet(a: Arc, b: Arc) -> list[Arc]:
    """The pieces of positive length shared by two arcs of positive length.

    With d = n/q the offset of b's start from a's start, b starts inside a
    when d < a.length, and b runs on across a's start when d + b.length > 1.
    Both tests and the min of lengths cross-multiply integers.
    """
    n, q = _offset(a, b)
    an, ad = a.length.numerator, a.length.denominator
    bn, bd = b.length.numerator, b.length.denominator
    pieces = []
    inside = an * q - n * ad  # (a.length - d) q ad
    if inside > 0:
        pieces.append(Arc(b.start, _min_length(b.length, inside, ad * q)))
    over = n * bd + bn * q - q * bd  # (d + b.length - 1) q bd
    if over > 0:
        pieces.append(Arc(a.start, _min_length(a.length, over, q * bd)))
    return pieces


def _absorb(a: Arc, b: Arc) -> Arc | None:
    """a extended over b when b starts within a's reach, else None.

    The reach d + b.length is compared as integers; a Fraction is built only
    when it extends a and stays below the full circle.
    """
    n, q = _offset(a, b)
    an, ad = a.length.numerator, a.length.denominator
    if n * ad > an * q:
        return None
    bd = b.length.denominator
    rn, rq = n * bd + b.length.numerator * q, q * bd
    if rn * ad <= an * rq:
        return a
    return Arc(a.start, Fraction(1) if rn >= rq else Fraction(rn, rq))


class ArcSet:
    """Canonical finite union of disjoint closed arcs in cyclic order.

    Overlapping or touching arcs are merged during canonicalization; the
    canonical form is order-independent.
    """

    __slots__ = ("arcs",)

    def __init__(self, arcs: Iterable[Arc] = ()):
        object.__setattr__(self, "arcs", self._canonicalize(arcs))

    @classmethod
    def _canonical(cls, arcs: tuple[Arc, ...]) -> "ArcSet":
        """The ArcSet of arcs already in canonical form, without _canonicalize.

        The caller proves them of positive length, sorted by start, and
        pairwise neither meeting nor touching.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "arcs", arcs)
        return s

    def __setattr__(self, *a):
        raise AttributeError("ArcSet is immutable")

    @staticmethod
    def _canonicalize(arcs: Iterable[Arc]) -> tuple[Arc, ...]:
        """Maximal arcs sorted by start; a union covering the circle is Arc(0, 1)."""
        out: list[Arc] = []
        for arc in sorted((a for a in arcs if a.length > 0), key=lambda a: a.start.frac):
            merged = _absorb(out[-1], arc) if out else None
            if merged is None:
                out.append(arc)
            else:
                out[-1] = merged
        # the last arc may run across 0 over the leading ones
        while len(out) > 1 and (merged := _absorb(out[-1], out[0])) is not None:
            out[-1] = merged
            out.pop(0)
        if out and out[-1].is_full_circle:
            return (Arc(Angle(0), Fraction(1)),)
        return tuple(out)

    def contains(self, t: Angle) -> bool:
        return any(a.contains(t) for a in self.arcs)

    def intersect(self, other: "ArcSet") -> "ArcSet":
        """Closed intersection; degenerate single-point overlaps are dropped."""
        return ArcSet(piece for a in self.arcs for b in other.arcs for piece in _meet(a, b))

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

    ``refiner(depth)`` returns (start, length) of a closed arc containing the
    limit; arcs are nested and their lengths shrink to 0 within the declared
    depth budget.  Exceeding the budget is an error, never silent truncation.
    """

    refiner: Callable[[int], tuple[Fraction, Fraction]]
    max_depth: int

    @classmethod
    def from_angle(cls, t: Angle) -> "LimitAngle":
        return cls(lambda depth: (t.frac, Fraction(0)), max_depth=1)

    def _arc_for_bits(self, nbits: int) -> tuple[Fraction, Fraction]:
        target = Fraction(1, 1 << (nbits + 2))
        prev_len = None
        for depth in range(1, self.max_depth + 1):
            start, length = self.refiner(depth)
            if prev_len is not None and length > prev_len:
                raise ValueError("refiner arcs are not shrinking")
            prev_len = length
            if length <= target:
                return start, length
        raise ValueError(f"insufficient depth: {nbits} bits need more than {self.max_depth} refinements")

    def prefix_bits(self, nbits: int) -> int:
        """First nbits binary digits of the limit, as an integer."""
        if nbits < 1:
            raise ValueError("need at least one bit")
        start, length = self._arc_for_bits(nbits)
        # floor(start 2^n) and floor((start + length) 2^n) on numerators, with
        # start taken mod 1; the second is the first plus the carry of the
        # remainder over the length
        num, den = start.numerator, start.denominator
        if not 0 <= num < den:
            num %= den
        lo, rem = divmod(num << nbits, den)
        ln, ld = length.numerator, length.denominator
        hi = lo + (rem * ld + (ln << nbits) * den) // (den * ld)
        if lo == hi:
            return lo
        # the arc straddles a dyadic boundary; report the upper cell, which is
        # still within 2^-nbits of the limit
        return hi % (1 << nbits)

    def refine(self, bits: int) -> Angle:
        """Dyadic angle with denominator 2^bits within 2^-bits of the limit."""
        if bits < 1:
            raise ValueError("bit request must be >= 1")
        return Angle(self.prefix_bits(bits), 1 << bits)
