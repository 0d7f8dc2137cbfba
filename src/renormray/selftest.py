"""Embedded exact-arithmetic consistency suite.

Each check re-derives a combinatorial fact two independent ways and compares
exactly; the CLI `selftest` subcommand runs them all and the test suite
reuses them one by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .circle import Angle, sigma_pow
from .lamination import build, verify_unlinked
from .rotation import minimal_rotation_set, minimal_rotation_set_bruteforce, rotation_number, minimal_enclosing_arc
from .towers import (
    feigenbaum_tower,
    in_shadow,
    rabbit_tower,
    subwindow,
    theta,
    tune,
    window_at,
    window_length,
)

_ROTATION_QMAX = 12  # rotation oracle: every reduced p/q with q <= this
_WINDOW_DEPTH = 6  # window algebra: depth of the period-doubling tower
# semiconjugacy and shadow consistency: tower levels, sample sizes and seeds
_SEMICONJUGACY_LEVELS = 3
_SEMICONJUGACY_SAMPLES = 100
_SEMICONJUGACY_SEED = 20260826
_SHADOW_LEVELS = 4
_SHADOW_SAMPLES = 50
_SHADOW_SEED = 4261


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


def check_rotation_oracle() -> Check:
    """Sturmian construction vs brute-force orbit enumeration, all reduced
    p/q with q <= 12; plus rotation-number round-trip and the semicircle
    bound on the enclosing arc."""
    for q in range(1, _ROTATION_QMAX + 1):
        for p in range(q):
            if gcd(p, q) != 1:
                continue
            nu = Fraction(p, q)
            fast = minimal_rotation_set(nu)
            slow = minimal_rotation_set_bruteforce(nu)
            if fast.points != slow.points:
                return Check("rotation_oracle", False, f"nu={nu}: construction disagrees with enumeration")
            if rotation_number(fast.points) != nu:
                return Check("rotation_oracle", False, f"nu={nu}: rotation number does not round-trip")
            arc, fits = minimal_enclosing_arc(fast.points)
            if arc.length > Fraction(1, 2) or not fits:
                return Check("rotation_oracle", False, f"nu={nu}: enclosing arc longer than a semicircle")
    return Check("rotation_oracle", True, f"all reduced p/q with q <= {_ROTATION_QMAX}")


def check_window_algebra() -> Check:
    """Nesting of windows, exact component lengths, and four-component
    sub-windows with sigma^p endpoint checks, on the period-doubling tower
    of depth 6."""
    comb = feigenbaum_tower(_WINDOW_DEPTH)
    for n in range(1, _WINDOW_DEPTH):
        a, b = comb.level(n), comb.level(n + 1)
        if not (a.lo < b.lo and b.hi < a.hi):
            return Check("window_algebra", False, f"level {n + 1} sector not inside level {n}")
        if not window_at(b, 1).is_subset_of(window_at(a, 1)):
            return Check("window_algebra", False, f"s at level {n + 1} not inside s at level {n}")
    for n in range(1, _WINDOW_DEPTH + 1):
        pair = comb.level(n)
        p = pair.period
        for j in range(1, p + 1):
            delta = window_length(pair, j)
            if any(comp.length != delta for comp in window_at(pair, j).arcs):
                return Check("window_algebra", False, f"level {n}, j={j}: Delta differs from the arcs of s_(n,j)")
            # both of the above read the pair's integer window; the width
            # formula does not
            if delta != pair.width / (1 << (p - j + 1)):
                return Check("window_algebra", False, f"level {n}, j={j}: Delta differs from width / 2^(p - j + 1)")
            # subwindow() itself raises if any sigma^p endpoint image is off or
            # the four arcs meet
            if any(a.length != delta / (1 << p) for a in subwindow(pair, j).arcs):
                return Check("window_algebra", False, f"level {n}, j={j}: wrong sub-window length")
    return Check("window_algebra", True, f"period-doubling tower depth {_WINDOW_DEPTH}")


def semiconjugacy_samples(comb, n: int, count: int):
    """Pairs (s, t) with t = sigma^(p_n - 1)(tune(pair_n, s)) in the level-n shadow.

    Tuning a random odd-denominator rational s into the level-n pair and
    shifting by sigma^(p_n - 1) lands in the shadow; each sample is verified
    against the precondition before use.
    """
    rng = random.Random(_SEMICONJUGACY_SEED + n)
    pair = comb.level(n)
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        den = 2 * rng.randrange(1, 250) + 1
        num = rng.randrange(1, den)
        s = Angle(num, den)
        t = sigma_pow(tune(pair, s), pair.period - 1)
        if in_shadow(t, comb, n, pair.period):
            out.append((s, t))
    if len(out) < count:
        raise ArithmeticError("sample generator starved")
    return out


def check_semiconjugacy() -> Check:
    """theta(t) = s, exactly, for t = sigma^(p-1)(tune(pair, s)) on 100
    generated samples over levels 1..3 of the period-doubling tower.  Tuning
    substitutes the pair's words for the digits of s and reads no window, so
    it checks theta's labelling independently."""
    comb = feigenbaum_tower(_SEMICONJUGACY_LEVELS)
    per_level = -(-_SEMICONJUGACY_SAMPLES // _SEMICONJUGACY_LEVELS)
    for n in range(1, _SEMICONJUGACY_LEVELS + 1):
        for s, t in semiconjugacy_samples(comb, n, per_level):
            value = theta(comb, n, t).value
            if value != s:
                return Check("semiconjugacy", False, f"level {n}, t={t}: theta {value} != {s}")
    return Check("semiconjugacy", True, f"{per_level} samples per level, levels 1..{_SEMICONJUGACY_LEVELS}")


def check_unlinked() -> Check:
    """Chord families of the two stock towers are pairwise unlinked."""
    for name, fam in (
        ("period-doubling depth 4", build(feigenbaum_tower(4), 4, 0)),
        ("rabbit depth 3", build(rabbit_tower(3), 3, 0)),
    ):
        report = verify_unlinked(fam)
        if not report["pass"]:
            return Check("unlinked", False, f"{name}: {report['witnesses'][:3]}")
    return Check("unlinked", True, "period-doubling depth 4 and rabbit depth 3")


def check_shadow_consistency() -> Check:
    """The j = 1 sub-window itinerary criterion agrees with the plain window
    criterion on 50 sampled rationals, levels 1..4 of the period-doubling
    tower; in_shadow(t, comb, n, 1) compares the two and raises when they
    disagree."""
    comb = feigenbaum_tower(_SHADOW_LEVELS)
    rng = random.Random(_SHADOW_SEED)
    angles = []
    while len(angles) < _SHADOW_SAMPLES:
        den = rng.randrange(2, 4000)
        num = rng.randrange(0, den)
        angles.append(Angle(num, den))
    for n in range(1, _SHADOW_LEVELS + 1):
        for t in angles:
            try:
                in_shadow(t, comb, n, 1)
            except ValueError as exc:
                return Check("shadow_consistency", False, f"level {n}, t={t}: {exc}")
    return Check("shadow_consistency", True, f"{_SHADOW_SAMPLES} angles, levels 1..{_SHADOW_LEVELS}")


def run_all() -> list[Check]:
    return [
        check_rotation_oracle(),
        check_window_algebra(),
        check_semiconjugacy(),
        check_unlinked(),
        check_shadow_consistency(),
    ]
