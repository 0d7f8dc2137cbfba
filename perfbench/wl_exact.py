"""The two exact workloads: ``exact-queries`` and ``exact-scans``.

``build(R, rng)`` returns the fixed batch for a seed; with ``rng=None`` it
returns every operation any seed can draw, which is what
``make_reference.py`` records digests for.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from ops import Op, Raised

# Base angles tuned into each level: all reduced a/d with small odd d, so the
# tuned angles have periods up to 6 p and denominators near 2^(6 p).  A seed
# draws the numerator; the denominator is fixed per level, so the cost of a
# batch does not depend on the seed.
TUNE_DENS = (3, 5, 7, 9)
TUNE_BASES = [Fraction(a, d) for d in TUNE_DENS for a in range(1, d) if gcd(a, d) == 1]
ROTATION_Q_ORACLE = range(5, 15)  # checked against the brute-force oracle (cost 2^q)
ROTATION_Q_ALL = 11  # every p/11, not one: ten brute-force calls of equal cost hold the batch's tail percentile
ROTATION_Q_LARGE = (16, 24, 32, 48, 64)
OMEGA_TARGET = Fraction(6757, 32768)  # the README's omega example
OMEGA_MISS = Fraction(1, 3)  # no hit within the horizon: a full scan


def pick(rng, seq, k=1):
    """k items drawn by the seed, or every item when enumerating the pool."""
    seq = list(seq)
    return seq if rng is None else rng.sample(seq, k)


def arbitrary_pool(name: str) -> list[Fraction]:
    """Ten fixed rationals per level, not built to lie in any shadow."""
    g = random.Random(f"arbitrary-{name}")
    out = []
    while len(out) < 10:
        den = g.randrange(3, 4097)
        out.append(Fraction(g.randrange(1, den), den))
    return out


def subwindow_js(p: int) -> list[int]:
    """Positions j at which sub-windows are queried (windows: every j)."""
    return sorted({1, 2, p // 2, p - 1, p})


def sigma_p_orbit_len(t: Fraction, p: int) -> int:
    """Points of the sigma^p orbit of t (preperiod plus period), from t alone."""
    den, pre = t.denominator, 0
    while den % 2 == 0:
        den //= 2
        pre += 1
    per, r = 1, 2 % den if den > 1 else 0
    while den > 1 and r != 1:
        r, per = (2 * r) % den, per + 1
    return -(-pre // p) + per // gcd(per, p)


def words_value(pre: str, per: str) -> Fraction:
    head = int(pre, 2) if pre else 0
    return (head + Fraction(int(per, 2), 2 ** len(per) - 1)) / 2 ** len(pre)


# ---------------------------------------------------------------- queries


def _theta_op(R, comb, name, n, t, label, box, slot):
    def run(tr):
        if tr.enabled:  # counters cost time: only in traced runs
            tr.add("towers.orbit_points", sigma_p_orbit_len(t.frac, comb.level(n).period))
            tr.peak("circle.max_den_bits", t.denominator.bit_length())
        try:
            out = tr.call("towers.theta", R.theta, comb, n, t)
        except ValueError as exc:
            out = Raised(exc)
        else:
            if tr.enabled:
                tr.peak("circle.max_den_bits", out.value.denominator.bit_length())
        box[slot] = out
        return out

    def check(out):
        # semiconjugacy identity theta(sigma^p t) = 2 theta(t), on the pair
        base = box.get("t")
        if slot == "tp" and not isinstance(out, Raised) and base is not None and not isinstance(base, Raised):
            if out.value.frac != (2 * base.value.frac) % 1:
                return ["theta(sigma^p t) != 2 theta(t)"]
        return []

    return Op("towers.theta", run, key=f"theta|{name}|{label}", check=check)


def _shadow_op(R, comb, name, n, t, j, label):
    def run(tr):
        if tr.enabled:  # counters cost time: only in traced runs
            tr.add("towers.orbit_points", sigma_p_orbit_len(t.frac, comb.level(n).period))
        return tr.call("towers.in_shadow", R.in_shadow, t, comb, n, j)

    return Op("towers.in_shadow", run, key=f"in_shadow|{name}|{label}|j={j}")


def _circle_op(R, pair, name, t, label):
    p = pair.period
    delta = pair.width / (1 << p)

    def run(tr):
        tr.peak("circle.max_den_bits", t.denominator.bit_length())
        img = tr.call("circle.sigma_pow", R.sigma_pow, t, p)
        words = tr.call("circle.binary_words", R.binary_words, t)
        win = tr.call("circle.arcset_build", R.ArcSet, [R.Arc(pair.lo, delta), R.Arc(pair.hi - delta, delta)])
        near = tr.call("circle.arcset_build", R.ArcSet, [R.Arc(t, pair.width), R.Arc(img, pair.width)])
        inter = tr.call("circle.arcset_intersect", win.intersect, near)
        hits = [
            tr.call("circle.arcset_contains", win.contains, t),
            tr.call("circle.arcset_contains", near.contains, img),
            tr.call("circle.arcset_contains", inter.contains, t),
        ]
        return [img, list(words), win, near, inter, hits]

    def check(out):
        img, words, win = out[0], out[1], out[2]
        bad = []
        if img.frac != Fraction(t.numerator * pow(2, p, t.denominator) % t.denominator, t.denominator):
            bad.append("sigma_pow differs from 2^p num mod den")
        if words_value(*words) != t.frac:
            bad.append("binary_words does not round-trip")
        if sum(a.length for a in win.arcs) != 2 * delta:
            bad.append("window ArcSet has the wrong total length")
        return bad

    return Op("circle.kernel", run, key=f"circle|{name}|{label}", check=check)


def _window_op(R, pair, name, j):
    delta = pair.width / (1 << (pair.period - j + 1))

    def check(out):
        if len(out.arcs) != 2 or any(a.length != delta for a in out.arcs):
            return [f"window component length is not width/2^(p-j+1) at j={j}"]
        return []

    return Op("towers.window_at", lambda tr: tr.call("towers.window_at", R.window_at, pair, j),
              key=f"window_at|{name}|j={j}", check=check)


def _subwindow_op(R, pair, name, j):
    p = pair.period
    delta = pair.width / (1 << (p - j + 1)) / (1 << p)

    def run(tr):
        sub = tr.call("towers.subwindow", R.subwindow, pair, j)
        return {"labeled": sub.labeled, "arcs": sub.arcs}

    def check(out):
        if len(out["arcs"].arcs) != 4 or any(a.length != delta for a in out["arcs"].arcs):
            return [f"sub-window component length is not width/2^(2p-j+1) at j={j}"]
        return []

    return Op("towers.subwindow", run, key=f"subwindow|{name}|j={j}", check=check)


def _component_op(R, comb, name, n, kind):
    addr = (R.ComponentAddress.critical(comb, n) if kind == "critical"
            else R.ComponentAddress.constant(1, n))

    def check(out):
        bad = [] if len(out.components.arcs) <= 4 else ["more than four components"]
        if kind == "critical" and out.classification != "case2(0)":
            bad.append(f"critical component classified {out.classification}")
        return bad

    return Op("towers.shadow_component",
              lambda tr: tr.call("towers.shadow_component", R.shadow_component, comb, addr, n),
              key=f"shadow_component|{name}|{kind}", check=check)


def _rotation_ops(R, rng):
    ops = []
    for q in ROTATION_Q_ORACLE:
        ps = [p for p in range(1, q) if gcd(p, q) == 1]
        for p in ps if q == ROTATION_Q_ALL else pick(rng, ps):
            nu, box = Fraction(p, q), {}

            def fast(tr, nu=nu, box=box):
                box["fast"] = tr.call("rotation.minimal_rotation_set", R.minimal_rotation_set, nu)
                return box["fast"]

            def check(out, box=box):
                fast = box.get("fast")
                if fast is not None and fast.points != out.points:
                    return ["Sturmian rotation set differs from the brute-force one"]
                return []

            ops.append(Op("rotation.minimal_rotation_set", fast, key=f"rotation|{nu}", encode=lambda r: r.points))
            ops.append(Op("rotation.bruteforce",
                          lambda tr, nu=nu: tr.call("rotation.bruteforce", R.minimal_rotation_set_bruteforce, nu),
                          key=f"rotation|{nu}", encode=lambda r: r.points, check=check))
    for q in ROTATION_Q_LARGE:
        for p in pick(rng, [p for p in range(1, q) if gcd(p, q) == 1]):
            nu = Fraction(p, q)
            ops.append(Op("rotation.minimal_rotation_set",
                          lambda tr, nu=nu: tr.call("rotation.minimal_rotation_set", R.minimal_rotation_set, nu),
                          key=f"rotation|{nu}", encode=lambda r: r.points))
    return ops


def build_queries(R, rng):
    ops = []
    for fam, comb in (("F", R.feigenbaum_tower(6)), ("R", R.rabbit_tower(3))):
        for n in range(1, comb.depth + 1):
            name = f"{fam}{n}"
            pair = comb.level(n)
            p = pair.period
            bases = [b for b in TUNE_BASES if b.denominator == TUNE_DENS[(n - 1) % len(TUNE_DENS)]]
            for b in pick(rng, TUNE_BASES if rng is None else bases):
                t = R.sigma_pow(R.tune(pair, R.Angle(b)), p - 1)
                label, box = f"tuned {b}", {}
                ops += [
                    _theta_op(R, comb, name, n, t, label, box, "t"),
                    _theta_op(R, comb, name, n, R.sigma_pow(t, p), label + " shifted", box, "tp"),
                    _shadow_op(R, comb, name, n, t, 1, label),
                    _shadow_op(R, comb, name, n, t, p, label),
                    _circle_op(R, pair, name, t, label),
                ]
            for u in pick(rng, arbitrary_pool(name)):
                t, label = R.Angle(u), f"arbitrary {u}"
                ops += [
                    _shadow_op(R, comb, name, n, t, 1, label),
                    _shadow_op(R, comb, name, n, t, p, label),
                    _theta_op(R, comb, name, n, t, label, {}, "t"),
                    _circle_op(R, pair, name, t, label),
                ]
            ops += [_window_op(R, pair, name, j) for j in range(1, p + 1)]
            ops += [_subwindow_op(R, pair, name, j) for j in subwindow_js(p)]
            ops += [_component_op(R, comb, name, n, "critical"), _component_op(R, comb, name, n, "constant")]
    ops += _rotation_ops(R, rng)
    if rng is not None:
        rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- scans


def broken_towers(R):
    """Hand-built towers that validate() must reject, keyed by a label."""
    base = list(R.feigenbaum_tower(4).levels)
    out = {}
    for k in (2, 3, 4):
        pair = base[k - 1]
        for kind, bad in (
            ("swap", R.RayPair(pair.period, pair.hi, pair.lo)),
            ("perturb", R.RayPair(pair.period, pair.lo, pair.hi + Fraction(1, 1 << 40))),
            ("splice", R.RayPair(3, R.Angle(1, 7), R.Angle(2, 7))),
        ):
            levels = list(base)
            levels[k - 1] = bad
            out[f"{kind}@{k}"] = R.Tower(tuple(levels))
    return out


def _validate_op(R, comb, label, expect_pass):
    def run(tr):
        if tr.enabled:  # counters cost time: only in traced runs
            tr.add("towers.validate.chords", sum(len(R.orbit_chords(p)) for p in comb.levels))
        return tr.call("towers.validate", R.validate, comb)

    def check(out):
        return [] if out.passed == expect_pass else [f"validate passed={out.passed}, expected {expect_pass}"]

    return Op("towers.validate", run, key=f"validate|{label}", encode=lambda r: r.to_json(), check=check)


def _lamination_op(R, comb, label, pre):
    def run(tr):
        family = tr.call("lamination.build", R.build, comb, comb.depth, pre)
        report = tr.call("lamination.verify_unlinked", R.verify_unlinked, family)
        n = len(family)
        tr.add("lamination.chords", n)
        tr.add("lamination.pairs", n * (n - 1) // 2)
        return {"family": family, "pass": report["pass"]}

    def check(out):
        return [] if out["pass"] else ["verify_unlinked found linked chords"]

    return Op("lamination.build_verify", run, key=f"lamination|{label}|pre={pre}", check=check)


def build_scans(R, rng):
    ops = []
    for d in range(1, 9):
        ops.append(_validate_op(R, R.feigenbaum_tower(d), f"F{d}", True))
    for d in range(1, 5):
        ops.append(_validate_op(R, R.rabbit_tower(d), f"R{d}", True))
    broken = broken_towers(R)
    for label in pick(rng, sorted(broken)):
        ops.append(_validate_op(R, broken[label], f"broken {label}", False))
    for pre in range(5):
        ops.append(_lamination_op(R, R.feigenbaum_tower(4), "F4", pre))
    for pre in range(2):
        ops.append(_lamination_op(R, R.rabbit_tower(3), "R3", pre))

    deep = R.feigenbaum_tower(17)

    def run_kc(tr):
        shad = tr.call("towers.shadow_Kc", R.shadow_Kc, deep, deep.depth)
        return {
            "s": shad.s,
            "tau1": tr.call("circle.limit_refine", shad.tau1.refine, 16),
            "tau2": tr.call("circle.limit_refine", shad.tau2.refine, 16),
        }

    ops.append(Op("towers.shadow_Kc", run_kc, key="shadow_Kc|F17"))

    tau1 = R.shadow_Kc(deep, 1).tau1
    approx = tau1.refine(14).frac
    halves = [R.Angle(approx / 2), R.Angle(approx / 2 + Fraction(1, 2))]
    targets = [R.Angle(OMEGA_TARGET)] + halves + [R.Angle(OMEGA_MISS)]

    def check_omega(out):
        hits = [k for _, k in out]
        return [] if hits[:3] == [23, 23, 11] else [f"omega first hits {hits[:3]}, expected [23, 23, 11]"]

    ops.append(Op("towers.omega_probe",
                  lambda tr: tr.call("towers.omega_probe", R.omega_probe, tau1, targets, 1 << 16, 8),
                  key="omega_probe|F17", check=check_omega))
    if rng is not None:
        rng.shuffle(ops)
    return ops
