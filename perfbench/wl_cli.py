"""The ``cli`` workload: the ``renormray`` entry point, one subprocess at a time.

Each call is timed from process start to the end of its output.  Every call
is checked against the CLI contract: exit code 0/1/2, strict JSON on stdout
(NaN rejected), no traceback on stderr; exact subcommands also by a stdout
digest.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

from ops import Op, strict_json
from wl_exact import TUNE_BASES, pick
from wl_plane import RAY_ANGLES, RAY_SPREAD_TOL, ROOT_RESIDUAL_BOUND


def spawn(argv, cwd):
    """Run ``python -m renormray.cli argv``; (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "renormray.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _op(root, cls, argv, expect_exit=0, exact=False, check=None, svg=None):
    def run(tr):
        code, out, err = tr.call(cls, spawn, argv, root)
        if svg is not None:
            with open(os.path.join(root, svg)) as fh:
                out += fh.read()
        return code, out, err

    def check_call(res):
        code, out, err = res
        bad = []
        if code != expect_exit:
            bad.append(f"exit {code}, expected {expect_exit}")
        if "Traceback" in err:
            bad.append("Traceback on stderr: " + err.strip().splitlines()[-1])
        if expect_exit == 0:
            try:
                doc = strict_json(out if svg is None else out.splitlines()[0])
            except ValueError:
                bad.append("stdout is not strict JSON")
            else:
                if check is not None:
                    bad += check(doc)
        return bad

    key = "cli|" + " ".join(argv) if exact else None
    return Op(cls, run, key=key, encode=lambda res: res[1], check=check_call)


def _check_ray(doc):
    return [] if doc["residual"] <= RAY_SPREAD_TOL and not doc["aborted"] else ["ray did not settle"]


def _check_periodic(m, c):
    def check(doc):
        worst = 0.0
        for pt in doc["points"]:
            z = w = complex(*pt["z"])
            for _ in range(m):
                w = w * w + c
            worst = max(worst, abs(w - z))
        if len(doc["points"]) != 1 << m or not worst <= ROOT_RESIDUAL_BOUND:
            return [f"periodic roots: {len(doc['points'])} found, worst residual {worst:.1e}"]
        return []

    return check


def _check_green(doc):
    return [] if math.isfinite(doc["green"]) and doc["green"] >= 0 else ["negative or non-finite Green level"]


def _check_beta(doc):
    return [] if doc["matched"] else ["beta rays not matched"]


def build_cli(R, rng, root, out_dir):
    F = "feigenbaum"
    exact = []
    towers = [(F, d) for d in range(1, 9)] + [("rabbit", d) for d in range(1, 5)]
    for fam, d in pick(rng, towers):
        exact.append(("cli.exact.tower", ["tower", "--tower", fam, "--depth", str(d)]))
    comb = R.feigenbaum_tower(3)
    windows = [(n, j) for n in range(1, 4) for j in range(1, comb.level(n).period + 1)]
    for n, j in pick(rng, windows):
        exact.append(("cli.exact.window",
                      ["window", "--tower", F, "--depth", "3", "--level", str(n), "--j", str(j), "--sub"]))
    thetas = [(n, b) for n in (1, 2) for b in TUNE_BASES]
    for n, b in pick(rng, thetas):
        pair = comb.level(n)
        t = R.sigma_pow(R.tune(pair, R.Angle(b)), pair.period - 1)
        exact.append(("cli.exact.theta", ["theta", "--tower", F, "--depth", "2", "--level", str(n), "--t", str(t)]))
    small = [Fraction(a, d) for d in range(2, 13) for a in range(1, d) if gcd(a, d) == 1]
    for t in pick(rng, small):
        exact.append(("cli.exact.shadow",
                      ["shadow", "--tower", F, "--depth", "2", "--level", "1", "--j", "1", "--t", str(t)]))
    exact.append(("cli.exact.shadow_kc", ["shadow", "--tower", F, "--depth", "8", "--kc", "--bits", "16"]))
    valids = [(F, d) for d in range(1, 6)] + [("rabbit", d) for d in range(1, 4)]
    for fam, d in pick(rng, valids):
        exact.append(("cli.exact.validate", ["validate", "--tower", fam, "--depth", str(d)]))
    for nu in pick(rng, small):
        exact.append(("cli.exact.rotset", ["rotset", "--nu", str(nu)]))
    svg = os.path.join(out_dir, "lamination.svg")
    ops = [_op(root, cls, argv, exact=True) for cls, argv in exact]
    ops.append(_op(root, "cli.exact.lamination",
                   ["lamination", "--tower", F, "--depth", "4", "--out", svg], exact=True, svg=svg))
    if rng is None:  # only exact subcommands have reference digests
        return ops

    t = rng.choice(RAY_ANGLES)
    ops.append(_op(root, "cli.numeric.ray", ["ray", "--c", "-1", "--t", str(t)], check=_check_ray))
    z = f"{rng.uniform(-3, 3):.6f}{rng.uniform(-3, 3):+.6f}i"
    ops.append(_op(root, "cli.numeric.green", ["green", "--c", "-2", f"--z={z}"], check=_check_green))
    m = rng.randrange(1, 7)
    ops.append(_op(root, "cli.numeric.periodic", ["periodic", "--c", "-1", "--m", str(m)],
                   check=_check_periodic(m, -1.0)))
    ops.append(_op(root, "cli.numeric.beta",
                   ["beta", "--c", "-1", "--tower", F, "--depth", "1", "--level", "1"], check=_check_beta))
    ops.append(_op(root, "cli.numeric.telescope",
                   ["telescope", "--c", "-2", "--x", "2", "--r", "0.3", "--kappa", "0.5", "--delta", "0.01",
                    "--times", "0,1,2,3,4,5"]))
    ops.append(_op(root, "cli.numeric.periodic_m10", ["periodic", "--c", "-1", "--m", "10"]))
    ops.append(_op(root, "cli.usage_error.shadow_no_t",
                   ["shadow", "--tower", F, "--depth", "2", "--level", "1", "--j", "1"], expect_exit=2))
    ops.append(_op(root, "cli.usage_error.tower_no_hi",
                   ["tower", "--tower", '[{"period": 2, "lo": "1/3"}]'], expect_exit=2))
    ops.append(_op(root, "cli.usage_error.no_depth", ["tower", "--tower", F], expect_exit=2))
    rng.shuffle(ops)
    return ops
