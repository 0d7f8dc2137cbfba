"""Acceptance gate: ten end-to-end criteria, one test each.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) in addition to its assertions.
"""

import cmath
import math
import time
from fractions import Fraction

import pytest

from renormray import selftest
from renormray.circle import Angle
from renormray.plane import (
    Params,
    beta_point,
    expansion_report,
    feigenbaum_parameter,
    telescope_check,
    trace_ray,
)
from renormray.towers import feigenbaum_tower, omega_probe, shadow_Kc


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{name}]: {status} {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_rotation_oracle():
    t0 = time.time()
    check = selftest.check_rotation_oracle()
    dt = time.time() - t0
    report(1, "rotation-oracle", check.passed and dt < 5, f"{check.detail}; {dt:.2f}s")


def test_criterion_02_window_algebra():
    t0 = time.time()
    check = selftest.check_window_algebra()
    dt = time.time() - t0
    report(2, "window-algebra", check.passed and dt < 10, f"{check.detail}; {dt:.2f}s")


def test_criterion_03_semiconjugacy():
    t0 = time.time()
    check = selftest.check_semiconjugacy()
    dt = time.time() - t0
    report(3, "theta-semiconjugacy", check.passed and dt < 10, f"{check.detail}; {dt:.2f}s")


def test_criterion_04_unlinked():
    t0 = time.time()
    check = selftest.check_unlinked()
    dt = time.time() - t0
    report(4, "unlinked-chords", check.passed and dt < 5, f"{check.detail}; {dt:.2f}s")


def test_criterion_05_shadow_consistency():
    check = selftest.check_shadow_consistency()
    report(5, "shadow-consistency", check.passed, check.detail)


def test_criterion_06_omega_probe_regression():
    bits, horizon = 8, 1 << 16
    comb = feigenbaum_tower(17)  # enough depth to refine tau1 to horizon + bits + 4 digits
    tau1 = shadow_Kc(comb, 1).tau1
    approx = tau1.refine(bits + 6)
    targets = [Angle(approx.frac / 2), Angle(approx.frac / 2 + Fraction(1, 2))]
    hits = dict(omega_probe(tau1, targets, horizon, bits))
    got = [hits[t] for t in targets]
    # regression values recorded at first successful run
    ok = got == [23, 11]
    report(6, "omega-probe", ok, f"first hits {got}, expected [23, 11]")


def test_criterion_07_ray_landing():
    t0 = time.time()
    alpha = (1 - math.sqrt(5)) / 2
    errs = []
    for t in (Angle(1, 3), Angle(2, 3)):
        path = trace_ray(Params(-1), t, level_min=1e-22)
        errs.append(abs(path.landing - alpha))
    cheb = trace_ray(Params(-2), Angle(0), level_min=1e-9)
    errs.append(abs(cheb.landing - 2.0))
    radial = trace_ray(Params(0), Angle(1, 7), level_min=1e-9)
    direction = cmath.exp(2j * math.pi / 7)
    dev = max(abs(z - abs(z) * direction) / abs(z) for z in radial.points)
    dt = time.time() - t0
    ok = errs[0] < 1e-6 and errs[1] < 1e-6 and errs[2] < 1e-6 and dev < 1e-9 and dt < 5
    report(7, "ray-landing", ok, f"alpha errs {errs[0]:.2e}/{errs[1]:.2e}, beta err {errs[2]:.2e}, radial dev {dev:.2e}, {dt:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="depth-8 superstable parameter is -1.40114633, which differs from the "
    "stated reference -1.4011552 by 8.9e-6; the 1e-6 tolerance is reached only "
    "from depth 11 on (see test_criterion_08_supplementary)",
)
def test_criterion_08_feigenbaum_parameter():
    c8 = feigenbaum_parameter(8)
    gap = abs(c8 - (-1.4011552))
    report(8, "feigenbaum-parameter", gap < 1e-6, f"depth-8 value {c8:.9f}, gap {gap:.2e}")


def test_criterion_08_supplementary():
    c8 = feigenbaum_parameter(8)
    c11 = feigenbaum_parameter(11)
    res = beta_point(Params(c8), feigenbaum_tower(1), 1)
    ok = (
        abs(c8 - (-1.4011552)) < 1e-4
        and abs(c11 - (-1.4011552)) < 1e-6
        and res.matched
        and max(res.residuals) < 1e-4
    )
    report(
        8,
        "feigenbaum-parameter-supplementary",
        ok,
        f"c8 {c8:.9f}, c11 {c11:.9f}, beta matched {res.matched} residual {max(res.residuals):.2e}",
    )


def test_criterion_09_telescope():
    t0 = time.time()
    good = telescope_check(Params(-2), 2.0, 0.3, 0.5, 0.01, list(range(11)))
    bad = telescope_check(Params(-2), 2.0, 0.3, 1.5, 0.01, list(range(11)))
    dt = time.time() - t0
    ok = good.passed and all(not s.time_density_ok for s in bad.stages) and dt < 5
    report(9, "telescope", ok, f"stages {len(good.stages)} all pass, density fails under kappa=1.5, {dt:.2f}s")


# regression minima recorded at first run: the sample revisits the critical
# point, so the minimum is a near-zero derivative product, illustrating the
# failure of uniform expansion along the small Julia sets
EXPANSION_MIN_REGRESSION = {
    1: 2.9618336720710417e-13,
    2: 7.226509844284226e-13,
    3: 1.8096872406494893e-12,
    4: 4.525373946874028e-12,
    5: 1.1301909282444178e-11,
}


def test_criterion_10_expansion_regression():
    c = feigenbaum_parameter(8)
    params = Params(c)
    lines = []
    ok = True
    for n in range(1, 6):
        p = 1 << n
        sample = []
        z = 0.0
        for j in range(200 * p):
            z = z * z + c
            if (j + 1) % p == 0:
                sample.append(z)
        rep = expansion_report(params, sample, p)
        got = rep.euclidean["min"]
        want = EXPANSION_MIN_REGRESSION[n]
        lines.append(f"n={n} min {got:.6e}")
        if not math.isclose(got, want, rel_tol=1e-6):
            ok = False
    report(10, "expansion-regression", ok, "; ".join(lines))
