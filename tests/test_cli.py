import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renormray
from renormray import build, export_svg, feigenbaum_tower
from renormray.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rotset(capsys):
    code, out = invoke(capsys, "rotset", "--nu", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == ["1/3", "2/3"] and data["rho"] == "1/2"


def test_rotset_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rotset", "--nu", "3/2"])
    assert exc.value.code == 2


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["rotset", "--nu", "1/2", "--bogus"])
    assert exc.value.code == 2


def test_tower(capsys):
    code, out = invoke(capsys, "tower", "--tower", "feigenbaum", "--depth", "3")
    assert code == 0
    levels = json.loads(out)
    assert [lv["period"] for lv in levels] == [2, 4, 8]


def test_validate_pass(capsys):
    code, out = invoke(capsys, "validate", "--tower", "rabbit", "--depth", "2")
    assert code == 0
    assert json.loads(out)["pass"]


def test_validate_failure_exit_code(capsys):
    bad = json.dumps([{"period": 2, "lo": "1/3", "hi": "2/3"}, {"period": 4, "lo": "1/5", "hi": "2/5"}])
    code, out = invoke(capsys, "validate", "--tower", bad)
    assert code == 1
    assert not json.loads(out)["pass"]


@pytest.mark.parametrize("period", ["2", "2.0", '"2"'])
def test_integral_periods_parse(capsys, period):
    # an integral JSON number or a digit string is a period
    code, out = invoke(capsys, "tower", "--tower", f'[{{"period": {period}, "lo": "1/3", "hi": "2/3"}}]')
    assert code == 0
    assert json.loads(out)[0]["period"] == 2


def test_window_and_sub(capsys):
    code, out = invoke(capsys, "window", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--j", "1")
    assert code == 0
    comps = json.loads(out)["components"]
    assert [c["start"] for c in comps] == ["1/3", "7/12"]
    code, out = invoke(capsys, "window", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--j", "2", "--sub")
    assert code == 0
    assert len(json.loads(out)["components"]) == 4


def test_theta(capsys):
    code, out = invoke(capsys, "theta", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--t", "4/5")
    assert code == 0
    assert json.loads(out)["value"] == "1/3"


def test_theta_domain_error(capsys):
    code, _ = invoke(capsys, "theta", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--t", "1/7")
    assert code == 1


def test_shadow(capsys):
    code, out = invoke(capsys, "shadow", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--j", "1", "--t", "2/5")
    assert code == 0
    assert json.loads(out)["in_shadow"] is True


def test_green(capsys):
    code, out = invoke(capsys, "green", "--c", "0", "--z", "2")
    assert code == 0
    assert abs(json.loads(out)["green"] - 0.6931471805599453) < 1e-12


def test_ray(capsys):
    code, out = invoke(capsys, "ray", "--c", "-2", "--t", "0", "--level-min", "1e-8")
    assert code == 0
    data = json.loads(out)
    assert abs(data["landing"][0] - 2.0) < 1e-6


def test_periodic(capsys):
    code, out = invoke(capsys, "periodic", "--c", "0", "--m", "2")
    assert code == 0
    assert len(json.loads(out)["points"]) == 4


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_periodic_m10_is_strict_json(capsys):
    code, out = invoke(capsys, "periodic", "--c", "-1", "--m", "10")
    assert code == 0
    assert len(_strict_json(out)["points"]) == 1024


def test_periodic_overflow_is_domain_error(capsys):
    # f^3 overflows at c = 1e300: the multipliers are not finite
    code = run(["periodic", "--c", "1e300", "--m", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_periodic_inexact_roots_are_domain_error(capsys):
    # at c = 1e150 the roots are finite but too inexact for f to map them
    # among themselves
    code = run(["periodic", "--c", "1e150", "--m", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_nan_in_output_is_exit_1_with_empty_stdout(monkeypatch, capsys):
    # the backstop: a handler whose result holds NaN prints no JSON
    monkeypatch.setattr("renormray.plane.green", lambda params, z: float("nan"))
    code = run(["green", "--c", "0", "--z", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 74.5 GiB for an array", "error: Unable to allocate 74.5 GiB for an array\n"),
    ("", "error: out of memory\n"),
])
def test_memory_error_is_exit_1_without_traceback(monkeypatch, tmp_path, capsys, message, line):
    # the patched render raises before any array is made
    def out_of_memory(scene):
        raise MemoryError(message)

    monkeypatch.setattr(importlib.import_module("renormray.render"), "render", out_of_memory)
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"c": [0, 0], "width": 100000, "height": 100000, "layers": [{"type": "julia"}]}))
    code = run(["render", "--scene", str(scene), "--out", str(tmp_path / "img.ppm")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == line
    assert not (tmp_path / "img.ppm").exists()


@pytest.mark.parametrize(
    "module, name, replacement, argv, line",
    [
        # a rotation set that fails its own rotation-number check
        ("renormray.rotation", "rotation_number", lambda points: None, ["rotset", "--nu", "1/3"],
         "error: Sturmian construction failed the rotation-number check\n"),
        # a shadow test that rejects every sample of the semiconjugacy check
        ("renormray.selftest", "in_shadow", lambda *a: False, ["selftest"], "error: sample generator starved\n"),
    ],
    ids=["rotset", "selftest"],
)
def test_failed_self_check_is_exit_1_without_traceback(monkeypatch, capsys, module, name, replacement, argv, line):
    monkeypatch.setattr(importlib.import_module(module), name, replacement)
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and captured.err == line


def _pinned(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_beta_stdout_is_pinned(capsys):
    code, out = invoke(capsys, "beta", "--c", "-1", "--tower", "feigenbaum", "--depth", "1", "--level", "1")
    z = [-0.6180339887498949, 0.0]
    assert code == 0
    assert out == _pinned({"beta": z, "candidates": [z, z], "matched": True, "residuals": [4.0810890421599745e-05] * 2})


def test_telescope_stdout_is_pinned(capsys):
    # recorded when the stages were emitted field by field
    code, out = invoke(capsys, "telescope", "--c", "-2", "--x", "2", "--r", "0.3", "--kappa", "0.5",
                       "--delta", "0.01", "--times", "0,1,2,3,4,5")
    stage = {"branch_ok": True, "margin": 0.22353840616713455, "margin_ok": True, "note": "",
             "time_density_ok": True, "univalent_heuristic": True}
    stages = [{**stage, "l": l, "n_l": l} for l in range(1, 6)]
    assert code == 0
    assert out == _pinned({"aborted_at": None, "pass": True, "stages": stages, "univalence_is_heuristic": True})


def test_validate_reports_period_zero_level(capsys):
    levels = [{"period": 2, "lo": "1/3", "hi": "2/3"}, {"period": 0, "lo": "2/5", "hi": "3/5"},
              {"period": 8, "lo": "7/17", "hi": "10/17"}]
    code, out = invoke(capsys, "validate", "--tower", json.dumps(levels))
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    divisibility = {e["level"]: e for e in report["checks"] if e["check"] == "period_divisibility"}
    assert divisibility[3] == {"check": "period_divisibility", "level": 3, "pass": False, "witness": "8 over 0"}
    assert not divisibility[2]["pass"]


def test_validate_of_a_huge_period_with_orbit_witnesses_exits_1(capsys):
    # sigma^4 returns (1/15, 4/15), so each witness is written once per
    # residue of k mod 4 and the report does not grow with the period
    tower = json.dumps([{"period": 10**12, "lo": "1/15", "hi": "4/15"}])
    code, out = invoke(capsys, "validate", "--tower", tower)
    assert code == 1
    failed = {(e["check"], e["level"]) for e in json.loads(out)["checks"] if not e["pass"]}
    assert ("orbit_exclusion", 1) in failed and ("min_length_2inf", 1) in failed


def test_lamination_svg(tmp_path, capsys):
    out_file = tmp_path / "lam.svg"
    code, out = invoke(capsys, "lamination", "--tower", "feigenbaum", "--depth", "3", "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["chords"] == 7
    assert out_file.read_text().startswith("<?xml")


def test_render(tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"c": [0, 0], "width": 16, "height": 16, "layers": [{"type": "julia", "max_iter": 20}]}))
    out_file = tmp_path / "img.ppm"
    code, out = invoke(capsys, "render", "--scene", str(scene), "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes().startswith(b"P6\n16 16\n255\n")


def test_out_file_instead_of_stdout(tmp_path, capsys):
    out_file = tmp_path / "rot.json"
    code, out = invoke(capsys, "rotset", "--nu", "1/3", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["points"] == ["1/7", "2/7", "4/7"]


def test_stdout_determinism(capsys):
    _, out1 = invoke(capsys, "window", "--tower", "rabbit", "--depth", "2", "--level", "2", "--j", "3")
    _, out2 = invoke(capsys, "window", "--tower", "rabbit", "--depth", "2", "--level", "2", "--j", "3")
    assert out1 == out2


MALFORMED_TOWERS = [
    '[{"period": 2, "lo": "1/3"}]',
    '[{"period": 2, "hi": "2/3"}]',
    '[{"lo": "1/3", "hi": "2/3"}]',
    "[{period: 2}]",
    '{"period": 2, "lo": "1/3", "hi": "2/3"}',
    "[1, 2]",
    "3",
    '[{"period": "two", "lo": "1/3", "hi": "2/3"}]',
    '[{"period": 2, "lo": "1/0", "hi": "2/3"}]',
    '[{"period": 2, "lo": [1, 3], "hi": "2/3"}]',
    # int() alone would read these as periods 2 and 1
    '[{"period": 2.7, "lo": "1/3", "hi": "2/3"}]',
    '[{"period": true, "lo": "1/3", "hi": "2/3"}]',
]


TWO_LEVELS = '[{"period": 2, "lo": "1/3", "hi": "2/3"}, {"period": 4, "lo": "2/5", "hi": "3/5"}]'


MALFORMED_VALUES = [
    ["rotset", "--nu", "abc"],
    ["rotset", "--nu", "1/0"],
    # --nu is "p/q" of decimal integers, not any text that Fraction() reads
    ["rotset", "--nu", "0.5"],
    ["rotset", "--nu", "1e-1"],
    ["ray", "--c", "abc", "--t", "1/3"],
    ["ray", "--c", "-1", "--t", "1/0"],
    ["theta", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--t", "abc"],
    ["theta", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--t", "1/0"],
    ["shadow", "--tower", "feigenbaum", "--depth", "1", "--t", "x/y"],
    ["green", "--c", "0", "--z", "zz"],
    ["periodic", "--c", "abc", "--m", "2"],
    ["beta", "--c", "abc", "--tower", "feigenbaum", "--depth", "1", "--level", "1"],
    ["omega", "--tower", "feigenbaum", "--depth", "2", "--targets", "x/y"],
    ["telescope", "--c", "-2", "--x", "2", "--r", "0.3", "--kappa", "0.5", "--delta", "0.01", "--times", "0,a"],
    ["telescope", "--c", "-2", "--x", "two", "--r", "0.3", "--kappa", "0.5", "--delta", "0.01", "--times", "0,1"],
    ["green", "--c", "0", "--z", "1e400"],
    ["green", "--c", "nan", "--z", "1"],
    ["ray", "--c", "1e400", "--t", "1/3"],
    ["ray", "--c", "-1", "--t", "1/3", "--level-min", "nan"],
    ["ray", "--c", "-1", "--t", "1/3", "--level-min", "inf"],
    ["telescope", "--c", "-2", "--x", "2", "--r", "nan", "--kappa", "0.5", "--delta", "0.01", "--times", "0,1"],
    ["telescope", "--c", "-2", "--x", "2", "--r", "0.3", "--kappa", "inf", "--delta", "0.01", "--times", "0,1"],
    ["telescope", "--c", "-2", "--x", "2", "--r", "0.3", "--kappa", "0.5", "--delta=-inf", "--times", "0,1"],
    ["tower", "--tower", TWO_LEVELS, "--depth", "-1"],
    ["tower", "--tower", TWO_LEVELS, "--depth", "3"],
    ["validate", "--tower", "[]"],
    ["lamination", "--tower", "feigenbaum", "--depth", "2", "--preimage-depth", "-3"],
    ["tower", "--tower", "feigenbaum", "--depth", "-1"],
    ["tower", "--tower", "feigenbaum"],
    ["tower", "--tower", "rabbit", "--depth", "0"],
]


@pytest.mark.parametrize(
    "argv",
    [["shadow", "--tower", "feigenbaum", "--depth", "2", "--level", "1", "--j", "1"]]
    + [["tower", "--tower", tower] for tower in MALFORMED_TOWERS]
    + MALFORMED_VALUES
    # nested too deeply for json to decode: RecursionError
    + [pytest.param(["tower", "--tower", "[" * 5000], id="tower-nested-5000")],
)
def test_usage_error_prints_one_line(capsys, argv):
    # shadow without --t, --tower JSON that is not a list of {period, lo, hi},
    # and flag values that do not parse or are not finite
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("depth, message", [([], "--tower rabbit needs --depth\n"),
                                            (["--depth", "0"], "--tower rabbit needs --depth of at least 1, not 0\n")])
def test_named_tower_depth_message(capsys, depth, message):
    # an omitted --depth and --depth 0 are told apart
    with pytest.raises(SystemExit):
        run(["tower", "--tower", "rabbit", *depth])
    assert capsys.readouterr().err.endswith(message)


MALFORMED_SCENES = [
    "{not json",
    "[1, 2]",
    '"scene"',
    '{"width": 8, "height": 8}',
    '{"c": 3, "width": 8, "height": 8}',
    '{"c": [0, 0], "width": 8, "height": 8, "layers": [{"max_iter": 5}]}',
    '{"c": [0, 0], "width": 8, "height": 8, "layers": [{"type": "points"}]}',
    '{"c": [0, 0], "width": 8, "height": 8, "layers": [{"type": "equipotential"}]}',
    '{"c": [0, 0], "width": 8, "height": 8, "layers": [{"type": "spiral"}]}',
    '{"c": [0, 0], "width": 8, "height": 8, "layers": [3]}',
    '{"c": [NaN, 0], "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [Infinity, 0], "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [-Infinity, 0], "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [1e400, 0], "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "scale": NaN, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "layers": [{"type": "equipotential", "level": NaN}]}',
    '{"c": [-1, 0], "width": 4, "height": 4, "layers": [{"type": "ray", "angle": "1/3", "level_min": 1e3}]}',
    # a ray angle with denominator 0, and a boolean angle, which is not a number
    '{"c": [-1, 0], "width": 4, "height": 4, "layers": [{"type": "ray", "angle": "1/0"}]}',
    '{"c": [-1, 0], "width": 4, "height": 4, "layers": [{"type": "ray", "angle": true}]}',
    # geometry: a size that is not an integer >= 1, a scale that is not > 0,
    # a c, center or marked point that is not a pair, a julia layer that
    # iterates nothing
    '{"c": [0, 0], "width": 0, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": 0, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": -3, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4.7, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": "4", "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": true, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "scale": 0, "layers": [{"type": "points", "points": [[0, 0]]}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "scale": -3.5, "layers": [{"type": "julia"}]}',
    '{"c": [-1], "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [-1, 0, 0], "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": "-1", "width": 4, "height": 4, "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "center": [0], "layers": [{"type": "julia"}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "layers": [{"type": "points", "points": [[1]]}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "layers": [{"type": "julia", "max_iter": 0}]}',
    '{"c": [0, 0], "width": 4, "height": 4, "layers": [{"type": "julia", "max_iter": -5}]}',
    # integer literals beyond the float range
    '{"c": [1%s, 0], "width": 4, "height": 4, "layers": [{"type": "julia"}]}' % ("0" * 400),
    '{"c": [0, 0], "width": 4, "height": 4, "layers": [{"type": "equipotential", "level": -1%s}]}' % ("0" * 400),
    # nested too deeply for json to decode: RecursionError
    pytest.param("[" * 100000, id="nested-100000"),
]


@pytest.mark.parametrize("text", MALFORMED_SCENES)
def test_malformed_scene_is_usage_error(tmp_path, capsys, text):
    scene = tmp_path / "scene.json"
    scene.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["render", "--scene", str(scene), "--out", str(tmp_path / "img.ppm")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "img.ppm").exists()


def test_render_arithmetic_error_exits_1(tmp_path, capsys):
    # a well-formed scene whose far-out centre overflows |z| while computing
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "c": [0, 0], "width": 4, "height": 4, "center": [1.5e308, 1.5e308],
        "layers": [{"type": "equipotential", "level": 0.1}],
    }))
    code = run(["render", "--scene", str(scene), "--out", str(tmp_path / "img.ppm")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not (tmp_path / "img.ppm").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--scene", "{tmp}/missing.json", "--out", "{tmp}/img.ppm"],
        ["render", "--scene", "{tmp}/scene.json", "--out", "{tmp}/no/such/dir/img.ppm"],
        ["rotset", "--nu", "1/3", "--out", "{tmp}/no/such/dir/rot.json"],
        ["validate", "--tower", "feigenbaum", "--depth", "2", "--out", "{tmp}/no/such/dir/v.json"],
        ["lamination", "--tower", "feigenbaum", "--depth", "2", "--out", "{tmp}/no/such/dir/lam.svg"],
    ],
    ids=["render_scene", "render_out", "rotset_out", "validate_out", "lamination_out"],
)
def test_file_error_exits_1(tmp_path, capsys, argv):
    (tmp_path / "scene.json").write_text(json.dumps({"c": [0, 0], "width": 8, "height": 8}))
    code = run([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


# stdout of three exact subcommands, byte for byte
WINDOW_2_3 = """\
{
  "components": [
    {
      "length": "1/20",
      "start": "7/20"
    },
    {
      "length": "1/20",
      "start": "3/5"
    }
  ],
  "j": 3,
  "level": 2
}
"""

SUBWINDOW_2_3 = """\
{
  "components": [
    {
      "length": "1/320",
      "start": "7/20"
    },
    {
      "length": "1/320",
      "start": "127/320"
    },
    {
      "length": "1/320",
      "start": "3/5"
    },
    {
      "length": "1/320",
      "start": "207/320"
    }
  ],
  "j": 3,
  "labels": {
    "hi_inner": {
      "length": "1/320",
      "start": "7/20"
    },
    "hi_outer": {
      "length": "1/320",
      "start": "127/320"
    },
    "lo_inner": {
      "length": "1/320",
      "start": "207/320"
    },
    "lo_outer": {
      "length": "1/320",
      "start": "3/5"
    }
  },
  "level": 2
}
"""

KC_SHADOW_8 = """\
{
  "bits": 16,
  "s": [
    {
      "length": "59580697294650083747194059426068878125/39402006196394479212279040100143613805195531359702762863371864389254409679350480596079906818924373224814541119946752",
      "start": "140350834813144189858090274002849666666/340282366920938463463374607431768211457"
    },
    {
      "length": "59580697294650083747194059426068878125/39402006196394479212279040100143613805195531359702762863371864389254409679350480596079906818924373224814541119946752",
      "start": "23150489807179062668020697250696554590917602689303554660255614365629385110288680181632115270138177722532452849495251/39402006196394479212279040100143613805195531359702762863371864389254409679350480596079906818924373224814541119946752"
    }
  ],
  "tau1": "13515/32768",
  "tau2": "38505/65536"
}
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["window", "--tower", "feigenbaum", "--depth", "2", "--level", "2", "--j", "3"], WINDOW_2_3),
        (["window", "--tower", "feigenbaum", "--depth", "2", "--level", "2", "--j", "3", "--sub"], SUBWINDOW_2_3),
        (["shadow", "--tower", "feigenbaum", "--depth", "8", "--kc", "--bits", "16"], KC_SHADOW_8),
    ],
    ids=["window", "window_sub", "shadow_kc"],
)
def test_stdout_is_pinned(capsys, argv, expected):
    code, out = invoke(capsys, *argv)
    assert code == 0
    assert out == expected


OMEGA_HITS = """\
{
  "hits": [
    {
      "first_hit": 23,
      "target": "6757/32768"
    },
    {
      "first_hit": null,
      "target": "1/3"
    }
  ]
}
"""
OMEGA_ARGV = ["omega", "--tower", "feigenbaum", "--depth", "10", "--targets", "6757/32768", "1/3", "--bits", "8"]


def test_omega_first_hits(capsys):
    code, out = invoke(capsys, *OMEGA_ARGV, "--horizon", "512")
    assert code == 0
    assert out == OMEGA_HITS


README_OMEGA_HITS = """\
{
  "hits": [
    {
      "first_hit": 23,
      "target": "6757/32768"
    }
  ]
}
"""


def test_readme_omega_example_is_pinned(capsys):
    # the depth-17 tower: tau1 refined to 65,548 bits
    code, out = invoke(capsys, "omega", "--tower", "feigenbaum", "--depth", "17", "--targets", "6757/32768",
                       "--horizon", "65536", "--bits", "8")
    assert code == 0
    assert out == README_OMEGA_HITS


def test_omega_horizon_beyond_depth_is_domain_error(capsys):
    code = run([*OMEGA_ARGV, "--horizon", "4096"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: insufficient depth: 4108 bits need more than 10 refinements"]


def test_selftest_passes(capsys):
    code, out = invoke(capsys, "selftest")
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    assert [c["name"] for c in data["checks"]] == [
        "rotation_oracle", "window_algebra", "semiconjugacy", "unlinked", "shadow_consistency"
    ]
    assert all(c["pass"] for c in data["checks"])


def test_lamination_svg_to_stdout(capsys):
    code, out = invoke(capsys, "lamination", "--tower", "feigenbaum", "--depth", "3")
    assert code == 0
    assert out == export_svg(build(feigenbaum_tower(3), 3, 0)) + "\n"


def test_linked_lamination_is_domain_error(capsys):
    linked = '[{"period": 2, "lo": "1/3", "hi": "2/3"}, {"period": 3, "lo": "1/7", "hi": "2/7"}]'
    code = run(["lamination", "--tower", linked])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("<?xml")
    assert captured.err.splitlines() == ["error: chord family is linked"]


@pytest.mark.parametrize("level_min", ["9.3", "1e3"])
def test_ray_level_min_above_start_level_is_domain_error(capsys, level_min):
    # a ray that never descends must not report that it landed
    code = run(["ray", "--c", "-1", "--t", "1/3", "--level-min", level_min])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("flags, line", [
    (["--r", "0.3", "--times", "0"], "error: a telescope needs at least two times"),
    (["--r", "0", "--times", "0,1"], "error: r must be > 0, not 0.0"),
    (["--r", "-0.3", "--times", "0,1"], "error: r must be > 0, not -0.3"),
])
def test_telescope_without_a_stage_or_radius_is_domain_error(capsys, flags, line):
    code = run(["telescope", "--c", "-2", "--x", "2", "--kappa", "0.5", "--delta", "0.01", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_aborted_ray_is_strict_json_and_exit_1(capsys):
    code = run(["ray", "--c", "-2", "--t", "1/4"])
    captured = capsys.readouterr()
    assert code == 1
    assert _strict_json(captured.out)["aborted"] is True
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


# Argvs run through cli.run in a fresh interpreter per group, which reports
# after each argv its exit code, whether numpy was loaded by then and the
# renormray modules loaded by then.  Each group lists the modules its argvs
# may load, and its first argv loads all of them.  Only the subcommands that
# work on arrays (periodic, beta, render) may load numpy.  The exact
# subcommands load no plane, render, rotation or selftest, and the float
# ones no towers, lamination, rotation or selftest, except beta, whose tower
# needs towers.  The real 4x4 render, periodic and omega runs are positive
# controls: every cmd_* import runs in some group.
MODULE_PROBE = """
import contextlib, io, json, sys
from renormray.cli import run
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    seen.append([code, "numpy" in sys.modules, sorted(m for m in sys.modules if m.startswith("renormray"))])
print(json.dumps(seen))
"""
CLI = ["renormray", "renormray.circle", "renormray.cli"]
EXACT = [*CLI, "renormray.lamination", "renormray.towers"]
FLOAT = [*CLI, "renormray.plane"]
PROBE_GROUPS = [  # (modules, numpy, [(argv, exit code), ...])
    (EXACT, False, [
        (["tower", "--tower", "feigenbaum", "--depth", "3"], 0),
        (["window", "--tower", "feigenbaum", "--depth", "2", "--level", "2", "--j", "3", "--sub"], 0),
        (["shadow", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--j", "1", "--t", "2/5"], 0),
        (["shadow", "--tower", "feigenbaum", "--depth", "4", "--kc", "--bits", "8"], 0),
        (["theta", "--tower", "feigenbaum", "--depth", "1", "--level", "1", "--t", "4/5"], 0),
        ([*OMEGA_ARGV, "--horizon", "512"], 0),
        (["validate", "--tower", "rabbit", "--depth", "2"], 0),
        (["lamination", "--tower", "feigenbaum", "--depth", "3"], 0),
        (["tower", "--tower", "feigenbaum"], 2),
    ]),
    ([*CLI, "renormray.rotation"], False, [
        (["rotset", "--nu", "1/3"], 0),
        (["rotset", "--nu", "3/2"], 2),
    ]),
    ([*EXACT, "renormray.rotation", "renormray.selftest"], False, [(["selftest"], 0)]),
    (CLI, False, [(["periodic", "--c", "0", "--m", "two"], 2)]),
    (FLOAT, False, [
        (["ray", "--c", "-1", "--t", "1/3", "--level-min", "1e-6"], 0),
        (["green", "--c", "0", "--z", "2"], 0),
        (["telescope", "--c", "-2", "--x", "2", "--r", "0.3", "--kappa", "0.5", "--delta", "0.01",
          "--times", "0,1"], 0),
        (["ray", "--c", "nan", "--t", "1/3"], 2),
    ]),
    (FLOAT, True, [(["periodic", "--c", "0", "--m", "2"], 0)]),
    ([*EXACT, "renormray.plane"], True, [(["beta", "--c", "-1", "--tower", "feigenbaum", "--depth", "1",
                                           "--level", "1"], 0)]),
    ([*FLOAT, "renormray.render"], False, [(["render", "--scene", "no-such-scene.json", "--out", "x.ppm"], 1)]),
    ([*FLOAT, "renormray.render"], True, [(["render", "--scene", "scene.json", "--out", "img.ppm"], 0)]),
]


def test_numpy_loads_only_for_array_subcommands(tmp_path):
    (tmp_path / "scene.json").write_text(json.dumps({"c": [-1, 0], "width": 4, "height": 4,
                                                     "layers": [{"type": "julia", "max_iter": 20}]}))
    env = {**os.environ, "PYTHONPATH": str(Path(renormray.__file__).parents[1])}
    seen, expected = {}, {}
    for modules, numpy, runs in PROBE_GROUPS:
        argvs = [argv for argv, _ in runs]
        proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(argvs)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
        seen.update(zip(map(" ".join, argvs), json.loads(proc.stdout)))
        expected.update((" ".join(argv), [code, numpy, sorted(modules)]) for argv, code in runs)
    assert seen == expected
    assert (tmp_path / "img.ppm").read_bytes().startswith(b"P6\n4 4\n")


# Integers of these towers have more than 4300 decimal digits, which Python
# refuses to convert to or from str unless the limit is lifted.  main() lifts
# it for speed, but every angle and arc length prints through circle._text,
# so run() prints the same bytes in-process, under the limit.
DEEP_ARGVS = [
    ["tower", "--tower", "feigenbaum", "--depth", "15"],
    ["window", "--tower", "feigenbaum", "--depth", "14", "--level", "14", "--j", "1"],
    ["shadow", "--tower", "feigenbaum", "--depth", "14", "--kc"],
]


def _renormray(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(renormray.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "renormray.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", DEEP_ARGVS, ids=["tower", "window", "shadow_kc"])
def test_deep_towers_print_strict_json(tmp_path, capsys, argv):
    proc = _renormray(tmp_path, argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert _strict_json(proc.stdout)
    assert invoke(capsys, *argv) == (0, proc.stdout)


def test_deep_tower_reads_back(tmp_path):
    named = _renormray(tmp_path, DEEP_ARGVS[0])
    levels = [
        {"period": lv["period"], **{k: f"{lv[k]['num']}/{lv[k]['den']}" for k in ("lo", "hi")}}
        for lv in json.loads(named.stdout)
    ]
    again = _renormray(tmp_path, ["tower", "--tower", json.dumps(levels)])
    assert (again.returncode, again.stderr) == (0, "")
    assert again.stdout == named.stdout
