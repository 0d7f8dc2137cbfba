"""The package's public names: the same 56 names, each loaded on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renormray

# every name `renormray` re-exported when it imported all of its modules
# eagerly, by home module
HOMES = {
    "circle": [
        "Angle", "Arc", "ArcSet", "LimitAngle", "angle_from_words", "binary_words", "double", "orbit_info",
        "preimages", "sigma_pow",
    ],
    "lamination": ["Chord", "build", "export_svg", "linked", "orbit_chords", "verify_unlinked"],
    "plane": [
        "BetaResult", "Params", "RayPath", "TelescopeReport", "beta_point", "expansion_report",
        "feigenbaum_parameter", "green", "periodic_points", "telescope_check", "trace_ray",
    ],
    "render": ["render"],
    "rotation": [
        "RotationSet", "minimal_enclosing_arc", "minimal_rotation_set", "minimal_rotation_set_bruteforce",
        "rotation_number", "sturmian_word",
    ],
    "towers": [
        "ComponentAddress", "KcShadow", "RayPair", "Subwindow", "ThetaResult", "Tower", "ValidationReport",
        "feigenbaum_tower", "in_shadow", "omega_probe", "pair_words", "rabbit_tower", "self_tuned_tower",
        "shadow_Kc", "shadow_component", "subwindow", "theta", "tune", "validate", "window_at",
        "window_endpoints", "window_length",
    ],
}
PUBLIC = sorted(name for names in HOMES.values() for name in names)


def fresh(code: str):
    """JSON printed by ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(renormray.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_all_is_the_public_names():
    assert len(PUBLIC) == 56
    assert renormray.__all__ == PUBLIC


def test_each_name_is_its_home_modules_object_and_is_cached():
    for module, names in HOMES.items():
        home = importlib.import_module(f"renormray.{module}")
        for name in names:
            value = getattr(renormray, name)
            assert value is getattr(home, name), name
            assert vars(renormray)[name] is value, name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        renormray.no_such_name
    assert not hasattr(renormray, "__wrapped__")


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(renormray))


def test_import_loads_no_submodule_and_no_numpy():
    loaded, numpy, resolved = fresh(
        "import json, sys, renormray\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('renormray')), 'numpy' in sys.modules,"
        " sorted(set(vars(renormray)) & set(renormray.__all__))]))"
    )
    assert loaded == ["renormray"]
    assert numpy is False
    assert resolved == []


def test_render_submodule_import_first_keeps_the_function():
    # the import binds the submodule on the package before the name was ever read
    assert fresh(
        "import json, sys, types\n"
        "import renormray.render\n"
        "print(json.dumps([isinstance(renormray.render, types.ModuleType),"
        " renormray.render is sys.modules['renormray.render'].render]))"
    ) == [False, True]


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from renormray import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(renormray, name) for name in PUBLIC)
