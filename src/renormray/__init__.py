"""renormray: exact circle combinatorics of renormalization towers for
z^2 + c, with a numerical plane-dynamics companion.

The public names below are loaded on first use (PEP 562), so ``import
renormray`` loads no submodule and a CLI call compiles only the layers its
subcommand uses.
"""

import importlib

_EXPORTS = {
    "circle": (
        "Angle", "Arc", "ArcSet", "LimitAngle", "angle_from_words", "binary_words", "double", "orbit_info",
        "preimages", "sigma_pow",
    ),
    "lamination": ("Chord", "build", "export_svg", "linked", "orbit_chords", "verify_unlinked"),
    "plane": (
        "BetaResult", "Params", "RayPath", "TelescopeReport", "beta_point", "expansion_report",
        "feigenbaum_parameter", "green", "periodic_points", "telescope_check", "trace_ray",
    ),
    "rotation": (
        "RotationSet", "minimal_enclosing_arc", "minimal_rotation_set", "minimal_rotation_set_bruteforce",
        "rotation_number", "sturmian_word",
    ),
    "scene": ("render",),
    "towers": (
        "ComponentAddress", "KcShadow", "RayPair", "Subwindow", "ThetaResult", "Tower", "ValidationReport",
        "feigenbaum_tower", "in_shadow", "omega_probe", "pair_words", "rabbit_tower", "self_tuned_tower",
        "shadow_Kc", "shadow_component", "subwindow", "theta", "tune", "validate", "window_at",
        "window_endpoints", "window_length",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _resolve(name):
    # called only for a name missing from the module's dict; the value is
    # stored there, so later reads are plain lookups
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def _names():
    return sorted(set(globals()) | set(_HOME))


__getattr__, __dir__ = _resolve, _names  # PEP 562
