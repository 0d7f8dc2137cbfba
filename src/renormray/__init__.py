"""renormray: exact circle combinatorics of renormalization towers for
z^2 + c, with a numerical plane-dynamics companion."""

from .circle import (
    Angle,
    Arc,
    ArcSet,
    LimitAngle,
    angle_from_words,
    binary_words,
    double,
    orbit_info,
    preimages,
    sigma_pow,
)
from .lamination import Chord, build, export_svg, linked, orbit_chords, verify_unlinked
from .plane import (
    BetaResult,
    Params,
    RayPath,
    TelescopeReport,
    beta_point,
    expansion_report,
    feigenbaum_parameter,
    green,
    periodic_points,
    telescope_check,
    trace_ray,
)
from .render import render
from .rotation import (
    RotationSet,
    minimal_enclosing_arc,
    minimal_rotation_set,
    minimal_rotation_set_bruteforce,
    rotation_number,
    sturmian_word,
)
from .towers import (
    ComponentAddress,
    KcShadow,
    RayPair,
    Subwindow,
    ThetaResult,
    Tower,
    ValidationReport,
    feigenbaum_tower,
    in_shadow,
    omega_probe,
    pair_words,
    rabbit_tower,
    self_tuned_tower,
    shadow_Kc,
    shadow_component,
    subwindow,
    theta,
    tune,
    validate,
    window_at,
    window_endpoints,
    window_length,
)

__version__ = "0.1.0"
