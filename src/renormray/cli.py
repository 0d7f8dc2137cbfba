"""Command-line entry point: one subcommand per operation family.

Exit codes: 0 success, 1 domain error (invalid tower, failed validation,
non-landing ray) or a file that cannot be read or written, 2 usage error
(including a flag value or scene that does not parse).  Machine output goes
to stdout as JSON (sorted keys, so byte-identical across runs) unless --out
names a file.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from typing import NoReturn

# each cmd_* imports its own layers, so a call compiles only what its
# subcommand runs
from .circle import Angle, _rational, _text


class DomainError(Exception):
    pass


def _complex(text: str) -> complex:
    z = complex(text.replace(" ", "").replace("i", "j"))
    if not cmath.isfinite(z):
        raise ValueError(f"{text!r} is not a finite complex number")
    return z


def _tower(args):
    from .towers import Tower, feigenbaum_tower, rabbit_tower

    if args.depth is not None and args.depth < 0:
        _usage_error(args, f"--depth {args.depth} is negative")
    if args.tower in ("feigenbaum", "rabbit"):
        if args.depth is None:
            _usage_error(args, f"--tower {args.tower} needs --depth")
        if args.depth < 1:
            _usage_error(args, f"--tower {args.tower} needs --depth of at least 1, not {args.depth}")
    if args.tower == "feigenbaum":
        return feigenbaum_tower(args.depth)
    if args.tower == "rabbit":
        return rabbit_tower(args.depth)
    levels = _parse(args, "tower", _tower_levels)
    if not levels:
        _usage_error(args, "--tower lists no levels")
    if args.depth is not None and args.depth > len(levels):
        _usage_error(args, f"--depth {args.depth} exceeds the {len(levels)} levels of --tower")
    return Tower(tuple(levels[: args.depth] if args.depth else levels))


def _tower_levels(text: str):
    from .towers import RayPair

    return [RayPair(_period(lv["period"]), Angle.parse(lv["lo"]), Angle.parse(lv["hi"])) for lv in json.loads(text)]


def _period(value) -> int:
    # int() alone would read a period of 2.7 as 2 and true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"period {value!r} is not an integer")
    return int(value)


def _add_tower_flags(p, need_level=False):
    p.add_argument("--tower", required=True, help="'feigenbaum', 'rabbit', or JSON [{period, lo, hi}, ...]")
    p.add_argument("--depth", type=int, help="tower depth (required for named towers)")
    if need_level:
        p.add_argument("--level", type=int, required=True, help="tower level n (1-based)")


def _emit(obj, args) -> None:
    # a non-finite float raises ValueError (exit 1) before any byte is written
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _usage_error(args, message: str) -> NoReturn:
    print(f"{args.command}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse(args, flag: str, convert):
    """convert(value of --flag); a value that does not convert is a usage error.

    RecursionError is how json reports input nested too deeply to decode.
    """
    value = getattr(args, flag)
    try:
        return convert(value)
    except (ValueError, KeyError, TypeError, ArithmeticError, RecursionError) as exc:
        _usage_error(args, f"--{flag.replace('_', '-')} {value!r} does not parse: {exc!r}")


def _arc_json(arc) -> dict:
    """An arc as {"start", "length"} "p/q" strings (every emitted arc has 0 < length < 1)."""
    return {"start": str(arc.start), "length": _text(arc.length.numerator, arc.length.denominator)}


def cmd_tower(args):
    _emit(_tower(args).to_json(), args)


def cmd_window(args):
    from .towers import subwindow, window_at

    comb = _tower(args)
    pair = comb.level(args.level)
    j = args.j
    if args.sub:
        sub = subwindow(pair, j)
        _emit(
            {
                "level": args.level,
                "j": j,
                "components": [_arc_json(a) for a in sub.arcs],
                "labels": {k: _arc_json(a) for k, a in sub.labeled.items()},
            },
            args,
        )
    else:
        _emit({"level": args.level, "j": j, "components": [_arc_json(a) for a in window_at(pair, j)]}, args)


def cmd_shadow(args):
    from .towers import in_shadow, shadow_Kc

    if not args.kc and args.t is None:
        _usage_error(args, "needs --t, or --kc for the K_c shadow")
    comb = _tower(args)
    if args.kc:
        shad = shadow_Kc(comb, comb.depth)
        _emit(
            {
                "s": [_arc_json(a) for a in shad.s],
                "tau1": str(shad.tau1.refine(args.bits)),
                "tau2": str(shad.tau2.refine(args.bits)),
                "bits": args.bits,
            },
            args,
        )
        return
    result = in_shadow(_parse(args, "t", Angle.parse), comb, args.level, args.j)
    _emit({"t": args.t, "level": args.level, "j": args.j, "in_shadow": result}, args)


def cmd_theta(args):
    from .towers import theta

    comb = _tower(args)
    res = theta(comb, args.level, _parse(args, "t", Angle.parse))
    _emit({"t": args.t, "level": args.level, "value": str(res.value), "boundary_collapse": res.boundary_collapse}, args)


def cmd_omega(args):
    from .towers import omega_probe, shadow_Kc

    comb = _tower(args)
    source = shadow_Kc(comb, comb.depth).tau1
    targets = _parse(args, "targets", lambda texts: [Angle.parse(t) for t in texts])
    hits = omega_probe(source, targets, args.horizon, args.bits)
    _emit({"hits": [{"target": str(t), "first_hit": k} for t, k in hits]}, args)


def cmd_validate(args):
    from .towers import validate

    report = validate(_tower(args))
    _emit({"pass": report.passed, "checks": report.to_json()}, args)
    if not report.passed:
        raise DomainError("tower validation failed")


def cmd_rotset(args):
    from .rotation import minimal_rotation_set

    nu = _parse(args, "nu", _rational)
    if not 0 <= nu < 1:
        _usage_error(args, "--nu must lie in [0, 1)")
    _emit(minimal_rotation_set(nu).to_json(), args)


def cmd_lamination(args):
    from .lamination import build, export_svg, verify_unlinked

    if args.preimage_depth < 0:
        _usage_error(args, f"--preimage-depth {args.preimage_depth} is negative")
    comb = _tower(args)
    family = build(comb, comb.depth, args.preimage_depth)
    report = verify_unlinked(family)
    svg = export_svg(family, circular_arcs=args.arcs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
        print(json.dumps({"chords": len(family), "unlinked": report["pass"], "svg": args.out}, sort_keys=True))
    else:
        print(svg)
    if not report["pass"]:
        raise DomainError("chord family is linked")


def cmd_ray(args):
    from .plane import Params, trace_ray

    params = Params(c=_parse(args, "c", _complex))
    path = trace_ray(params, _parse(args, "t", Angle.parse), level_min=_parse(args, "level_min", _finite_float))
    _emit(
        {
            "angle": args.t,
            "points": [[p.real, p.imag] for p in path.points[-10:]],
            "levels": path.levels[-10:],
            "landing": [path.landing.real, path.landing.imag] if path.landing is not None else None,
            "residual": path.residual,
            "landed": path.landed,
            "aborted": path.aborted,
            "abort_reason": path.abort_reason,
        },
        args,
    )
    if path.aborted:
        raise DomainError(path.abort_reason)


def cmd_green(args):
    from .plane import Params, green

    params = Params(c=_parse(args, "c", _complex))
    _emit({"z": args.z, "green": green(params, _parse(args, "z", _complex))}, args)


def cmd_periodic(args):
    from .plane import Params, periodic_points

    params = Params(c=_parse(args, "c", _complex))
    pts = periodic_points(params, args.m)
    _emit(
        {"m": args.m, "points": [{"z": [z.real, z.imag], "multiplier": [w.real, w.imag]} for z, w in pts]},
        args,
    )


def cmd_beta(args):
    from .plane import Params, beta_point

    params = Params(c=_parse(args, "c", _complex))
    res = beta_point(params, _tower(args), args.level)
    _emit(
        {
            "beta": [res.beta.real, res.beta.imag],
            "matched": res.matched,
            "candidates": [[z.real, z.imag] for z in res.candidates],
            "residuals": list(res.residuals),
        },
        args,
    )


def cmd_telescope(args):
    from .plane import Params, telescope_check

    params = Params(c=_parse(args, "c", _complex))
    times = _parse(args, "times", lambda text: [int(s) for s in text.split(",")])
    r, kappa, delta = (_parse(args, flag, _finite_float) for flag in ("r", "kappa", "delta"))
    report = telescope_check(params, _parse(args, "x", _complex), r, kappa, delta, times)
    _emit(
        {
            "pass": report.passed,
            "aborted_at": report.aborted_at,
            "univalence_is_heuristic": report.univalence_is_heuristic,
            "stages": [vars(s) for s in report.stages],
        },
        args,
    )


def _finite_float(text: str) -> float:
    """A JSON number or constant (NaN, Infinity) that must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _float_range_int(text: str) -> int:
    """A JSON integer, which like every scene number must convert to a float."""
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{text} is not a finite number") from None
    return value


def _read_scene(path: str):
    with open(path) as fh:
        return json.load(fh, parse_float=_finite_float, parse_int=_float_range_int, parse_constant=_finite_float)


def cmd_render(args):
    from .render import render as render_scene

    # an unreadable file is an OSError (exit 1); a scene that does not decode,
    # lacks a key or has invalid geometry is a usage error; an ArithmeticError
    # while computing a well-formed scene is a numerical failure (exit 1)
    scene = _parse(args, "scene", _read_scene)
    try:
        data = render_scene(scene)
    except (ValueError, KeyError, TypeError) as exc:
        _usage_error(args, f"--scene {args.scene!r} does not parse: {exc!r}")
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(json.dumps({"out": args.out, "bytes": len(data)}, sort_keys=True))


def cmd_selftest(args):
    from . import selftest

    checks = selftest.run_all()
    _emit({"pass": all(c.passed for c in checks), "checks": [c.to_json() for c in checks]}, args)
    if not all(c.passed for c in checks):
        raise DomainError("selftest failed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="renormray", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tower", help="emit the levels of a tower")
    p.set_defaults(handler=cmd_tower)
    _add_tower_flags(p)

    p = sub.add_parser("window", help="window s_{n,j} or sub-window of a tower level")
    p.set_defaults(handler=cmd_window)
    _add_tower_flags(p, need_level=True)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--sub", action="store_true", help="emit the four-arc sub-window")

    p = sub.add_parser("shadow", help="shadow membership, or the K_c shadow with --kc")
    p.set_defaults(handler=cmd_shadow)
    _add_tower_flags(p)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--t", help="angle p/q")
    p.add_argument("--kc", action="store_true")
    p.add_argument("--bits", type=int, default=8)

    p = sub.add_parser("theta", help="level-n itinerary semiconjugacy value")
    p.set_defaults(handler=cmd_theta)
    _add_tower_flags(p, need_level=True)
    p.add_argument("--t", required=True)

    p = sub.add_parser("omega", help="first hit times of doubled tau1 prefixes near targets")
    p.set_defaults(handler=cmd_omega)
    _add_tower_flags(p)
    p.add_argument("--targets", nargs="+", required=True)
    p.add_argument("--horizon", type=int, default=65536)
    p.add_argument("--bits", type=int, default=8)

    p = sub.add_parser("validate", help="full invariant scan of a tower")
    p.set_defaults(handler=cmd_validate)
    _add_tower_flags(p)

    p = sub.add_parser("rotset", help="minimal rotation set for a rotation number")
    p.set_defaults(handler=cmd_rotset)
    p.add_argument("--nu", required=True)

    p = sub.add_parser("lamination", help="chord family of a tower, as SVG")
    p.set_defaults(handler=cmd_lamination)
    _add_tower_flags(p)
    p.add_argument("--preimage-depth", type=int, default=0)
    p.add_argument("--arcs", action="store_true", help="draw hyperbolic arcs instead of straight chords")
    p.add_argument("--out")

    p = sub.add_parser("ray", help="trace an external ray")
    p.set_defaults(handler=cmd_ray)
    p.add_argument("--c", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--level-min", default="1e-9")

    p = sub.add_parser("green", help="Green level of a point")
    p.set_defaults(handler=cmd_green)
    p.add_argument("--c", required=True)
    p.add_argument("--z", required=True)

    p = sub.add_parser("periodic", help="roots of f^m(z) = z with multipliers")
    p.set_defaults(handler=cmd_periodic)
    p.add_argument("--c", required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("beta", help="shared landing point of a level's ray pair")
    p.set_defaults(handler=cmd_beta)
    _add_tower_flags(p, need_level=True)
    p.add_argument("--c", required=True)

    p = sub.add_parser("telescope", help="stage conditions of a telescope at x")
    p.set_defaults(handler=cmd_telescope)
    p.add_argument("--c", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--times", required=True, help="comma-separated, starting at 0")

    p = sub.add_parser("render", help="render a scene JSON to binary PPM")
    p.set_defaults(handler=cmd_render)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("selftest", help="run the embedded exact consistency suite")
    p.set_defaults(handler=cmd_selftest)

    for name, prs in sub.choices.items():
        if name not in ("render", "lamination"):
            prs.add_argument("--out", help="write JSON here instead of stdout")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except (DomainError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    # deep towers print and read integers of more than 4300 digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(run())


if __name__ == "__main__":
    main()
