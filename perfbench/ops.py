"""Operations, output digests and the known-defect ledger.

An operation is one user-level query: it makes one or more calls into
renormray through the tracer and returns an output.  After the timed batch
each output is checked: exact outputs against the reference digest recorded
for the same input at the seed commit (``reference.json``), and against an
independent oracle where one exists; numeric outputs by residual.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction

# Operation classes that fail at the seed commit, with the reason each fails
# for.  They stay in the workloads; their failures are counted in
# ``failed`` and listed by class and reason, but do not make a run
# incorrect.  Any other failure does.
KNOWN_DEFECTS = (
    ("plane.periodic_points", "non-finite roots"),
    ("plane.periodic_points", "residual above bound"),
    ("plane.feigenbaum_parameter", "raised ArithmeticError: bisection bracket failed"),
    ("cli.usage_error.shadow_no_t", "exit 1, expected 2"),
    ("cli.usage_error.tower_no_hi", "exit 1, expected 2"),
    ("cli.numeric.periodic_m10", "stdout is not strict JSON"),
)


def is_known_defect(cls: str, reason: str) -> bool:
    return any(cls == c and reason.startswith(r) for c, r in KNOWN_DEFECTS)


@dataclasses.dataclass
class Op:
    """One operation of a batch.

    ``run(tr)`` makes the calls and returns the output; an expected
    exception (``theta`` outside the shadow) is returned as ``Raised``, any
    exception that escapes is a failure.  ``key`` names the reference digest
    of ``encode(output)``; ``check(output)`` returns a list of problems.
    """

    cls: str
    run: object
    key: str | None = None
    encode: object = None
    check: object = None


class Raised:
    """An expected exception, kept as the operation's output."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def canon(x):
    """JSON-ready canonical form of exact outputs (fractions as hex 'p/q')."""
    if isinstance(x, Raised):
        return {"raised": x.text}
    if isinstance(x, Fraction):
        return f"{x.numerator:x}/{x.denominator:x}"  # hex: no limit on digits
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        return repr(x)
    if hasattr(x, "frac") and isinstance(getattr(x, "frac"), Fraction):  # Angle
        return canon(x.frac)
    if hasattr(x, "arcs") and isinstance(getattr(x, "arcs"), tuple) and not dataclasses.is_dataclass(x):  # ArcSet
        return [canon(a) for a in x.arcs]
    if dataclasses.is_dataclass(x):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(canon(obj), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def ref_key(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()[:16]


def strict_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)
