"""renormray benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact-queries --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, towers, inputs) is timed on its own.  The timed
phase repeats the workload's fixed batch until ``--seconds`` would be
exceeded; outputs are checked after each batch, outside the timing.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics derived from
spans.  The metric names and units are read from ``BENCHMARK.json``; the
full run record and the spans go to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import warnings
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = "perfbench/out"  # relative to ROOT, which is the working directory of every CLI call
WORKLOADS = ("exact-queries", "exact-scans", "plane-render", "cli")
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
IMPORT_REPEATS = 5  # fresh-interpreter imports behind cli.import_ms
MIN_BATCHES = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

# One process, no extra threads: the renderer reads RENORM_RAYS_THREADS and
# numpy's BLAS pools read the others.  Children (CLI calls, set-ups) inherit.
for var in ("RENORM_RAYS_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

import spans  # noqa: E402  (the benchmark's own modules)
import wl_cli  # noqa: E402
import wl_exact  # noqa: E402
import wl_plane  # noqa: E402
import speed  # noqa: E402
from ops import digest, is_known_defect, ref_key  # noqa: E402


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "renormray", "__init__.py")):
        fail(f"no renormray sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import renormray

    if not os.path.abspath(renormray.__file__).startswith(SRC + os.sep):
        fail(f"imported renormray from {renormray.__file__}, not from {SRC}")
    return renormray


def build_ops(workload: str, R, rng):
    if workload == "exact-queries":
        return wl_exact.build_queries(R, rng)
    if workload == "exact-scans":
        return wl_exact.build_scans(R, rng)
    if workload == "plane-render":
        return wl_plane.build_plane(R, rng)
    return wl_cli.build_cli(R, rng, ROOT, OUT)


def setup(workload: str, seed: int):
    """Import the package and build towers and inputs: (seconds, ops)."""
    t0 = perf_counter()
    R = import_package()
    ops = build_ops(workload, R, random.Random(seed))
    return perf_counter() - t0, ops


def child_setup_seconds(workload: str, seed: int) -> tuple[float, list[float]]:
    """Set-up seconds in a fresh interpreter, and the speed probes around it."""
    probes = speed.block()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], probes + speed.block()


def run_batch(ops, tr, first_id):
    """Run every op once: (wall seconds, latencies, outputs, escaped errors,
    speed probes).  Probes run outside the timing: a block before and after
    the batch and one after every PROBE_EVERY_S of measured work."""
    lat, outs, errs = [], [], []
    probes, since, wall = speed.block(), 0.0, 0.0
    for i, op in enumerate(ops):
        tr.begin_op(first_id + i, op.cls)
        s = perf_counter()
        try:
            out, err = op.run(tr), None
        except Exception as exc:  # any escaping exception is a counted failure
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - s
        tr.end_op()
        lat.append(dt)
        outs.append(out)
        errs.append(err)
        wall += dt
        since += dt
        if since >= speed.PROBE_EVERY_S:
            probes.append(speed.probe())
            since = 0.0
    return wall, lat, outs, errs, probes + speed.block()


def check_batch(ops, outs, errs, reference):
    """(class, reason) of every failed op of a batch."""
    failures = []
    for op, out, err in zip(ops, outs, errs):
        if err is not None:
            failures.append((op.cls, err))
            continue
        problems = list(op.check(out)) if op.check else []
        if op.key is not None:
            want = reference.get(ref_key(op.key))
            got = digest(op.encode(out) if op.encode else out)
            if want is None:
                problems.append("no reference digest for this input")
            elif got != want:
                problems.append("output differs from the reference digest")
        if problems:
            failures.append((op.cls, "; ".join(problems)))
    return failures


def percentile(values, q: float) -> float:
    xs = sorted(values)
    pos = q / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(batch_size: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in the
    fewest batches a run makes, so the choice does not depend on timing.
    Percentiles are taken per batch and their median reported, so the rank
    they pick in the fixed batch does not move with the number of batches."""
    for q in TAIL_LADDER:
        if MIN_BATCHES * batch_size * (1 - q / 100) >= 10:
            return q
    return 50.0


def run_record(workload, seed, args) -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "renormray")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "source_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
        "numpy": numpy.__version__, "RENORM_RAYS_THREADS": os.environ["RENORM_RAYS_THREADS"],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next(line.split()[0] for line in fh if line.strip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "unknown"


def import_ms() -> float:
    """Median normalised time of a bare ``import renormray.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import renormray.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        probes = speed.block()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout.strip()) * 1000 / speed.slowness(probes + speed.block()))
    return statistics.median(times)


def layer_metrics(tr, scale, batches, failures_by_batch, overhead) -> dict:
    """Per-layer metrics from the spans of the traced batches, per batch;
    ``scale(op_id)`` is the slowness of the batch the op ran in."""
    s = tr.spans
    m = {}
    for name in (
        "towers.subwindow", "towers.in_shadow", "towers.theta", "towers.window_at", "towers.shadow_component",
        "towers.validate", "towers.shadow_Kc", "towers.omega_probe",
        "circle.sigma_pow", "circle.binary_words", "circle.arcset_build", "circle.arcset_intersect",
        "circle.arcset_contains", "rotation.minimal_rotation_set", "rotation.bruteforce",
        "lamination.build", "lamination.verify_unlinked",
        "plane.trace_ray", "plane.periodic_points", "plane.feigenbaum_parameter", "plane.beta_point", "plane.green",
        "render.julia", "render.equipotential", "render.ray", "render.points", "render.scene",
    ):
        m.update(spans.call_stats(s, name, batches, scale))
    for module in ("circle", "rotation", "towers", "lamination", "plane", "render", "cli"):
        m[f"{module}.busy_s"] = spans.module_busy(s, module, batches, scale)
    c = tr.counters

    def per_batch(name):
        return c.get(name, 0) / batches

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    for name in ("towers.orbit_points", "towers.validate.chords", "lamination.chords", "lamination.pairs",
                 "plane.trace_ray.points", "plane.trace_ray.aborted", "plane.green.points", "render.pixels"):
        m[name] = per_batch(name)
    m["circle.max_den_bits"] = c.get("circle.max_den_bits", 0)
    m["plane.trace_ray.landed_ratio"] = ratio("plane.trace_ray.landed", "plane.trace_ray.rays")
    m["plane.periodic_points.certified_ratio"] = ratio("plane.periodic_points.certified",
                                                       "plane.periodic_points.requested")
    m["plane.beta_point.matched_ratio"] = ratio("plane.beta_point.matched", "plane.beta_point.levels")
    for group in ("exact", "numeric", "usage_error"):
        ds = spans.durations(s, scale, prefix=f"cli.{group}.")
        m[f"cli.{group}.p50_ms"] = statistics.median(ds) * 1000 if ds else 0.0
    m["cli.contract_violations"] = sum(
        1 for fails in failures_by_batch for cls, _ in fails if cls.startswith("cli.")) / batches
    m["cli.import_ms"] = import_ms()
    m["trace.overhead_s"], m["trace.overhead_ratio"] = overhead
    return m


def run_workload(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow in known-defect cases
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    probes = speed.block()
    setup_main, ops = setup(args.workload, args.seed)
    setups = [(setup_main, probes + speed.block())]
    tr = spans.Tracer(False)
    walls, lats, failures_by_batch, slow = [], [], [], []
    start = perf_counter()
    while True:
        tr.enabled = bool(args.trace) and len(walls) > 0  # traced runs keep one untraced batch
        gc.collect()
        first_id = len(walls) * len(ops)
        wall, lat, outs, errs, probes = run_batch(ops, tr, first_id)
        failures_by_batch.append(check_batch(ops, outs, errs, reference))
        slow.append(speed.slowness(probes))
        walls.append(wall)
        lats.append(lat)
        elapsed = perf_counter() - start
        if len(walls) >= MIN_BATCHES and elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    setups += [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]

    attempted = len(ops) * len(walls)
    failed = sum(len(f) for f in failures_by_batch)
    ledger: dict[str, dict[str, int]] = {}
    for fails in failures_by_batch:
        for cls, reason in fails:
            ledger.setdefault(cls, {}).setdefault(reason, 0)
            ledger[cls][reason] += 1
    unexpected = sorted({(c, r) for f in failures_by_batch for c, r in f if not is_known_defect(c, r)})
    q = tail_percentile(len(ops))

    def end_to_end(f_setup, f_batch):
        """End-to-end metrics, each batch's timings divided by f_batch(batch)."""
        w = statistics.median(wall / f_batch(i) for i, wall in enumerate(walls))
        return {
            "setup_s": statistics.median(t / f_setup(p) for t, p in setups),
            "wall_s": w,
            "ops_per_s": len(ops) / w,
            "op_p50_ms": statistics.median(percentile(b, 50) / f_batch(i) for i, b in enumerate(lats)) * 1000,
            "op_tail_ms": statistics.median(percentile(b, q) / f_batch(i) for i, b in enumerate(lats)) * 1000,
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }

    e2e_raw = end_to_end(lambda p: 1.0, lambda i: 1.0)
    e2e = end_to_end(speed.slowness, lambda i: slow[i])
    if args.trace:
        norm_walls = [w / f for w, f in zip(walls, slow)]
        untraced = norm_walls[0]
        overhead = statistics.median(norm_walls[1:]) - untraced
        values = layer_metrics(tr, lambda op: slow[op // len(ops)], len(walls) - 1, failures_by_batch[1:],
                               (overhead, overhead / untraced))
    else:
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = run_record(args.workload, args.seed, args)
    record.update({
        "batches": len(walls), "traced_batches": len(walls) - 1 if args.trace else 0, "ops_per_batch": len(ops),
        "ops_by_class": {c: sum(op.cls == c for op in ops) for c in sorted({op.cls for op in ops})},
        "batch_walls_s": walls, "batch_slowness": slow, "setups_s": [t for t, _ in setups],
        "setup_slowness": [speed.slowness(p) for _, p in setups], "samples": attempted, "tail_percentile": q,
        "end_to_end_raw": e2e_raw,
        "ops_attempted": attempted, "ops_failed": failed, "fail_ratio": failed / attempted,
        "failures": ledger, "unexpected_failures": [list(u) for u in unexpected],
        "end_to_end": e2e, "metrics": metrics,
    })
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    with open(os.path.join(ROOT, OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tr.write(os.path.join(ROOT, OUT, f"spans-{tag}.jsonl"), args.workload, args.seed)

    print(f"{args.workload} seed {args.seed}: {len(walls)} batches of {len(ops)} ops, "
          f"{attempted} latency samples, tail = p{q:g}, {failed} of {attempted} ops failed")
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:14.6g} {v['unit']}")
    for cls, reasons in sorted(ledger.items()):
        for reason, n in sorted(reasons.items()):
            tag_ = "known defect" if is_known_defect(cls, reason) else "UNEXPECTED"
            print(f"  failed {n:4d}x {cls}: {reason} [{tag_}]")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload for one seed, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            fail(f"workload {w} failed: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
