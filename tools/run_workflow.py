"""Run a GitHub Actions workflow's shell steps locally, without a network.

    python3 tools/run_workflow.py [WORKFLOW]

WORKFLOW defaults to .github/workflows/tier1.yml.  Every job, and every
combination of its `strategy.matrix`, runs in a fresh `git worktree` of HEAD
(so uncommitted changes are not tested), removed afterwards.  Its `run:`
steps run in order, with `${{ matrix.* }}` substituted: under
`bash --noprofile --norc -eo pipefail` where a step says `shell: bash`, and
under `bash -e` otherwise, as on a GitHub Linux runner.  The job's
`actions/setup-python` version picks the newest installed pyenv interpreter
of that minor version (PYENV_ROOT, default ~/.pyenv), whose bin directory
goes first on PATH.

`uses:` steps and `pip install` steps are reported as skipped; nothing is
installed.  A step that runs pytest, or any step of a job whose Python is
not installed, is reported as `not runnable here` when the interpreter
cannot import pytest or is missing.  Steps of a job stop at its first
failure, as on a runner.  One JSON line per step goes to stdout (job, step,
status, exit code, wall seconds); step output goes to stderr.  The exit code
is 1 when a step failed and 0 otherwise.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
MATRIX_EXPR = re.compile(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}")


def expand_matrix(job: dict) -> list[dict]:
    """Every combination of the job's matrix lists, in file order ([{}] without a matrix)."""
    matrix = (job.get("strategy") or {}).get("matrix") or {}
    axes = {k: v for k, v in matrix.items() if isinstance(v, list)}
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def substitute(text, values: dict):
    if not isinstance(text, str):
        return text
    return MATRIX_EXPR.sub(lambda m: str(values.get(m.group(1), m.group(0))), text)


def pyenv_bin(version: str) -> Path | None:
    """bin directory of the newest installed pyenv Python with this minor version."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for path in root.glob(f"{version}.*"):
        patch = path.name[len(version) + 1:]
        if patch.isdigit() and (path / "bin" / "python").exists():
            found.append((int(patch), path / "bin"))
    return max(found)[1] if found else None


def job_python(steps: list, values: dict) -> str | None:
    for step in steps:
        if str(step.get("uses", "")).startswith("actions/setup-python"):
            version = (step.get("with") or {}).get("python-version")
            return None if version is None else str(substitute(version, values))
    return None


def step_name(step: dict, values: dict) -> str:
    if "name" in step:
        return substitute(step["name"], values)
    if "uses" in step:
        return f"uses {step['uses']}"
    return substitute(step.get("run", ""), values).strip().splitlines()[0]


def run_step(script: str, shell: str | None, cwd: Path, env: dict) -> int:
    with tempfile.NamedTemporaryFile("w", suffix=".sh", delete=False) as fh:
        fh.write(script)
    try:
        flags = ["--noprofile", "--norc", "-eo", "pipefail"] if shell == "bash" else ["-e"]
        # file descriptor 2: step output goes to stderr, JSON lines alone to stdout
        return subprocess.run(["bash", *flags, fh.name], cwd=cwd, env=env, stdout=2, stderr=2).returncode
    finally:
        os.unlink(fh.name)


def run_job(job_id: str, job: dict, values: dict) -> list[dict]:
    label = job_id + (" (" + ", ".join(str(v) for v in values.values()) + ")" if values else "")
    steps = job.get("steps") or []
    version = job_python(steps, values)
    bindir = pyenv_bin(version) if version else None
    env = dict(os.environ)
    if bindir is not None:
        env["PATH"] = f"{bindir}{os.pathsep}{env.get('PATH', '')}"
    runnable = version is None or bindir is not None
    python = str(bindir / "python") if bindir is not None else sys.executable
    has_pytest = runnable and subprocess.run([python, "-c", "import pytest"], capture_output=True).returncode == 0
    records, failed = [], False
    work = Path(tempfile.mkdtemp(prefix="run-workflow-")) / "tree"
    subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet", str(work), "HEAD"], check=True)
    try:
        for step in steps:
            record = {"job": label, "step": step_name(step, values), "status": "skipped", "exit": None, "seconds": 0.0}
            records.append(record)
            script = substitute(step.get("run"), values)
            if script is None or re.search(r"\bpip install\b", script):
                pass
            elif failed:
                record["status"] = "not run after a failure"
            elif not runnable or ("pytest" in script and not has_pytest):
                record["status"] = "not runnable here"
            else:
                start = time.perf_counter()
                code = run_step(script, step.get("shell"), work, env)
                record.update(exit=code, seconds=round(time.perf_counter() - start, 2))
                record["status"] = "passed" if code == 0 else "failed"
                failed = code != 0
            print(json.dumps(record), flush=True)
    finally:
        subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(work)], check=False)
        shutil.rmtree(work.parent, ignore_errors=True)
        subprocess.run(["git", "-C", str(REPO), "worktree", "prune"], check=False)
    return records


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: run_workflow.py [WORKFLOW]", file=sys.stderr)
        return 2
    path = Path(argv[0]) if argv else REPO / ".github" / "workflows" / "tier1.yml"
    workflow = yaml.safe_load(path.read_text())
    records = []
    for job_id, job in (workflow.get("jobs") or {}).items():
        for values in expand_matrix(job):
            records += run_job(job_id, job, values)
    return 1 if any(r["status"] == "failed" for r in records) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
