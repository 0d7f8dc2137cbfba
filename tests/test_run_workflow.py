import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_workflow.py"

WORKFLOW = """
jobs:
  steps:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - run: pip install pytest
      - name: ok
        run: test -f pyproject.toml
      - name: pipefail
        shell: bash
        run: false | true
      - name: after
        run: exit 0
  missing-python:
    strategy:
      matrix:
        python-version: ["9.98", "9.99"]
    steps:
      - uses: actions/setup-python@v5
        with:
          python-version: ${{ matrix.python-version }}
      - name: tests on ${{ matrix.python-version }}
        run: python -m pytest -q
"""


def _in_git_checkout():
    return subprocess.run(["git", "-C", str(TOOL.parent), "rev-parse", "HEAD"], capture_output=True).returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout to make a worktree")
def test_run_workflow_reports_each_step(tmp_path, capsys):
    pytest.importorskip("yaml")
    spec = importlib.util.spec_from_file_location("run_workflow", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = tmp_path / "wf.yml"
    path.write_text(WORKFLOW)
    assert tool.main([str(path)]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    got = [(r["job"], r["step"], r["status"], r["exit"]) for r in records]
    assert got == [
        ("steps", "uses actions/checkout@v4", "skipped", None),
        ("steps", "pip install pytest", "skipped", None),
        ("steps", "ok", "passed", 0),
        ("steps", "pipefail", "failed", 1),
        ("steps", "after", "not run after a failure", None),
        ("missing-python (9.98)", "uses actions/setup-python@v5", "skipped", None),
        ("missing-python (9.98)", "tests on 9.98", "not runnable here", None),
        ("missing-python (9.99)", "uses actions/setup-python@v5", "skipped", None),
        ("missing-python (9.99)", "tests on 9.99", "not runnable here", None),
    ]
