"""The report set run in one process in either order, and tools/report_diff.py."""

import contextlib
import io
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "bench"))

import workloads  # noqa: E402

from qschro.cli import main  # noqa: E402


def run_in_turn(tasks, folder) -> dict:
    """{task id: (exit code, report without [metadata])}, each run through main in this process."""
    out = {}
    os.makedirs(folder)
    for k, t in enumerate(tasks):
        path = os.path.join(folder, f"{t.id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(t.raw_text if t.raw_text is not None else json.dumps(t.problem))
        where = os.path.join(folder, f"out-{k}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([t.task, "--input", path, "--out", where])
        with open(os.path.join(where, t.problem.get("output", "report.txt")), encoding="utf-8") as fh:
            out[t.id] = code, workloads.strip_metadata(fh.read())
    return out


def test_gram_reports_do_not_depend_on_the_tasks_run_before_them(tmp_path):
    # what a function keeps (re-centred copies, the same-mesh mark, a field's
    # plans) carries nothing from one task to the next
    tasks = workloads.generate("gram", 1)
    assert len(tasks) == 9
    forward = run_in_turn(tasks, tmp_path / "forward")
    backward = run_in_turn(tasks[::-1], tmp_path / "backward")
    assert forward == backward


def test_report_diff_finds_no_difference_between_a_checkout_and_itself():
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "report_diff.py"), REPO, REPO,
                           "--workloads", "gram", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 of 13 tasks differ"
