"""The report set run in one process in either order, echoes that re-run to their own reports,
tools/report_diff.py, tools/reach.py and tools/task_ab.py."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "bench"))

import workloads  # noqa: E402

from qschro.cli import main  # noqa: E402
from qschro.coeffs import _trimmed  # noqa: E402


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
    # what a function keeps (the same-mesh mark, a field's
    # plans) carries nothing from one task to the next
    tasks = workloads.generate("gram", 1)
    assert len(tasks) == 9
    forward = run_in_turn(tasks, tmp_path / "forward")
    backward = run_in_turn(tasks[::-1], tmp_path / "backward")
    assert forward == backward


def _echo_cases() -> list:
    """(id, task, problem text) of every task of gram and algebra seed 1, every problems/*.json
    and a solve that raises the degree cap."""
    cases = [(f"{name}/{t.id}", t.task, t.raw_text if t.raw_text is not None else json.dumps(t.problem))
             for name in ("gram", "algebra") for t in workloads.generate(name, 1)]
    folder = os.path.join(REPO, "problems")
    for fname in sorted(os.listdir(folder)):
        if fname.endswith(".json"):
            with open(os.path.join(folder, fname), encoding="utf-8") as fh:
                text = fh.read()
            cases.append((f"problems/{fname}", json.loads(text)["task"], text))
    # a degree cap above the default, which the echo must repeat
    cases.append(("solve-degree-cap-10", "solve", json.dumps({
        "task": "solve", "params": {"from": 0, "to": 1, "initial": [1, 0]},
        "coefficients": {"degree_cap": 10, "s": {"breakpoints": [], "pieces": [[0] * 9 + [0.001]]}}})))
    return cases


ECHO_CASES = _echo_cases()


@pytest.mark.parametrize("task, text", [case[1:] for case in ECHO_CASES], ids=[case[0] for case in ECHO_CASES])
def test_each_echo_re_runs_to_its_own_report(tmp_path, task, text):
    # the [problem] line, as a problem file, gives the same exit code and
    # the same report outside [metadata], its own [problem] line included
    def run(text, name, output):
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([task, "--input", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)])
        return code, workloads.strip_metadata((tmp_path / name / output).read_text(encoding="utf-8"))

    problem = json.loads(text)
    code, report = run(text, "first", problem.get("output", "report.txt"))
    lines = report.splitlines()
    echo = lines[lines.index("[problem]") + 1]
    assert run(echo, "echo", "report.txt") == (code, report)
    # its pieces are the file's numbers, without trailing zeros, and its
    # degree cap is the file's when the file sets one
    coefficients = json.loads(echo)["coefficients"]
    assert coefficients.pop("degree_cap", None) == problem["coefficients"].get("degree_cap")
    for k, f in coefficients.items():
        read = [[complex(*map(float, v)) if isinstance(v, list) else complex(float(v)) for v in piece]
                for piece in problem["coefficients"].get(k, {}).get("pieces", [[0]])]
        assert [[complex(*v) for v in piece] for piece in f["pieces"]] == [_trimmed(piece) for piece in read]


def test_report_diff_finds_no_difference_between_a_checkout_and_itself():
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "report_diff.py"), REPO, REPO,
                           "--workloads", "gram", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 of 13 tasks differ"
    # a doctored echo: one number of s's pieces, and the params
    sys.path.insert(0, os.path.join(REPO, "tools"))
    import report_diff

    report = "\n".join(["task: eig", "[problem]", json.dumps({
        "task": "eig", "params": {"interval": [0, 1]},
        "coefficients": {k: {"breakpoints": [0.5], "pieces": [[[1.0, 0.0]], [[2.0, 0.0]]], "jumps": [[0.5, [1.0, 0.0]]]}
                         for k in "sQr"}}), "[/problem]", "verdict: success"])
    doctored = report.replace("[[1.0, 0.0]], [[2.0", "[[1.0, 0.0]], [[2.5", 1).replace("[0, 1]", "[0, 2]")
    assert [kind for kind, _ in report_diff.differences(report, doctored)] == [
        "line '[problem] params' differs", "line '[problem] coefficients.s.pieces' differs"]
    assert report_diff.differences(report, report) == []


def test_reach_lists_what_the_gram_tasks_never_call():
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "reach.py"), REPO,
                           "--workloads", "gram", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = [line.split()[0] for line in proc.stdout.splitlines()[:-1]]
    assert "cli._usage_error" in names and "spectral.null_probe" not in names
    assert proc.stdout.splitlines()[-1].endswith(" lines") and "by 13 tasks" in proc.stdout.splitlines()[-1]


def test_reach_lists_the_lines_the_gram_tasks_never_run():
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "reach.py"), REPO,
                           "--workloads", "gram", "--seeds", "1", "--lines"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    names = [line.split()[0] for line in lines[:-1]]
    # a called function with a branch no task takes; one never called is not listed
    assert "propagate._exact_segment" in names and "cli._usage_error" not in names
    assert all(" lines never run: " in line for line in lines[:-1])
    assert lines[-1].endswith("called functions by 13 tasks")


def test_task_ab_gives_the_spread_of_the_pass_sums_of_a_checkout_against_itself():
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "task_ab.py"), REPO, REPO,
                           "--rounds", "2", "--fresh", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "shoot seed 1: fastest of 2 interleaved warm passes per task"
    assert lines[-2].startswith("sum ")
    spread = re.fullmatch(r"pass sums: B faster in (\d) of 2 rounds; B/A median (\S+), quartiles (\S+) to (\S+)",
                          lines[-1])
    assert spread, lines[-1]
    q1, median, q3 = map(float, spread.group(3, 2, 4))
    assert int(spread.group(1)) <= 2 and 0 < q1 <= median <= q3
