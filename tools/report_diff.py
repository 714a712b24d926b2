"""Compare the reports of two source trees, task by task.

    python3 tools/report_diff.py ROOT_A ROOT_B

Each ROOT is the root of a source checkout (it holds ``src/qschro``).  The
tasks are every task of the benchmark's ``shoot``, ``gram`` and ``algebra``
workloads for seeds 1-5, and every ``problems/*.json``.  Their problem
files are written once, from this checkout's ``bench/workloads.py`` and
``problems/``, so both trees read the same bytes.  Each tree runs all of
them through ``qschro.cli.main`` in one fresh interpreter, with that
tree's ``src`` on PYTHONPATH and BLAS pinned to one thread, as the
benchmark runs it.  Reports are compared without their ``[metadata]``
block (``bench/workloads.strip_metadata``).

Prints every task whose exit code or report differs, with its first
differing line, and a count; exits 1 if any task differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("shoot", "gram", "algebra")
SEEDS = range(1, 6)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def write_problems(folder: str, workloads) -> list[dict]:
    """Write every problem file under folder; one entry per task."""
    texts = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for t in workloads.generate(name, seed):
                text = t.raw_text if t.raw_text is not None else json.dumps(t.problem, indent=1)
                texts.append((f"{name}-seed{seed}/{t.id}", t.task, text))
    problems = os.path.join(REPO, "problems")
    for fname in sorted(os.listdir(problems)):
        if fname.endswith(".json"):
            with open(os.path.join(problems, fname), encoding="utf-8") as fh:
                text = fh.read()
            texts.append((f"problems/{fname}", json.loads(text)["task"], text))
    entries = []
    for i, (name, task, text) in enumerate(texts):
        path = os.path.join(folder, f"{i:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            output = json.loads(text).get("output", "report.txt")
        except (ValueError, AttributeError):
            output = "report.txt"
        entries.append({"name": name, "task": task, "input": path, "output": output})
    return entries


def run_all(entries_path: str, out_root: str) -> None:
    """Child side: run every entry through qschro.cli.main, write results.json."""
    import qschro
    from qschro.cli import main

    with open(entries_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    results = {"qschro": os.path.abspath(qschro.__file__), "tasks": {}}
    for i, e in enumerate(entries):
        out = os.path.join(out_root, f"{i:04d}")
        os.makedirs(out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main([e["task"], "--input", e["input"], "--out", out])
            except Exception as exc:  # a traceback is a result to compare, not a crash of the tool
                code = f"raised {type(exc).__name__}: {exc}"
        try:
            with open(os.path.join(out, e["output"]), encoding="utf-8") as fh:
                report = fh.read()
        except OSError:
            report = None
        results["tasks"][e["name"]] = [code, report]
    with open(os.path.join(out_root, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def reports_of(root: str, entries_path: str, scratch: str) -> dict:
    """Run the entries in a fresh interpreter on root's src; {name: [code, report]}."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isdir(os.path.join(src, "qschro")):
        raise SystemExit(f"{root}: no src/qschro")
    out_root = tempfile.mkdtemp(dir=scratch)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", entries_path, out_root],
                          env=env, cwd=out_root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: the run failed\n{proc.stderr}")
    with open(os.path.join(out_root, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    if not results["qschro"].startswith(src + os.sep):
        raise SystemExit(f"{root}: imported qschro from {results['qschro']}, not from {src}")
    return results["tasks"]


def first_difference(a: str | None, b: str | None) -> str:
    if a is None or b is None:
        return "report " + ("missing in A" if a is None else "missing in B")
    la, lb = a.splitlines(), b.splitlines()
    for n, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {n}:\n      A: {x}\n      B: {y}"
    return f"A has {len(la)} lines, B has {len(lb)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", metavar="ROOT")
    parser.add_argument("--child", nargs=2, metavar=("ENTRIES", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_all(*args.child)
        return 0
    if len(args.roots) != 2:
        parser.error("give two roots: ROOT_A ROOT_B")
    sys.path.insert(0, os.path.join(REPO, "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as scratch:
        folder = os.path.join(scratch, "problems")
        os.makedirs(folder)
        entries = write_problems(folder, workloads)
        entries_path = os.path.join(scratch, "entries.json")
        with open(entries_path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        runs = [reports_of(root, entries_path, scratch) for root in args.roots]
    differ = 0
    for e in entries:
        (code_a, rep_a), (code_b, rep_b) = (run[e["name"]] for run in runs)
        body_a, body_b = (None if r is None else workloads.strip_metadata(r) for r in (rep_a, rep_b))
        if code_a == code_b and body_a == body_b:
            continue
        differ += 1
        print(f"{e['name']} ({e['task']}): exit {code_a} vs {code_b}")
        if body_a != body_b:
            print("    " + first_difference(body_a, body_b))
    print(f"{differ} of {len(entries)} tasks differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
