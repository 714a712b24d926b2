"""List the functions of a source tree that no report task calls.

    python3 tools/reach.py [ROOT] [--workloads gram,shoot] [--seeds 1-12]

ROOT is the root of a source checkout (it holds ``src/qschro``), this
checkout by default.  The tasks are those of ``tools/report_diff.py``, with
its ``--workloads`` and ``--seeds``: every task of the benchmark's
``shoot``, ``gram`` and ``algebra`` workloads for seeds 1-5 and every
``problems/*.json`` by default.  They run through ``qschro.cli.main`` in
one fresh interpreter with ROOT's ``src`` on PYTHONPATH, under a
``sys.setprofile`` hook that is set before qschro is imported, so what the
import itself calls counts as reached.

Prints one line per function or method defined in ``src/qschro`` (nested
ones included, lambdas not) that was never called: its dotted name, its
file and first line, and its length in lines, decorators included.  Then
a count.  Functions compiled from generated source, such as the Taylor
kernels, have no file in the tree and are not listed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile

import report_diff


def defined(src: str) -> list[tuple[str, str, int, int]]:
    """(dotted name, file relative to ROOT, first line, length) of every def under src/qschro."""
    out = []
    pkg = os.path.join(src, "qschro")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            path = os.path.join(pkg, fname)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            _defs(tree, fname[:-3], os.path.relpath(path, os.path.dirname(src)), out)
    return out


def _defs(node, prefix: str, path: str, out: list) -> None:
    """Append the defs under an AST node, named below ``prefix``; the first
    line is the first decorator's, as the code object's ``co_firstlineno``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out.append((name, path, first, child.end_lineno - first + 1))
            _defs(child, name, path, out)
        else:
            _defs(child, prefix, path, out)


def run_profiled(entries_path: str, out_root: str) -> None:
    """Child side: run the entries under the profile hook, write reach.json."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        report_diff.run_all(entries_path, out_root)  # imports qschro under the hook
    finally:
        sys.setprofile(None)
    import qschro

    called = sorted({(os.path.abspath(c.co_filename), c.co_firstlineno) for c in seen})
    with open(os.path.join(out_root, "reach.json"), "w", encoding="utf-8") as fh:
        json.dump({"qschro": os.path.abspath(qschro.__file__), "called": called}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=report_diff.REPO, metavar="ROOT")
    parser.add_argument("--workloads", type=report_diff.workload_list, default=list(report_diff.WORKLOADS),
                        help="comma-separated workloads, default shoot,gram,algebra")
    parser.add_argument("--seeds", type=report_diff.seed_list, default=list(report_diff.SEEDS),
                        help="seeds and ranges such as 1-3,7; default 1-5")
    parser.add_argument("--child", nargs=2, metavar=("ENTRIES", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_profiled(*args.child)
        return 0
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isdir(os.path.join(src, "qschro")):
        raise SystemExit(f"{args.root}: no src/qschro")
    sys.path.insert(0, os.path.join(report_diff.REPO, "bench"))
    import workloads

    with tempfile.TemporaryDirectory() as scratch:
        folder = os.path.join(scratch, "problems")
        os.makedirs(folder)
        entries = report_diff.write_problems(folder, workloads, args.workloads, args.seeds)
        entries_path = os.path.join(scratch, "entries.json")
        with open(entries_path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        out_root = tempfile.mkdtemp(dir=scratch)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        env.update({var: "1" for var in report_diff.THREAD_VARS})
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", entries_path, out_root],
                              env=env, cwd=out_root, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{args.root}: the run failed\n{proc.stderr}")
        with open(os.path.join(out_root, "reach.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    if not result["qschro"].startswith(src + os.sep):
        raise SystemExit(f"{args.root}: imported qschro from {result['qschro']}, not from {src}")
    root = os.path.dirname(src)
    called = {(os.path.relpath(path, root), line) for path, line in result["called"]}
    unreached = [d for d in defined(src) if (d[1], d[2]) not in called]
    for name, path, line, length in unreached:
        print(f"{name}  {path}:{line}  {length} lines")
    print(f"{len(unreached)} functions unreached by {len(entries)} tasks, {sum(d[3] for d in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
