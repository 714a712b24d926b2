"""List the functions of a source tree that no report task calls.

    python3 tools/reach.py [ROOT] [--workloads gram,shoot] [--seeds 1-12] [--lines]

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

With ``--lines`` the child records the lines it runs instead, from the
line events of a ``sys.settrace`` hook on the frames of ``src/qschro``
(several times slower).  For each function that was called it prints the
executable lines of its own body that no task ran, those of its nested
functions not included: its dotted name, its file and first line, the
count of those lines against its executable ones, and the lines as
ranges.  Then a count.
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


def executable_lines(src: str) -> dict:
    """{(file relative to ROOT, first line, name): executable lines of the
    body} of every code object compiled from src/qschro, nested ones each
    on their own.  A body starts at its first statement after the
    docstring: the decorator and def lines run in the enclosing code."""
    out = {}
    pkg = os.path.join(src, "qschro")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            path = os.path.join(pkg, fname)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            starts = {}
            for node in ast.walk(ast.parse(source, path)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    body = node.body[1:] if ast.get_docstring(node) is not None and node.body[1:] else node.body
                    starts[node.name, min([node.lineno, *(d.lineno for d in node.decorator_list)])] = body[0].lineno
            rel = os.path.relpath(path, os.path.dirname(src))
            codes = [compile(source, path, "exec")]
            while codes:
                code = codes.pop()
                codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
                start = starts.get((code.co_name, code.co_firstlineno))
                if start is not None:
                    lines = {line for _, _, line in code.co_lines() if line is not None and line >= start}
                    out[rel, code.co_firstlineno, code.co_name] = lines
    return out


def run_profiled(entries_path: str, out_root: str, lines: bool) -> None:
    """Child side: run the entries under the hook, write reach.json: the
    (file, first line) of every code called and, with ``lines``, the
    (file, line) of every line run in the package."""
    seen, ran = set(), set()
    # the parent puts ROOT's src, and only it, on PYTHONPATH
    pkg = os.path.join(os.path.abspath(os.environ["PYTHONPATH"].split(os.pathsep)[0]), "qschro") + os.sep

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def trace(frame, event, arg):
        seen.add(frame.f_code)
        return line if frame.f_code.co_filename.startswith(pkg) else None

    sys.setprofile(None if lines else hook)
    sys.settrace(trace if lines else None)
    try:
        report_diff.run_all(entries_path, out_root)  # imports qschro under the hook
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    import qschro

    called = sorted({(os.path.abspath(c.co_filename), c.co_firstlineno) for c in seen})
    ran = sorted((os.path.abspath(path), n) for path, n in ran)
    with open(os.path.join(out_root, "reach.json"), "w", encoding="utf-8") as fh:
        json.dump({"qschro": os.path.abspath(qschro.__file__), "called": called, "ran": ran}, fh)


def ranges(lines) -> str:
    """Sorted line numbers as ranges: ``12-14, 20``."""
    out, lines = [], sorted(lines)
    for i, n in enumerate(lines):
        if i and n == lines[i - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=report_diff.REPO, metavar="ROOT")
    parser.add_argument("--workloads", type=report_diff.workload_list, default=list(report_diff.WORKLOADS),
                        help="comma-separated workloads, default shoot,gram,algebra")
    parser.add_argument("--seeds", type=report_diff.seed_list, default=list(report_diff.SEEDS),
                        help="seeds and ranges such as 1-3,7; default 1-5")
    parser.add_argument("--lines", action="store_true",
                        help="list the lines that no task ran in each function that was called")
    parser.add_argument("--child", nargs=2, metavar=("ENTRIES", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        run_profiled(*args.child, args.lines)
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
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", entries_path, out_root,
                               *["--lines"] * args.lines], env=env, cwd=out_root, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{args.root}: the run failed\n{proc.stderr}")
        with open(os.path.join(out_root, "reach.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    if not result["qschro"].startswith(src + os.sep):
        raise SystemExit(f"{args.root}: imported qschro from {result['qschro']}, not from {src}")
    root = os.path.dirname(src)
    called = {(os.path.relpath(path, root), line) for path, line in result["called"]}
    if args.lines:
        ran = {(os.path.relpath(path, root), line) for path, line in result["ran"]}
        dotted = {(path, first): name for name, path, first, _ in defined(src)}
        total = partial = 0
        for (path, first, _), lines in sorted(executable_lines(src).items()):
            unrun = {n for n in lines if (path, n) not in ran}
            if (path, first) in called and unrun:
                print(f"{dotted[path, first]}  {path}:{first}  {len(unrun)} of {len(lines)} lines never run: "
                      f"{ranges(unrun)}")
                total, partial = total + len(unrun), partial + 1
        print(f"{total} lines never run in {partial} called functions by {len(entries)} tasks")
        return 0
    unreached = [d for d in defined(src) if (d[1], d[2]) not in called]
    for name, path, line, length in unreached:
        print(f"{name}  {path}:{line}  {length} lines")
    print(f"{len(unreached)} functions unreached by {len(entries)} tasks, {sum(d[3] for d in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
