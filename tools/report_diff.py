"""Compare the reports of two source trees, task by task.

    python3 tools/report_diff.py ROOT_A ROOT_B [--workloads gram,shoot] [--seeds 1-12]

Each ROOT is the root of a source checkout (it holds ``src/qschro``).  The
tasks are every task of the benchmark's ``shoot``, ``gram`` and ``algebra``
workloads for seeds 1-5, and every ``problems/*.json``; ``--workloads``
(a comma-separated list) and ``--seeds`` (a list of seeds and ranges such
as ``1-3,7``) choose other workloads and seeds.  Their problem
files are written once, from this checkout's ``bench/workloads.py`` and
``problems/``, so both trees read the same bytes.  Each tree runs all of
them through ``qschro.cli.main`` in one fresh interpreter, with that
tree's ``src`` on PYTHONPATH and BLAS pinned to one thread, as the
benchmark runs it.  Reports are compared without their ``[metadata]``
block (``bench/workloads.strip_metadata``).

Prints every task whose exit code or report differs and, under it, what
differs: each ``key:`` line (keyed by its key and its place among the lines
of that key), entry of the ``[problem]`` echo (its task, its params, each
``coefficients.<s|Q|r>.<breakpoints|pieces|jumps>`` and
``coefficients.degree_cap``), table and table column
that differs, and each one found on only one side.  A table column is
compared row by row, and a changed one is shown by its count of changed rows
and its first one.  Reports that
differ only in the order of their lines show their first differing line.
A long line is cut to 160 characters around its first difference.
Then a tally: each kind of difference with the number of tasks that show
it, and a count; exits 1 if any task differs, else 0.
"""

from __future__ import annotations

import argparse
import collections
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


def seed_list(text: str) -> list[int]:
    """The seeds of a list such as ``1-3,7``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seed")
    return seeds


def workload_list(text: str) -> list[str]:
    """The workloads of a comma-separated list, each one of WORKLOADS."""
    names = text.split(",")
    for name in names:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
    return names


def write_problems(folder: str, workloads, names=WORKLOADS, seeds=SEEDS) -> list[dict]:
    """Write every problem file under folder; one entry per task."""
    texts = []
    for name in names:
        for seed in seeds:
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


def child_env(root: str) -> tuple[str, dict]:
    """(src, environment) of a child interpreter that runs root's src: that
    src alone on PYTHONPATH, no bytecode written, BLAS pinned to one thread."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isdir(os.path.join(src, "qschro")):
        raise SystemExit(f"{root}: no src/qschro")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    return src, env


def reports_of(root: str, entries_path: str, scratch: str) -> dict:
    """Run the entries in a fresh interpreter on root's src; {name: [code, report]}."""
    src, env = child_env(root)
    out_root = tempfile.mkdtemp(dir=scratch)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", entries_path, out_root],
                          env=env, cwd=out_root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: the run failed\n{proc.stderr}")
    with open(os.path.join(out_root, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    if not results["qschro"].startswith(src + os.sep):
        raise SystemExit(f"{root}: imported qschro from {results['qschro']}, not from {src}")
    return results["tasks"]


def parts(report: str) -> tuple[dict, dict]:
    """({key: value} of the ``key:`` lines and the entries of the [problem]
    echo (``echo_parts``), {name: (title, columns)} of the tables).  A key
    seen before gets its count, as ``key#2``; a table's columns are {header:
    [cell of each row]}."""
    lines, kv, tables, seen = report.splitlines(), {}, {}, collections.Counter()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("[table "):
            end = lines.index("[/table]", i)
            header = lines[i + 1].split(",")
            cells = [row.split(",") for row in lines[i + 2 : end]]
            columns = {h: [row[k] if k < len(row) else None for row in cells] for k, h in enumerate(header)}
            tables[line[len("[table ") : line.index("]")]] = (line, columns)
            i = end
        elif line == "[problem]":
            end = lines.index("[/problem]", i)
            kv.update(echo_parts("\n".join(lines[i + 1 : end])))
            i = end
        else:
            key = line.partition(": ")[0] if ": " in line else line
            seen[key] += 1
            kv[key if seen[key] == 1 else f"{key}#{seen[key]}"] = line
        i += 1
    return kv, tables


def echo_parts(text: str) -> dict:
    """{key: JSON text} of a [problem] echo: ``[problem] task``, ``[problem]
    params``, ``[problem] coefficients.<name>.<entry>`` for each function
    and each of its entries and ``[problem] coefficients.degree_cap`` when
    the echo has one; an echo that is not a JSON object is one entry."""
    try:
        echo = json.loads(text)
        functions = echo.pop("coefficients", {})
        cap = {"coefficients.degree_cap": functions.pop("degree_cap")} if "degree_cap" in functions else {}
        entries = {f"coefficients.{name}.{key}": v for name, f in functions.items() for key, v in f.items()} | cap
    except (ValueError, AttributeError):
        return {"[problem]": text}
    return {f"[problem] {key}": json.dumps(v, sort_keys=True) for key, v in {**echo, **entries}.items()}


def differences(a: str | None, b: str | None) -> list[tuple[str, str]]:
    """(kind, detail) of each difference between two reports; the kind
    names what differs without its values, for the tally."""
    if a is None or b is None:
        return [("report " + ("missing in A" if a is None else "missing in B"), "")]
    (kv_a, tables_a), (kv_b, tables_b) = parts(a), parts(b)
    out = []
    for key in [*kv_a, *(k for k in kv_b if k not in kv_a)]:
        if key not in kv_b or key not in kv_a:
            out.append((f"line {key!r} only in {'A' if key in kv_a else 'B'}", _cut(kv_a.get(key, kv_b.get(key)))))
        elif kv_a[key] != kv_b[key]:
            x, y = kv_a[key], kv_b[key]
            out.append((f"line {key!r} differs", f"A: {_cut(x, y)}\n      B: {_cut(y, x)}"))
    for name in [*tables_a, *(t for t in tables_b if t not in tables_a)]:
        if name not in tables_b or name not in tables_a:
            side, (_, columns) = ("A", tables_a[name]) if name in tables_a else ("B", tables_b[name])
            out.append((f"table {name} only in {side}", f"{len(next(iter(columns.values()), []))} rows"))
            continue
        (title_a, cols_a), (title_b, cols_b) = tables_a[name], tables_b[name]
        if title_a != title_b:
            out.append((f"table {name} title differs", f"A: {title_a}\n      B: {title_b}"))
        for col in [*cols_a, *(c for c in cols_b if c not in cols_a)]:
            if col not in cols_a or col not in cols_b:
                out.append((f"table {name} column {col} only in {'A' if col in cols_a else 'B'}", ""))
                continue
            ca, cb = cols_a[col], cols_b[col]
            changed = [k for k, (x, y) in enumerate(zip(ca, cb)) if x != y]
            if len(ca) != len(cb):
                out.append((f"table {name} column {col} row count differs", f"A: {len(ca)}, B: {len(cb)}"))
            elif changed:
                k = changed[0]
                out.append((f"table {name} column {col} differs",
                            f"{len(changed)} of {len(ca)} rows, first row {k}: A {ca[k]} / B {cb[k]}"))
    if not out and a != b:
        la, lb = a.splitlines() + ["(end)"], b.splitlines() + ["(end)"]
        n = next(n for n, (x, y) in enumerate(zip(la, lb)) if x != y)
        x, y = la[n], lb[n]
        out.append(("line order differs", f"line {n + 1}:\n      A: {_cut(x, y)}\n      B: {_cut(y, x)}"))
    return out


def _cut(line: str, other: str = "") -> str:
    """At most 160 characters of a line, from 40 before its first difference
    from other: an entry of the [problem] echo can be a long line."""
    n = next((k for k, (x, y) in enumerate(zip(line, other)) if x != y), min(len(line), len(other)))
    lo = max(0, n - 40)
    return ("..." if lo else "") + line[lo : lo + 160] + ("..." if len(line) > lo + 160 else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", metavar="ROOT")
    parser.add_argument("--workloads", type=workload_list, default=list(WORKLOADS),
                        help="comma-separated workloads, default shoot,gram,algebra")
    parser.add_argument("--seeds", type=seed_list, default=list(SEEDS), help="seeds and ranges such as 1-3,7; default 1-5")
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
        entries = write_problems(folder, workloads, args.workloads, args.seeds)
        entries_path = os.path.join(scratch, "entries.json")
        with open(entries_path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        runs = [reports_of(root, entries_path, scratch) for root in args.roots]
    differ, tally = 0, collections.Counter()
    for e in entries:
        (code_a, rep_a), (code_b, rep_b) = (run[e["name"]] for run in runs)
        body_a, body_b = (None if r is None else workloads.strip_metadata(r) for r in (rep_a, rep_b))
        if code_a == code_b and body_a == body_b:
            continue
        differ += 1
        print(f"{e['name']} ({e['task']}): exit {code_a} vs {code_b}")
        found = [("exit code differs", "")] if code_a != code_b else []
        found += differences(body_a, body_b) if body_a != body_b else []
        for kind, detail in found:
            print(f"    {kind}" + (f": {detail}" if detail else ""))
        tally.update({kind for kind, _ in found})
    for kind, n in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n:5d} tasks: {kind}")
    print(f"{differ} of {len(entries)} tasks differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
