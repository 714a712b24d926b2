"""Time every task of one benchmark workload in two source trees, side by side.

    python3 tools/task_ab.py ROOT_A ROOT_B [--workload shoot] [--seed 1] \
        [--rounds 9] [--fresh 6] [--cold]

Each ROOT is the root of a source checkout (it holds ``src/qschro``).  The
tasks are those of ``bench/workloads.py`` of this checkout for the given
workload and seed, written once as problem files, so both trees read the
same bytes.  Every task runs through ``qschro.cli.main`` as the benchmark
runs it, with the tree's ``src`` on PYTHONPATH and BLAS pinned to one
thread; each call is timed alone, after its last report is removed, as
``bench/worker.py`` does: overwriting a report costs more than creating
one.  With ``--cold`` each call also follows a run of the benchmark's
``reference_loop``, which leaves the caches as the benchmark leaves them
between tasks.

Warm times: one persistent child interpreter per tree runs a warm-up pass
and then ``--rounds`` passes, the two trees taking turns (A first in odd
rounds, B first in even ones); each task keeps its fastest time.  Taking
the minimum of interleaved rounds leaves out most of the noise of a shared
machine, which slows both trees alike, and so hides it: the sum of the
fastest times can move by tens of percent between two runs of the same
command.  So each round's two pass sums are also kept, and their ratio
B/A shows the spread: the rounds in which B beat A, and the median and
quartiles of B/A over the rounds.

First pass: ``--fresh`` fresh interpreters per tree, taking turns, each
timing the import of ``qschro.cli`` and then two passes; the first-pass
extra is pass 1 minus pass 2, the one-time work that every one-task run
of the CLI pays (parser set-up, compiled kernels, lazy tables).

Prints each task's fastest warm time in A and B with the change in
percent, their sums, the rounds B won with the median and quartiles of
B/A of the pass sums, and the medians of the first-pass extra and of the
import time.  Exits 1 when the two trees give a task different exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import report_diff

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def write_problems(folder: str, workload: str, seed: int) -> list[dict]:
    """Write the tasks' problem files under folder; one entry per task."""
    sys.path.insert(0, os.path.join(REPO, "bench"))
    import workloads

    entries = []
    for i, t in enumerate(workloads.generate(workload, seed)):
        path = os.path.join(folder, f"{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(t.raw_text if t.raw_text is not None else json.dumps(t.problem, indent=1))
        entries.append({"id": t.id, "task": t.task, "input": path, "report": t.problem.get("output", "report.txt")})
    return entries


def run_pass(main, entries, out_root: str, cold: bool) -> tuple[list[float], list]:
    """Child side: every task once through main; (seconds, exit codes)."""
    if cold:
        sys.path.insert(0, os.path.join(REPO, "bench"))
        from worker import reference_loop
    times, codes = [], []
    for i, e in enumerate(entries):
        out = os.path.join(out_root, f"{i:03d}")
        argv = [e["task"], "--input", e["input"], "--out", out]
        if os.path.exists(os.path.join(out, e["report"])):
            os.remove(os.path.join(out, e["report"]))
        if cold:
            reference_loop()
        sink = io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        times.append(time.perf_counter() - t)
        codes.append(code)
    return times, codes


def child(mode: str, entries_path: str, out_root: str) -> None:
    """Child side.  ``warm`` or ``cold``: run a pass per line read from
    stdin, answer each with one JSON line.  ``fresh``: time the import and
    two passes, print them as one JSON line."""
    with open(entries_path, encoding="utf-8") as fh:
        entries = json.load(fh)
    t = time.perf_counter()
    from qschro.cli import main
    import_s = time.perf_counter() - t
    if mode == "fresh":
        (first, codes), (second, _) = (run_pass(main, entries, out_root, False) for _ in range(2))
        print(json.dumps({"import_s": import_s, "first": first, "second": second, "codes": codes}))
        return
    for _ in sys.stdin:
        times, codes = run_pass(main, entries, out_root, mode == "cold")
        print(json.dumps({"times": times, "codes": codes}), flush=True)


def start(root: str, mode: str, entries_path: str, scratch: str, **kwargs) -> subprocess.Popen:
    _, env = report_diff.child_env(root)
    out_root = tempfile.mkdtemp(dir=scratch)
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child", mode, entries_path, out_root],
                            env=env, cwd=out_root, stdout=subprocess.PIPE, text=True, **kwargs)


def answer(proc: subprocess.Popen, root: str) -> dict:
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"{root}: the child interpreter stopped (exit {proc.wait()})")
    return json.loads(line)


def warm_times(roots, entries_path: str, scratch: str, rounds: int, mode: str) -> tuple[list, list, list]:
    """Fastest time per task over interleaved passes, the sum of each
    round's pass, and the exit codes, per root."""
    procs = [start(root, mode, entries_path, scratch, stdin=subprocess.PIPE) for root in roots]
    best, sums, codes = [None, None], [[], []], [None, None]
    try:
        for r in range(rounds + 1):  # round 0 is the warm-up pass
            for k in ((0, 1) if r % 2 else (1, 0)):
                procs[k].stdin.write("pass\n")
                procs[k].stdin.flush()
                got = answer(procs[k], roots[k])
                codes[k] = got["codes"]
                if r:
                    best[k] = got["times"] if best[k] is None else list(map(min, best[k], got["times"]))
                    sums[k].append(sum(got["times"]))
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()
    return best, sums, codes


def pass_ratios(sums_a: list, sums_b: list) -> tuple[int, float, float, float]:
    """(rounds in which B's pass was faster, lower quartile, median, upper
    quartile of B/A) over the rounds' pass sums."""
    ratios = [b / a for a, b in zip(sums_a, sums_b)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return sum(b < a for a, b in zip(sums_a, sums_b)), q1, median, q3


def first_pass(roots, entries_path: str, scratch: str, fresh: int) -> list[dict]:
    """Per root, the import times and first-pass extras of fresh interpreters."""
    out = [{"import_s": [], "extra_s": []} for _ in roots]
    for r in range(fresh):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            proc = start(roots[k], "fresh", entries_path, scratch)
            got = answer(proc, roots[k])
            proc.wait()
            out[k]["import_s"].append(got["import_s"])
            out[k]["extra_s"].append(sum(got["first"]) - sum(got["second"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", metavar="ROOT")
    parser.add_argument("--workload", default="shoot")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=9, help="interleaved warm passes per tree")
    parser.add_argument("--fresh", type=int, default=6, help="fresh interpreters per tree for the first pass")
    parser.add_argument("--cold", action="store_true", help="run the benchmark's reference_loop before each call")
    parser.add_argument("--child", nargs=3, metavar=("MODE", "ENTRIES", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    if len(args.roots) != 2:
        parser.error("give two roots: ROOT_A ROOT_B")
    if args.rounds < 1 or args.fresh < 0:
        parser.error("--rounds must be at least 1 and --fresh at least 0")
    with tempfile.TemporaryDirectory() as scratch:
        folder = os.path.join(scratch, "problems")
        os.makedirs(folder)
        entries = write_problems(folder, args.workload, args.seed)
        entries_path = os.path.join(scratch, "entries.json")
        with open(entries_path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        mode = "cold" if args.cold else "warm"
        (best_a, best_b), sums, (codes_a, codes_b) = warm_times(args.roots, entries_path, scratch, args.rounds, mode)
        fresh = first_pass(args.roots, entries_path, scratch, args.fresh)

    print(f"{args.workload} seed {args.seed}: fastest of {args.rounds} interleaved {mode} passes per task")
    print(f"{'task':28s} {'A ms':>9s} {'B ms':>9s} {'B/A - 1':>9s}")
    for e, a, b in zip(entries, best_a, best_b):
        print(f"{e['id']:28s} {1e3 * a:9.3f} {1e3 * b:9.3f} {100 * (b / a - 1):+8.1f}%")
    sa, sb = sum(best_a), sum(best_b)
    print(f"{'sum':28s} {1e3 * sa:9.3f} {1e3 * sb:9.3f} {100 * (sb / sa - 1):+8.1f}%")
    wins, q1, median, q3 = pass_ratios(*sums)
    print(f"pass sums: B faster in {wins} of {args.rounds} rounds; B/A median {median:.3f},"
          f" quartiles {q1:.3f} to {q3:.3f}")
    if args.fresh:
        for name, key in (("first-pass extra (pass 1 - pass 2)", "extra_s"), ("import qschro.cli", "import_s")):
            a, b = (statistics.median(f[key]) for f in fresh)
            print(f"{name}, median of {args.fresh} fresh interpreters: A {1e3 * a:.2f} ms, B {1e3 * b:.2f} ms,"
                  f" B - A {1e3 * (b - a):+.2f} ms")
    differ = [e["id"] for e, a, b in zip(entries, codes_a, codes_b) if a != b]
    if differ:
        print(f"exit codes differ: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
