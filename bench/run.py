"""Outside-in benchmark of the qschro CLI.

    python3 bench/run.py --workload shoot|gram|algebra|all --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload run gets one fresh
child interpreter (bench/worker.py) with BLAS/OpenMP pinned to one thread;
set-up time is measured in further fresh interpreters that only import
``qschro.cli``.  Human-readable lines go to stdout first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with --trace 0, per-layer with --trace 1).

``failed`` counts task runs whose report failed its check.  ``correct``
is false when a check fails for a reason other than an open defect the
benchmark reproduces (``workloads.KNOWN_DEFECTS``; those failures still
count in ``failed``), and when a trace canary or an exact work count
disagrees.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from worker import REFERENCE_S  # noqa: E402
WORKLOADS = ("shoot", "gram", "algebra")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("QSCHRO_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def setup_seconds(env) -> list[tuple[float, float]]:
    """(import time of qschro.cli, reference loop time) in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import qschro.cli; "
            "dt = time.perf_counter() - t; import sys, statistics; "
            f"sys.path.insert(0, {HERE!r}); from worker import reference_loop; "
            "print(repr(dt), repr(statistics.median(reference_loop() for _ in range(5))))")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing qschro.cli failed:\n{proc.stderr}")
        dt, ref = proc.stdout.split()
        out.append((float(dt), float(ref)))
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    setup = setup_seconds(env)
    results = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--result", path]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {CHILD_TIMEOUT_S:.0f} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    with open(path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["setup_samples_s"] = setup
    res["env"] = environment()
    res["workload"], res["seed"], res["trace"] = workload, seed, trace
    res["correct"] = not res["failures"]
    if not trace:
        res["metrics"].update({
            "setup_s": (statistics.median(dt * REFERENCE_S / ref for dt, ref in setup), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        })
        res["info"]["wall_clock"]["setup_s"] = statistics.median(dt for dt, _ in setup)
        res["info"]["failed_frac"] = res["failed"] / res["attempted"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    res["result_file"] = os.path.relpath(path, ROOT)
    return res


def summary(res: dict) -> list[str]:
    info = res["info"]
    lines = [f"== workload {res['workload']}  seed {res['seed']}  trace {res['trace']}"]
    env = res["env"]
    lines.append(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"nproc {env['nproc']}, cpu {env['cpu']}")
    for name, (value, unit) in res["metrics"].items():
        lines.append(f"{name} = {value!r} {unit}")
    if res["trace"]:
        lines.append(f"trace overhead = {info['overhead_s']!r} s "
                     f"({100 * info['overhead_frac']:.1f}% of {info['untraced_s']:.3f} s untraced; "
                     f"{info['spans']} spans in {info['spans_file']})")
    else:
        lines.append(f"task_tail_ms is the p{info['tail_percentile']:.1f} of {info['samples']} "
                     f"task times over {info['passes']} passes")
        wall = ", ".join(f"{k} = {v!r}" for k, v in info["wall_clock"].items())
        lines.append(f"timings above are at reference speed (x{info['speed_scale']:.4f}); "
                     f"wall clock: {wall}")
        lines.append(f"failed_frac = {info['failed_frac']!r} ratio "
                     f"({res['failed']} failed of {res['attempted']} attempted)")
    for line in sorted(set(res["known_defects"])):
        n = res["known_defects"].count(line)
        lines.append(f"known defect, {n} run(s): {line}")
    for line in sorted(set(res["failures"])):
        lines.append(f"FAILED {line}")
    lines.append(f"result file: {res['result_file']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qschro", "cli.py")):
        print(f"error: no qschro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        for line in summary(res):
            print(line)
        print(f"run wall time = {time.perf_counter() - t0:.1f} s", flush=True)
        out.append({
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        })
    for obj in out:
        print(json.dumps(obj))
    return 0


if __name__ == "__main__":
    sys.exit(main())
