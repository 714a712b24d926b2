"""One workload run, in a fresh interpreter started by run.py.

Closed loop, one client: the tasks of the seed run one after another
through ``qschro.cli.main`` in this process, each task starting when the
previous one has finished.  Only the CLI call is timed; writing problem
files, checking reports and hashing them happen outside the timed region.

Untraced runs repeat whole passes over the task list.  The number of
passes is fixed per workload and ``--seconds``: round(seconds / nominal
pass time).  So every run of a workload has the same number of samples and
its tail percentile means the same thing; on the program the benchmark was
written against that is about ``--seconds`` of measurement.  A program so
slow that the run would pass 150 s stops starting passes early.  Traced
runs make one pass in which every task runs twice in a row, untraced and
then traced: the work counts come from the traced runs and are exact, and
the summed difference of each pair is the tracing overhead.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# seconds one pass took on the program the benchmark was written against
# (2-vCPU Intel Xeon VM); sets the number of passes per run
NOMINAL_PASS_S = {"shoot": 12.0, "gram": 9.5, "algebra": 2.6}
DEADLINE_S = 150.0

# End-to-end timings are reported at the machine speed at which
# reference_loop() takes this long.  The loop runs between tasks, outside
# the timed region, and each task's time is scaled by REFERENCE_S over the
# mean loop time just before and just after it: the shared VM's speed
# drifts by +-20% within minutes, and the scaling takes most of that drift
# out of the comparison between runs.
REFERENCE_S = 0.010

# counts that two traced runs of one seed must reproduce exactly
EXACT_COUNTS = (
    "spectral.shots",
    "propagate.integrate.calls",
    "propagate.steps",
    "propagate.state_at.calls",
    "lagrange_forms.quadratic_form.calls",
    "cli.report_bytes",
)


def source_hash(*dirs: str) -> str:
    """Digest of the program's and the benchmark's sources.

    Stored report hashes and work counts are keyed by it, so a run is only
    ever compared with earlier runs of the very same code and inputs.
    """
    h = hashlib.sha256()
    for top in dirs:
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, cli, tasks, work):
        self.cli = cli
        self.tasks = tasks
        self.dirs = {}
        for t in tasks:
            d = self.dirs[t.id] = os.path.join(work, t.id)
            os.makedirs(d)
            with open(os.path.join(d, "problem.json"), "w", encoding="utf-8") as fh:
                fh.write(t.raw_text if t.raw_text is not None else json.dumps(t.problem, indent=1))
        self.first_hash: dict[str, str] = {}
        self.failures: list[str] = []
        self.known: list[str] = []  # failures of tasks with a filed defect
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0
        self.reports: dict[str, object] = {}
        self.last_ref = reference_loop()
        self.scales: list[float] = []  # REFERENCE_S over the loop time around each task

    def run_pass(self, tracer=None) -> list[float]:
        """Run every task once; return the timed CLI durations.

        With a tracer, each task runs twice in a row, untraced and then
        traced, and the pair of durations is returned per task.
        """
        times = []
        for i, task in enumerate(self.tasks):
            if tracer is None:
                times.append(self.run_task(task))
                continue
            plain = self.run_task(task)
            tracer.task = i
            before = tracer.snapshot()
            shots_before = len(tracer.shot_lams)
            tracer.install()
            try:
                traced = self.run_task(task, count_bytes=True)
            finally:
                tracer.uninstall()
            after = tracer.snapshot()
            task.counts = {k: v - before.get(k, 0) for k, v in after.items()}
            task.shots = tracer.shot_lams[shots_before:]
            times.append((plain, traced))
        return times

    def run_task(self, task, count_bytes=False) -> float:
        """One CLI invocation, timed; its report is checked untimed."""
        from workloads import KNOWN_DEFECTS, Report, strip_metadata

        out = self.dirs[task.id]
        report_path = os.path.join(out, "report.txt")
        if os.path.exists(report_path):
            os.remove(report_path)
        sink = io.StringIO()
        argv = [task.task, "--input", os.path.join(out, "problem.json"), "--out", out]
        reasons = []
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed task, not a crashed benchmark
            code = None
            reasons.append(f"raised {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        ref = reference_loop()
        self.scales.append(2 * REFERENCE_S / (self.last_ref + ref))
        self.last_ref = ref
        self.attempted += 1
        text = ""
        if code is not None:
            try:
                with open(report_path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError:
                said = sink.getvalue().strip().splitlines()
                reasons.append(f"exit {code} without a report: {said[-1] if said else ''}")
        if text:
            body = strip_metadata(text)
            if count_bytes:
                self.report_bytes += len(body.encode())
            digest = hashlib.sha256(body.encode()).hexdigest()
            if digest != self.first_hash.setdefault(task.id, digest):
                reasons.append("report differs from an earlier run of the same seed")
            try:
                rep = Report(text)
                self.reports[task.id] = rep
                reasons += task.check(code, rep)
            except (KeyError, ValueError, IndexError) as exc:
                reasons.append(f"report unreadable by the check: {type(exc).__name__}: {exc}")
        if reasons:
            self.failed += 1
            line = f"{task.id}: " + "; ".join(reasons)
            pattern = KNOWN_DEFECTS[task.known_defect][1] if task.known_defect else None
            known = pattern is not None and all(re.fullmatch(pattern, r) for r in reasons)
            (self.known if known else self.failures).append(line)
        return dt


def reference_loop() -> float:
    """Seconds a fixed piece of work takes: the machine's current speed.

    Complex arithmetic in a Python loop, a list of fresh objects and small
    numpy calls: the same kinds of work the program spends its time on.
    """
    t = time.perf_counter()
    zs = [complex(i, 1.0) for i in range(30000)]
    acc = 0j
    for z in zs:
        acc = acc * 0.5 + z * z
    a = np.arange(6.0)
    for _ in range(900):
        a = np.convolve(a, (1.0, 0.5))[:6]
    return time.perf_counter() - t


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with 10 samples beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), 50.0
    return xs[n - 11], 100.0 * (n - 10) / n


def timings(pass_times: list[list[float]]) -> tuple[float, float, float, float]:
    """tasks_per_s, p50 and tail (s) and tail percentile of pass-by-task times."""
    every = [t for p in pass_times for t in p]
    per_task = [statistics.median(ts) for ts in zip(*pass_times)]
    tail_value, pct = tail(every)
    return len(per_task) / sum(per_task), statistics.median(every), tail_value, pct


def end_to_end(pass_times: list[list[float]], scales: list[float]) -> tuple[dict, dict]:
    n = len(pass_times[0])
    scaled = [[t * s for t, s in zip(p, scales[i * n:(i + 1) * n])] for i, p in enumerate(pass_times)]
    rate, p50, tail_value, pct = timings(scaled)
    wall = timings(pass_times)
    metrics = {
        "tasks_per_s": (rate, "1/s"),
        "task_p50_ms": (1e3 * p50, "ms"),
        "task_tail_ms": (1e3 * tail_value, "ms"),
    }
    info = {"samples": n * len(pass_times), "passes": len(pass_times), "tail_percentile": pct,
            "measured_s": sum(map(sum, pass_times)), "speed_scale": statistics.median(scales),
            "wall_clock": {"tasks_per_s": wall[0], "task_p50_ms": 1e3 * wall[1], "task_tail_ms": 1e3 * wall[2]}}
    return metrics, info


def per_layer(tracer, runner) -> dict:
    tasks = runner.tasks
    T = tracer
    eig = [t for t in tasks if t.task == "eig"]
    shots = len(T.shot_lams)
    eig_shots = sum(len(t.shots) for t in eig)
    grid_shots = sum(t.meta.get("grid", 0) for t in eig)
    roots = sum(len(runner.reports[t.id].tables.get("eigenvalues", [])) for t in eig if t.id in runner.reports)
    steps = T.counts["propagate.steps"]
    forms = [t for t in tasks if t.task == "form"]
    form_calls = sum(t.counts.get("lagrange_forms.quadratic_form.calls", 0) for t in forms)
    tests = sum(t.meta["tests"] for t in forms)
    m = {
        "cli.self_s": (T.layer_self("cli"), "s"),
        "cli.report_bytes": (runner.report_bytes, "bytes"),
        "spectral.shots": (shots, "count"),
        "spectral.shots_per_root": ((eig_shots - grid_shots) / roots if roots else 0.0, "ratio"),
        "spectral.eigenvalues.s": (T.busy_s("spectral.eigenvalues"), "s"),
        "spectral.null_probe.s": (T.busy_s("spectral.null_probe"), "s"),
        "spectral.self_s": (T.layer_self("spectral"), "s"),
        "propagate.integrate.calls": (T.n_calls("propagate.integrate"), "count"),
        "propagate.integrate.s": (T.busy_s("propagate.integrate"), "s"),
        "propagate.steps": (steps, "count"),
        "propagate.us_per_step": (1e6 * T.busy_s("propagate.integrate") / steps if steps else 0.0, "us"),
        "propagate.integrate_per_shot": (T.counts["propagate.integrate_in_eig"] / eig_shots if eig_shots else 0.0, "ratio"),
        "propagate.fundamental.s": (T.busy_s("propagate.fundamental"), "s"),
        "propagate.pair_integral.calls": (T.n_calls("propagate.pair_integral"), "count"),
        "propagate.pair_integral.s": (T.busy_s("propagate.pair_integral"), "s"),
        "propagate.state_at.calls": (T.n_calls("propagate.state_at"), "count"),
        "propagate.state_at.s": (T.busy_s("propagate.state_at"), "s"),
        "propagate.self_s": (T.layer_self("propagate"), "s"),
        "lagrange_forms.lagrange_residual.s": (T.busy_s("lagrange_forms.lagrange_residual"), "s"),
        "lagrange_forms.bracket_constancy_residual.s": (T.busy_s("lagrange_forms.bracket_constancy_residual"), "s"),
        "lagrange_forms.quadratic_form.calls": (T.n_calls("lagrange_forms.quadratic_form"), "count"),
        "lagrange_forms.quadratic_form.s": (T.busy_s("lagrange_forms.quadratic_form"), "s"),
        "lagrange_forms.forms_per_test": (form_calls / tests if tests else 0.0, "ratio"),
        "lagrange_forms.numerical_range_sample.s": (T.busy_s("lagrange_forms.numerical_range_sample"), "s"),
        "lagrange_forms.form_vs_operator_check.s": (T.busy_s("lagrange_forms.form_vs_operator_check"), "s"),
        "lagrange_forms.self_s": (T.layer_self("lagrange_forms"), "s"),
        "conditions.check_m.s": (T.busy_s("conditions.check_m"), "s"),
        "conditions.check_growth.s": (T.busy_s("conditions.check_growth"), "s"),
        "conditions.check_intervals.s": (T.busy_s("conditions.check_intervals"), "s"),
        "conditions.verify_caccioppoli.s": (T.busy_s("conditions.verify_caccioppoli"), "s"),
        "conditions.self_s": (T.layer_self("conditions"), "s"),
        "quasi.assemble.calls": (T.n_calls("quasi.assemble"), "count"),
        "quasi.assemble.s": (T.busy_s("quasi.assemble"), "s"),
        "quasi.apply_l_atoms.s": (T.busy_s("quasi.apply_l_atoms"), "s"),
        "quasi.product_rule_check.s": (T.busy_s("quasi.product_rule_check"), "s"),
        "quasi.self_s": (T.layer_self("quasi"), "s"),
        "coeffs.mul.calls": (T.n_calls("coeffs.mul"), "count"),
        "coeffs.integrate.calls": (T.n_calls("coeffs.integrate"), "count"),
        "coeffs.self_s": (T.layer_self("coeffs"), "s"),
    }
    return m


def canaries(runner) -> list[str]:
    """Checks that the wrappers see the work the reports describe."""
    bad = []
    for t in runner.tasks:
        if t.id == "free-grid60":
            lo, hi = t.meta["scan"]
            grid = [complex(x) for x in np.linspace(lo, hi, 60)]
            if t.shots[:60] != grid or len(t.shots) <= 60:
                bad.append(f"canary: free-grid60 made {len(t.shots)} shots, "
                           "the first 60 of which are not the scan grid")
        if t.task == "solve" and t.id in runner.reports:
            want = int(runner.reports[t.id].kv.get("steps", -1))
            got = t.counts.get("propagate.steps", 0)
            if got != want:
                bad.append(f"canary: {t.id} integrate returned {got} steps, report says {want}")
    return bad


def compare_stored(path: str, current: dict, what: str) -> list[str]:
    """Compare with the record of an earlier run of this seed and source, or store it."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        return [f"{what} {k}: {stored.get(k)!r} earlier, {v!r} now"
                for k, v in sorted(current.items()) if stored.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(current, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import qschro.cli as cli
    import_s = time.perf_counter() - t0

    import workloads

    t0 = time.perf_counter()
    tasks = workloads.generate(args.workload, args.seed)
    generate_s = time.perf_counter() - t0

    out_dir = os.path.join(args.root, ".bench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli, tasks, work)
    src_hash = source_hash(os.path.join(args.root, "src"), HERE)
    key = f"{args.workload}-seed{args.seed}-{src_hash}"
    result = {"import_s": import_s, "generate_s": generate_s, "source_hash": src_hash}
    try:
        if not args.trace:
            passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
            start = time.perf_counter()
            pass_times = [runner.run_pass()]
            while len(pass_times) < passes:
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(pass_times) > DEADLINE_S:
                    break
                pass_times.append(runner.run_pass())
            metrics, info = end_to_end(pass_times, runner.scales)
            info["task_ms"] = {t.id: [1e3 * p[i] for p in pass_times] for i, t in enumerate(tasks)}
        else:
            from tracer import Tracer

            tracer = Tracer()
            pairs = runner.run_pass(tracer)
            plain = sum(p for p, _ in pairs)
            traced = sum(t for _, t in pairs)
            metrics = per_layer(tracer, runner)
            info = {"untraced_s": plain, "traced_s": traced, "overhead_s": traced - plain,
                    "overhead_frac": (traced - plain) / plain, "spans": len(tracer.sp_name)}
            runner.failures += canaries(runner)
            exact = {k: metrics[k][0] for k in EXACT_COUNTS}
            runner.failures += compare_stored(os.path.join(out_dir, "counts", key + ".json"), exact, "count")
            info["exact_counts"] = exact
            spans_path = os.path.join(out_dir, "spans", f"{args.workload}.csv")
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            tracer.write_spans(spans_path, [t.id for t in tasks])
            info["spans_file"] = os.path.relpath(spans_path, args.root)
        digests = runner.first_hash
        mismatch = compare_stored(os.path.join(out_dir, "hashes", key + ".json"), digests, "report")
        runner.failures += mismatch
        runner.failed += len(mismatch)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "known_defects": runner.known,
        "tasks": len(tasks),
        "known_defect_tasks": {t.id: workloads.KNOWN_DEFECTS[t.known_defect][0]
                               for t in tasks if t.known_defect},
        "metrics": metrics,
        "info": info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
