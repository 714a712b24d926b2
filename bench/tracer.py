"""Spans and work counts recorded around qschro's public functions.

The program is not modified: ``Tracer.install`` replaces each public
function with a timing wrapper at every binding site a caller resolves
(module globals such as ``spectral.integrate`` or ``cli.eigenvalues``,
found by identity), and methods such as ``Trajectory.state_at`` and the
``PiecewisePoly`` operators as class attributes.  ``uninstall`` puts the
originals back.

Each span is (name, start, end, parent span, task).  Spans stay in memory
and are written out by ``write_spans`` at the end of the run.  A layer's
self time is the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# layer -> public module-level functions
FUNCTIONS = {
    "cli": ("main",),
    "spectral": ("characteristic", "eigenvalues", "null_probe", "eigenfunction_residual"),
    "propagate": ("integrate", "fundamental", "pair_integral"),
    "lagrange_forms": (
        "bracket", "bracket_constancy_residual", "lagrange_residual", "quadratic_form",
        "form_vs_operator_check", "numerical_range_sample",
    ),
    "conditions": (
        "check_m", "check_growth", "check_intervals", "verify_caccioppoli",
        "build_cutoff", "build_rho", "cutoff_invariants",
    ),
    "quasi": (
        "assemble", "apply_l_atoms", "apply_l", "product_rule_check",
        "quasi_derivatives", "effective_coefficients",
    ),
    "coeffs": ("bump", "smoothstep", "from_callable"),
}

# (module, class, attribute) -> span name.  Pointwise evaluation
# (PiecewisePoly.eval, Step.values) is left out: it is called per sample
# and a wrapper there would cost more than the work it measures.
METHODS = {
    ("propagate", "Trajectory", "state_at"): "propagate.state_at",
    ("propagate", "Trajectory", "log_sup"): "propagate.log_sup",
    ("propagate", "Trajectory", "to_piecewise"): "propagate.to_piecewise",
    ("coeffs", "PiecewisePoly", "__mul__"): "coeffs.mul",
    ("coeffs", "PiecewisePoly", "__rmul__"): "coeffs.mul",
    ("coeffs", "PiecewisePoly", "__add__"): "coeffs.add",
    ("coeffs", "PiecewisePoly", "__radd__"): "coeffs.add",
    ("coeffs", "PiecewisePoly", "__sub__"): "coeffs.sub",
    ("coeffs", "PiecewisePoly", "__rsub__"): "coeffs.sub",
    ("coeffs", "PiecewisePoly", "__neg__"): "coeffs.neg",
    ("coeffs", "PiecewisePoly", "conj"): "coeffs.conj",
    ("coeffs", "PiecewisePoly", "real"): "coeffs.real",
    ("coeffs", "PiecewisePoly", "imag"): "coeffs.imag",
    ("coeffs", "PiecewisePoly", "derivative"): "coeffs.derivative",
    ("coeffs", "PiecewisePoly", "antiderivative"): "coeffs.antiderivative",
    ("coeffs", "PiecewisePoly", "integrate"): "coeffs.integrate",
    ("coeffs", "PiecewisePoly", "with_breakpoints"): "coeffs.with_breakpoints",
    ("coeffs", "PiecewisePoly", "extreme_on"): "coeffs.extreme_on",
    ("coeffs", "PiecewisePoly", "real_roots"): "coeffs.real_roots",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.busy: list[float] = []  # outermost spans of the name only
        self.self_time: list[float] = []
        self._depth: list[int] = []
        self._stack: list[list] = []  # [span index, child time]
        # spans, column-wise
        self.sp_name: list[int] = []
        self.sp_start: list[float] = []
        self.sp_end: list[float] = []
        self.sp_parent: list[int] = []
        self.sp_task: list[int] = []
        self.task = -1
        self.counts: Counter = Counter()  # work counts that are not calls
        self.shot_lams: list[complex] = []  # lambda of each characteristic call
        self._patched: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        clock = time.perf_counter
        stack, depth = self._stack, self._depth
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_task = self.sp_parent, self.sp_task
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_task.append(tracer.task)
            sp_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            start = clock()
            sp_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                sp_end[idx] = end
                stack.pop()
                depth[nid] -= 1
                dur = end - start
                tracer.calls[nid] += 1
                tracer.self_time[nid] += dur - frame[1]
                if depth[nid] == 0:
                    tracer.busy[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------

    def _hooks(self):
        def on_integrate(args, kwargs, traj):
            self.counts["propagate.steps"] += len(traj.steps)
            if self._depth[self._id("spectral.eigenvalues")]:
                self.counts["propagate.integrate_in_eig"] += 1

        def on_characteristic(args, kwargs, out):
            lam = kwargs["lam"] if "lam" in kwargs else args[3]
            self.shot_lams.append(complex(lam))

        return {"propagate.integrate": on_integrate, "spectral.characteristic": on_characteristic}

    def install(self):
        """Patch every binding site of the public functions and methods."""
        mods = {k: v for k, v in sys.modules.items() if k.startswith("qschro.") and v is not None}
        hooks = self._hooks()
        for layer, funcs in FUNCTIONS.items():
            home = mods.get(f"qschro.{layer}")
            for fname in funcs:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                name = f"{layer}.{fname}"
                wrapped = self.wrap(name, fn, hooks.get(name))
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)
        wrapped_methods = {}
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(mods.get(f"qschro.{layer}"), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                continue
            if fn not in wrapped_methods:
                if isinstance(fn, property):
                    wrapped_methods[fn] = property(self.wrap(name, fn.fget))
                else:
                    wrapped_methods[fn] = self.wrap(name, fn, hooks.get(name))
            self._patched.append((cls, attr, fn))
            setattr(cls, attr, wrapped_methods[fn])

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative calls per span name plus the work counts."""
        out = {f"{n}.calls": c for n, c in zip(self.names, self.calls)}
        out.update(self.counts)
        out["spectral.shots"] = len(self.shot_lams)
        return out

    def layer_self(self, layer: str) -> float:
        return sum(t for n, t in zip(self.names, self.self_time) if n.split(".")[0] == layer)

    def busy_s(self, name: str) -> float:
        return self.busy[self._ids[name]] if name in self._ids else 0.0

    def n_calls(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def write_spans(self, path: str, task_ids: list[str]):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,task\n")
            t0 = self.sp_start[0] if self.sp_start else 0.0
            for i, (nid, s, e, p, t) in enumerate(
                zip(self.sp_name, self.sp_start, self.sp_end, self.sp_parent, self.sp_task)
            ):
                task = task_ids[t] if t >= 0 else ""
                fh.write(f"{i},{self.names[nid]},{s - t0:.9f},{e - t0:.9f},{p},{task}\n")
