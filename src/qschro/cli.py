"""Batch front-end: problem files in, machine-readable reports out.

A problem file is JSON carrying the coefficient triple as piecewise
specs plus one task with its parameters.  Numbers may be written as
decimal strings to keep their intended values exact; complex numbers are
[re, im] pairs.  Unknown keys are rejected everywhere.

Reports are deterministic structured text (key-value lines plus CSV
tables, every number tagged with the operation that produced it); the
only volatile content lives inside the [metadata] block, so byte
comparison modulo that block is the supported reproducibility check.

Exit codes: 0 holds/grows/success, 2 fails/bounded/inconclusive (witness
in the report), 64 parse error, 65 validation error, 70 numeric error,
1 anything else.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, config
from .coeffs import CoefficientField, PiecewisePoly, bump
from .conditions import (
    IntervalScheme,
    WeightFunction,
    build_cutoff,
    check_growth,
    check_intervals,
    check_m,
    verify_caccioppoli,
)
from .errors import QschroError
from .lagrange_forms import (
    Sector,
    bracket,
    bracket_constancy_residual,
    form_vs_operator_check,
    lagrange_residual,
    numerical_range_sample,
    quadratic_form,
)
from .propagate import integrate
from .quasi import ADJOINT, DIRECT, QuasiState, assemble
from .quasi import product_rule_check
from .spectral import BoundaryCondition, eigenvalues, null_probe

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_FAILS = 2
EXIT_PARSE = 64
EXIT_VALIDATION = 65
EXIT_NUMERIC = 70

TASKS = ("solve", "eig", "bracket", "form", "check-a", "check-b", "probe", "verify")

OK_VERDICTS = {"holds-on-horizon", "holds-on-sample", "grows", "success"}


class ValidationFailure(Exception):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# ----------------------------------------------------------------------
# parsing and validation


def _num(value, field: str) -> float:
    if isinstance(value, bool):
        raise ValidationFailure(field, "expected a number, got a boolean")
    if isinstance(value, (int, float)):
        out = float(value)
    elif isinstance(value, str):
        try:
            out = float(value)
        except ValueError:
            raise ValidationFailure(field, f"not a decimal number: {value!r}") from None
    else:
        raise ValidationFailure(field, f"expected a number, got {type(value).__name__}")
    if not math.isfinite(out):
        raise ValidationFailure(field, "number must be finite")
    return out


def _cnum(value, field: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValidationFailure(field, "complex numbers are [re, im] pairs")
        return complex(_num(value[0], field + "[0]"), _num(value[1], field + "[1]"))
    return complex(_num(value, field))


def _check_keys(obj: dict, allowed, field: str):
    if not isinstance(obj, dict):
        raise ValidationFailure(field, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationFailure(field, f"unknown keys: {sorted(unknown)}")


def _parse_poly(spec, field: str, degree_cap: int) -> PiecewisePoly:
    _check_keys(spec, ("breakpoints", "pieces", "jumps"), field)
    bps = [_num(b, f"{field}.breakpoints[{i}]") for i, b in enumerate(spec.get("breakpoints", []))]
    for i in range(len(bps) - 1):
        if bps[i + 1] <= bps[i]:
            raise ValidationFailure(
                f"{field}.breakpoints", f"must be strictly increasing at index {i + 1}"
            )
    pieces_spec = spec.get("pieces", [[0.0]])
    if len(pieces_spec) != len(bps) + 1:
        raise ValidationFailure(
            f"{field}.pieces",
            f"need {len(bps) + 1} pieces for {len(bps)} breakpoints, got {len(pieces_spec)}",
        )
    pieces = []
    for i, piece in enumerate(pieces_spec):
        if not isinstance(piece, (list, tuple)) or not piece:
            raise ValidationFailure(f"{field}.pieces[{i}]", "expected a nonempty coefficient array")
        if len(piece) - 1 > degree_cap:
            raise ValidationFailure(
                f"{field}.pieces[{i}]", f"degree {len(piece) - 1} exceeds cap {degree_cap}"
            )
        pieces.append([_cnum(cv, f"{field}.pieces[{i}][{j}]") for j, cv in enumerate(piece)])
    poly = PiecewisePoly(bps, pieces, degree_cap=None)
    if "jumps" in spec:
        declared = {}
        for i, row in enumerate(spec["jumps"]):
            if not isinstance(row, (list, tuple)) or len(row) != 2:
                raise ValidationFailure(f"{field}.jumps[{i}]", "expected [location, height]")
            declared[_num(row[0], f"{field}.jumps[{i}][0]")] = _cnum(row[1], f"{field}.jumps[{i}][1]")
        actual = poly.jumps
        for loc, height in declared.items():
            if not any(abs(loc - b) <= 1e-12 * (1 + abs(b)) for b in actual):
                raise ValidationFailure(f"{field}.jumps", f"location {loc} is not a breakpoint")
            got = actual[min(actual, key=lambda b: abs(b - loc))]
            if abs(got - height) > 1e-9 * (1 + abs(height)):
                raise ValidationFailure(
                    f"{field}.jumps",
                    f"declared jump {height} at {loc} disagrees with pieces ({got})",
                )
    return poly


def _parse_coefficients(spec, field: str = "coefficients") -> CoefficientField:
    _check_keys(spec, ("s", "Q", "r", "degree_cap"), field)
    cap = int(spec.get("degree_cap", config.DEGREE_CAP))
    zero = {"breakpoints": [], "pieces": [[0.0]]}
    return CoefficientField(
        s=_parse_poly(spec.get("s", zero), f"{field}.s", cap),
        Q=_parse_poly(spec.get("Q", zero), f"{field}.Q", cap),
        r=_parse_poly(spec.get("r", zero), f"{field}.r", cap),
    )


def load_problem(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    _check_keys(raw, ("task", "coefficients", "params", "output"), "problem")
    task = raw.get("task")
    if task not in TASKS:
        raise ValidationFailure("task", f"must be one of {TASKS}, got {task!r}")
    if "coefficients" not in raw:
        raise ValidationFailure("coefficients", "missing")
    return raw


# ----------------------------------------------------------------------
# normalization (the canonical echo that re-runs identically)


def _norm_complex(z: complex):
    return [float(z.real), float(z.imag)]


def _norm_poly(poly: PiecewisePoly) -> dict:
    pieces = []
    for i in range(len(poly.breakpoints) + 1):
        c = poly.centers[i]
        # emit in global coordinates: shift local coefficients back
        from .coeffs import _shift_coeffs

        glob = _shift_coeffs(poly.coeffs[i], -c)
        pieces.append([_norm_complex(v) for v in glob])
    return {
        "breakpoints": [float(b) for b in poly.breakpoints],
        "pieces": pieces,
        "jumps": [[float(b), _norm_complex(h)] for b, h in sorted(poly.jumps.items())],
    }


def normalize_problem(task: str, field: CoefficientField, params: dict) -> dict:
    return {
        "task": task,
        "coefficients": {
            "s": _norm_poly(field.s),
            "Q": _norm_poly(field.Q),
            "r": _norm_poly(field.r),
        },
        "params": params,
    }


# ----------------------------------------------------------------------
# report writer


class Report:
    def __init__(self, task: str):
        self.lines = [
            "# qschro report",
            "schema: qschro-report/1",
            f"task: {task}",
            f"version: {__version__}",
        ]
        self.exit_code = EXIT_OK

    def metadata(self, argv):
        ts = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.lines += ["[metadata]", f"timestamp: {ts}", f"argv: {' '.join(argv)}", "[/metadata]"]

    def problem(self, normalized: dict):
        self.lines.append("[problem]")
        self.lines.append(json.dumps(normalized, sort_keys=True, separators=(",", ":")))
        self.lines.append("[/problem]")

    def kv(self, key: str, value, source: str | None = None):
        txt = _fmt(value)
        if source:
            txt += f"  (source: {source})"
        self.lines.append(f"{key}: {txt}")

    def table(self, name: str, header, rows, source: str):
        self.lines.append(f"[table {name}]  (source: {source})")
        self.lines.append(",".join(header))
        for row in rows:
            self.lines.append(",".join(_fmt(v) for v in row))
        self.lines.append("[/table]")

    def verdict(self, verdict: str):
        self.kv("verdict", verdict)
        if verdict not in OK_VERDICTS:
            self.exit_code = EXIT_FAILS

    def text(self) -> str:
        return "\n".join(self.lines) + f"\nexit: {self.exit_code}\n"


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (complex, np.complexfloating)) and not isinstance(v, (float, np.floating)):
        v = complex(v)
        return f"{v.real!r}{v.imag:+}j" if v.imag else repr(v.real)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    if v is None:
        return "none"
    return str(v)


def _report_condition(rep: Report, label: str, cond):
    rep.kv(f"{label}.check", cond.check)
    rep.kv(f"{label}.verdict", cond.verdict)
    for k, v in sorted(cond.witnesses.items()):
        rep.kv(f"{label}.{k}", v, source=cond.check)
    for name, rows in sorted(cond.tables.items()):
        if rows:
            width = len(rows[0])
            header = [f"c{i}" for i in range(width)]
            rep.table(f"{label}.{name}", header, rows, source=cond.check)
    for note in cond.notes:
        rep.kv(f"{label}.note", note)


# ----------------------------------------------------------------------
# task runners


def _tol_pair(args_tol):
    if args_tol:
        a, r = args_tol.split(",")
        return (float(a), float(r))
    return (config.ATOL, config.RTOL)


def _parse_interval(params, key, required=True, default=None):
    if key not in params:
        if required:
            raise ValidationFailure(f"params.{key}", "missing")
        return default
    iv = params[key]
    if not isinstance(iv, (list, tuple)) or len(iv) != 2:
        raise ValidationFailure(f"params.{key}", "expected [a, b]")
    a, b = _num(iv[0], f"params.{key}[0]"), _num(iv[1], f"params.{key}[1]")
    if not b > a:
        raise ValidationFailure(f"params.{key}", "needs a < b")
    return (a, b)


def run_solve(field, params, rep, tol):
    _check_keys(params, ("from", "to", "lambda", "side", "initial", "dump"), "params")
    x0 = _num(params.get("from", 0.0), "params.from")
    x1 = _num(params.get("to"), "params.to") if "to" in params else None
    if x1 is None:
        raise ValidationFailure("params.to", "missing")
    lam = _cnum(params.get("lambda", 0.0), "params.lambda")
    side = params.get("side", DIRECT)
    if side not in (DIRECT, ADJOINT):
        raise ValidationFailure("params.side", f"must be direct or adjoint, got {side!r}")
    init = params.get("initial", [1.0, 0.0])
    y0 = _cnum(init[0], "params.initial[0]")
    y1 = _cnum(init[1], "params.initial[1]")
    traj = integrate(assemble(field, side, lam), QuasiState(x0, y0, y1, side), x1, tol)
    end = traj.state_at(x1)
    rep.kv("final.x", x1, source="dense-output")
    rep.kv("final.y0", complex(end.y0), source="dense-output")
    rep.kv("final.y1", complex(end.y1), source="dense-output")
    rep.kv("final.logscale", end.logscale, source="dense-output")
    rep.kv("steps", len(traj.steps), source="adaptive-rk54")
    lo, hi = sorted((x0, x1))
    xs = np.linspace(lo, hi, 21)
    ys, ls = traj.sample(xs)
    rows = [
        (x, y0.real, y0.imag, y1.real, y1.imag, l)
        for x, (y0, y1), l in zip(xs.tolist(), ys.tolist(), ls.tolist())
    ]
    rep.table("trajectory_samples", ["x", "y0_re", "y0_im", "y1_re", "y1_im", "logscale"], rows, source="dense-output")
    rep.verdict("success")
    dump = params.get("dump", False)
    return traj if dump else None


def run_eig(field, params, rep, tol):
    _check_keys(params, ("interval", "bc", "scan", "seeds", "grid", "side"), "params")
    interval = _parse_interval(params, "interval")
    bc = BoundaryCondition.dirichlet()
    if "bc" in params:
        _check_keys(params["bc"], ("left", "right"), "params.bc")
        left = tuple(_cnum(v, "params.bc.left") for v in params["bc"].get("left", [1, 0]))
        right = tuple(_cnum(v, "params.bc.right") for v in params["bc"].get("right", [1, 0]))
        bc = BoundaryCondition(left, right)
    scan = None
    if "scan" in params:
        s = params["scan"]
        scan = (_num(s[0], "params.scan[0]"), _num(s[1], "params.scan[1]"))
    seeds = [_cnum(v, f"params.seeds[{i}]") for i, v in enumerate(params.get("seeds", []))]
    if scan is None and not seeds:
        raise ValidationFailure("params", "need a scan range or Newton seeds")
    grid = int(params.get("grid", 120))
    side = params.get("side", DIRECT)
    results = eigenvalues(field, interval, bc, scan=scan, seeds=seeds, grid=grid, side=side, tol=tol)
    rows = []
    for r in results:
        src = "shooting-scan-bisect" if not r.message and scan is not None else "shooting-newton"
        rows.append((r.lam.real, r.lam.imag, r.residual, r.iterations, r.converged, src))
    rep.table(
        "eigenvalues",
        ["lambda_re", "lambda_im", "char_residual", "iterations", "converged", "method"],
        rows,
        source="shooting",
    )
    good = [r for r in results if r.converged]
    rep.kv("found", len(good), source="shooting")
    rep.verdict("success" if good else "fails")


def run_bracket(field, params, rep, tol):
    _check_keys(params, ("window", "lambda", "u_initial", "v_initial", "samples"), "params")
    window = _parse_interval(params, "window")
    lam = _cnum(params.get("lambda", 0.0), "params.lambda")
    ui = params.get("u_initial", [1.0, 0.0])
    vi = params.get("v_initial", [1.0, 0.0])
    a, b = window
    u = integrate(
        assemble(field, DIRECT, lam),
        QuasiState(a, _cnum(ui[0], "params.u_initial[0]"), _cnum(ui[1], "params.u_initial[1]"), DIRECT),
        b,
        tol,
    )
    v = integrate(
        assemble(field, ADJOINT, lam.conjugate()),
        QuasiState(a, _cnum(vi[0], "params.v_initial[0]"), _cnum(vi[1], "params.v_initial[1]"), ADJOINT),
        b,
        tol,
    )
    n = int(params.get("samples", 21))
    xs = np.linspace(a, b, n).tolist()
    (yu, lu), (yv, lv) = u.sample(xs), v.sample(xs)
    rows = []
    for x, su, sv, l1, l2 in zip(xs, yu.tolist(), yv.tolist(), lu.tolist(), lv.tolist()):
        br = bracket(QuasiState(x, *su, DIRECT, l1), QuasiState(x, *sv, ADJOINT, l2))
        rows.append((x, br.value.real, br.value.imag, br.logscale))
    rep.table("bracket_values", ["x", "re", "im", "logscale"], rows, source="bracket[dense-output]")
    resid = bracket_constancy_residual(u, v, window, samples=max(n, 50))
    rep.kv("constancy_residual", resid, source="bracket-constancy")
    ident = lagrange_residual(field, u, v, window)
    rep.kv("identity_residual", ident, source="integral-identity")
    ok = resid <= 1e-8 and ident <= 1e-8
    rep.verdict("success" if ok else "fails")


def _parse_tests(params, field_name="params.tests"):
    tests = params.get("tests")
    if not tests:
        raise ValidationFailure(field_name, "need at least one test function")
    fam = []
    for i, t in enumerate(tests):
        _check_keys(t, ("center", "plateau", "ramp"), f"{field_name}[{i}]")
        fam.append(
            bump(
                _num(t.get("center", 0.0), f"{field_name}[{i}].center"),
                _num(t.get("plateau", 1.0), f"{field_name}[{i}].plateau"),
                _num(t.get("ramp", 1.0), f"{field_name}[{i}].ramp"),
            )
        )
    return fam


def run_form(field, params, rep, tol):
    _check_keys(params, ("tests", "sector", "support"), "params")
    fam = _parse_tests(params)
    sector = Sector(_num(params["sector"], "params.sector")) if "sector" in params else None
    rows = []

    def one(u):
        lo, hi = u.support_bounds()
        fv = quadratic_form(field, u, (lo, hi))
        norm2 = (u * u.conj()).integrate(lo, hi).real
        return fv, norm2

    for i, (fv, norm2) in enumerate(map(one, fam)):
        w = fv.value / norm2
        rows.append(
            (
                i,
                fv.kinetic.real,
                fv.kinetic.imag,
                fv.coupling.real,
                fv.coupling.imag,
                fv.potential.real,
                fv.potential.imag,
                fv.value.real,
                fv.value.imag,
                w.real,
                w.imag,
            )
        )
    rep.table(
        "form_values",
        ["index", "kin_re", "kin_im", "cpl_re", "cpl_im", "pot_re", "pot_im", "val_re", "val_im", "w_re", "w_im"],
        rows,
        source="exact-piecewise-quadrature",
    )
    cond = numerical_range_sample(field, fam, sector=sector)
    _report_condition(rep, "range", cond)
    rep.verdict(cond.verdict)


def run_check_a(field, params, rep, tol, horizon_override=None):
    _check_keys(params, ("horizon", "m", "probe_points", "with_probe"), "params")
    X = horizon_override or _num(params.get("horizon", 60.0), "params.horizon")
    if "m" not in params:
        raise ValidationFailure("params.m", "missing weight spec")
    m_poly = _parse_poly(params["m"], "params.m", config.DEGREE_CAP)
    w = WeightFunction(m_poly, X)
    probe_points = [_num(t, "params.probe_points") for t in params.get("probe_points", [])]
    rep_m = check_m(w, probe_points=probe_points)
    _report_condition(rep, "m_condition", rep_m)
    rep_g = check_growth(field.r1, w)
    _report_condition(rep, "growth", rep_g)
    overall = "holds-on-horizon"
    if "fails" in (rep_m.verdict, rep_g.verdict):
        overall = "fails"
    elif rep_m.verdict == "inconclusive":
        overall = "inconclusive"
    rep.verdict(overall)
    if params.get("with_probe") and overall == "holds-on-horizon":
        run_probe(field, params["with_probe"], rep, tol, prefix="chained_")


def run_check_b(field, params, rep, tol):
    _check_keys(params, ("scheme", "with_probe"), "params")
    if "scheme" not in params:
        raise ValidationFailure("params.scheme", "missing")
    sch = params["scheme"]
    _check_keys(sch, ("delta", "intervals"), "params.scheme")
    iv = {}
    for i, row in enumerate(sch.get("intervals", [])):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ValidationFailure(f"params.scheme.intervals[{i}]", "expected [n, a, b]")
        iv[int(row[0])] = (
            _num(row[1], f"params.scheme.intervals[{i}][1]"),
            _num(row[2], f"params.scheme.intervals[{i}][2]"),
        )
    scheme = IntervalScheme(iv, delta=_num(sch.get("delta", 1.0), "params.scheme.delta"))
    cond = check_intervals(field.r1, scheme)
    _report_condition(rep, "intervals", cond)
    rep.verdict(cond.verdict)
    if params.get("with_probe") and cond.verdict == "holds-on-horizon":
        run_probe(field, params["with_probe"], rep, tol, prefix="chained_")


def run_probe(field, params, rep, tol, tmax_override=None, prefix=""):
    _check_keys(params, ("lambda", "tmax", "windows"), "params")
    lam = _cnum(params.get("lambda", 0.0), "params.lambda")
    tmax = tmax_override or _num(params.get("tmax", 40.0), "params.tmax")
    windows = [_num(t, "params.windows") for t in params.get("windows", [])] or None
    out = null_probe(field, lam, tmax, windows=windows, tol=tol)
    rep.kv(prefix + "probe.lambda", out.lam, source="null-probe")
    rep.kv(prefix + "probe.classification", out.classification, source="null-probe")
    rep.kv(prefix + "probe.monotone", out.monotone, source="gram-nesting")
    rep.kv(prefix + "probe.growth_total_log", out.growth_total, source="null-probe")
    rep.kv(prefix + "probe.tail_ratio", out.tail_ratio, source="null-probe")
    rows = [(T, n, ln) for T, n, ln in zip(out.windows, out.N, out.log_N)]
    rep.table(prefix + "probe_gram", ["T", "N", "log_N"], rows, source="gram-quadrature")
    for note in out.notes:
        rep.kv(prefix + "probe.note", note)
    rep.verdict(out.classification if out.classification != "inconclusive" else "inconclusive")


def run_verify(field, params, rep, tol):
    _check_keys(params, ("window", "lambda"), "params")
    window = _parse_interval(params, "window", required=False, default=(-5.0, 5.0))
    lam = _cnum(params.get("lambda", 0.25 + 0.1j), "params.lambda")
    a, b = window
    rows = []

    u = integrate(assemble(field, DIRECT, lam), QuasiState(a, 0.3, 1.0, DIRECT), b, tol)
    v = integrate(assemble(field, ADJOINT, lam.conjugate()), QuasiState(a, 1.0, -0.2, ADJOINT), b, tol)
    r1 = lagrange_residual(field, u, v, window)
    rows.append(("lagrange_identity", r1, 1e-8, r1 <= 1e-8, "integral-identity"))
    r2 = bracket_constancy_residual(u, v, window)
    rows.append(("bracket_constancy", r2, 1e-8, r2 <= 1e-8, "bracket-sampling"))

    mid = 0.5 * (a + b)
    phi = bump(mid, (b - a) / 4, (b - a) / 8)
    u_fit = u.to_piecewise(0, a, b)
    for side in (DIRECT, ADJOINT):
        r3 = product_rule_check(field, phi, u_fit, window, side=side)
        rows.append((f"product_rule_{side}", r3, 1e-9, r3 <= 1e-9, "cutoff-product-rule"))

    for k, (center, plateau) in enumerate(((mid, (b - a) / 4), (mid - (b - a) / 8, (b - a) / 6))):
        ub = bump(center, plateau, (b - a) / 8)
        r4 = form_vs_operator_check(field, ub, window)
        rows.append((f"form_vs_operator_{k}", r4, 1e-8, r4 <= 1e-8, "form-vs-operator"))

    v0 = integrate(assemble(field, ADJOINT, 0.0), QuasiState(a, 1.0, 0.1, ADJOINT), b, tol)
    n = max(1, int(min(-a, b)) - 1)
    cut = build_cutoff("thmA", n)
    if cut.support[0] >= a and cut.support[1] <= b:
        r5 = verify_caccioppoli(field, v0, cut)
        rows.append(("caccioppoli_identity", r5, 1e-7, r5 <= 1e-7, "null-energy-identity"))

    rep.table(
        "identity_residuals",
        ["name", "residual", "contract", "pass", "method"],
        rows,
        source="verify-battery",
    )
    ok = all(r[3] for r in rows)
    rep.verdict("success" if ok else "fails")


# ----------------------------------------------------------------------
# driver


def run_problem(raw: dict, argv=(), tol_arg=None, horizon=None, tmax=None) -> tuple[int, str, object]:
    task = raw["task"]
    field = _parse_coefficients(raw["coefficients"])
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ValidationFailure("params", "expected an object")
    rep = Report(task)
    rep.metadata(list(argv))
    rep.problem(normalize_problem(task, field, params))
    tol = _tol_pair(tol_arg)
    rep.kv("tolerances.atol", tol[0])
    rep.kv("tolerances.rtol", tol[1])
    extra = None
    if task == "solve":
        extra = run_solve(field, params, rep, tol)
    elif task == "eig":
        run_eig(field, params, rep, tol)
    elif task == "bracket":
        run_bracket(field, params, rep, tol)
    elif task == "form":
        run_form(field, params, rep, tol)
    elif task == "check-a":
        run_check_a(field, params, rep, tol, horizon_override=horizon)
    elif task == "check-b":
        run_check_b(field, params, rep, tol)
    elif task == "probe":
        run_probe(field, params, rep, tol, tmax_override=tmax)
    elif task == "verify":
        run_verify(field, params, rep, tol)
    return rep.exit_code, rep.text(), extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qschro",
        description="Quasi-derivative Schrodinger toolkit: batch tasks over problem files.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for t in TASKS:
        p = sub.add_parser(t)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=None, help="output directory for the report")
        p.add_argument("--tol", default=None, help="ATOL,RTOL override")
        p.add_argument("--horizon", type=float, default=None, help="horizon override (check-a)")
        p.add_argument("--tmax", type=float, default=None, help="probe horizon override")
    args = parser.parse_args(argv)

    try:
        raw = load_problem(args.input)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationFailure as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if raw["task"] != args.task:
        print(
            f"validation error: task: file declares {raw['task']!r} but the "
            f"{args.task!r} subcommand was invoked",
            file=sys.stderr,
        )
        return EXIT_VALIDATION

    try:
        code, text, extra = run_problem(
            raw,
            argv=sys.argv[1:] if argv is None else argv,
            tol_arg=args.tol,
            horizon=args.horizon,
            tmax=args.tmax,
        )
    except ValidationFailure as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QschroError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    report_name = raw.get("output", "report.txt")
    report_path = os.path.join(out_dir, report_name)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if extra is not None:  # trajectory dump requested by a solve task
        csv_path = os.path.join(out_dir, "trajectory.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("x,y0_re,y0_im,y1_re,y1_im,logscale\n")
            lo, _ = extra.edges()
            ys, ls = extra.sample(lo)
            for x, (y0, y1), l in zip(lo.tolist(), ys.tolist(), ls.tolist()):
                fh.write(f"{x!r},{y0.real!r},{y0.imag!r},{y1.real!r},{y1.imag!r},{l!r}\n")
    print(f"report: {report_path}")
    print(f"exit: {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
