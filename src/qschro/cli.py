"""Batch front-end: problem files in, machine-readable reports out.

A problem file is JSON carrying the coefficient triple as piecewise
specs plus one task with its parameters.  Numbers may be written as
decimal strings to keep their intended values exact; complex numbers are
[re, im] pairs.  Unknown keys are rejected everywhere.

Reports are deterministic structured text (key-value lines plus CSV
tables, every number tagged with the operation that produced it); the
only volatile content lives inside the [metadata] block, so byte
comparison modulo that block is the supported reproducibility check.

The command line is ``qschro TASK --input FILE [--out DIR]``, read by a
small reader (``_read_argv``) rather than argparse, whose import and
parser set-up cost a one-task run more than most of its tasks.

Exit codes: 0 holds/grows/success, 2 fails/bounded/inconclusive (witness
in the report), 64 parse error (also a misused command line: an unknown
task or flag, a missing, repeated or valueless flag), 65 validation
error, 70 numeric error, 73 cannot write output, 1 anything else.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, config
from .coeffs import CoefficientField, PiecewisePoly, _bump_stack, _piece, bumps
from .conditions import (
    IntervalScheme,
    WeightFunction,
    check_growth,
    check_intervals,
    check_m,
    verify_caccioppoli,
)
from .errors import FamilyMemberError, NonRealError, QschroError
from .lagrange_forms import (
    Sector,
    _form_columns,
    bracket,
    bracket_constancy_residual,
    form_vs_operator_check,
    lagrange_residual,
    range_verdict,
)
from .propagate import integrate
from .quasi import QuasiState, product_rule_check
from .spectral import BoundaryCondition, eigenvalues, null_probe

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_FAILS = 2
EXIT_PARSE = 64
EXIT_VALIDATION = 65
EXIT_NUMERIC = 70
EXIT_CANTCREAT = 73

DUMP_NAME = "trajectory.csv"  # the solve task's dump, next to the report

OK_VERDICTS = {"holds-on-horizon", "holds-on-sample", "grows", "success"}


class ValidationFailure(Exception):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# ----------------------------------------------------------------------
# parsing and validation: every value of a problem file goes through a
# kind, a function (value, field) -> typed value that raises
# ValidationFailure naming the field it was given

REQUIRED = object()


def _num(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationFailure(field, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except (ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out):
        raise ValidationFailure(field, f"not a finite decimal number: {value!r}")
    return out


def _pos(value, field: str) -> float:
    out = _num(value, field)
    if not out > 0:
        raise ValidationFailure(field, "must be positive")
    return out


def _int(value, field: str) -> int:
    out = _num(value, field)
    if not out.is_integer():
        raise ValidationFailure(field, f"expected an integer, got {value!r}")
    return int(out)


def _int_in(lo: int, hi: int):
    def parse(value, field):
        out = _int(value, field)
        if not lo <= out <= hi:
            raise ValidationFailure(field, f"must be an integer in [{lo}, {hi}], got {out}")
        return out

    return parse


def _cnum(value, field: str) -> complex:
    if isinstance(value, list):
        return complex(*_list(_num, 2)(value, field))
    return complex(_num(value, field))


def _bool(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationFailure(field, f"expected true or false, got {value!r}")
    return value


def _one_of(*options):
    def parse(value, field):
        if value not in options:
            raise ValidationFailure(field, f"must be one of {options}, got {value!r}")
        return value

    return parse


_side = _one_of("direct", "adjoint")


def _filename(value, field: str) -> str:
    """A plain file name, so that the report stays inside the output directory."""
    if not isinstance(value, str) or value in ("", ".", "..") or os.path.basename(value) != value or "\0" in value:
        raise ValidationFailure(field, f"must be a file name without a directory part, got {value!r}")
    return value


def _list(kind, n=None):
    """A list of values of one kind, n of them if n is given.  A tuple of
    kinds types a list of that length entry by entry.
    """
    n = len(kind) if isinstance(kind, tuple) else n

    def parse(value, field):
        if not isinstance(value, list):
            raise ValidationFailure(field, f"expected a list, got {type(value).__name__}")
        if n is not None and len(value) != n:
            raise ValidationFailure(field, f"expected {n} entries, got {len(value)}")
        kinds = kind if isinstance(kind, tuple) else (kind,) * len(value)
        return tuple(k(v, f"{field}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))

    return parse


def _nonempty(kind):
    def parse(value, field):
        out = kind(value, field)
        if not out:
            raise ValidationFailure(field, "must not be empty")
        return out

    return parse


def _obj(spec=None):
    """An object; with a spec {key: (kind, default or REQUIRED)}, its typed
    entries with the defaults filled in.  Unknown keys are rejected.  An
    empty field names the whole problem file.
    """

    def parse(value, field):
        if not isinstance(value, dict):
            raise ValidationFailure(field or "problem", f"expected an object, got {type(value).__name__}")
        if spec is None:
            return value
        unknown = set(value) - set(spec)
        if unknown:
            raise ValidationFailure(field or "problem", f"unknown keys: {sorted(unknown)}")
        out = {}
        for key, (kind, default) in spec.items():
            name = f"{field}.{key}" if field else key
            if key in value:
                out[key] = kind(value[key], name)
            elif default is REQUIRED:
                raise ValidationFailure(name, "missing")
            else:
                out[key] = default
        return out

    return parse


def _build(make, kind):
    """kind, then make(value); a ValueError of make names the field."""

    def parse(value, field):
        try:
            return make(kind(value, field))
        except ValueError as exc:
            raise ValidationFailure(field, str(exc)) from None

    return parse


def _interval(value, field: str) -> tuple[float, float]:
    a, b = _list(_num, 2)(value, field)
    if not b > a:
        raise ValidationFailure(field, "needs a < b")
    if not b - a < math.inf:
        raise ValidationFailure(field, f"width b - a of [{a!r}, {b!r}] is not finite")
    return (a, b)


POLY = {
    "breakpoints": (_list(_num), ()),
    "pieces": (_list(_nonempty(_list(_cnum))), ((0j,),)),
    "jumps": (_list(_list((_num, _cnum))), ()),
}


def _piecewise(spec: dict, degree_cap: int) -> PiecewisePoly:
    """The polynomial of a parsed spec.  Its constructor checks that the
    breakpoints increase, one piece per region and the degree cap; declared
    jumps must agree with the pieces.
    """
    poly = PiecewisePoly(spec["breakpoints"], spec["pieces"], degree_cap)
    actual = poly.jumps if spec["jumps"] else {}
    for loc, height in spec["jumps"]:
        if not any(abs(loc - b) <= 1e-12 * (1 + abs(b)) for b in actual):
            raise ValueError(f"declared jump location {loc} is not a breakpoint")
        got = actual[min(actual, key=lambda b: abs(b - loc))]
        if abs(got - height) > 1e-9 * (1 + abs(height)):
            raise ValueError(f"declared jump {height} at {loc} disagrees with pieces ({got})")
    return poly


def _poly(degree_cap: int):
    return _build(lambda spec: _piecewise(spec, degree_cap), _obj(POLY))


COEFFICIENTS = {"s": (_obj(), {}), "Q": (_obj(), {}), "r": (_obj(), {}), "degree_cap": (_int, config.DEGREE_CAP)}


def _functions(value, field: str) -> tuple[dict, int]:
    """{name: (polynomial, its pieces as read)} of s, Q and r, and the
    problem's degree cap, which they were read under."""
    spec = _obj(COEFFICIENTS)(value, field)
    read = _build(lambda f: (_piecewise(f, spec["degree_cap"]), f["pieces"]), _obj(POLY))
    return {k: read(spec[k], f"{field}.{k}") for k in ("s", "Q", "r")}, spec["degree_cap"]


PAIR = _list(_cnum, 2)
BUMP = {"center": (_num, 0.0), "plateau": (_num, 1.0), "ramp": (_num, 1.0)}

BC = {"left": (PAIR, (1 + 0j, 0j)), "right": (PAIR, (1 + 0j, 0j))}
SCHEME = {"delta": (_num, 1.0), "intervals": (_list(_list((_int, _num, _num))), ())}
PROBE = {"lambda": (_cnum, 0j), "tmax": (_pos, 40.0), "windows": (_list(_pos), ())}


def _bumps(value, field: str) -> tuple:
    """A nonempty list of bump objects, built as one stacked family by
    ``coeffs._bump_stack``.  A list of objects of finite floats is taken as
    it is; any other is read member by member by ``_obj(BUMP)``, whose
    message names the bad key.  The first member in list order that cannot
    be read or built names the field.
    """
    if not isinstance(value, list):
        raise ValidationFailure(field, f"expected a list, got {type(value).__name__}")
    columns, unread = (), None
    if all(type(v) is dict and v.keys() <= BUMP.keys() for v in value):
        columns = [[v.get(key, default) for v in value] for key, (_, default) in BUMP.items()]
    # finite floats whose sum overflows only send the list to the reader
    floats = columns and all(type(x) is float for col in columns for x in col)
    if not (floats and math.isfinite(sum(map(sum, columns)))):
        rows = []
        for i, v in enumerate(value):
            try:
                rows.append(list(_obj(BUMP)(v, f"{field}[{i}]").values()))
            except ValidationFailure as exc:
                unread = exc
                break
        columns = list(zip(*rows)) if rows else [()] * len(BUMP)
    try:
        family = _bump_stack(*columns)
    except FamilyMemberError as exc:
        raise ValidationFailure(f"{field}[{exc.index}]", str(exc)) from None
    if unread is not None:
        raise unread
    if not value:
        raise ValidationFailure(field, "must not be empty")
    return family


# task -> {key: (kind, default or REQUIRED)}; a runner reads exactly these keys.
# The kind _poly reads a polynomial under the problem's degree cap (run_problem).
PARAMS = {
    "solve": {
        "from": (_num, 0.0),
        "to": (_num, REQUIRED),
        "lambda": (_cnum, 0j),
        "side": (_side, "direct"),
        "initial": (PAIR, (1 + 0j, 0j)),
        "dump": (_bool, False),
    },
    "eig": {
        "interval": (_interval, REQUIRED),
        "bc": (_build(lambda d: BoundaryCondition(**d), _obj(BC)), BoundaryCondition()),
        "scan": (_interval, None),
        "seeds": (_list(_cnum), ()),
        "grid": (_int_in(2, config.MAX_GRID_POINTS), 120),
        "side": (_side, "direct"),
    },
    "bracket": {
        "window": (_interval, REQUIRED),
        "lambda": (_cnum, 0j),
        "u_initial": (PAIR, (1 + 0j, 0j)),
        "v_initial": (PAIR, (1 + 0j, 0j)),
        "samples": (_int_in(1, config.MAX_GRID_POINTS), 21),
    },
    "form": {
        "tests": (_bumps, REQUIRED),
        "sector": (_build(Sector, _num), None),
    },
    "check-a": {
        "horizon": (_pos, 60.0),
        "m": (_poly, REQUIRED),
        "probe_points": (_list(_num), ()),
        "with_probe": (_obj(PROBE), None),
    },
    "check-b": {
        "scheme": (_build(lambda d: IntervalScheme({n: (a, b) for n, a, b in d["intervals"]}, d["delta"]),
                          _obj(SCHEME)), REQUIRED),
        "with_probe": (_obj(PROBE), None),
    },
    "probe": PROBE,
    "verify": {
        "window": (_interval, (-5.0, 5.0)),
        "lambda": (_cnum, 0.25 + 0.1j),
    },
}


# ----------------------------------------------------------------------
# normalization (the canonical echo that re-runs identically)


def normalize_problem(raw: dict, functions: dict) -> dict:
    """The problem ``raw`` as it re-runs identically: its task and params, each
    of its ``functions`` (``_functions``) with its breakpoints, its pieces as
    they were read, without trailing zeros as the constructor drops them, and
    its jumps, and its degree cap when it sets one."""
    coefficients = {
        k: {
            "breakpoints": f.breakpoints.tolist(),
            "pieces": [[[z.real, z.imag] for z in _piece(p)] for p in pieces],
            "jumps": [[b, [h.real, h.imag]] for b, h in f.jumps.items()],
        }
        for k, (f, pieces) in functions.items()
    }
    if "degree_cap" in raw["coefficients"]:
        coefficients["degree_cap"] = raw["coefficients"]["degree_cap"]
    return {"task": raw["task"], "coefficients": coefficients, "params": raw.get("params", {})}


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

    def phases(self, parse: float, compute: float):
        """Wall seconds of the parse and compute phases, inside [metadata]."""
        line = f"phase_s: parse={parse:.6f} compute={compute:.6f}"
        self.lines.insert(self.lines.index("[/metadata]"), line)

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
        cell = _CELL.get
        self.csv(name, header, [",".join([cell(type(v), _fmt)(v) for v in row]) for row in rows], source)

    def csv(self, name: str, header, lines, source: str):
        """A table of rows written already."""
        self.lines += [f"[table {name}]  (source: {source})", ",".join(header), *lines, "[/table]"]

    def verdict(self, verdict: str):
        self.kv("verdict", verdict)
        self.judge(verdict)

    def judge(self, verdict: str):
        """The exit code of a verdict, without its line: a chained probe's."""
        if verdict not in OK_VERDICTS:
            self.exit_code = EXIT_FAILS

    def text(self) -> str:
        return "\n".join(self.lines) + f"\nexit: {self.exit_code}\n"


def _fmt(v) -> str:
    if type(v) is float:  # the common case, first
        return repr(v)
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


# the formatter of a table cell by its exact type, _fmt for every other;
# repr is what _fmt gives a float or an int
_CELL = {float: repr, int: repr}


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
# task runners: each takes the field, its task's parsed PARAMS and the
# report; solve returns the trajectory to dump, if any


_STATE_COLUMNS = ["x", "y0_re", "y0_im", "y1_re", "y1_im", "logscale"]


def _state_rows(traj, xs) -> list:
    """One row of _STATE_COLUMNS per x: the trajectory's state there, as floats."""
    ys, ls = traj.sample(xs)
    return [(x, y0.real, y0.imag, y1.real, y1.imag, l) for x, (y0, y1), l in zip(xs.tolist(), ys.tolist(), ls.tolist())]


def run_solve(field, params, rep):
    x0, x1 = params["from"], params["to"]
    expr = field if params["side"] == "direct" else field.adjoint
    traj = integrate(expr, params["lambda"], QuasiState(x0, *params["initial"]), x1)
    end = traj.state_at(x1)
    rep.kv("final.x", x1, source="dense-output")
    rep.kv("final.y0", complex(end.y0), source="dense-output")
    rep.kv("final.y1", complex(end.y1), source="dense-output")
    rep.kv("final.logscale", end.logscale, source="dense-output")
    rep.kv("steps", len(traj.steps), source="taylor-series")
    lo, hi = sorted((x0, x1))
    rep.table("trajectory_samples", _STATE_COLUMNS, _state_rows(traj, np.linspace(lo, hi, 21)), source="dense-output")
    rep.verdict("success")
    return traj if params["dump"] else None


def run_eig(field, params, rep):
    scan, seeds = params["scan"], params["seeds"]
    if scan is None and not seeds:
        raise ValidationFailure("params", "need a scan range or Newton seeds")
    expr = field if params["side"] == "direct" else field.adjoint
    run = eigenvalues(expr, params["interval"], params["bc"], scan, seeds, params["grid"])
    if run.refusal is not None:
        # the scan's sign changes are not roots; the Newton seeds still are
        lam, ratio = run.refusal
        rep.kv("scan_imag_ratio", ratio, source="shooting-scan")
        rep.kv("scan_refused_at", lam, source="shooting-scan")
    rows = [(r.lam.real, r.lam.imag, r.residual, r.floor, r.iterations, r.converged, r.method) for r in run.roots]
    rep.table(
        "eigenvalues",
        ["lambda_re", "lambda_im", "char_residual", "char_floor", "iterations", "converged", "method"],
        rows,
        source="shooting",
    )
    good = [r for r in run.roots if r.converged]
    rep.kv("found", len(good), source="shooting")
    rep.kv("shots", run.shots, source="shooting")
    rep.verdict("inconclusive" if run.refusal is not None else "success" if good else "fails")


def run_bracket(field, params, rep):
    window = a, b = params["window"]
    lam = params["lambda"]
    u = integrate(field, lam, QuasiState(a, *params["u_initial"]), b)
    v = integrate(field.adjoint, lam.conjugate(), QuasiState(a, *params["v_initial"]), b)
    n = params["samples"]
    xs = np.linspace(a, b, n).tolist()
    (yu, lu), (yv, lv) = u.sample(xs), v.sample(xs)
    rows = []
    for x, su, sv, l1, l2 in zip(xs, yu.tolist(), yv.tolist(), lu.tolist(), lv.tolist()):
        value, logscale = bracket(QuasiState(x, *su, l1), QuasiState(x, *sv, l2))
        rows.append((x, value.real, value.imag, logscale))
    rep.table("bracket_values", ["x", "re", "im", "logscale"], rows, source="bracket[dense-output]")
    resid = bracket_constancy_residual(u, v, window, samples=max(n, 50))
    rep.kv("constancy_residual", resid, source="bracket-constancy")
    ident = lagrange_residual(field, u, v, window)
    rep.kv("identity_residual", ident, source="integral-identity")
    ok = resid <= 1e-8 and ident <= 1e-8
    rep.verdict("success" if ok else "fails")


def run_form(field, params, rep):
    # the kinetic part is real; t(u) is the sum of the three parts and
    # w = t(u)/||u||^2, both in Python complex
    lines, ws = [], []
    columns = (a.tolist() for a in _form_columns(field, params["tests"]))
    for i, (kin, cpl, pot, norm2) in enumerate(zip(*columns)):
        value = kin + cpl + pot
        w = value / norm2
        ws.append(w)
        lines.append(",".join(map(repr, (i, kin.real, cpl.real, cpl.imag, pot.real, pot.imag,
                                         value.real, value.imag, w.real, w.imag, norm2))))
    rep.csv(
        "form_values",
        ["index", "kin_re", "cpl_re", "cpl_im", "pot_re", "pot_im", "val_re", "val_im", "w_re", "w_im", "norm2"],
        lines,
        source="gauss-legendre-quadrature",
    )
    cond = range_verdict(ws, sector=params["sector"])
    _report_condition(rep, "range", cond)
    rep.verdict(cond.verdict)


def run_check_a(field, params, rep):
    try:
        w = WeightFunction(params["m"], params["horizon"])
    except (NonRealError, ValueError) as exc:  # m complex, or jumping inside the horizon
        raise ValidationFailure("params.m", str(exc)) from None
    rep_m = check_m(w, probe_points=params["probe_points"])
    _report_condition(rep, "m_condition", rep_m)
    rep_g = check_growth(field.r1, w)
    _report_condition(rep, "growth", rep_g)
    overall = "holds-on-horizon"
    if "fails" in (rep_m.verdict, rep_g.verdict):
        overall = "fails"
    elif rep_m.verdict == "inconclusive":
        overall = "inconclusive"
    rep.verdict(overall)
    if params["with_probe"] is not None and overall == "holds-on-horizon":
        run_probe(field, params["with_probe"], rep, prefix="chained_")


def run_check_b(field, params, rep):
    cond = check_intervals(field.r1, params["scheme"])
    _report_condition(rep, "intervals", cond)
    rep.verdict(cond.verdict)
    if params["with_probe"] is not None and cond.verdict == "holds-on-horizon":
        run_probe(field, params["with_probe"], rep, prefix="chained_")


def run_probe(field, params, rep, prefix=""):
    """A probe task, or with ``prefix`` one chained to a check that holds:
    its classification then sets the exit code without a verdict line, as
    the task's one verdict line is the check's."""
    out = null_probe(field, params["lambda"], params["tmax"], windows=params["windows"])
    rep.kv(prefix + "probe.lambda", out.lam, source="null-probe")
    rep.kv(prefix + "probe.classification", out.classification, source="null-probe")
    rep.kv(prefix + "probe.monotone", out.monotone, source="gram-nesting")
    rep.kv(prefix + "probe.growth_total_log", out.growth_total, source="null-probe")
    rep.kv(prefix + "probe.tail_ratio", out.tail_ratio, source="null-probe")
    rows = [(T, n, ln) for T, n, ln in zip(out.windows, out.N, out.log_N)]
    rep.table(prefix + "probe_gram", ["T", "N", "log_N"], rows, source="gram-quadrature")
    for note in out.notes:
        rep.kv(prefix + "probe.note", note)
    (rep.judge if prefix else rep.verdict)(out.classification)


def run_verify(field, params, rep):
    window = a, b = params["window"]
    lam = params["lambda"]
    rows = []

    u = integrate(field, lam, QuasiState(a, 0.3, 1.0), b)
    v = integrate(field.adjoint, lam.conjugate(), QuasiState(a, 1.0, -0.2), b)
    r1 = lagrange_residual(field, u, v, window)
    rows.append(("lagrange_identity", r1, 1e-8, r1 <= 1e-8, "integral-identity"))
    r2 = bracket_constancy_residual(u, v, window)
    rows.append(("bracket_constancy", r2, 1e-8, r2 <= 1e-8, "bracket-sampling"))

    mid = 0.5 * (a + b)
    n = max(1, int(min(-a, b)) - 1)
    # phi, which is also the first form test, the second form test and the
    # cut-off, 1 on [-n, n] and 0 outside [-n - 1, n + 1], built in one
    # call that refuses the first member that cannot be built
    phi, second, cut = bumps([mid, mid - (b - a) / 8, 0.0], [(b - a) / 4, (b - a) / 6, 2.0 * n],
                             [(b - a) / 8] * 2 + [1.0])
    u_fit = u.to_piecewise(a, b)
    for name, r3 in zip(("direct", "adjoint"), product_rule_check(field, phi, u_fit, window)):
        rows.append((f"product_rule_{name}", r3, 1e-9, r3 <= 1e-9, "cutoff-product-rule"))

    for k, r4 in enumerate(form_vs_operator_check(field, [phi, second], window)):
        rows.append((f"form_vs_operator_{k}", r4, 1e-8, r4 <= 1e-8, "form-vs-operator"))

    lo, hi = cut.support_bounds()
    fits = a <= lo and hi <= b
    if fits:
        v0 = integrate(field.adjoint, 0.0, QuasiState(a, 1.0, 0.1), b)
        r5 = verify_caccioppoli(field, v0, cut)
        rows.append(("caccioppoli_identity", r5, 1e-7, r5 <= 1e-7, "null-energy-identity"))
    else:
        rep.kv("note", f"caccioppoli_identity skipped: cut-off support [{lo!r}, {hi!r}] "
                       f"does not fit in the window [{a!r}, {b!r}]")

    rep.table(
        "identity_residuals",
        ["name", "residual", "contract", "pass", "method"],
        rows,
        source="verify-battery",
    )
    # without the Caccioppoli row the criterion of the paper is not checked
    rep.verdict("fails" if not all(r[3] for r in rows) else "success" if fits else "inconclusive")


# ----------------------------------------------------------------------
# driver

RUNNERS = {
    "solve": run_solve, "eig": run_eig, "bracket": run_bracket, "form": run_form,
    "check-a": run_check_a, "check-b": run_check_b, "probe": run_probe, "verify": run_verify,
}
TASKS = tuple(RUNNERS)

# coefficients and params are parsed by run_problem, once the task is known
PROBLEM = {
    "task": (_one_of(*TASKS), REQUIRED),
    "coefficients": (_obj(), REQUIRED),
    "params": (_obj(), {}),
    "output": (_filename, "report.txt"),
}


def load_problem(path: str) -> dict:
    """The problem file, read as UTF-8 text with universal newlines, as a text-mode
    open reads it, without the cost of setting one up."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    raw = json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
    _obj(PROBLEM)(raw, "")
    return raw


def run_problem(raw: dict, argv=()) -> tuple[int, str, object]:
    started = time.perf_counter()
    task = raw["task"]
    functions, cap = _functions(raw["coefficients"], "coefficients")
    field = CoefficientField(*(f for f, _ in functions.values()))
    spec = {k: (_poly(cap) if kind is _poly else kind, default) for k, (kind, default) in PARAMS[task].items()}
    params = _obj(spec)(raw.get("params", {}), "params")
    if params.get("dump") and raw.get("output") == DUMP_NAME:
        raise ValidationFailure("output", f"{DUMP_NAME!r} is the name of the trajectory dump")
    rep = Report(task)
    rep.metadata(list(argv))
    rep.problem(normalize_problem(raw, functions))
    parsed = time.perf_counter()
    extra = RUNNERS[task](field, params, rep)
    rep.phases(parse=parsed - started, compute=time.perf_counter() - parsed)
    return rep.exit_code, rep.text(), extra


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write(out_dir: str, name: str, data: bytes):
    """Make the file ``name`` in out_dir hold exactly data: one open and
    writes until all bytes are taken.  out_dir is created, with its
    parents, only when the open finds no such directory."""
    path = os.path.join(out_dir, name)
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        os.makedirs(out_dir, exist_ok=True)
        fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def _trajectory_csv(traj) -> bytes:
    """The solve dump: a header and one row per knot of the trajectory, both
    ends of the interval included."""
    rows = (",".join(map(repr, row)) for row in _state_rows(traj, traj.knots))
    return "\n".join([",".join(_STATE_COLUMNS), *rows, ""]).encode("utf-8")


USAGE = "usage: qschro TASK --input FILE [--out DIR]"
HELP = f"""{USAGE}

Quasi-derivative Schrodinger toolkit: batch tasks over problem files.

  TASK          one of {", ".join(TASKS)}
  --input FILE  problem file (JSON); also --input=FILE
  --out DIR     output directory for the report, default the current one;
                also --out=DIR
  -h, --help    show this help and exit

Exit codes: 0 holds/grows/success, 2 fails/bounded/inconclusive, 64 usage
or parse error, 65 validation error, 70 numeric error, 73 cannot write
output, 1 anything else.
"""
FLAGS = ("--input", "--out")


def _usage_error(message: str):
    print(USAGE, file=sys.stderr)
    print(f"qschro: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _read_argv(argv) -> tuple[str, str, str | None]:
    """(task, input, out) of the words ``TASK --input FILE [--out DIR]``.

    A flag's value is the next word, or follows '=' in the same word; a
    value that starts with '-' takes the '=' form.  A word -h or --help
    anywhere prints the help and exits 0.  Any misuse (no task, an unknown
    task or word, a flag given twice or without a value, no --input)
    prints the usage and the error to stderr and exits EXIT_PARSE:
    argparse's code 2 is that of a failed check.  Both exits raise
    SystemExit, as argparse does.
    """
    words = list(argv)
    if "-h" in words or "--help" in words:
        print(HELP, end="")
        raise SystemExit(EXIT_OK)
    if not words:
        _usage_error("the following arguments are required: TASK")
    task, values, extra = words[0], {}, []
    if task not in TASKS:
        _usage_error(f"invalid task {task!r} (choose from {', '.join(TASKS)})")
    rest = iter(words[1:])
    for word in rest:
        flag, eq, value = word.partition("=")
        if flag not in FLAGS:
            extra.append(word)
            continue
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                _usage_error(f"argument {flag}: expected one argument")
        if flag in values:
            _usage_error(f"argument {flag}: given more than once")
        values[flag] = value
    if "--input" not in values:
        _usage_error("the following arguments are required: --input")
    if extra:
        _usage_error(f"unrecognized arguments: {' '.join(extra)}")
    return task, values["--input"], values.get("--out")


def main(argv=None) -> int:
    task, input_path, out_dir = _read_argv(sys.argv[1:] if argv is None else argv)

    try:
        raw = load_problem(input_path)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"parse error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationFailure as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if raw["task"] != task:
        print(
            f"validation error: task: file declares {raw['task']!r} but the "
            f"{task!r} subcommand was invoked",
            file=sys.stderr,
        )
        return EXIT_VALIDATION

    try:
        code, text, extra = run_problem(raw, sys.argv[1:] if argv is None else argv)
    except QschroError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValidationFailure, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = out_dir or "."
    name = raw.get("output", "report.txt")
    report_path = os.path.join(out_dir, name)
    try:
        # encoded before any open, so a report that cannot be written leaves no
        # file; an undecodable byte of an argv word, which Python holds as a
        # lone surrogate, is that byte again in the report's argv: line
        _write(out_dir, name, text.encode("utf-8", "surrogateescape"))
        if extra is not None:  # trajectory dump requested by a solve task
            _write(out_dir, DUMP_NAME, _trajectory_csv(extra))
    except (OSError, UnicodeEncodeError) as exc:
        print(f"write error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    print(f"report: {os.fsencode(report_path).decode('utf-8', 'backslashreplace')}")
    print(f"exit: {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
