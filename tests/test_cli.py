"""Problem-file validation, exit codes, report determinism, round-trips."""

import copy
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschro.cli import (
    EXIT_CANTCREAT,
    EXIT_FAILS,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    PARAMS,
    ValidationFailure,
    _poly,
    load_problem,
    main,
    run_problem,
)
from qschro.coeffs import CoefficientField, PiecewisePoly
from qschro.spectral import BoundaryCondition, characteristic, eigenvalues

FREE_COEFFS = {
    "s": {"breakpoints": [], "pieces": [["0"]]},
    "Q": {"breakpoints": [], "pieces": [["0"]]},
    "r": {"breakpoints": [], "pieces": [["0"]]},
}

DELTA_COEFFS = {
    "s": {"breakpoints": [], "pieces": [["0"]]},
    "Q": {"breakpoints": ["0"], "pieces": [["0"], ["-2"]], "jumps": [["0", "-2"]]},
    "r": {"breakpoints": [], "pieces": [["0"]]},
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def strip_metadata(text: str) -> str:
    out = []
    skipping = False
    for line in text.splitlines():
        if line == "[metadata]":
            skipping = True
            continue
        if line == "[/metadata]":
            skipping = False
            continue
        if not skipping:
            out.append(line)
    return "\n".join(out)


def test_load_rejects_unknown_keys(tmp_path):
    path = write(tmp_path, "p.json", {"task": "probe", "coefficients": FREE_COEFFS, "extra": 1})
    with pytest.raises(ValidationFailure):
        load_problem(path)


def test_load_rejects_unknown_task(tmp_path):
    path = write(tmp_path, "p.json", {"task": "frobnicate", "coefficients": FREE_COEFFS})
    with pytest.raises(ValidationFailure):
        load_problem(path)


def test_malformed_breakpoints_named_in_error(tmp_path):
    coeffs = {
        "s": {"breakpoints": [], "pieces": [["0"]]},
        "Q": {"breakpoints": ["1", "0.5"], "pieces": [["0"], ["1"], ["2"]]},
        "r": {"breakpoints": [], "pieces": [["0"]]},
    }
    path = write(
        tmp_path,
        "p.json",
        {"task": "probe", "coefficients": coeffs, "params": {"tmax": 10}},
    )
    code = main(["probe", "--input", path, "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["probe", "--input", str(p), "--out", str(tmp_path)]) == EXIT_PARSE


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000], ids=["not-utf8", "deep"])
def test_unreadable_problem_file_is_a_parse_error(tmp_path, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert main(["probe", "--input", str(p), "--out", str(tmp_path)]) == EXIT_PARSE


def test_task_subcommand_mismatch(tmp_path):
    path = write(tmp_path, "p.json", {"task": "probe", "coefficients": FREE_COEFFS, "params": {}})
    assert main(["eig", "--input", path, "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_jump_mismatch_rejected(tmp_path):
    coeffs = {
        "s": {"breakpoints": [], "pieces": [["0"]]},
        "Q": {"breakpoints": ["0"], "pieces": [["0"], ["-2"]], "jumps": [["0", "-3"]]},
        "r": {"breakpoints": [], "pieces": [["0"]]},
    }
    path = write(tmp_path, "p.json", {"task": "probe", "coefficients": coeffs, "params": {}})
    assert main(["probe", "--input", path, "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_decimal_strings_accepted(tmp_path):
    problem = {
        "task": "solve",
        "coefficients": FREE_COEFFS,
        "params": {"from": "0", "to": "1", "lambda": "-1", "initial": [["1", "0"], ["1", "0"]]},
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    code, text, _ = run_problem(raw)
    assert code == EXIT_OK
    line = next(l for l in text.splitlines() if l.startswith("final.y0"))
    val = float(line.split(":")[1].split("(")[0].strip())
    assert val == pytest.approx(math.e, abs=1e-8)


def test_eig_task_end_to_end(tmp_path):
    problem = {
        "task": "eig",
        "coefficients": DELTA_COEFFS,
        "params": {"interval": [-20, 20], "scan": [-2, -0.5], "grid": 12},
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    code, text, _ = run_problem(raw)
    assert code == EXIT_OK
    lines = text.splitlines()
    table = lines.index("[table eigenvalues]  (source: shooting)")
    rows = lines[table + 2 : lines.index("[/table]", table)]
    assert len(rows) == 1, text
    lam = float(rows[0].split(",")[0])
    assert lam == pytest.approx(-1.0, abs=1e-6)


def test_form_task_negative_potential_fails(tmp_path):
    coeffs = {
        "s": {"breakpoints": [], "pieces": [["-1"]]},
        "Q": {"breakpoints": [], "pieces": [["0"]]},
        "r": {"breakpoints": [], "pieces": [["0"]]},
    }
    problem = {
        "task": "form",
        "coefficients": coeffs,
        "params": {"tests": [{"center": 0, "plateau": 20, "ramp": 3}]},
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    code, text, _ = run_problem(raw)
    assert code == EXIT_FAILS
    assert "witness_value" in text


def report_table(text: str, name: str) -> list[dict]:
    """The rows of a report's table, keyed by its header."""
    lines = text.splitlines()
    top = next(i for i, line in enumerate(lines) if line.startswith(f"[table {name}]"))
    header = lines[top + 1].split(",")
    return [dict(zip(header, row.split(","))) for row in lines[top + 2 : lines.index("[/table]", top)]]


def test_form_norm2_column_is_the_closed_form_and_w_is_val_over_it():
    # ||u||^2 = plateau + 2 ramp int_0^1 (3t^2 - 2t^3)^2 dt = plateau + (26/35) ramp
    shapes = [(0.0, 1.0, 1.0), (0.3, 0.0, 0.5), (-2.5, 3.25, 0.125), (7.0, 0.0, 2.0), (1e3, 40.0, 1e-3)]
    coeffs = dict(DELTA_COEFFS, s={"pieces": [[1, [0, 1]]]})  # s = 1 + ix
    problem = {"task": "form", "coefficients": coeffs,
               "params": {"tests": [{"center": c, "plateau": p, "ramp": r} for c, p, r in shapes]}}
    _, text, _ = run_problem(problem)
    rows = report_table(text, "form_values")
    assert list(rows[0]) == ["index", "kin_re", "cpl_re", "cpl_im", "pot_re", "pot_im",
                             "val_re", "val_im", "w_re", "w_im", "norm2"]
    assert "[table range.samples]" not in text
    for row, (_, plateau, ramp) in zip(rows, shapes, strict=True):
        norm2 = float(row["norm2"])
        want = plateau + 26 / 35 * ramp
        assert abs(norm2 - want) <= 1e-13 * want
        w = complex(float(row["val_re"]), float(row["val_im"])) / norm2
        assert (row["w_re"], row["w_im"]) == (repr(w.real), repr(w.imag))
    assert all(float(row["val_im"]) for row in rows)


def test_check_b_task(tmp_path):
    problem = {
        "task": "check-b",
        "coefficients": FREE_COEFFS,
        "params": {
            "scheme": {
                "delta": 1,
                "intervals": [[n, 2 * n, 2 * n + 1] for n in range(1, 5)]
                + [[-n, -2 * n - 1, -2 * n] for n in range(1, 5)],
            }
        },
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    code, text, _ = run_problem(raw)
    assert code == EXIT_OK
    assert "intervals.C: 0.0" in text


def _run_lines(tmp_path, problem) -> tuple[int, list]:
    """(exit code, report lines) of a problem run through main."""
    out = tmp_path / "out"
    code = main([problem["task"], "--input", write(tmp_path, "p.json", problem), "--out", str(out)])
    return code, (out / "report.txt").read_text().splitlines()


LINEAR_DRIFT = json.loads((pathlib.Path(__file__).parents[1] / "problems" / "check_a_linear_drift.json").read_text())


@pytest.mark.parametrize("coeffs, tmax, classification, exit_code", [
    (LINEAR_DRIFT["coefficients"], 10, "grows", EXIT_OK),
    (DELTA_COEFFS, 12, "bounded", EXIT_FAILS),
], ids=["linear-drift", "delta-well"])
def test_a_chained_probe_writes_no_second_verdict_line(tmp_path, coeffs, tmax, classification, exit_code):
    # the check's verdict is the task's; the probe's is its classification
    # and its exit code
    params = dict(LINEAR_DRIFT["params"], with_probe={"lambda": -1, "tmax": tmax})
    code, lines = _run_lines(tmp_path, {"task": "check-a", "coefficients": coeffs, "params": params})
    assert code == exit_code and lines[-1] == f"exit: {exit_code}"
    assert [line for line in lines if line.startswith("verdict:")] == ["verdict: holds-on-horizon"]
    assert f"chained_probe.classification: {classification}  (source: null-probe)" in lines


def test_a_failing_check_b_chains_no_probe(tmp_path):
    params = {"scheme": {"delta": 2, "intervals": [[1, 2, 3]]}, "with_probe": {"lambda": -1, "tmax": 10}}
    code, lines = _run_lines(tmp_path, {"task": "check-b", "coefficients": FREE_COEFFS, "params": params})
    assert code == EXIT_FAILS
    assert [line for line in lines if line.startswith("verdict:")] == ["verdict: fails"]
    assert not [line for line in lines if line.startswith("chained_")]


def test_a_solve_whose_exact_step_overflows_is_a_numeric_error(tmp_path, capsys):
    # one sub-step of h = 1e308 on the free field: w = h^2 mu^2 overflows
    # and the state is NaN, which must exit 70, not report success
    problem = {"task": "solve", "coefficients": FREE_COEFFS, "params": {"from": 0, "to": 1e308, "initial": [1, 1]}}
    path = write(tmp_path, "p.json", problem)
    assert main(["solve", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "StepUnderflowError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_solve_whose_state_is_not_finite_says_so(tmp_path, capsys):
    # free field from 0 to 1e308 at lambda = 0: the floor is 1e294, so the
    # one exact sub-step of 1e308 is not below it; its end state is NaN
    problem = {"task": "solve", "coefficients": FREE_COEFFS, "params": {"from": 0, "to": 1e308}}
    path = write(tmp_path, "p.json", problem)
    assert main(["solve", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert capsys.readouterr().err == ("numeric error: StepUnderflowError: state not finite after a step of "
                                       "1.000e+308 at x=0 (solution blow-up or coefficient pathology)\n")


WIDE = [-1e308, 1e308]  # each end is finite, b - a is not


@pytest.mark.parametrize("task, params, said", [
    ("eig", {"interval": WIDE, "seeds": [[1, 0]]},
     "params.interval: width b - a of [-1e+308, 1e+308] is not finite"),
    ("eig", {"interval": [0, 1], "scan": WIDE}, "params.scan: width b - a of [-1e+308, 1e+308] is not finite"),
    ("verify", {"window": WIDE}, "params.window: width b - a of [-1e+308, 1e+308] is not finite"),
    ("bracket", {"window": WIDE}, "params.window: width b - a of [-1e+308, 1e+308] is not finite"),
    ("solve", {"from": -1e308, "to": 1e308},
     "integration interval from -1e+308 to 1e+308 has a length that is not finite"),
], ids=["eig-interval", "eig-scan", "verify-window", "bracket-window", "solve-from-to"])
def test_an_interval_whose_width_overflows_is_a_validation_error(tmp_path, capsys, task, params, said):
    path = write(tmp_path, "p.json", {"task": task, "coefficients": FREE_COEFFS, "params": params})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([task, "--input", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {said}\n"
    assert not (tmp_path / "out").exists()


def _drift_x2(sign: int) -> dict:
    """r = sign i x^2, s = Q = 0."""
    return {"r": {"breakpoints": [], "pieces": [[0, 0, [0, sign]]]}}


@pytest.mark.parametrize("sign", [1, -1], ids=["+i", "-i"])
def test_probe_says_grows_only_from_windows_resolved_up_to_half_its_horizon(tmp_path, sign):
    # r = +-i x^2 at lambda = -1 has a whole-line L2 solution of the adjoint
    # equation; the windows from T = 5 on are unresolved, and those up to
    # T = 2.5 grow, which says nothing about the solutions at tmax 10
    problem = {"task": "probe", "coefficients": _drift_x2(sign), "params": {"lambda": -1, "tmax": 10}}
    code = main(["probe", "--input", write(tmp_path, "p.json", problem), "--out", str(tmp_path)])
    report = (tmp_path / "report.txt").read_text()
    assert "N(5.0) is below its rounding floor" in report
    assert "verdict: inconclusive\n" in report and code == EXIT_FAILS


def test_check_b_visits_indices_without_a_partner_of_the_other_sign(tmp_path):
    # only negative indices: sup of r1^+ = x^2 over [-9, -8] is 81 per unit length
    intervals = [[-1, -3, -2], [-2, -5, -4], [-3, -7, -6], [-4, -9, -8]]
    problem = {"task": "check-b", "coefficients": _drift_x2(1), "params": {"scheme": {"intervals": intervals}}}
    code = main(["check-b", "--input", write(tmp_path, "p.json", problem), "--out", str(tmp_path)])
    report = (tmp_path / "report.txt").read_text()
    assert "intervals.C: 81.0  (source" in report and "intervals.witness_n: -4  (source" in report
    assert "verdict: fails\n" in report and code == EXIT_FAILS


@pytest.mark.parametrize("r, m, horizon, said", [
    ([[0, 0, [0, -1e300]]], [[1, 0, 1e300]], 1e10,
     "params.m: weight function takes values past the float range on the horizon [-10000000000.0, 10000000000.0]"),
    ([[0, 0, [0, -1e300]]], [[1, 0, 1]], 1e10, "r1 takes values past the float range on the horizon [-10000000000.0, 10000000000.0]"),
    ([[0, [0, -1]]], {"breakpoints": [0], "pieces": [[1, -1], [1, 1]]}, 3e307,
     "horizon 3e+307 puts the edges of the 8 envelope blocks past the float range"),
], ids=["m", "r", "horizon"])
def test_check_a_refuses_values_past_the_float_range(tmp_path, capsys, r, m, horizon, said):
    m = m if isinstance(m, dict) else {"breakpoints": [], "pieces": m}
    problem = {"task": "check-a", "coefficients": {"r": {"breakpoints": [], "pieces": r}},
               "params": {"horizon": horizon, "m": m}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-a", "--input", write(tmp_path, "p.json", problem), "--out", str(tmp_path / "out")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {said}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cap, m, r, code, said", [
    (12, [1] + [0] * 9 + [1], [0], EXIT_FAILS, ""),
    (2, [1, 0, 0, 0, 0, 1], [0], EXIT_VALIDATION, "validation error: params.m: piece degree 5 exceeds cap 2\n"),
    (2, [1], [0, 0, 0, 1], EXIT_VALIDATION, "validation error: coefficients.r: piece degree 3 exceeds cap 2\n"),
], ids=["m-under-a-raised-cap", "m-over-a-lowered-cap", "r-over-a-lowered-cap"])
def test_check_a_reads_m_under_the_problems_degree_cap(tmp_path, capsys, cap, m, r, code, said):
    coefficients = dict(FREE_COEFFS, r={"breakpoints": [], "pieces": [r]}, degree_cap=cap)
    problem = {"task": "check-a", "coefficients": coefficients, "params": {"m": {"breakpoints": [], "pieces": [m]}}}
    assert main(["check-a", "--input", write(tmp_path, "p.json", problem), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == said


def test_bracket_task(tmp_path):
    problem = {
        "task": "bracket",
        "coefficients": FREE_COEFFS,
        "params": {"window": [0, 3], "lambda": -1, "u_initial": [1, 1], "v_initial": [1, -1]},
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    code, text, _ = run_problem(raw)
    assert code == EXIT_OK
    # [e^x, e^-x] = -2 everywhere
    row = next(l for l in text.splitlines() if l.startswith("0.0,"))
    assert float(row.split(",")[1]) == pytest.approx(-2.0, abs=1e-8)


def test_report_determinism_modulo_metadata(tmp_path):
    problem = {
        "task": "verify",
        "coefficients": DELTA_COEFFS,
        "params": {"window": [-5, 5], "lambda": [0.25, 0.1]},
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    _, text1, _ = run_problem(raw, argv=["verify"])
    _, text2, _ = run_problem(raw, argv=["verify", "--again"])
    assert strip_metadata(text1) == strip_metadata(text2)
    assert text1 != text2  # metadata differs (timestamp/argv)


def test_phase_times_sit_inside_the_metadata_block(tmp_path):
    path = write(tmp_path, "p.json", {"task": "form", "coefficients": DELTA_COEFFS,
                                      "params": {"tests": [{"center": 0, "plateau": 1, "ramp": 1}]}})
    texts = []
    for run in ("a", "b"):
        assert main(["form", "--input", path, "--out", str(tmp_path / run)]) == EXIT_OK
        texts.append((tmp_path / run / "report.txt").read_text())
    for text in texts:
        lines = text.splitlines()
        (i,) = [k for k, line in enumerate(lines) if line.startswith("phase_s:")]
        assert lines.index("[metadata]") < i < lines.index("[/metadata]")
        assert re.fullmatch(r"phase_s: parse=\d+\.\d{6} compute=\d+\.\d{6}", lines[i])
    assert strip_metadata(texts[0]) == strip_metadata(texts[1])
    assert "phase_s" not in strip_metadata(texts[0])


def test_problem_echo_roundtrip(tmp_path):
    problem = {
        "task": "form",
        "coefficients": DELTA_COEFFS,
        "params": {"tests": [{"center": 0, "plateau": 1, "ramp": 1}]},
    }
    raw = load_problem(write(tmp_path, "p.json", problem))
    _, text1, _ = run_problem(raw)
    lines = text1.splitlines()
    echoed = json.loads(lines[lines.index("[problem]") + 1])
    path2 = write(tmp_path, "echo.json", echoed)
    raw2 = load_problem(path2)
    _, text2, _ = run_problem(raw2)
    assert strip_metadata(text1).split("[/problem]")[1] == strip_metadata(text2).split("[/problem]")[1]


def test_echo_of_pieces_far_from_their_centers_re_runs_to_its_own_report(tmp_path, capsys):
    # pieces rebuilt from their re-centred rows, as the echo once wrote them,
    # had other bits: re-run, their jump at 1.1 disagreed with the echoed one
    # (exit 65)
    pieces = [[-0.63, 0.24, -2.37, -2.53, 1.32, -0.88], [1.41, -0.5, -0.11, 0.03, 0.58, 0.66],
              [-1.27, -0.57, -0.78, 0.31, 2.67, -0.68]]
    problem = {"task": "solve", "coefficients": {"s": {"breakpoints": [-47.2, 1.1], "pieces": pieces}},
               "params": {"from": 0, "to": 0.5}}
    assert main(["solve", "--input", write(tmp_path, "p.json", problem), "--out", str(tmp_path / "a")]) == EXIT_OK
    first = (tmp_path / "a" / "report.txt").read_text()
    lines = first.splitlines()
    (tmp_path / "echo.json").write_text(lines[lines.index("[problem]") + 1])
    code = main(["solve", "--input", str(tmp_path / "echo.json"), "--out", str(tmp_path / "b")])
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    assert strip_metadata((tmp_path / "b" / "report.txt").read_text()) == strip_metadata(first)
    echo = json.loads(lines[lines.index("[problem]") + 1])
    assert echo["coefficients"]["s"]["pieces"] == [[[v, 0.0] for v in p] for p in pieces]


def test_check_a_decides_once_that_m_is_real(tmp_path, capsys):
    # m = 1e6 + x + (1 + 1e-5 i) x^2 is real to 1e-10 of its largest
    # coefficient; its derivative, with a relative imaginary part of 1e-5,
    # was tested again and refused (exit 70)
    m = {"breakpoints": [], "pieces": [[[1000000, 0], [1, 0], [1, 0.00001]]]}
    problem = {"task": "check-a", "coefficients": {"r": {"breakpoints": [], "pieces": [[0, [0, -1]]]}},
               "params": {"horizon": 60, "m": m}}
    assert main(["check-a", "--input", write(tmp_path, "p.json", problem), "--out", str(tmp_path)]) == EXIT_FAILS
    report = (tmp_path / "report.txt").read_text()
    assert "m_condition.verdict: holds-on-horizon\n" in report and "m_condition.min_m: 999999.75  (source" in report
    assert capsys.readouterr().err == ""


def test_unwritable_output_is_a_write_error(tmp_path, capsys):
    path = write(tmp_path, "p.json", SOLVE)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    assert main(["solve", "--input", path, "--out", str(blocker)]) == EXIT_CANTCREAT
    assert capsys.readouterr().err.startswith("write error: ")


def test_report_file_is_the_report_text_in_utf8(tmp_path, monkeypatch):
    import qschro.cli as cli

    texts = []

    def recorded(raw, argv=()):
        code, text, extra = run_problem(raw, argv)
        texts.append(text)
        return code, text, extra

    monkeypatch.setattr(cli, "run_problem", recorded)
    out = tmp_path / "out"
    assert main(["form", "--input", write(tmp_path, "p.json", FORM), "--out", str(out)]) == EXIT_OK
    data = (out / "report.txt").read_bytes()
    assert data == texts[0].encode("utf-8")
    assert b"\r" not in data and data.endswith(b"\n")


def test_out_naming_a_missing_nested_directory_creates_it(tmp_path, capsys):
    out = tmp_path / "a" / "b" / "c"
    assert main(["solve", "--input", write(tmp_path, "p.json", SOLVE), "--out", str(out)]) == EXIT_OK
    assert (out / "report.txt").read_bytes().endswith(b"verdict: success\nexit: 0\n")
    assert capsys.readouterr().out == f"report: {out / 'report.txt'}\nexit: 0\n"


@pytest.mark.parametrize("where", ["input", "out", "both"])
def test_undecodable_path_bytes_stay_in_the_report(tmp_path, capsys, where):
    # Python holds an argv byte that is not UTF-8 as a lone surrogate
    folder = tmp_path / os.fsdecode(b"in\xff") if where != "out" else tmp_path
    folder.mkdir(exist_ok=True)
    path = write(folder, "p.json", SOLVE)
    out = str(tmp_path / os.fsdecode(b"out\xfe")) if where != "input" else str(tmp_path / "out")
    assert main(["solve", "--input", path, "--out", out]) == EXIT_OK
    data = (pathlib.Path(out) / "report.txt").read_bytes()
    argv = b"argv: solve --input " + os.fsencode(path) + b" --out " + os.fsencode(out) + b"\n"
    assert argv in data
    assert data.endswith(b"verdict: success\nexit: 0\n")
    said = capsys.readouterr().out
    assert said == f"report: {os.fsencode(out).decode('utf-8', 'backslashreplace')}/report.txt\nexit: 0\n"


def test_unencodable_output_name_is_a_write_error(tmp_path, capsys):
    # a JSON escape can name a lone surrogate, which no POSIX file name holds
    path = write(tmp_path, "p.json", dict(SOLVE, output="\ud800"))
    out = tmp_path / "out"
    assert main(["solve", "--input", path, "--out", str(out)]) == EXIT_CANTCREAT
    assert capsys.readouterr().err.startswith("write error: UnicodeEncodeError: ")
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("seeds", [[], [[1, 1.5]]])
def test_eig_scan_of_complex_discriminant_is_inconclusive(tmp_path, seeds):
    # s = i x: the scan is refused, Newton seeds still run (root 1.109 + 1.571i)
    coeffs = dict(FREE_COEFFS, s={"breakpoints": [], "pieces": [["0", ["0", "1"]]]})
    problem = {"task": "eig", "coefficients": coeffs,
               "params": {"interval": [0, math.pi], "scan": [0.5, 12], "grid": 40, "seeds": seeds}}
    out = tmp_path / "out"
    assert main(["eig", "--input", write(tmp_path, "p.json", problem), "--out", str(out)]) == EXIT_FAILS
    lines = (out / "report.txt").read_text().splitlines()
    # the first node, lambda = 0.5, refuses the scan after one shot
    ix = CoefficientField(PiecewisePoly([], [[0, 1j]]), PiecewisePoly.zero(), PiecewisePoly.zero())
    v = characteristic(ix, (0, math.pi), BoundaryCondition(), 0.5).value
    assert f"scan_imag_ratio: {abs(v.imag) / abs(v)!r}  (source: shooting-scan)" in lines
    assert "scan_refused_at: 0.5  (source: shooting-scan)" in lines
    table = lines.index(next(l for l in lines if l.startswith("[table eigenvalues]")))
    rows = lines[table + 2 : lines.index("[/table]", table)]
    assert len(rows) == len(seeds)
    for row in rows:
        re, im, _, _, _, converged, method = row.split(",")
        assert abs(complex(float(re), float(im)) - (1.109 + 1.571j)) < 1e-3
        assert (converged, method) == ("true", "shooting-newton")
    seed_shots = sum(r.shots for r in eigenvalues(ix, (0, math.pi), BoundaryCondition(),
                                                  seeds=[complex(*z) for z in seeds]).roots)
    assert f"shots: {1 + seed_shots}  (source: shooting)" in lines
    assert f"found: {len(seeds)}  (source: shooting)" in lines
    assert "verdict: inconclusive" in lines


@pytest.mark.parametrize("bc, seed", [
    ({"right": [[1e-12, 0], [0, 0]]}, 2.0),
    ({"left": [[0, 0], [1e-310, 0]]}, 1.1),
], ids=["tiny-right", "subnormal-left"])
def test_eig_reads_a_boundary_pair_as_a_direction(tmp_path, bc, seed):
    # the report of a scaled pair has the eigenvalues table of the unit one
    def table(bc, name):
        problem = {"task": "eig", "coefficients": FREE_COEFFS,
                   "params": {"interval": [0, math.pi], "bc": bc, "seeds": [[seed, 0]]}}
        out = tmp_path / name
        code = main(["eig", "--input", write(tmp_path, f"{name}.json", problem), "--out", str(out)])
        lines = (out / "report.txt").read_text().splitlines()
        start = lines.index(next(l for l in lines if l.startswith("[table eigenvalues]")))
        return code, lines[start : lines.index("[/table]", start)]

    unit = {side: [[1 if v else 0 for v in z] for z in pair] for side, pair in bc.items()}
    code, want = table(unit, "unit")
    assert code == EXIT_OK and want[2].split(",")[5] == "true"
    assert table(bc, "scaled") == (code, want)


# s = (0.4 + 0.3i) + (0.2 - 0.1i) x, Q = 0.3 + 0.2i with a step of 0.1 and
# slope 0.3 + 0.2i past x = 1, r = 0.2 + 0.1i
COMPLEX_COEFFS = {
    "s": {"breakpoints": [], "pieces": [[[0.4, 0.3], [0.2, -0.1]]]},
    "Q": {"breakpoints": [1], "pieces": [[[0.3, 0.2]], [0.1, [0.3, 0.2]]]},
    "r": {"breakpoints": [], "pieces": [[[0.2, 0.1]]]},
}


def test_eig_on_the_adjoint_side_under_the_conjugated_pairs_gives_the_conjugate_roots():
    def roots(side, left, right):
        problem = {"task": "eig", "coefficients": COMPLEX_COEFFS,
                   "params": {"interval": [0, math.pi], "bc": {"left": left, "right": right},
                              "seeds": [1.5, 4.5, 9.5], "side": side}}
        code, text, _ = run_problem(problem)
        rows = report_table(text, "eigenvalues")
        assert code == EXIT_OK and [row["converged"] for row in rows] == ["true"] * 3
        return [complex(float(row["lambda_re"]), float(row["lambda_im"])) for row in rows]

    direct = roots("direct", [1, [0.5, 0.2]], [[0.7, -0.3], 1])
    adjoint = roots("adjoint", [1, [0.5, -0.2]], [[0.7, 0.3], 1])
    same = roots("adjoint", [1, [0.5, 0.2]], [[0.7, -0.3], 1])
    for d, a, s in zip(direct, adjoint, same):
        assert abs(a - d.conjugate()) <= 1e-12 * (1 + abs(d))
        assert abs(s - d.conjugate()) > 0.05


@pytest.mark.parametrize("task, params, builds", [
    ("eig", {"interval": [0, math.pi], "scan": [0.5, 12], "grid": 20, "seeds": [1.5, [4.5, 0.2]]}, 0),
    ("eig", {"interval": [0, math.pi], "scan": [0.5, 12], "grid": 20, "seeds": [1.5, [4.5, 0.2]],
             "side": "adjoint"}, 1),
    ("solve", {"from": 0, "to": 2, "initial": [0, 1]}, 0),
    ("solve", {"from": 0, "to": 2, "initial": [0, 1], "side": "adjoint"}, 1),
    ("form", {"tests": [{"center": 0, "plateau": 1, "ramp": 1}, {"center": 2, "plateau": 0, "ramp": 0.5}]}, 0),
], ids=["eig", "eig-adjoint", "solve", "solve-adjoint", "form"])
def test_a_direct_task_never_builds_the_conjugate_field(monkeypatch, task, params, builds):
    # the adjoint side is the conjugate field, built once per field and
    # only by a task that uses that side
    import functools

    built = []
    make = CoefficientField.adjoint.func

    def counted(self):
        built.append(self)
        return make(self)

    adjoint = functools.cached_property(counted)
    adjoint.__set_name__(CoefficientField, "adjoint")
    monkeypatch.setattr(CoefficientField, "adjoint", adjoint)
    code, _, _ = run_problem({"task": task, "coefficients": COMPLEX_COEFFS, "params": params})
    assert code in (EXIT_OK, EXIT_FAILS)
    assert len(built) == builds


def test_eig_lists_each_root_with_its_method(tmp_path):
    # a scan with a Newton seed: the seed's root 4 is not a scan root
    problem = {"task": "eig", "coefficients": FREE_COEFFS,
               "params": {"interval": [0, math.pi], "scan": [0.5, 2], "grid": 8, "seeds": [[3.9, 0.1]]}}
    out = tmp_path / "out"
    assert main(["eig", "--input", write(tmp_path, "p.json", problem), "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    table = lines.index(next(l for l in lines if l.startswith("[table eigenvalues]")))
    rows = [row.split(",") for row in lines[table + 2 : lines.index("[/table]", table)]]
    assert [(round(float(r[0])), r[5], r[6]) for r in rows] == [
        (1, "true", "shooting-scan-bracket"), (4, "true", "shooting-newton")
    ]


def test_eig_reports_its_shots(tmp_path):
    # the shots line is the scan grid plus every refinement shot
    problem = {"task": "eig", "coefficients": DELTA_COEFFS,
               "params": {"interval": [-20, 20], "scan": [-2, -0.5], "grid": 16}}
    out = tmp_path / "out"
    assert main(["eig", "--input", write(tmp_path, "p.json", problem), "--out", str(out)]) == EXIT_OK
    lines = (out / "report.txt").read_text().splitlines()
    table = lines.index(next(l for l in lines if l.startswith("[table eigenvalues]")))
    assert lines[table + 1] == "lambda_re,lambda_im,char_residual,char_floor,iterations,converged,method"
    (row,) = [r.split(",") for r in lines[table + 2 : lines.index("[/table]", table)]]
    assert float(row[0]) == -1.0 and float(row[2]) <= float(row[3])
    assert f"shots: {16 + int(row[4])}  (source: shooting)" in lines


def test_check_a_integrates_1_over_m_up_to_the_horizon(tmp_path):
    # m = 1 + a x^2 with a probe point at the horizon: I(X) = atan(sqrt(a) X)/sqrt(a).
    # The adaptive quadrature this replaced printed -8.1e-07 here
    a, X = 1.7191, 714701.1779933694
    m = {"breakpoints": [], "pieces": [[1.0, 0.0, a]]}
    problem = {"task": "check-a", "coefficients": FREE_COEFFS,
               "params": {"m": m, "horizon": X, "probe_points": [X]}}
    out = tmp_path / "out"
    assert main(["check-a", "--input", write(tmp_path, "p.json", problem), "--out", str(out)]) == EXIT_FAILS
    lines = (out / "report.txt").read_text().splitlines()
    got = float(next(l for l in lines if l.startswith(f"m_condition.I({X!r}): ")).split()[1])
    want = math.atan(math.sqrt(a) * X) / math.sqrt(a)
    assert abs(got - want) <= 1e-13 * want
    assert "m_condition.verdict: inconclusive" in lines


def test_verify_past_the_float_range_is_a_numeric_error(tmp_path, capsys):
    # e^(x) over [-500, 500] reaches logscale 921: the re-fit of the
    # solution at absolute scale overflows and must exit 70, not trace back
    problem = {"task": "verify", "coefficients": FREE_COEFFS,
               "params": {"window": [-500, 500], "lambda": -1}}
    path = write(tmp_path, "p.json", problem)
    assert main(["verify", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "OverflowUnrecoverableError" in capsys.readouterr().err


@pytest.mark.parametrize("window", [["-5", "5"], ["1", "3"]])
def test_verify_says_when_the_caccioppoli_row_is_skipped(window):
    # the cut-off for [1, 3] is supported on [-2, 2], which does not fit in
    # the window: the row is left out, a note says so, and the verdict is
    # inconclusive although every computed row passes
    raw = load_problem(str(pathlib.Path(__file__).parents[1] / "problems" / "verify_delta_well.json"))
    raw["params"]["window"] = window
    code, text, _ = run_problem(raw)
    lines = text.splitlines()
    start = lines.index("name,residual,contract,pass,method") + 1
    table = [l.split(",") for l in lines[start:lines.index("[/table]", start)]]
    assert table and all(row[3] == "true" for row in table)
    rows = [row for row in table if row[0] == "caccioppoli_identity"]
    notes = [l for l in lines if l.startswith("note: ")]
    if window == ["-5", "5"]:
        assert len(rows) == 1 and float(rows[0][1]) <= 1e-7 and notes == []
        assert "verdict: success" in lines and code == EXIT_OK
    else:
        assert rows == []
        assert notes == ["note: caccioppoli_identity skipped: cut-off support [-2.0, 2.0] "
                         "does not fit in the window [1.0, 3.0]"]
        assert "verdict: inconclusive" in lines and code == EXIT_FAILS


def test_form_past_the_float_range_is_a_numeric_error(tmp_path, capsys):
    # s = -1e308 on a plateau of width 4: the potential part is about
    # -4e308, which must exit 70 instead of a verdict over nan rows
    coeffs = dict(FREE_COEFFS, s={"breakpoints": [], "pieces": [["-1e308"]]})
    problem = {"task": "form", "coefficients": coeffs,
               "params": {"tests": [{"center": 0, "plateau": 4}]}}
    path = write(tmp_path, "p.json", problem)
    assert main(["form", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "OverflowUnrecoverableError: test function 0" in capsys.readouterr().err


def test_stiff_eig_scan_is_a_numeric_error(tmp_path, capsys):
    # s = 1e30 on [0, 1]: the exact sub-steps of a constant segment would
    # be 1e-15 long, below the 1e-14 floor, so the scan's first shot stops
    # at once instead of looping 1e15 times
    coeffs = dict(FREE_COEFFS, s={"breakpoints": [], "pieces": [["1e30"]]})
    problem = {"task": "eig", "coefficients": coeffs,
               "params": {"interval": [0, 1], "scan": [0, 1], "grid": 3}}
    path = write(tmp_path, "p.json", problem)
    assert main(["eig", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "numeric error: StepUnderflowError" in capsys.readouterr().err


def _eig_on_linear_s(root, a, b):
    """Exit code and report text of one Newton seed on s = a + b x over [0, 1]."""
    coeffs = dict(FREE_COEFFS, s={"breakpoints": [], "pieces": [[a, b]]})
    problem = {"task": "eig", "coefficients": coeffs, "params": {"interval": [0, 1], "seeds": [[2, 0.5]]}}
    path = os.path.join(root, "p.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
    out = os.path.join(root, "out")
    code = main(["eig", "--input", path, "--out", out])
    report = pathlib.Path(out, "report.txt")
    return code, report.read_text(encoding="utf-8") if report.exists() else ""


@pytest.mark.parametrize("slope", [1e300, 1e200])
def test_eig_on_a_steep_linear_field_is_a_numeric_error(tmp_path, capsys, slope):
    # s = slope * x: the Taylor coefficients of the first step overflow, and
    # the shot stops there instead of turning into nan roots
    code, report = _eig_on_linear_s(str(tmp_path), 0, slope)
    said = capsys.readouterr()
    assert code == EXIT_NUMERIC
    assert "numeric error: StepUnderflowError" in said.err
    assert not re.search(r"\bnan\b", said.out + said.err + report)


WIDE_GAUGE = {"Q": {"breakpoints": [], "pieces": [["1e308"]]}, "r": {"breakpoints": [], "pieces": [[[0, "-1e308"]]]}}


@pytest.mark.parametrize("coefficients, side, entry", [
    ({"Q": {"breakpoints": [], "pieces": [[0, "1e200"]]}}, "direct", "entry a21 = s - G1 G2"),
    ({"Q": {"breakpoints": [], "pieces": [[0, "1e200"]]}}, "adjoint", "entry a21 = s - G1 G2"),
    (WIDE_GAUGE, "direct", "entry G1 = Q + i r"),
    (WIDE_GAUGE, "adjoint", "entry G2 = Q - i r"),
], ids=["Q=1e200x", "Q=1e200x-adjoint", "G1-overflows", "G2-of-the-conjugate-overflows"])
def test_system_entries_past_the_float_range_are_a_validation_error(tmp_path, coefficients, side, entry):
    # Q = 1e200 x makes a21 = s - G1 G2 = -1e400 x^2: refused where it is
    # formed, in a child interpreter with the default warning filters, so
    # that a numpy overflow warning would show on its stderr.  The adjoint
    # side assembles the conjugate field (conj s, conj Q, conj r), whose
    # G2 is conj G1 of the field: where G1 overflows, that G2 is named
    problem = {"task": "solve", "coefficients": coefficients, "params": {"to": 1, "side": side}}
    path = write(tmp_path, "p.json", problem)
    argv = [sys.executable, "-m", "qschro.cli", "solve", "--input", path, "--out", str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == f"validation error: {entry} has coefficients outside the float range\n"
    assert not (tmp_path / "out").exists()


LINEAR_MAGNITUDES = st.sampled_from((0, 1e-200, -1e-200, 1, -1, 1e100, -1e100, 1e300, -1e300))


@settings(max_examples=80, deadline=None)
@given(LINEAR_MAGNITUDES, LINEAR_MAGNITUDES)
def test_fuzzed_linear_field_magnitudes_never_give_a_converged_root_without_numbers(a, b):
    with tempfile.TemporaryDirectory() as root:
        code, report = _eig_on_linear_s(root, a, b)
    assert code in (0, 2, 65, 70)
    table = report.split("[table eigenvalues]", 1)[1].split("[/table]")[0] if report else ""
    rows = [dict(zip(table.splitlines()[1].split(","), line.split(","))) for line in table.splitlines()[2:]]
    for row in rows:
        if row["converged"] == "true":
            assert not re.search(r"\b(nan|inf)\b", ",".join(row.values())), row


def test_cli_writes_report_and_trajectory(tmp_path):
    problem = {
        "task": "solve",
        "coefficients": FREE_COEFFS,
        "params": {"from": 0, "to": 2, "lambda": 0, "initial": [0, 1], "dump": True},
    }
    path = write(tmp_path, "p.json", problem)
    out = tmp_path / "out"
    assert main(["solve", "--input", path, "--out", str(out)]) == EXIT_OK
    assert (out / "report.txt").exists()
    csv = (out / "trajectory.csv").read_text().splitlines()
    assert csv[0].startswith("x,y0_re")
    assert len(csv) > 2
    # the last row is the end point, with the report's final state
    final = {k: complex(v.split()[0]) for k, v in (
        line.split(": ", 1) for line in (out / "report.txt").read_text().splitlines()
        if line.startswith("final."))}
    x, y0_re, y0_im, y1_re, y1_im, _ = (float(v) for v in csv[-1].split(","))
    assert (x, complex(y0_re, y0_im), complex(y1_re, y1_im)) == (final["final.x"], final["final.y0"], final["final.y1"])


def test_trajectory_dump_bytes(tmp_path):
    problem = {
        "task": "solve",
        "coefficients": DELTA_COEFFS,
        "params": {"from": -1, "to": 2, "lambda": 0.5, "initial": [1, 0], "dump": True},
    }
    path = write(tmp_path, "p.json", problem)
    out = tmp_path / "out"
    assert main(["solve", "--input", path, "--out", str(out)]) == EXIT_OK
    traj = run_problem(load_problem(path))[2]
    xs = traj.knots.tolist()
    ys, ls = traj.sample(xs)
    rows = [f"{x!r},{y0.real!r},{y0.imag!r},{y1.real!r},{y1.imag!r},{l!r}\n"
            for x, (y0, y1), l in zip(xs, ys.tolist(), ls.tolist())]
    assert len(rows) == len(traj.steps) + 1 > 2
    assert (out / "trajectory.csv").read_bytes() == ("x,y0_re,y0_im,y1_re,y1_im,logscale\n" + "".join(rows)).encode()


SOLVE = {"task": "solve", "coefficients": FREE_COEFFS, "params": {"to": 1}}
EIG = {"task": "eig", "coefficients": FREE_COEFFS, "params": {"interval": [0, 3], "scan": [0.5, 2], "grid": 4}}
BRACKET = {"task": "bracket", "coefficients": FREE_COEFFS, "params": {"window": [0, 1]}}
FORM = {"task": "form", "coefficients": FREE_COEFFS, "params": {"tests": [{"center": 0}]}}
CHECK_A = {"task": "check-a", "coefficients": FREE_COEFFS,
           "params": {"horizon": 20, "m": {"breakpoints": [], "pieces": [[1]]}}}
CHECK_B = {"task": "check-b", "coefficients": FREE_COEFFS,
           "params": {"scheme": {"intervals": [[1, 2, 3], [-1, -3, -2]]}}}
PROBE = {"task": "probe", "coefficients": FREE_COEFFS, "params": {"tmax": 10}}


def edit(problem, path, value):
    """A copy of the problem with the entry at path (a tuple of keys) set."""
    out = copy.deepcopy(problem)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def case(name, problem, field):
    return pytest.param(problem, field, id=name)


@pytest.mark.parametrize(
    "problem, field",
    [
        case("solve-initial-short", edit(SOLVE, ("params", "initial"), [1]), "params.initial"),
        case("solve-initial-number", edit(SOLVE, ("params", "initial"), 5), "params.initial"),
        case("eig-scan-short", edit(EIG, ("params", "scan"), [1]), "params.scan"),
        case("eig-scan-descending", edit(EIG, ("params", "scan"), [2, 0.5]), "params.scan"),
        case("eig-seeds-number", edit(EIG, ("params", "seeds"), 5), "params.seeds"),
        case("eig-grid-list", edit(EIG, ("params", "grid"), [3]), "params.grid"),
        case("eig-bc-left-number", edit(EIG, ("params", "bc"), {"left": 5}), "params.bc.left"),
        case("bracket-u-initial-short", edit(BRACKET, ("params", "u_initial"), [1]), "params.u_initial"),
        case("bracket-samples-list", edit(BRACKET, ("params", "samples"), [2]), "params.samples"),
        case("form-tests-number", edit(FORM, ("params", "tests"), 5), "params.tests"),
        case("check-a-probe-points-number", edit(CHECK_A, ("params", "probe_points"), 5), "params.probe_points"),
        case("check-b-intervals-number", edit(CHECK_B, ("params", "scheme", "intervals"), 5),
             "params.scheme.intervals"),
        case("probe-windows-number", edit(PROBE, ("params", "windows"), 5), "params.windows"),
        case("probe-windows-zero", edit(PROBE, ("params", "windows"), [0, 5, 10]), "params.windows[0]"),
        case("pieces-recentred-overflow",
             edit(FORM, ("coefficients", "s"), {"breakpoints": [-1.5e308, 1.5e308], "pieces": [[0, 2], [1], [0]]}),
             "coefficients.s"),
        case("pieces-number", edit(PROBE, ("coefficients", "s", "pieces"), 5), "coefficients.s.pieces"),
        case("breakpoints-number", edit(PROBE, ("coefficients", "Q", "breakpoints"), 5),
             "coefficients.Q.breakpoints"),
        case("jumps-number", edit(PROBE, ("coefficients", "Q", "jumps"), 5), "coefficients.Q.jumps"),
        case("degree-cap-list", edit(PROBE, ("coefficients", "degree_cap"), [1]), "coefficients.degree_cap"),
        case("output-number", edit(PROBE, ("output",), 5), "output"),
        case("output-subdirectory", edit(PROBE, ("output",), "sub/x.txt"), "output"),
        case("output-parent", edit(PROBE, ("output",), "../x"), "output"),
        case("output-absolute", edit(PROBE, ("output",), "/abs/path"), "output"),
        case("form-support-unread", edit(FORM, ("params", "support"), [-3, 3]), "support"),
        case("form-ramp-overflow", edit(FORM, ("params", "tests"), [{"plateau": 1, "ramp": 1e200}]),
             "params.tests[0]"),
        case("form-ramp-underflow", edit(FORM, ("params", "tests"), [{"plateau": 0, "ramp": 1e-200}]),
             "params.tests[0]"),
        case("eig-grid-fraction", edit(EIG, ("params", "grid"), 1.7), "params.grid"),
        case("eig-grid-one", edit(EIG, ("params", "grid"), 1), "params.grid"),
        case("eig-grid-negative", edit(EIG, ("params", "grid"), -3), "params.grid"),
        case("eig-grid-above-cap", edit(EIG, ("params", "grid"), 10_001), "params.grid"),
        case("eig-grid-huge", edit(EIG, ("params", "grid"), 10**9), "params.grid"),
        case("bracket-samples-zero", edit(BRACKET, ("params", "samples"), 0), "params.samples"),
        case("bracket-samples-above-cap", edit(BRACKET, ("params", "samples"), 10_001), "params.samples"),
        case("solve-dump-over-report",
             edit(edit(SOLVE, ("params", "dump"), True), ("output",), "trajectory.csv"), "output"),
        case("check-b-scheme-degenerate", edit(CHECK_B, ("params", "scheme", "intervals"), [[1, 2, 1], [-1, -3, -2]]),
             "params.scheme: interval 1 is degenerate"),
        case("check-b-scheme-empty", edit(CHECK_B, ("params", "scheme", "intervals"), []),
             "params.scheme: empty interval scheme"),
        case("check-a-m-complex", edit(CHECK_A, ("params", "m", "pieces"), [[[1, 1]]]),
             "params.m: weight function must be real-valued"),
        case("check-a-m-jumps", edit(CHECK_A, ("params", "m"), {"breakpoints": [0], "pieces": [[1], [2]]}),
             "params.m: weight function jumps at x=0.0"),
    ],
)
def test_malformed_input_is_a_named_validation_error(tmp_path, capsys, problem, field):
    path = write(tmp_path, "p.json", problem)
    out = tmp_path / "out"
    code = main([problem["task"], "--input", path, "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and field in err, err
    assert not out.exists() or not any(out.iterdir())



def test_a_refused_verify_bump_is_raised_when_the_family_is_built(monkeypatch):
    # on (-1e16, 1e16) the cut-off's ramp of width 1 rounds to nothing at
    # x = -n - 1: verify builds it with phi and the form tests in one call,
    # which refuses it before the checks that use those run
    from qschro import cli
    from qschro.errors import FamilyMemberError

    calls = []
    monkeypatch.setattr(cli, "lagrange_residual", lambda *args: 0.0)
    monkeypatch.setattr(cli, "bracket_constancy_residual", lambda *args: 0.0)
    monkeypatch.setattr(cli, "product_rule_check",
                        lambda *args: calls.append("product") or {"direct": 0.0, "adjoint": 0.0})
    monkeypatch.setattr(cli, "form_vs_operator_check", lambda c, family, w: calls.append("form") or [0.0] * len(family))
    params = {"window": (-1e16, 1e16), "lambda": 0j}
    with pytest.raises(FamilyMemberError, match="smoothstep needs a < b"):
        field = CoefficientField(*(f for f, _ in cli._functions(FREE_COEFFS, "coefficients")[0].values()))
        cli.run_verify(field, params, cli.Report("verify"))
    assert calls == []


def test_a_verify_whose_cut_off_is_refused_exits_65_without_a_report(tmp_path, capsys):
    problem = {"task": "verify", "coefficients": FREE_COEFFS, "params": {"window": [-1e16, 1e16], "lambda": 0}}
    out = tmp_path / "out"
    assert main(["verify", "--input", write(tmp_path, "p.json", problem), "--out", str(out)]) == EXIT_VALIDATION
    assert "smoothstep needs a < b" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


_BAD_INCREASING = {"breakpoints": [1, 0], "pieces": [[0], [1], [2]]}
_BAD_JUMP = {"breakpoints": [0], "pieces": [[0], [1]], "jumps": [[0, 2]]}
_BAD_CAP = {"breakpoints": [], "pieces": [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]]}
_BAD_OVERFLOW = {"breakpoints": [-1.5e308, 1.5e308], "pieces": [[0, 2], [1], [0]]}
_BAD_CLOSE = {"breakpoints": [0, 1e-13], "pieces": [[0], [1], [2]]}
_BAD_LOCATION = {"breakpoints": [0], "pieces": [[0], [1]], "jumps": [[0.5, 1]]}
_UNREAD = {"breakpoints": [], "pieces": 5}
_GOOD = {"breakpoints": [0], "pieces": [[0], [1]]}


@pytest.mark.parametrize("s, Q, r", [
    (_BAD_INCREASING, _UNREAD, _GOOD),
    (_BAD_JUMP, _UNREAD, _BAD_CAP),
    (_GOOD, _BAD_CAP, _BAD_OVERFLOW),
    (_GOOD, _BAD_CLOSE, _UNREAD),
    (_GOOD, _GOOD, _BAD_OVERFLOW),
    (_BAD_LOCATION, _BAD_CAP, _GOOD),
    (_GOOD, _BAD_JUMP, _BAD_INCREASING),
    ({"pieces": []}, _BAD_CAP, _GOOD),
    (_GOOD, {"breakpoints": [0, "x"]}, _BAD_CAP),
], ids=["s-build-Q-unread", "s-jumps-Q-unread", "Q-cap-r-overflow", "Q-close-r-unread", "r-overflow",
        "s-location-Q-cap", "Q-jumps-r-increasing", "s-pieces-empty", "Q-breakpoint-unread"])
def test_the_coefficients_refusal_is_the_first_of_reading_them_in_turn(tmp_path, capsys, s, Q, r):
    # reference: s, Q and r each read, built and checked in turn
    coefficients = {"s": s, "Q": Q, "r": r, "degree_cap": 8}
    try:
        for k in "sQr":
            _poly(8)(coefficients[k], f"coefficients.{k}")
    except ValidationFailure as exc:
        said = f"validation error: {exc}"
    path = write(tmp_path, "p.json", dict(PROBE, coefficients=coefficients))
    assert main(["probe", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err.strip() == said


@pytest.mark.parametrize("tests, said", [
    ([{}, {"ramp": -1}, {"center": "x"}], "params.tests[1]: ramp width must be positive"),
    ([{}, {"center": "x"}, {"ramp": -1}], "params.tests[1].center: not a finite decimal number: 'x'"),
    ([{"plateau": -1}, {"bogus": 1}], "params.tests[0]: plateau width must be nonnegative"),
    ([{}, {"plateau": 0}, {"bogus": 1}, {"ramp": 0}], "params.tests[2]: unknown keys: ['bogus']"),
    ([{}, 5, {"ramp": -1}], "params.tests[1]: expected an object, got int"),
    ([{}, {}, {"center": 1e20}], "params.tests[2]: smoothstep needs a < b"),
    ([{}, {"ramp": 1e200}, {"ramp": 1e-200}],
     "params.tests[1]: smoothstep ramp of width 1e+200 has coefficients outside the float range"),
    ([], "params.tests: must not be empty"),
    ([{}, {"center": float("inf")}], "params.tests[1].center: not a finite decimal number: inf"),
    ([{}, {"plateau": 1e308, "center": 1e308}], "params.tests[1]: smoothstep needs a < b"),
])
def test_form_tests_name_their_first_bad_member(tmp_path, capsys, tests, said):
    path = write(tmp_path, "p.json", edit(FORM, ("params", "tests"), tests))
    assert main(["form", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {said}\n"


def test_bump_family_reads_each_member_as_the_object_reader_does():
    # params.tests gives the stacked family that reading every member by
    # _obj(BUMP) gives: defaults, integers and decimal strings, and a list
    # of objects of floats, which is taken as it is
    from qschro import cli
    from qschro.coeffs import _stack, bumps

    mixed = [{}, {"center": "0.5"}, {"plateau": 0, "ramp": 2}, {"center": -3, "plateau": 1.5, "ramp": "0.25"},
             {"center": 0.25, "plateau": 0.0, "ramp": 0.75}, {"ramp": 1e-3}]
    floats = [{key: float(val) for key, val in t.items()} for t in mixed]
    for tests in (mixed, floats):
        specs = [cli._obj(cli.BUMP)(t, f"params.tests[{i}]") for i, t in enumerate(tests)]
        want = _stack(bumps(*([spec[key] for spec in specs] for key in cli.BUMP)))
        got = cli._bumps(tests, "params.tests")
        assert len(got) == len(want) == 4
        assert got[3].tolist() == [0, 5, 10, 14, 19, 23, 28]  # no plateau region in members 2 and 4
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_a_refused_command_line_leaves_the_next_run_as_it_was(tmp_path, capsys):
    path = write(tmp_path, "p.json", FORM)
    out = tmp_path / "out"
    assert main(["form", "--input", path, "--out", str(out)]) == EXIT_OK
    first = strip_metadata((out / "report.txt").read_text(encoding="utf-8"))
    # a usage error exits 64, the parse error's code, not argparse's 2,
    # which a failed check uses
    with pytest.raises(SystemExit) as refused:
        main(["form", "--out", str(out)])
    assert refused.value.code == 64
    assert "the following arguments are required: --input" in capsys.readouterr().err
    with pytest.raises(SystemExit) as refused:
        main(["form", "--input", path, "--bogus", "1"])
    assert refused.value.code == 64
    assert "unrecognized arguments: --bogus 1" in capsys.readouterr().err
    assert main(["form", "--input", path, "--out", str(out)]) == EXIT_OK
    assert strip_metadata((out / "report.txt").read_text(encoding="utf-8")) == first
    with pytest.raises(SystemExit) as helped:
        main(["form", "--help"])
    assert helped.value.code == 0


def _src_env():
    """The environment of a child interpreter that imports this qschro."""
    import qschro

    src = os.path.dirname(os.path.dirname(os.path.abspath(qschro.__file__)))
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def test_importing_the_cli_leaves_argparse_unimported():
    code = "import sys, qschro.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, code, said", [
    (["--help"], EXIT_OK, None),
    (["-h"], EXIT_OK, None),
    ([], EXIT_PARSE, "the following arguments are required: TASK"),
    (["frobnicate", "--input", "{path}"], EXIT_PARSE, "invalid task 'frobnicate'"),
    (["--input", "{path}", "form"], EXIT_PARSE, "invalid task '--input'"),
    (["form", "--input", "{path}", "--input", "{path}"], EXIT_PARSE, "argument --input: given more than once"),
    (["form", "--input", "{path}", "--out={out}", "--out", "{out}"], EXIT_PARSE,
     "argument --out: given more than once"),
    (["form", "--input"], EXIT_PARSE, "argument --input: expected one argument"),
    (["form", "--input", "--out", "{out}"], EXIT_PARSE, "argument --input: expected one argument"),
    (["form", "--input", "{path}", "--out"], EXIT_PARSE, "argument --out: expected one argument"),
    (["form", "--inp", "{path}"], EXIT_PARSE, "the following arguments are required: --input"),
    (["form", "--input", "{path}", "extra"], EXIT_PARSE, "unrecognized arguments: extra"),
], ids=["help", "h", "no-task", "unknown-task", "flag-before-task", "repeated-input", "repeated-out",
        "input-without-value", "input-followed-by-a-flag", "out-without-value", "abbreviated-flag",
        "stray-word"])
def test_the_argv_reader_refuses_misuse_with_the_usage_and_exit_64(tmp_path, capsys, argv, code, said):
    path, out = write(tmp_path, "p.json", FORM), str(tmp_path / "out")
    with pytest.raises(SystemExit) as exited:
        main([a.format(path=path, out=out) for a in argv])
    assert exited.value.code == code
    captured = capsys.readouterr()
    if said is None:
        assert captured.out.startswith("usage: qschro TASK --input FILE [--out DIR]\n") and captured.err == ""
        assert all(task in captured.out for task in PARAMS)
    else:
        assert captured.err.startswith(f"usage: qschro TASK --input FILE [--out DIR]\nqschro: error: {said}")
        assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_input_and_out_take_their_value_after_an_equals_sign(tmp_path):
    path = write(tmp_path, "p.json", FORM)
    assert main(["form", "--input", path, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["form", f"--input={path}", f"--out={tmp_path / 'b'}"]) == EXIT_OK
    a, b = (strip_metadata((tmp_path / d / "report.txt").read_text(encoding="utf-8")) for d in "ab")
    assert a == b


# Walks that once ran out of memory or time: each needs far more than
# config.MAX_WALK_STEPS sub-steps, so its first shot or integration stops
# at once with exit 70.  The child runs under a 1 GiB address-space limit,
# so that a walk without the budget fails fast too, and reports its peak
# RSS as VmHWM, which starts afresh at exec (ru_maxrss would carry the
# test process's RSS at fork across the exec).
_LONG_WALKS = {
    "solve-to-1e6": ("solve", FREE_COEFFS, {"to": 1e6, "lambda": 1}),
    "probe-tmax-1e6": ("probe", FREE_COEFFS, {"lambda": -1, "tmax": 1e6}),
    "verify-1e10": ("verify", DELTA_COEFFS, {"window": [-1e10, 1e10]}),
    "eig-1e9": ("eig", FREE_COEFFS, {"interval": [0, 1e9], "scan": [1, 10], "grid": 5}),
}
_BUDGETED_CHILD = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qschro.cli import main
t = time.perf_counter()
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(code, time.perf_counter() - t, peak_kb / 1024)
"""


@pytest.mark.parametrize("case", list(_LONG_WALKS))
def test_a_walk_past_its_step_budget_is_a_numeric_error(tmp_path, case):
    task, coeffs, params = _LONG_WALKS[case]
    path = write(tmp_path, "p.json", {"task": task, "coefficients": coeffs, "params": params})
    argv = [task, "--input", path, "--out", str(tmp_path / "out")]
    try:
        proc = subprocess.run([sys.executable, "-c", _BUDGETED_CHILD, *argv], capture_output=True, text=True,
                              env=_src_env(), timeout=10)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{case} still ran after 10 s")
    assert "numeric error: StepBudgetError: walk needs more than 100000 steps" in proc.stderr, proc.stderr[-2000:]
    code, seconds, rss_mb = proc.stdout.split()[-3:]
    assert int(code) == EXIT_NUMERIC
    # about 0.001 s and 31 MB on an x86-64 Xeon; the bounds leave room for a busy machine
    assert float(seconds) < 5 and float(rss_mb) < 300


# Fuzz: small valid files, one or two mutations each.  Values come from a
# fixed pool of small leaves, so no mutation can make a run expensive.
FUZZ_BASES = (
    {"task": "solve", "coefficients": dict(FREE_COEFFS, degree_cap=3), "output": "r.txt",
     "params": {"from": 0, "to": 1, "lambda": [-1, 0], "side": "direct", "initial": [1, 0], "dump": True}},
    {"task": "bracket", "coefficients": DELTA_COEFFS,
     "params": {"window": [-1, 1], "lambda": -1, "u_initial": [1, 0], "v_initial": [0, 1], "samples": 5}},
    {"task": "form", "coefficients": DELTA_COEFFS,
     "params": {"tests": [{"center": 0, "plateau": 1, "ramp": 1}], "sector": 1.5}},
    {"task": "check-b", "coefficients": FREE_COEFFS,
     "params": {"scheme": {"delta": 1, "intervals": [[1, 2, 3], [-1, -3, -2]]}}},
    {"task": "probe", "coefficients": DELTA_COEFFS, "params": {"lambda": -1, "tmax": 10, "windows": [5, 10]}},
)
POOL = (None, True, -1, 0, 1.5, "x", "1", [], [1], {}, {"k": 1})


def tree_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from tree_paths(child, path + (key,))


def mutate(problem, data):
    path = data.draw(st.sampled_from(list(tree_paths(problem))))
    value = copy.deepcopy(data.draw(st.sampled_from(POOL)))
    op = data.draw(st.sampled_from(("replace", "drop", "add")))
    if not path:
        return dict(problem, extra=value) if op == "add" and isinstance(problem, dict) else value
    parent = problem
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    elif op == "add" and isinstance(parent[path[-1]], dict):
        parent[path[-1]]["extra"] = value
    else:
        parent[path[-1]] = value
    return problem


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzzed_problem_files_never_traceback(data):
    base = data.draw(st.sampled_from(FUZZ_BASES))
    problem = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        problem = mutate(problem, data)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "in", "p.json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        out = os.path.join(root, "out", "o")
        code = main([base["task"], "--input", path, "--out", out])
        assert code in (0, 2, 64, 65, 70)
        written = [os.path.join(d, f) for d, _, files in os.walk(root) for f in files]
        assert all(os.path.dirname(f) == out for f in written if f != path), written


# Magnitudes from the smallest to the largest float scale: the cost of a
# form task does not depend on them, so any of them is cheap to run.
MAGNITUDES = st.sampled_from((0, 1e-200, -1e-200, 1e-100, -1e-100, 1, -1, 1e100, -1e100,
                              1e200, -1e200, 1e308, -1e308))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({"center": MAGNITUDES, "plateau": MAGNITUDES, "ramp": MAGNITUDES}),
       st.tuples(MAGNITUDES, MAGNITUDES, MAGNITUDES))
@example({"center": 1e100, "plateau": 0, "ramp": 1e100}, (0, -1e308, 1e-200))  # arg w underflows
def test_fuzzed_form_magnitudes_never_give_a_verdict_without_numbers(test, field):
    coeffs = {k: {"breakpoints": [], "pieces": [[v]]} for k, v in zip("sQr", field)}
    problem = {"task": "form", "coefficients": coeffs, "params": {"tests": [test]}}
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "p.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        out = os.path.join(root, "out")
        code = main(["form", "--input", path, "--out", out])
        assert code in (0, 2, 65, 70)
        if code in (0, 2):
            report = pathlib.Path(out, "report.txt").read_text(encoding="utf-8")
            if "verdict: holds-on-sample" in report:
                assert not re.search(r"\b(nan|inf)\b", report), report


def test_breakpoints_near_the_float_limit_run_without_warnings(tmp_path):
    s = {"breakpoints": [-1.5e308, 1.5e308], "pieces": [[0], [1], [0]]}
    path = write(tmp_path, "p.json", edit(FORM, ("coefficients", "s"), s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["form", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")
    assert not re.search(r"\b(nan|inf|infinity)\b", report, re.IGNORECASE)


def test_readme_tables_list_the_params_keys():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for task, spec in PARAMS.items():
        section = readme.split(f"\n\n`{task}`", 1)[1].split("\n\n", 2)[1]
        keys = {k.strip(" `") for row in section.splitlines()[2:] for k in row.split("|")[1].split(",")}
        assert keys == set(spec), task


def test_table_cells_are_formatted_as_fmt_formats_them():
    import numpy as np

    from qschro.cli import Report, _fmt

    row = [
        True, False, np.bool_(True), np.bool_(False), np.float64(0.1), np.float64(-0.0),
        np.int64(-7), -0.0, math.nan, math.inf, -math.inf, complex(1.5, 0.0), complex(0.5, -2.0),
        np.complex128(3.0), None, "left", 2.5, 10**20, 0,
    ]
    rep = Report("form")
    rep.table("cells", [f"c{i}" for i in range(len(row))], [row, row[::-1]], source="test")
    assert rep.lines[-3:-1] == [",".join(map(_fmt, row)), ",".join(map(_fmt, row[::-1]))]
    assert rep.lines[-3].split(",")[:2] == ["true", "false"]


def test_breakpoints_closer_than_the_merge_tolerance_are_a_validation_error(tmp_path, capsys):
    # s = 100 on [0.5, 0.5 + 1e-13]: a merge would drop one breakpoint and
    # the spike with it, while [problem] echoed both
    coeffs = dict(FREE_COEFFS, s={"breakpoints": [0.5, 0.5 + 1e-13], "pieces": [[0], [100], [0]]})
    problem = {"task": "solve", "coefficients": coeffs,
               "params": {"from": 0, "to": 1, "lambda": 0, "initial": [0, 1]}}
    path = write(tmp_path, "p.json", problem)
    assert main(["solve", "--input", path, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "0.5 and 0.5000000000001 are closer than the merge tolerance" in err
    assert not (tmp_path / "out").exists()
