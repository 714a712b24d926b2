"""Problem-file validation, exit codes, report determinism, round-trips."""

import json
import math

import pytest

from qschro.cli import (
    EXIT_FAILS,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ValidationFailure,
    load_problem,
    main,
    run_problem,
)

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
    table = [l for l in text.splitlines() if l.startswith("-0.9999")]
    assert table, text
    lam = float(table[0].split(",")[0])
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
