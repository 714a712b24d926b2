"""The package runs on numpy alone; scipy is a reference of the tests only."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


def test_cli_tasks_load_no_scipy(tmp_path):
    # a fresh interpreter runs check-a and eig through the CLI: no scipy
    # module may be imported, at start-up or on the way
    runs = [("check-a", str(PROBLEMS / "check_a_linear_drift.json")),
            ("eig", str(PROBLEMS / "delta_well_eig.json"))]
    code = (
        "import json, sys\n"
        "from qschro.cli import main\n"
        f"codes = [main([task, '--input', path, '--out', {str(tmp_path)!r}]) for task, path in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []


def test_package_source_does_not_mention_scipy():
    files = sorted((ROOT / "src" / "qschro").rglob("*.py"))
    assert files
    assert [f.name for f in files if "scipy" in f.read_text(encoding="utf-8")] == []
