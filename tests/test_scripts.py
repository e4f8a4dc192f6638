"""The experiment scripts in scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_coverage_study_runs():
    proc = run_script("run_coverage_study.py", 300, 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=300 reps=20 ")
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == ["class", "stratum", "pu"]


def test_analytic_curves_runs(tmp_path):
    proc = run_script("run_analytic_curves.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "results.json").exists()
    assert len(list((tmp_path / "curves").glob("excess_*.csv"))) == 5
