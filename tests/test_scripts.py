"""The experiment scripts in scripts/ run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

from test_experiment import tree_digest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def test_coverage_study_runs():
    proc = run_script("run_coverage_study.py", 300, 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=300 reps=20 ")
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == ["class", "stratum", "pu"]


def test_strata_shift_seed_7_tree_is_pinned(tmp_path):
    """The script's seed-7 tree, written under a relative out_dir so the
    echoed spec does not depend on tmp_path, keeps its bytes (digest
    taken with numpy 2.4 and OpenBLAS, as TestEmittedBytes)."""
    proc = run_script("run_strata_shift.py", "out", 7, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert tree_digest(tmp_path / "out") == (
        "622d1cba211d2dee32f85926f44c6e0bcaed499c85e299ce66011036167d279d"
    )


def test_count_src_lines_parts_sum_to_wc(tmp_path):
    """Each module of src/werm/*.py gets a line of its code, docstring,
    comment and blank counts, which sum to its newline count; the module
    lines sum to the total line, and a file of each kind is split as
    written."""
    proc = run_script("count_src_lines.py")
    assert proc.returncode == 0, proc.stderr
    pattern = r"(\S+) (\d+) = (\d+) code \+ (\d+) doc \+ (\d+) comment \+ (\d+) blank"
    rows = [re.fullmatch(pattern, line).groups() for line in proc.stdout.splitlines()]
    names, counts = [r[0] for r in rows], [[int(v) for v in r[1:]] for r in rows]
    src = sorted((ROOT / "src" / "werm").glob("*.py"))
    assert names == [p.name for p in src] + ["wc"]
    for (wc, *parts), path in zip(counts, src):
        assert wc == path.read_bytes().count(b"\n") == sum(parts)
    assert [sum(column) for column in zip(*counts[:-1])] == counts[-1]
    (tmp_path / "m.py").write_text(
        '"""Doc\n\nstring."""\n\n# comment\nx = 1  # code\n\ndef f():\n    """One."""\n')
    assert run_script("count_src_lines.py", tmp_path).stdout == (
        "m.py 9 = 2 code + 4 doc + 1 comment + 2 blank\n"
        "wc 9 = 2 code + 4 doc + 1 comment + 2 blank\n")
