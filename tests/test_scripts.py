import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(path):
    path_var = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path_var)
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_closed_form_timings_compares_trees_in_one_process():
    src = str(ROOT / "src")
    argv = [sys.executable, str(ROOT / "scripts" / "closed_form_timings.py"), "--rounds", "1"]
    proc = subprocess.run(argv + ["--src", src, "--src", src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == [f"tree 0: {src}", f"tree 1: {src}"]
    rows = [line.split() for line in lines if line.split()[:1] == ["16"]]
    # one row per tree for each pair kind; only tree 1's carry the two ratios
    assert [row[2] for row in rows] == ["0", "1"] * 5
    for row in rows[1::2]:
        assert len(row) == 11 and all(float(row[k]) > 0 for k in (6, 10))
