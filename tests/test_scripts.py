"""Smoke runs of the experiment scripts under ``scripts/``: each exits 0 on a
small dataset and prints its table or ratio lines."""

import os
import subprocess
import sys
from pathlib import Path

import attnalign

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    src = str(Path(attnalign.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_ablation_suite(tmp_path):
    lines = run_script("ablation_suite.py", "--train", "16", "--test", "4",
                       "--epochs", "1", cwd=tmp_path)
    assert lines[0].split() == ["variant", "coverage", "intensity", "accuracy",
                                "L_llm", "L_align"]
    assert [line.split()[0] for line in lines[1:]] == \
        ["full", "no-qmoe", "no-kmoe", "no-a3moe"]
    for line in lines[1:]:
        [float(v) for v in line.split()[1:]]


def test_head_and_lambda_sweeps(tmp_path):
    out = tmp_path / "sweeps"
    lines = run_script("head_and_lambda_sweeps.py", "--train", "16", "--test", "4",
                       "--epochs", "1", "--out-dir", str(out), cwd=tmp_path)
    assert f"R sweep -> {out / 'r_sweep.csv'}" in lines
    assert f"lambda sweep -> {out / 'lambda_sweep.csv'}" in lines
    for name, n_values in (("r_sweep.csv", 6), ("lambda_sweep.csv", 4)):
        rows = (out / name).read_text().splitlines()
        assert rows[0] == "param,value,coverage,intensity,accuracy,L_llm,L_align"
        assert len(rows) == 1 + n_values


def test_alignment_vs_baseline(tmp_path):
    lines = run_script("alignment_vs_baseline.py", "--epochs", "1", cwd=tmp_path)
    assert lines[0].startswith("lambda=0.0: coverage=")
    assert lines[1].startswith("lambda=0.1: coverage=")
    for prefix in ("coverage ratio", "intensity ratio", "accuracy delta"):
        assert any(line.startswith(prefix) for line in lines)
