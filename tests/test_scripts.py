"""Smoke runs of the experiment scripts on small inputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "code_distance_study.py": ["--n-list", "4,6", "--instances", "2"],
    "decoder_comparison.py": ["--n-list", "4,6", "--instances", "1", "--samples", "20"],
    "degree_sweep.py": ["--n-list", "4,6", "--instances", "1", "--samples", "20"],
    "gate_count_scaling.py": ["--n-list", "4,8", "--instances", "1"],
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script, tmp_path):
    out = tmp_path / "out.csv"
    argv = [sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script], "-o", str(out)]
    if script == "decoder_comparison.py":
        argv += ["--aggregate-out", str(tmp_path / "agg.csv")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out.read_text().splitlines()[0].startswith("n_cars,")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["output"] == str(out)
    if script == "decoder_comparison.py":
        assert (tmp_path / "agg.csv").read_text().startswith("n_cars,decoder,mode,metric,mean,std")
