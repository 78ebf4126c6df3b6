"""Smoke runs of the example scripts on tiny corpora: each runs end to end
through the public API and writes what it says it writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_synthetic_search(tmp_path):
    out = tmp_path / "synthetic"
    stdout = _run("run_synthetic_search.py", "--out", str(out), "--queries", "12",
                  "--candidates", "120", "--episodes", "2")
    baselines = json.loads((out / "baselines.json").read_text())
    assert set(baselines) == {"bm25", "text-embedding", "graph-proximity-1",
                              "graph-proximity-2", "noise"}
    assert all(0.0 < v <= 1.0 for v in baselines.values())
    report = json.loads((out / "search" / "report.json").read_text())
    assert report["episodes_run"] == 2
    assert "searched test metrics" in stdout
