"""Smoke runs of the example scripts on tiny corpora: each runs end to end
through the public API and writes what it says it writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

from weakrank.corpus import save_annotations_tsv
from weakrank.synthetic import generate_synthetic

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


def test_run_ablations(tmp_path):
    corpus, annotations = generate_synthetic(12, 60, 3, 8, 12, 0.2, seed=1)
    corpus.save(tmp_path / "corpus.json")
    save_annotations_tsv(tmp_path / "annotations.tsv", annotations)
    config = tmp_path / "run.cfg"
    config.write_text("\n".join([
        f"corpus={tmp_path / 'corpus.json'}",
        f"annotations={tmp_path / 'annotations.tsv'}",
        "unsup_models=bm25,text-embedding",
        "sup_models=representation",
        "k_values=5,10",
        "episodes=2",
        "episode_sup_epochs=1",
        "final_sup_epochs=1",
        "backbone_dim=8",
        "backbone_epochs=1",
        "eval_negatives=20",
        "workers=1",
    ]) + "\n")
    out = tmp_path / "ablations"
    stdout = _run("run_ablations.py", "--config", str(config), "--mode", "fix-k",
                  "--out", str(out))
    assert [line.split("best_reward")[0].strip() for line in stdout.splitlines()] == [
        "k=  5", "k= 10"]
    for k in (5, 10):
        report = json.loads((out / "fix-k" / f"k_{k}" / "report.json").read_text())
        assert report["best_config"]["k"] == k
    stdout = _run("run_ablations.py", "--config", str(config), "--mode", "fix-unsup",
                  "--out", str(out))
    assert [line.split()[0] for line in stdout.splitlines()] == ["bm25", "text-embedding"]
