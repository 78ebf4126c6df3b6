"""A search run through the CLI alone: ``gen-synth``, a pure-noise scorer
plugged in through ``external_scores``, ``search`` and ``report``. Every
run's ``report.json`` ranks each scorer of its menu alone next to the
searched ensemble, and log levels change no byte of a run."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from weakrank.cli import main
from weakrank.corpus import Corpus
from weakrank.scores import ScoreMatrix

ROOT = Path(__file__).resolve().parents[1]
SCORERS = ["bm25", "text-embedding", "graph-proximity-1", "graph-proximity-2"]


def _sandbox(root: Path) -> None:
    """A 12 x 120 planted corpus, a noise CSV and a configuration, all at
    paths relative to ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    assert main(["-q", "gen-synth", "--queries", "12", "--candidates", "120", "--topics", "6",
                 "--vocab-per-topic", "400", "--doc-len", "16", "--seed", "2026",
                 "--out", str(root / "data")]) == 0
    corpus = Corpus.load(root / "data" / "corpus.json")
    noise = np.random.default_rng(0).random((len(corpus.query_ids), len(corpus.candidate_ids)))
    ScoreMatrix("noise", corpus.query_ids, corpus.candidate_ids, noise).save_csv(
        root / "data" / "noise.csv")
    (root / "exp.cfg").write_text(
        "corpus=data/corpus.json\nannotations=data/annotations.tsv\noutput_dir=run\n"
        f"unsup_models={','.join(SCORERS)}\nexternal_scores=noise=data/noise.csv\n"
        "sup_models=representation,interaction\nk_values=5,10\nepisodes=2\n"
        "episode_sup_epochs=1\nfinal_sup_epochs=2\nbackbone_epochs=2\nbackbone_dim=8\n"
        "hp.graph-proximity-1.dim=8\nhp.graph-proximity-1.epochs=5\n"
        "hp.graph-proximity-2.dim=8\nhp.graph-proximity-2.epochs=5\n")


def test_search_reports_every_scorer_of_the_menu_alone(tmp_path, monkeypatch, capsys):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["episodes_run"] == 2
    assert list(report["baselines"]) == sorted(SCORERS + ["noise"])
    for value in report["baselines"].values():
        assert set(value) == {"validation", "test"}
        assert all(math.isfinite(v) and 0.0 < v <= 1.0 for v in value.values())
    capsys.readouterr()

    assert main(["report", "--run", "run"]) == 0
    rows = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()
            if line and line.split()[0] in report["baselines"]}
    assert rows == {name: [f"{value['validation']:.4f}", f"{value['test']:.4f}"]
                    for name, value in report["baselines"].items()}


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs",
                                                  ROOT / "scripts" / "compare_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_log_level_changes_no_byte_of_the_run(tmp_path, monkeypatch, caplog, capsys,
                                                  compare_runs):
    """The per-episode progress lines go to the log alone: a run logged at
    INFO and one logged at WARNING hold the same bytes."""
    for level in ("INFO", "WARNING"):
        _sandbox(tmp_path / level)
        monkeypatch.chdir(tmp_path / level)
        caplog.clear()
        with caplog.at_level(level, logger="weakrank"):
            assert main(["search", "--config", "exp.cfg"]) == 0
        progress = [r for r in caplog.records if " episodes: R " in r.getMessage()]
        assert len(progress) == (2 if level == "INFO" else 0)
    capsys.readouterr()
    assert compare_runs.main([str(tmp_path / "INFO" / "run"),
                              str(tmp_path / "WARNING" / "run")]) == 0
