"""``weakrank score`` serves exactly the rankers a search selected and trained."""

import json

import numpy as np
import pytest

import weakrank.trainer as trainer
from weakrank.cli import main
from weakrank.corpus import Corpus, save_annotations_tsv, split_annotations
from weakrank.scores import ScoreMatrix
from weakrank.synthetic import generate_synthetic


def _sandbox(root, **keys):
    """A small corpus, pre-split annotations, one external scorer and a config
    whose paths are relative to ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    corpus, ann = generate_synthetic(
        n_queries=12, n_candidates=60, n_topics=3, vocab_per_topic=8,
        doc_len=14, noise_rate=0.1, seed=5,
    )
    corpus.save(root / "corpus.json")
    val, test = split_annotations(ann, seed=1)
    save_annotations_tsv(root / "val.tsv", val)
    save_annotations_tsv(root / "test.tsv", test)
    positives = {(q, c) for q, c, y in ann.pairs if y == 1}
    jitter = np.random.default_rng(8).random((len(corpus.queries), len(corpus.candidates)))
    good = np.array([[1.0 if (q, c) in positives else 0.0 for c in corpus.candidate_ids]
                     for q in corpus.query_ids]) * 0.5 + 0.5 * jitter
    ScoreMatrix("good", tuple(corpus.query_ids), tuple(corpus.candidate_ids),
                good).save_csv(root / "good.csv")
    lines = {
        "corpus": "corpus.json", "val_annotations": "val.tsv", "test_annotations": "test.tsv",
        "output_dir": "run", "unsup_models": "", "external_scores": "good=good.csv",
        "sup_models": "representation,interaction", "k_values": "5", "episodes": "2",
        "episode_sup_epochs": "1", "final_sup_epochs": "2", "backbone_epochs": "1",
        "backbone_dim": "8", "eval_negatives": "19", "seed": "3", **keys,
    }
    (root / "exp.cfg").write_text("".join(f"{k}={v}\n" for k, v in lines.items()))
    return Corpus.load(root / "corpus.json")


@pytest.fixture
def trained(monkeypatch):
    """Every final model's full score matrix, by name, as the search saves it."""
    matrices = {}
    save = trainer.save_checkpoint

    def recording_save(model, path, **kwargs):
        corpus = model.backbone.corpus
        matrices[model.spec.name] = np.array([
            model.score_pairs(q, corpus.candidate_ids) for q in corpus.query_ids])
        save(model, path, **kwargs)

    monkeypatch.setattr(trainer, "save_checkpoint", recording_save)
    return matrices


def _served(root, corpus, *extra):
    assert main(["score", "--run", "run", "--out", "scores.tsv", *extra]) == 0
    rows = [line.split("\t") for line in (root / "scores.tsv").read_text().splitlines()]
    assert [(q, c) for q, c, _ in rows] == [
        (q, c) for q in corpus.query_ids for c in corpus.candidate_ids]
    return np.array([float(s) for _, _, s in rows]).reshape(len(corpus.query_ids), -1)


def _ensemble(matrices):
    scaled = [(m - m.min(axis=1, keepdims=True))
              / (m.max(axis=1, keepdims=True) - m.min(axis=1, keepdims=True))
              for m in matrices]
    return np.mean(scaled, axis=0)


def test_serves_only_the_selected_rankers(tmp_path, monkeypatch, trained):
    corpus = _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    fix = ["ablate", "--config", "exp.cfg", "--mode", "fix-sup", "--fixed"]
    assert main(fix + ["representation,interaction"]) == 0
    # a rerun into the same directory selects one ranker and leaves the
    # other's checkpoint from the first run behind
    trained.clear()
    assert main(fix + ["representation"]) == 0
    assert json.loads((tmp_path / "run" / "best_config.json").read_text())["I3"] == [1, 0]
    assert (tmp_path / "run" / "checkpoints" / "interaction.ckpt").exists()
    assert set(trained) == {"representation"}
    served = _served(tmp_path, corpus)
    assert np.max(np.abs(served - _ensemble([trained["representation"]]))) <= 1e-12


def test_refuses_checkpoints_of_another_configuration(tmp_path, monkeypatch, capsys):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    assert main(["score", "--run", "run", "--out", "ok.tsv"]) == 0
    capsys.readouterr()
    assert main(["score", "--run", "run", "--out", "bad.tsv", "--set", "seed=4"]) == 2
    assert "configuration hash" in capsys.readouterr().err
    assert not (tmp_path / "bad.tsv").exists()


def test_graph_ranker_served_from_the_pretrain_seed(tmp_path, monkeypatch, trained):
    # a sample of two neighbours per node, so the sampling seed matters
    corpus = _sandbox(tmp_path, sup_models="graph-aggregation", graph_sample_size="2",
                      pretrain_seed="8")
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    served = _served(tmp_path, corpus)
    assert np.max(np.abs(served - _ensemble([trained["graph-aggregation"]]))) <= 1e-12
