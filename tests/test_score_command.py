"""``weakrank score`` serves exactly the rankers a search selected and
trained, under the configuration its run recorded."""

import json
from pathlib import Path

import numpy as np
import pytest

import weakrank.cli as cli
import weakrank.trainer as trainer
from weakrank.cli import main
from weakrank.config import ExperimentConfig
from weakrank.corpus import Corpus, load_annotations_tsv, save_annotations_tsv, split_annotations
from weakrank.ioutil import derive_seed
from weakrank.metrics import all_metrics, build_eval_lists, score_lists_with_matrix
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


def _served(root, corpus):
    assert main(["score", "--run", "run", "--out", "scores.tsv"]) == 0
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


def test_serves_the_ensemble_the_search_scored(tmp_path, monkeypatch):
    """Ranked at the run's validation and test lists, drawn with the seeds
    ``joint_train`` draws them with, the TSV served for a pick of two
    rankers gives exactly the metrics ``report.json`` records."""
    corpus = _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["ablate", "--config", "exp.cfg", "--mode", "fix-sup",
                 "--fixed", "representation,interaction"]) == 0
    run = tmp_path / "run"
    assert json.loads((run / "best_config.json").read_text())["I3"] == [1, 1]
    served = ScoreMatrix("served", corpus.query_ids, corpus.candidate_ids,
                         _served(tmp_path, corpus))
    report = json.loads((run / "report.json").read_text())
    config = ExperimentConfig.from_file(run / "config.cfg").to_run_config()
    for split, path, label in (("validation", "val.tsv", "val-lists"),
                               ("test", "test.tsv", "test-lists")):
        lists = build_eval_lists(load_annotations_tsv(tmp_path / path), corpus,
                                 seed=derive_seed(config.effective_pretrain_seed, label),
                                 n_negatives=config.eval_negatives)
        assert all_metrics(score_lists_with_matrix(lists, served)) == report[split]


def _edit(run, key, value, rehash=False):
    """Set ``key`` in the run's ``config.cfg``; with ``rehash``, record the
    edited configuration's hash in ``manifest.json`` too, as a later run into
    the same directory would before writing its own checkpoints."""
    path = run / "config.cfg"
    lines = path.read_text().splitlines()
    assert sum(line.startswith(f"{key}=") for line in lines) == 1
    path.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n"
                            for line in lines))
    if rehash:
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["config_hash"] = ExperimentConfig.from_file(path).content_hash()
        (run / "manifest.json").write_text(json.dumps(manifest))


def test_refuses_checkpoints_of_another_configuration(tmp_path, monkeypatch, capsys):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    assert main(["score", "--run", "run", "--out", "ok.tsv"]) == 0
    capsys.readouterr()
    _edit(tmp_path / "run", "seed", "4", rehash=True)
    assert main(["score", "--run", "run", "--out", "bad.tsv"]) == 2
    assert "was written under configuration hash" in capsys.readouterr().err
    assert not (tmp_path / "bad.tsv").exists()


def test_score_takes_no_configuration_override(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["score", "--run", "run", "--out", "scores.tsv", "--set", "seed=4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --set seed=4" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("graph_sample_size", "5"), ("pretrain_seed", "9"),
                                       ("seed", "4")])
def test_refuses_an_edited_configuration_before_the_corpus(tmp_path, monkeypatch, capsys,
                                                          key, value):
    """An edit to ``config.cfg`` after the run, whether or not it changes
    what would be served, exits 2 before the corpus or a checkpoint is read."""
    _sandbox(tmp_path, sup_models="graph-aggregation", graph_sample_size="2",
             pretrain_seed="8")
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    capsys.readouterr()
    _edit(tmp_path / "run", key, value)
    monkeypatch.setattr(cli, "load_checkpoint", lambda *a, **k: pytest.fail("read a checkpoint"))
    monkeypatch.setattr(Corpus, "load", lambda *a, **k: pytest.fail("read the corpus"))
    assert main(["score", "--run", "run", "--out", "bad.tsv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: run/config.cfg does not hash to the configuration "
                          "hash") and err.strip().endswith("it was edited after the run")
    assert not (tmp_path / "bad.tsv").exists()


def test_graph_ranker_served_from_the_pretrain_seed(tmp_path, monkeypatch, trained):
    # a sample of two neighbours per node, so the sampling seed matters
    corpus = _sandbox(tmp_path, sup_models="graph-aggregation", graph_sample_size="2",
                      pretrain_seed="8")
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    served = _served(tmp_path, corpus)
    assert np.max(np.abs(served - _ensemble([trained["graph-aggregation"]]))) <= 1e-12


def test_refuses_a_value_outside_its_rule_before_reading_a_checkpoint(tmp_path, monkeypatch,
                                                                      capsys):
    """A ``config.cfg`` value that breaks a rule exits 2 before ``score``
    reads the manifest, the corpus or any checkpoint, and writes no TSV."""
    run = tmp_path / "run"
    run.mkdir()
    ExperimentConfig(corpus=str(tmp_path / "no-corpus.json"),
                     hp={"graph-walk": {"dim": 0}}).save(run / "config.cfg")
    monkeypatch.setattr(cli, "load_checkpoint", lambda *a, **k: pytest.fail("read a checkpoint"))
    monkeypatch.setattr(Corpus, "load", lambda *a, **k: pytest.fail("read the corpus"))
    out = tmp_path / "scores.tsv"
    assert not (run / "manifest.json").exists()
    assert main(["score", "--run", str(run), "--out", str(out)]) == 2
    line = (run / "config.cfg").read_text().splitlines().index("hp.graph-walk.dim=0") + 1
    assert capsys.readouterr().err.strip() == (
        f"error: ValueError: {run / 'config.cfg'}:{line}: hp.graph-walk.dim: model 'graph-walk' "
        "takes an integer >= 1 for 'dim', not 0")
    assert not out.exists()


def test_refuses_a_hyperparameter_the_model_does_not_declare(tmp_path, monkeypatch, capsys):
    """``score`` checks the ``hp.`` keys of a run's ``config.cfg`` as a
    search does, before its hash: earlier versions served and ignored them."""
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--config", "exp.cfg"]) == 0
    capsys.readouterr()
    config = tmp_path / "run" / "config.cfg"
    line = len(config.read_text().splitlines()) + 1
    expected = (f"error: ValueError: {Path('run') / 'config.cfg'}:{line}: "
                "hp.representation.hiden: model 'representation' has no "
                "hyperparameter 'hiden' (accepted keys: hidden, lr)")
    with open(config, "a", encoding="utf-8") as fh:
        fh.write("hp.representation.hiden=64\n")
    assert main(["score", "--run", "run", "--out", "bad.tsv"]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert not (tmp_path / "bad.tsv").exists()


def test_a_short_checkpoint_is_refused_by_name(tmp_path, monkeypatch, capsys):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["ablate", "--config", "exp.cfg", "--mode", "fix-sup", "--fixed",
                 "representation"]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "run" / "checkpoints" / "representation.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    assert main(["score", "--run", "run", "--out", "bad.tsv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: {ckpt.relative_to(tmp_path)}: truncated container")
    assert not (tmp_path / "bad.tsv").exists()


def test_cli_writers_that_raise_partway_keep_the_old_files(tmp_path, monkeypatch, capsys):
    """``score``'s TSV, ``report``'s two CSVs and ``eval --out`` are each
    written whole or not at all."""
    from test_ioutil import assert_old_file_only, tear_every_write

    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["-q", "search", "--config", "exp.cfg"]) == 0
    outputs = [tmp_path / "scores.tsv", tmp_path / "metrics.json",
               tmp_path / "run" / "reward_curve.csv",
               tmp_path / "run" / "selection_frequencies.csv"]
    for path in outputs:
        path.write_bytes(b"old\n")
    tear_every_write(monkeypatch)
    assert main(["score", "--run", "run", "--out", "scores.tsv"]) == 2
    assert main(["eval", "--config", "exp.cfg", "--annotations", "val.tsv",
                 "--scores", "good.csv", "--out", "metrics.json"]) == 2
    assert main(["report", "--run", "run"]) == 2
    assert capsys.readouterr().err.count("killed partway through a write") == 3
    for path in outputs[:3]:
        assert_old_file_only(path, b"old\n")
    # the report stops at its first CSV
    assert (tmp_path / "run" / "selection_frequencies.csv").read_bytes() == b"old\n"
