"""``weakrank pretrain`` fills the very cache a later ``search`` reads."""

import pytest

import weakrank.trainer as trainer
from weakrank.cli import main
from weakrank.corpus import save_annotations_tsv, split_annotations
from weakrank.synthetic import generate_synthetic


def _sandbox(root):
    """A small corpus, pre-split annotations and a configuration whose
    pretrain seed differs from its search seed."""
    root.mkdir(parents=True, exist_ok=True)
    corpus, ann = generate_synthetic(
        n_queries=12, n_candidates=60, n_topics=3, vocab_per_topic=8,
        doc_len=14, noise_rate=0.1, seed=5,
    )
    corpus.save(root / "corpus.json")
    val, test = split_annotations(ann, seed=1)
    save_annotations_tsv(root / "val.tsv", val)
    save_annotations_tsv(root / "test.tsv", test)
    lines = {
        "corpus": "corpus.json", "val_annotations": "val.tsv", "test_annotations": "test.tsv",
        "output_dir": "run", "unsup_models": "bm25,text-embedding",
        "hp.text-embedding.epochs": "1", "sup_models": "representation", "k_values": "5",
        "episodes": "1", "episode_sup_epochs": "1", "final_sup_epochs": "1",
        "backbone_epochs": "1", "backbone_dim": "8", "eval_negatives": "19",
        "seed": "3", "pretrain_seed": "8",
    }
    (root / "exp.cfg").write_text("".join(f"{k}={v}\n" for k, v in lines.items()))


def _cache(root):
    return {p.name: p.read_bytes() for p in sorted((root / "run" / "cache").iterdir())}


def test_search_after_pretrain_trains_nothing_before_its_episodes(tmp_path, monkeypatch):
    plain, pre = tmp_path / "plain", tmp_path / "pre"
    _sandbox(plain)
    _sandbox(pre)
    monkeypatch.chdir(plain)
    assert main(["search", "--config", "exp.cfg"]) == 0
    monkeypatch.chdir(pre)
    assert main(["pretrain", "--config", "exp.cfg"]) == 0
    # the same entries, scorers and backbone, a search would have written
    assert _cache(pre) == _cache(plain)

    calls = []
    for name in ("compute_score_matrix", "train_text_embeddings"):
        monkeypatch.setattr(trainer, name, lambda *a, _n=name, **k: calls.append(_n))
    rc = main(["search", "--config", "exp.cfg"])
    assert calls == []
    assert rc == 0
    assert (pre / "run" / "report.json").read_bytes() == (plain / "run" / "report.json").read_bytes()


def test_out_overrides_output_dir(tmp_path, monkeypatch):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["pretrain", "--config", "exp.cfg", "--out", "elsewhere"]) == 0
    names = sorted(p.name for p in (tmp_path / "elsewhere").glob("*.bin"))
    assert [n.split("_")[0] for n in names] == ["backbone", "unsup", "unsup"]
    assert not (tmp_path / "run").exists()


def test_needs_a_cache_location(tmp_path, monkeypatch, capsys):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["pretrain", "--config", "exp.cfg", "--set", "output_dir="]) == 2
    assert "output_dir" in capsys.readouterr().err
