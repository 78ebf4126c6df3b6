"""The pretrain cache's entries: the kernel features once per backbone,
read by a warm search and by ``score``; a torn entry recomputed and
replaced; no graph built that nothing reads."""

import importlib.util
import logging
import shutil
from pathlib import Path

import pytest

import weakrank.sup_rankers as sup_rankers
import weakrank.trainer as trainer
from weakrank.cli import main
from weakrank.config import ExperimentConfig
from weakrank.corpus import Corpus, save_annotations_tsv, split_annotations
from weakrank.embeddings import EmbeddingTable
from weakrank.ioutil import CONTAINER_MAGIC, load_arrays
from weakrank.nncore import default_kernel_bank
from weakrank.synthetic import generate_synthetic

ROOT = Path(__file__).resolve().parents[1]


def _sandbox(root, **keys):
    """A 12 x 60 planted corpus and a configuration with a graph scorer and
    the interaction ranker alone, so that ``score`` serves it, at paths
    relative to ``root``."""
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
        "output_dir": "run", "unsup_models": "bm25,graph-proximity-1",
        "hp.graph-proximity-1.dim": "8", "hp.graph-proximity-1.epochs": "2",
        "sup_models": "interaction", "k_values": "5", "episodes": "2",
        "episode_sup_epochs": "1", "final_sup_epochs": "1", "backbone_epochs": "1",
        "backbone_dim": "8", "eval_negatives": "19", "seed": "3", "pretrain_seed": "8",
        **keys,
    }
    (root / "exp.cfg").write_text("".join(f"{k}={v}\n" for k, v in lines.items()))


def _files(root):
    """Every file under ``root``, by relative path: its bytes and mtime."""
    return {p.relative_to(root).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


def _entry(root, prefix):
    (path,) = (root / "run" / "cache").glob(f"{prefix}_*.bin")
    return path


def _pooling_raises(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel features pooled, not read from the cache")

    monkeypatch.setattr(sup_rankers, "kernel_pool_forward", refuse)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A finished search and its score TSV."""
    root = tmp_path_factory.mktemp("clean")
    _sandbox(root)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(["-q", "search", "--config", "exp.cfg"]) == 0
        assert main(["-q", "score", "--run", "run", "--out", "scores.tsv"]) == 0
    return root


@pytest.fixture
def copy(clean, tmp_path, monkeypatch):
    """A copy of the clean sandbox, the working directory."""
    root = tmp_path / "copy"
    shutil.copytree(clean, root)
    monkeypatch.chdir(root)
    return root


@pytest.fixture(scope="module")
def compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs",
                                                  ROOT / "scripts" / "compare_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cached_features_equal_computed_ones_bitwise(clean):
    config = ExperimentConfig.from_file(clean / "exp.cfg").to_run_config()
    corpus = Corpus.load(clean / "corpus.json")
    table = EmbeddingTable.load(_entry(clean, "backbone"))
    (spec,) = [s for s in config.sup_registry if s.kind == "interaction"]
    hp = spec.hyperparameters()
    computed = trainer.backbone_from_table(corpus, table, None, config).phi_features(
        hp["mus"], hp["sigmas"])
    cached = load_arrays(_entry(clean, "phi"))[0]["phi"]
    assert cached.dtype == computed.dtype and cached.shape == computed.shape
    assert cached.tobytes() == computed.tobytes()


@pytest.mark.parametrize("change", [
    {"hp.interaction.mus": "[1.0,0.5]", "hp.interaction.sigmas": "[0.001,0.1]"},
    {"hp.interaction.sigmas": "[0.001,0.2,0.2,0.2,0.2,0.2,0.2,0.2,0.2,0.2,0.2]"},
    {"hp.interaction.mus": "[1.0,0.9,0.7,0.5,0.3,0.1,-0.1,-0.3,-0.5,-0.7,-0.8]"},
    {"backbone_dim": "9"}, {"backbone_window": "4"}, {"backbone_neg": "4"},
    {"backbone_epochs": "2"}, {"backbone_lr": "0.04"}, {"pretrain_seed": "9"},
    {"corpus": "other.json"},
])
def test_each_input_of_the_features_is_in_their_key(tmp_path, change):
    _sandbox(tmp_path)
    corpus, _ = generate_synthetic(n_queries=12, n_candidates=60, n_topics=3, vocab_per_topic=8,
                                   doc_len=14, noise_rate=0.1, seed=6)
    corpus.save(tmp_path / "other.json")

    def entry(overrides):
        config = ExperimentConfig.from_file(tmp_path / "exp.cfg", overrides)
        run_config = config.to_run_config()
        key = trainer._backbone_key(Corpus.load(tmp_path / config.corpus), run_config)
        (bank,) = trainer.kernel_banks(run_config.sup_registry)
        return trainer._phi_entry(tmp_path, key, bank)

    assert entry([f"{k}={v}" for k, v in change.items()]) != entry([])


def test_features_keep_their_entry_name():
    """The name the default bank's features had while the kernels' sign was
    a setting (true, the only value left), so existing caches still hit."""
    bank = sup_rankers.kernel_bank(*default_kernel_bank())
    key = {"corpus": "abc", "seed": 1, "hp": [32, 5]}
    assert trainer._phi_entry("c", key, bank).name == "phi_0cb582087ca8858e.bin"


def test_warm_search_and_score_read_the_features(copy, clean, compare_runs, monkeypatch):
    cache = _files(copy / "run" / "cache")
    _pooling_raises(monkeypatch)
    assert main(["-q", "search", "--config", "exp.cfg"]) == 0
    assert main(["-q", "score", "--run", "run", "--out", "again.tsv"]) == 0
    assert (copy / "again.tsv").read_bytes() == (clean / "scores.tsv").read_bytes()
    assert compare_runs.compare(copy / "run", clean / "run")[0] == []
    assert _files(copy / "run" / "cache") == cache  # a warm search writes no entry


def test_score_writes_nothing_to_any_cache(copy, clean):
    _entry(copy, "phi").unlink()  # a miss: score pools the features itself
    before = _files(copy)
    assert main(["-q", "score", "--run", "run", "--out", "again.tsv"]) == 0
    after = _files(copy)
    assert after.pop("again.tsv")[0] == (clean / "scores.tsv").read_bytes()
    assert after == before


def test_score_of_an_ablate_sub_run_reads_the_shared_cache(tmp_path, monkeypatch):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["-q", "ablate", "--config", "exp.cfg", "--mode", "fix-k", "--sweep"]) == 0
    _pooling_raises(monkeypatch)
    assert main(["-q", "score", "--run", "run/k_5", "--out", "k5.tsv"]) == 0


def test_pretrain_writes_the_features_a_search_reads(tmp_path, monkeypatch, clean):
    _sandbox(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["-q", "pretrain", "--config", "exp.cfg"]) == 0
    cache = {p.name: p.read_bytes() for p in (tmp_path / "run" / "cache").iterdir()}
    assert cache == {p.name: p.read_bytes() for p in (clean / "run" / "cache").iterdir()}
    assert [name.split("_")[0] for name in sorted(cache) if name.endswith(".bin")] == [
        "backbone", "phi", "unsup", "unsup"]
    _pooling_raises(monkeypatch)
    assert main(["-q", "search", "--config", "exp.cfg"]) == 0


def test_warm_search_without_a_graph_ranker_builds_no_graph(copy, clean, monkeypatch):
    def refuse(corpus):
        raise AssertionError("graph built on a warm cache without a graph ranker")

    monkeypatch.setattr(trainer, "build_graph", refuse)
    assert main(["-q", "search", "--config", "exp.cfg"]) == 0
    assert (copy / "run" / "report.json").read_bytes() == (
        clean / "run" / "report.json").read_bytes()


@pytest.mark.parametrize("prefix, keep", [
    ("backbone", lambda size: size // 2),  # a payload cut in half
    ("unsup_bm25", lambda size: len(CONTAINER_MAGIC) + 4 + 10),  # cut inside its header
    ("phi", lambda size: size // 2),
])
def test_a_torn_entry_is_recomputed_and_replaced(copy, clean, compare_runs, caplog, prefix, keep):
    torn = _entry(copy, prefix)
    torn.write_bytes(torn.read_bytes()[:keep(torn.stat().st_size)])
    with caplog.at_level(logging.WARNING, logger="weakrank.trainer"):
        assert main(["search", "--config", "exp.cfg"]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and str(torn.relative_to(copy)) in warnings[0]
    lines, _ = compare_runs.compare(copy / "run", clean / "run")
    assert lines == []
    assert not list((copy / "run" / "cache").glob(".*"))  # no temporary file left


def test_a_torn_backbone_and_a_missing_features_entry_are_both_rewritten(copy, clean):
    _entry(copy, "phi").unlink()
    torn = _entry(copy, "backbone")
    torn.write_bytes(torn.read_bytes()[:100])
    assert main(["-q", "search", "--config", "exp.cfg"]) == 0
    for prefix in ("backbone", "phi"):
        assert _entry(copy, prefix).read_bytes() == _entry(clean, prefix).read_bytes()


def test_score_of_another_corpus_reads_no_features(copy):
    """Features in the run's cache pooled over another corpus's backbone are
    not served with the run's own backbone table."""
    corpus, _ = generate_synthetic(n_queries=12, n_candidates=60, n_topics=3, vocab_per_topic=8,
                                   doc_len=14, noise_rate=0.1, seed=6)
    corpus.save(copy / "other.json")
    assert main(["-q", "score", "--run", "run", "--corpus", "other.json",
                 "--out", "uncached.tsv"]) == 0
    assert main(["-q", "pretrain", "--config", "exp.cfg", "--set", "corpus=other.json"]) == 0
    assert len(list((copy / "run" / "cache").glob("phi_*.bin"))) == 2
    assert main(["-q", "score", "--run", "run", "--corpus", "other.json",
                 "--out", "other.tsv"]) == 0
    assert (copy / "other.tsv").read_bytes() == (copy / "uncached.tsv").read_bytes()
