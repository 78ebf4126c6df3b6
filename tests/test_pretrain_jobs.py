"""Pretraining and ranker training as scheduled jobs: the same results for
any worker count, a deterministic split with the caller taking a share,
failures that name their model and leave no process behind, no fork on a
warm cache or for a lone ranker, and cache entries that a version bump
retires one kind at a time."""

import dataclasses
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import weakrank.trainer as trainer
from defaults import SETTINGS, scorer_hp
from weakrank.bm25 import bm25_matrix
from weakrank.cli import main
from weakrank.config import ExperimentConfig
from weakrank.corpus import AnnotationSet, split_annotations
from weakrank.embeddings import cosine_matrix, doc_means
from weakrank.pseudo_labels import aggregate
from weakrank.registry import (
    HYPERPARAMETERS,
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
    needs_graph,
)
from weakrank.scores import ScoreMatrix
from weakrank.sup_rankers import GraphAggregationRanker, InteractionRanker, RepresentationRanker
from weakrank.synthetic import generate_synthetic
from weakrank.trainer import (
    JOB_COST,
    SCORER_VERSION,
    Job,
    RunConfig,
    _train_selected_models,
    clamp_for_ablation,
    joint_train,
    pretrain,
    pretrain_all,
    resolve_workers,
    run_jobs,
    split_jobs,
)

# every built-in kind at a budget a test can afford
SMALL_HP = {
    "bm25": {},
    "text-embedding": {},
    "graph-walk": {"dim": 8, "n_walks": 1, "walk_len": 8, "epochs": 1},
    "graph-biased-walk": {"dim": 8, "n_walks": 1, "walk_len": 8, "epochs": 1},
    "graph-proximity-1": {"dim": 8, "epochs": 2},
    "graph-proximity-2": {"dim": 8, "epochs": 2},
    "graph-aggregation": {"out_dim": 8, "hidden": 8, "n_walks": 1, "walk_len": 6,
                          "epochs": 1, "feature_epochs": 1, "feature_dim": 8},
}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def corpus_and_external(tmp_path_factory):
    corpus, _ = generate_synthetic(8, 12, 2, 6, 12, 0.1, seed=4)
    path = tmp_path_factory.mktemp("external") / "ext.csv"
    bm25_matrix(corpus, **scorer_hp("bm25")).save_csv(path)
    return corpus, path


def _config(external_path, workers, **overrides):
    specs = [UnsupModelSpec(kind, kind, hp) for kind, hp in SMALL_HP.items()]
    specs.append(UnsupModelSpec("ext", "external", {"path": str(external_path)}))
    base = dict(
        unsup_registry=UnsupModelRegistry(specs),
        sup_registry=SupModelRegistry([SupModelSpec("representation", "representation")]),
        backbone_dim=8, backbone_epochs=1, seed=2, workers=workers,
    )
    base.update(overrides)
    return RunConfig(**base)


def _cache_bytes(cache_dir):
    return {p.name: p.read_bytes() for p in sorted(cache_dir.iterdir())}


def test_every_worker_count_gives_the_same_bytes(corpus_and_external, tmp_path):
    corpus, ext = corpus_and_external
    runs = {}
    for workers in (1, 2, 3):
        cache_dir = tmp_path / f"w{workers}"
        matrices, backbone = pretrain(corpus, _config(ext, workers), cache_dir)
        runs[workers] = (
            [(m.model_name, m.values.tobytes()) for m in matrices],
            backbone.raw_table.vectors.tobytes(),
            _cache_bytes(cache_dir),
        )
        _no_child_left()
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    # each built-in scorer with its CSV, and the backbone; the external
    # matrix is read from its own CSV and never cached
    assert len(runs[1][2]) == 2 * 7 + 1


def test_edited_external_csv_is_read_afresh(corpus_and_external, tmp_path):
    corpus, _ = corpus_and_external
    path = tmp_path / "ext.csv"
    first = bm25_matrix(corpus, **scorer_hp("bm25"))
    first.save_csv(path)
    config = _config(path, 1, unsup_registry=UnsupModelRegistry([
        UnsupModelSpec("ext", "external", {"path": str(path)})]))
    cache_dir = tmp_path / "cache"
    (got,), _ = pretrain_all(corpus, None, config, cache_dir)
    assert got.values.tobytes() == first.values.tobytes()
    edited = ScoreMatrix("ext", corpus.query_ids, corpus.candidate_ids, first.values[:, ::-1] + 1)
    edited.save_csv(path)  # same path, new scores
    (again,), _ = pretrain_all(corpus, None, config, cache_dir)
    assert again.values.tobytes() == edited.values.tobytes()
    # the CSV is the stored matrix: the backbone table is the one entry
    assert [p.name.partition("_")[0] for p in cache_dir.iterdir()] == ["backbone"]


def test_warm_cache_forks_nothing(corpus_and_external, tmp_path, monkeypatch):
    corpus, ext = corpus_and_external
    config = _config(ext, 2)
    cold, cold_backbone = pretrain(corpus, config, tmp_path)

    def no_fork():
        raise AssertionError("forked on a warm cache")

    monkeypatch.setattr(os, "fork", no_fork)
    warm, warm_backbone = pretrain(corpus, config, tmp_path)
    assert [m.values.tobytes() for m in warm] == [m.values.tobytes() for m in cold]
    assert warm_backbone.raw_table.vectors.tobytes() == cold_backbone.raw_table.vectors.tobytes()


def _jobs(kinds):
    return [Job(f"m{i}", kind, int, ("0",)) for i, kind in enumerate(kinds)]


def test_split_is_longest_first_and_deterministic():
    kinds = [kind for kind in SMALL_HP if kind != "text-embedding"] + ["backbone"]
    jobs = _jobs(kinds)
    shares = split_jobs(jobs, 2)
    assert shares == split_jobs(_jobs(kinds), 2)
    names = [[kinds[i] for i in share] for share in shares]
    assert names == [
        ["graph-biased-walk", "graph-proximity-2", "graph-aggregation", "bm25"],
        ["graph-walk", "graph-proximity-1", "backbone"],
    ]
    # at most one process per job: bm25, graph-walk, graph-biased-walk
    assert split_jobs(jobs[:3], 8) == [[2], [1], [0]]
    # a three-ranker episode: the graph ranker alone in the caller's share
    rankers = [Job(kind, f"sup:{kind}", int, ("0",))
               for kind in ("representation", "interaction", "graph-aggregation")]
    assert split_jobs(rankers, 2) == [[2], [0, 1]]


@pytest.mark.parametrize("processes", [1, 2, 3, 5])
def test_split_covers_every_job_once_and_the_caller_always_works(processes):
    rng = np.random.default_rng(processes)
    kinds = sorted(JOB_COST)
    for n in range(1, 12):
        jobs = _jobs([kinds[k] for k in rng.integers(len(kinds), size=n)])
        shares = split_jobs(jobs, processes)
        assert len(shares) == min(processes, n)
        assert sorted(i for share in shares for i in share) == list(range(n))
        assert shares[0]


def test_every_scorer_kind_has_a_cost():
    """Every job kind, and no other: each scorer but the text embedding,
    which is scored with the backbone's table and so is no job, the backbone,
    each ranker, whose key is prefixed because the graph-aggregation scorer
    and ranker share a kind, and an episode's reward."""
    rankers = {f"sup:{kind}" for kind in HYPERPARAMETERS["supervised"]}
    scorers = set(HYPERPARAMETERS["unsupervised"]) - {"text-embedding"}
    assert scorers | {"backbone", "reward"} | rankers == set(JOB_COST)


@pytest.mark.parametrize("processes", [1, 2, 3, 5])
def test_reward_jobs_go_one_per_process_the_first_to_the_caller(processes):
    shares = split_jobs(_jobs(["reward"] * min(processes, 3)), processes)
    assert shares == [[i] for i in range(min(processes, 3))]


def _refuse(value):
    raise ValueError(f"refused {value}")


def test_an_optional_job_that_fails_or_dies_leaves_none():
    """Failing in this process, failing in a helper and killing its helper."""
    jobs = [Job("here", "reward", _refuse, ("here",), optional=True),
            Job("ok", "reward", int, ("2",), optional=True),
            Job("there", "reward", _refuse, ("there",), optional=True),
            Job("dies", "reward", os._exit, (3,), optional=True)]
    assert run_jobs(jobs, 4) == [None, 2, None, None]
    _no_child_left()
    with pytest.raises(RuntimeError, match="^training failed for model 'there': refused there$"):
        run_jobs([jobs[1], dataclasses.replace(jobs[2], stage="training", optional=False)], 2)
    _no_child_left()


@pytest.mark.parametrize("broken_first", [True, False])
def test_failure_names_its_model_and_reaps_every_helper(tmp_path, monkeypatch, broken_first):
    """The broken external job runs in the caller's share when it ranks
    first, and in the helper's when it ranks second; the backbone table's
    job ranks last."""
    corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
    monkeypatch.setitem(JOB_COST, "external", 20 if broken_first else 5)
    monkeypatch.setitem(JOB_COST, "bm25", 10)
    monkeypatch.setitem(JOB_COST, "backbone", 1)
    missing = tmp_path / "missing.csv"
    config = _config(missing, 2, unsup_registry=UnsupModelRegistry([
        UnsupModelSpec("bm25", "bm25"), UnsupModelSpec("broken", "external", {"path": str(missing)}),
    ]))
    assert (split_jobs(_jobs(["bm25", "external", "backbone"]), 2)[0] == [1]) == broken_first
    cache_dir = tmp_path / "cache"
    with pytest.raises(RuntimeError, match="pretraining failed for model 'broken'") as err:
        pretrain_all(corpus, None, config, cache_dir)
    # the cause carries the original error, from whichever process ran the job
    assert "missing.csv" in str(err.value.__cause__)
    _no_child_left()
    assert not list(cache_dir.glob("unsup_broken_*"))


def test_a_helper_that_dies_is_reported_by_its_first_model():
    jobs = [Job("fine", "graph-walk", int, ("7",)),
            Job("dies", "bm25", os._exit, (3,))]
    assert split_jobs(jobs, 2) == [[0], [1]]
    with pytest.raises(RuntimeError, match="model 'dies'.*helper process exited with code 3"):
        run_jobs(jobs, 2)
    _no_child_left()


def test_pretraining_jobs_log_the_process_that_ran_them(caplog):
    jobs = [Job("cheap", "bm25", int, ("7",)), Job("dear", "graph-walk", int, ("8",)),
            Job("ranker", "sup:interaction", int, ("9",), "training")]
    assert split_jobs(jobs, 2) == [[1], [2, 0]]
    with caplog.at_level("INFO", logger="weakrank.trainer"):
        assert run_jobs(jobs, 2) == [7, 8, 9]
    lines = [r.getMessage().split(": ") for r in caplog.records]
    assert [(name, where.split(" s in ")[1]) for name, where in lines] == [
        ("pretraining job dear", "process 0"), ("pretraining job cheap", "process 1")]
    _no_child_left()


def test_helpers_return_results_in_job_order():
    jobs = [Job(f"m{i}", kind, pow, (i, 2))
            for i, kind in enumerate(["bm25", "graph-walk", "graph-proximity-1", "backbone"])]
    assert run_jobs(jobs, 3) == [0, 1, 4, 9]
    _no_child_left()


def test_zero_workers_is_one_per_available_cpu():
    assert resolve_workers(0) == len(os.sched_getaffinity(0))
    assert resolve_workers(3) == 3


def test_negative_workers_fail_before_any_work(tmp_path, monkeypatch, capsys):
    with pytest.raises(ValueError, match="workers"):
        resolve_workers(-1)
    with pytest.raises(ValueError, match="workers"):
        RunConfig(unsup_registry=UnsupModelRegistry([UnsupModelSpec("bm25", "bm25")]),
                  sup_registry=SupModelRegistry([SupModelSpec("interaction", "interaction")]),
                  workers=-2)
    calls = []
    monkeypatch.setattr(trainer, "compute_score_matrix", lambda *a, **k: calls.append(a))
    corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
    corpus.save(tmp_path / "corpus.json")
    (tmp_path / "exp.cfg").write_text(
        "corpus=corpus.json\nunsup_models=bm25\nsup_models=interaction\nworkers=-1\n")
    monkeypatch.chdir(tmp_path)
    assert main(["pretrain", "--config", "exp.cfg", "--out", "cache"]) == 2
    assert "workers" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "cache").exists()


class TestInfeasibleEvalListsFailFirst:
    """An evaluation split that cannot be drawn fails before pretraining."""

    def _run(self, monkeypatch, val, test, eval_negatives):
        corpus = self.corpus
        calls = []
        for name in ("compute_score_matrix", "train_text_embeddings"):
            real = getattr(trainer, name)

            def record(*a, _n=name, _real=real, **k):
                calls.append(_n)
                return _real(*a, **k)

            monkeypatch.setattr(trainer, name, record)
        config = RunConfig(
            unsup_registry=UnsupModelRegistry([
                UnsupModelSpec("bm25", "bm25"),
                UnsupModelSpec("text-embedding", "text-embedding")]),
            sup_registry=SupModelRegistry([SupModelSpec("interaction", "interaction")]),
            k_values=(5,), episodes=1, episode_sup_epochs=1, final_sup_epochs=1,
            backbone_dim=8, backbone_epochs=1, eval_negatives=eval_negatives, workers=1,
        )
        with pytest.raises(ValueError, match="eligible negatives"):
            joint_train(corpus, val, test, config)
        return calls

    @pytest.fixture(autouse=True)
    def _corpus(self):
        # two topics of ten candidates: every query has ten positives
        self.corpus, self.ann = generate_synthetic(12, 20, 2, 6, 12, 0.1, seed=3)
        self.val, self.test = split_annotations(self.ann, seed=1)

    def _one_more_positive(self, split):
        """The split with an eleventh positive for its first query, which
        leaves that query nine eligible negatives."""
        qid = split.query_ids[0]
        positives = {c for q, c, y in split.pairs if q == qid and y == 1}
        other = next(c for c in self.corpus.candidate_ids if c not in positives)
        return AnnotationSet(split.pairs + ((qid, other, 1),), split.split)

    def test_both_splits_short_of_negatives(self, monkeypatch):
        assert self._run(monkeypatch, self.val, self.test, eval_negatives=20) == []

    def test_validation_split(self, monkeypatch):
        val = self._one_more_positive(self.val)
        assert self._run(monkeypatch, val, self.test, eval_negatives=10) == []

    def test_test_split(self, monkeypatch):
        test = self._one_more_positive(self.test)
        assert self._run(monkeypatch, self.val, test, eval_negatives=10) == []


def test_graph_kinds_are_the_ones_that_need_the_graph():
    graph_kinds = {"graph-walk", "graph-biased-walk", "graph-proximity-1",
                   "graph-proximity-2", "graph-aggregation"}
    for kind in HYPERPARAMETERS["unsupervised"]:
        spec = UnsupModelSpec(kind, kind, {"path": "x.csv"} if kind == "external" else {})
        assert needs_graph([spec]) is (kind in graph_kinds), kind
    for kind in HYPERPARAMETERS["supervised"]:
        assert needs_graph([SupModelSpec(kind, kind)]) is (kind == "graph-aggregation"), kind
    assert not needs_graph([])
    assert needs_graph([UnsupModelSpec("bm25", "bm25"),
                        SupModelSpec("graph-aggregation", "graph-aggregation")])


def test_a_version_bump_misses_only_that_kinds_entry(corpus_and_external, tmp_path, monkeypatch):
    corpus, ext = corpus_and_external
    config = _config(ext, 1, unsup_registry=UnsupModelRegistry([
        UnsupModelSpec(kind, kind, SMALL_HP[kind]) for kind in ("bm25", "text-embedding")]))
    pretrain_all(corpus, None, config, tmp_path)
    before = _cache_bytes(tmp_path)
    trained = []
    real = trainer.compute_score_matrix
    monkeypatch.setattr(trainer, "compute_score_matrix",
                        lambda spec, *args: trained.append(spec.name) or real(spec, *args))
    monkeypatch.setitem(SCORER_VERSION, "text-embedding", SCORER_VERSION["text-embedding"] + 1)
    pretrain_all(corpus, None, config, tmp_path)
    assert trained == ["text-embedding"]
    after = _cache_bytes(tmp_path)
    assert {name: after[name] for name in before} == before
    added = sorted(set(after) - set(before))  # one new entry, under a new hash
    assert [Path(name).suffix for name in added] == [".bin", ".csv"]
    assert len({Path(name).stem for name in added}) == 1
    assert added[0].startswith("unsup_text-embedding_")


# --- one text table per run ----------------------------------------------------

def _text_config(ext, workers=1):
    return _config(ext, workers, unsup_registry=UnsupModelRegistry([
        UnsupModelSpec("bm25", "bm25"), UnsupModelSpec("text-embedding", "text-embedding")]))


def _counting_tables(monkeypatch):
    """The settings of every text table trained, in this process."""
    trained = []
    real = trainer.train_text_embeddings

    def counting(corpus, **kwargs):
        trained.append(kwargs)
        return real(corpus, **kwargs)

    monkeypatch.setattr(trainer, "train_text_embeddings", counting)
    return trained


def test_the_text_scorer_scores_with_the_backbones_raw_table(corpus_and_external, monkeypatch):
    corpus, ext = corpus_and_external
    trained = _counting_tables(monkeypatch)
    (_, text), backbone = pretrain(corpus, _text_config(ext), None)
    assert len(trained) == 1
    expected = cosine_matrix(*doc_means(backbone.raw_table, corpus))
    assert text.model_name == "text-embedding"
    assert text.values.tobytes() == expected.tobytes()


def test_a_default_cold_pretrain_trains_one_text_table(corpus_and_external, tmp_path,
                                                      monkeypatch, caplog):
    corpus, ext = corpus_and_external
    trained = _counting_tables(monkeypatch)
    config = _config(ext, 1, unsup_registry=UnsupModelRegistry([
        UnsupModelSpec("text-embedding", "text-embedding")]),
        backbone_dim=SETTINGS.backbone_dim, backbone_epochs=SETTINGS.backbone_epochs)
    with caplog.at_level("INFO", logger="weakrank.trainer"):
        pretrain(corpus, config, tmp_path)
    assert [kwargs["dim"] for kwargs in trained] == [SETTINGS.backbone_dim]
    messages = [r.getMessage() for r in caplog.records]
    assert [m.partition(":")[0] for m in messages if m.startswith("pretraining job")] == [
        "pretraining job backbone"]
    assert len(list(tmp_path.glob("unsup_text-embedding_*.csv"))) == 1


def test_a_warm_backbone_serves_a_missing_text_entry(corpus_and_external, tmp_path,
                                                    monkeypatch):
    corpus, ext = corpus_and_external
    config = _text_config(ext)
    cold, _ = pretrain(corpus, config, tmp_path)
    for path in tmp_path.glob("unsup_text-embedding_*"):
        path.unlink()
    trained = _counting_tables(monkeypatch)
    monkeypatch.setattr(os, "fork", None)  # a fork would fail
    warm, _ = pretrain(corpus, dataclasses.replace(config, workers=2), tmp_path)
    assert trained == []
    assert [m.values.tobytes() for m in warm] == [m.values.tobytes() for m in cold]
    assert len(list(tmp_path.glob("unsup_text-embedding_*.csv"))) == 1


@pytest.mark.parametrize("setting, value", [
    ("backbone_dim", 6), ("backbone_window", 3), ("backbone_neg", 2), ("backbone_epochs", 2),
    ("backbone_lr", 0.04)])
def test_each_backbone_setting_keys_both_text_entries(corpus_and_external, tmp_path,
                                                      monkeypatch, setting, value):
    """A ``backbone_*`` change misses the table's entry and the text
    scorer's, and trains one table that the scorer scores with; bm25's entry
    still hits. A warm cache then hits both, trains no table and forks
    nothing."""
    corpus, ext = corpus_and_external
    config = _text_config(ext)
    pretrain_all(corpus, None, config, tmp_path)
    before = set(_cache_bytes(tmp_path))
    changed = dataclasses.replace(config, **{setting: value})
    trained = _counting_tables(monkeypatch)
    (_, text), table = pretrain_all(corpus, None, changed, tmp_path)
    assert [kwargs[setting.removeprefix("backbone_")] for kwargs in trained] == [value]
    assert text.values.tobytes() == cosine_matrix(*doc_means(table, corpus)).tobytes()
    after = _cache_bytes(tmp_path)
    added = sorted(set(after) - before)
    assert [name.rpartition("_")[0] + Path(name).suffix for name in added] == [
        "backbone.bin", "unsup_text-embedding.bin", "unsup_text-embedding.csv"]

    trained.clear()
    monkeypatch.setattr(os, "fork", None)  # a fork would fail
    (_, warm), warm_table = pretrain_all(corpus, None, dataclasses.replace(changed, workers=2),
                                         tmp_path)
    assert trained == []
    assert warm.values.tobytes() == text.values.tobytes()
    assert warm_table.vectors.tobytes() == table.vectors.tobytes()
    assert _cache_bytes(tmp_path) == after


def test_the_default_cold_search_splits_seven_jobs(tmp_path, monkeypatch):
    """The default menu's cold jobs: the text-embedding scorer has no job of
    its own, and two processes split the rest as pinned here."""
    config = ExperimentConfig().to_run_config()
    corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
    seen = []

    def stop(jobs, workers):
        seen.extend(jobs)
        raise KeyboardInterrupt

    monkeypatch.setattr(trainer, "run_jobs", stop)
    with pytest.raises(KeyboardInterrupt):
        pretrain(corpus, config, tmp_path)
    assert [job.kind for job in seen] == [
        "bm25", "graph-walk", "graph-biased-walk", "graph-proximity-1", "graph-proximity-2",
        "graph-aggregation", "backbone"]
    assert [[seen[i].kind for i in share] for share in split_jobs(seen, 2)] == [
        ["graph-biased-walk", "graph-proximity-2", "graph-aggregation", "bm25"],
        ["graph-walk", "graph-proximity-1", "backbone"],
    ]


def test_a_shared_table_run_is_the_same_for_one_or_two_workers(tmp_path, monkeypatch):
    from test_score_command import _sandbox

    runs = {}
    for workers in (1, 2):
        root = tmp_path / f"w{workers}"
        _sandbox(root, unsup_models="bm25,text-embedding,graph-walk", external_scores="",
                 workers=str(workers), **{"hp.graph-walk.n_walks": "1"})
        monkeypatch.chdir(root)
        trained = _counting_tables(monkeypatch)
        assert main(["-q", "search", "--config", "exp.cfg"]) == 0
        assert len(trained) == (1 if workers == 1 else 0)  # a helper trains it at 2
        runs[workers] = root / "run"
        _no_child_left()
    # only the files that record the workers setting itself differ
    assert _compare_runs().compare(runs[1], runs[2])[0] == [
        "differs: config.cfg", "differs: manifest.json"]


# --- ranker training -----------------------------------------------------------

RANKERS = ("representation", "interaction", "graph-aggregation")


@pytest.fixture(scope="module")
def ranker_inputs(corpus_and_external):
    """A corpus, a search configuration over all three rankers, and the
    pretrained (matrices, backbone) every test here trains on."""
    corpus, ext = corpus_and_external
    config = _config(ext, 1, sup_registry=SupModelRegistry(
        [SupModelSpec(kind, kind) for kind in RANKERS]), k_values=(3,), episodes=2,
        episode_sup_epochs=2, final_sup_epochs=2, eval_negatives=5)
    return corpus, config, pretrain(corpus, config, None)


def _train(ranker_inputs, mask, workers):
    corpus, config, (matrices, backbone) = ranker_inputs
    config = dataclasses.replace(config, workers=workers)
    agg = aggregate(matrices, [1] * len(matrices), normalize=config.normalize_scores)
    models = _train_selected_models(mask, 3, agg, backbone, config, epochs=2, seed_label="t")
    return [(m.spec.name, m.params().values.tobytes()) for m in models]


def _counting_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("mask, workers, helpers", [
    ((1, 1, 1), 2, 1), ((1, 1, 1), 3, 2), ((1, 1, 1), 5, 2), ((0, 1, 1), 3, 1),
    ((0, 0, 1), 3, 0), ((1, 0, 0), 2, 0)])
def test_each_training_forks_at_most_one_helper_per_extra_ranker(
        ranker_inputs, monkeypatch, mask, workers, helpers):
    serial = _train(ranker_inputs, mask, 1)
    forks = _counting_forks(monkeypatch)
    assert _train(ranker_inputs, mask, workers) == serial
    assert len(forks) == helpers
    _no_child_left()


@pytest.mark.parametrize("broken", [RepresentationRanker, InteractionRanker,
                                    GraphAggregationRanker])
def test_a_failing_ranker_names_itself_and_reaps_every_helper(ranker_inputs, monkeypatch,
                                                              broken):
    """The graph ranker trains in the caller's share, the other two in the
    helper's. A poisoned ranker's weights turn non-finite on its first
    batch, which its forward pass or its loss check refuses."""
    real = broken.loss_and_grads

    def poisoned(self, batch):
        self.params().values.fill(np.nan)
        return real(self, batch)

    monkeypatch.setattr(broken, "loss_and_grads", poisoned)
    with pytest.raises(RuntimeError, match=f"^training failed for model '{broken.kind}'") as err:
        with np.errstate(invalid="ignore"):
            _train(ranker_inputs, (1, 1, 1), 2)
    assert "non-finite" in str(err.value)
    _no_child_left()


def _compare_runs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_joint_train_writes_the_same_run_for_any_worker_count(ranker_inputs, tmp_path):
    corpus, config, _ = ranker_inputs
    _, ann = generate_synthetic(8, 12, 2, 6, 12, 0.1, seed=4)  # the fixture's corpus
    val, test = split_annotations(ann, seed=1)
    clamp = clamp_for_ablation("fix-sup", list(RANKERS), config)
    for workers in (1, 2, 3):
        joint_train(corpus, val, test, dataclasses.replace(config, workers=workers),
                    workdir=tmp_path / f"w{workers}", clamp=clamp)
        _no_child_left()
    compare = _compare_runs().compare
    for workers in (2, 3):
        assert compare(tmp_path / "w1", tmp_path / f"w{workers}")[0] == []
