"""Pretraining as scheduled jobs: the same results for any worker count, a
deterministic split with the caller taking a share, failures that name
their model and leave no process behind, and no fork on a warm cache."""

import os

import numpy as np
import pytest

import weakrank.trainer as trainer
from weakrank.bm25 import bm25_matrix
from weakrank.cli import main
from weakrank.corpus import AnnotationSet, split_annotations
from weakrank.registry import (
    SUP_KINDS,
    UNSUP_KINDS,
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
    needs_graph,
)
from weakrank.synthetic import generate_synthetic
from weakrank.trainer import (
    JOB_COST,
    PretrainJob,
    RunConfig,
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
    "text-embedding": {"dim": 8, "epochs": 1},
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
    bm25_matrix(corpus).save_csv(path)
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
    # nine entries, each scorer with its CSV, and the backbone
    assert len(runs[1][2]) == 2 * 8 + 1


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
    return [PretrainJob(f"m{i}", kind, int, ("0",)) for i, kind in enumerate(kinds)]


def test_split_is_longest_first_and_deterministic():
    kinds = list(SMALL_HP) + ["backbone"]
    jobs = _jobs(kinds)
    shares = split_jobs(jobs, 2)
    assert shares == split_jobs(_jobs(kinds), 2)
    names = [[kinds[i] for i in share] for share in shares]
    assert names == [
        ["graph-biased-walk", "graph-proximity-1", "backbone", "bm25"],
        ["graph-walk", "text-embedding", "graph-proximity-2", "graph-aggregation"],
    ]
    # at most one process per job: bm25, text-embedding, graph-walk
    assert split_jobs(jobs[:3], 8) == [[2], [1], [0]]


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
    assert set(UNSUP_KINDS) | {"backbone"} == set(JOB_COST)


@pytest.mark.parametrize("broken_first", [True, False])
def test_failure_names_its_model_and_reaps_every_helper(tmp_path, monkeypatch, broken_first):
    """The broken external job runs in the caller's share when it ranks
    first, and in the helper's when it ranks second."""
    corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
    monkeypatch.setitem(JOB_COST, "external", 20 if broken_first else 5)
    monkeypatch.setitem(JOB_COST, "bm25", 10)
    registry = UnsupModelRegistry([
        UnsupModelSpec("bm25", "bm25"),
        UnsupModelSpec("broken", "external", {"path": str(tmp_path / "missing.csv")}),
    ])
    assert (split_jobs(_jobs(["bm25", "external"]), 2)[0] == [1]) == broken_first
    cache_dir = tmp_path / "cache"
    with pytest.raises(RuntimeError, match="pretraining failed for model 'broken'") as err:
        pretrain_all(corpus, None, registry, cache_dir, master_seed=0, workers=2)
    # the cause carries the original error, from whichever process ran the job
    assert "missing.csv" in str(err.value.__cause__)
    _no_child_left()
    assert not list(cache_dir.glob("unsup_broken_*"))


def test_a_helper_that_dies_is_reported_by_its_first_model():
    jobs = [PretrainJob("fine", "graph-walk", int, ("7",)),
            PretrainJob("dies", "bm25", os._exit, (3,))]
    assert split_jobs(jobs, 2) == [[0], [1]]
    with pytest.raises(RuntimeError, match="model 'dies'.*helper process exited with code 3"):
        run_jobs(jobs, 2)
    _no_child_left()


def test_helpers_return_results_in_job_order():
    jobs = [PretrainJob(f"m{i}", kind, pow, (i, 2))
            for i, kind in enumerate(["bm25", "graph-walk", "text-embedding", "backbone"])]
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
                UnsupModelSpec("text-embedding", "text-embedding", {"dim": 8, "epochs": 1})]),
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
        positives = set(split.positives_of(qid))
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
    for kind in UNSUP_KINDS:
        spec = UnsupModelSpec(kind, kind, {"path": "x.csv"} if kind == "external" else {})
        assert needs_graph([spec]) is (kind in graph_kinds), kind
    for kind in SUP_KINDS:
        assert needs_graph([SupModelSpec(kind, kind)]) is (kind == "graph-aggregation"), kind
    assert not needs_graph([])
    assert needs_graph([UnsupModelSpec("bm25", "bm25"),
                        SupModelSpec("graph-aggregation", "graph-aggregation")])
