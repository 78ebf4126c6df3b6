import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from defaults import SETTINGS
from weakrank import trainer
from weakrank.controller import ControllerParams, EpisodeLog, sample_configuration
from weakrank.corpus import split_annotations
from weakrank.graph import build_graph
from weakrank.ioutil import derive_seed
from weakrank.metrics import build_eval_lists, mrr
from weakrank.pseudo_labels import aggregate
from weakrank.sup_rankers import score_lists_with_ensemble
from weakrank.registry import (
    HYPERPARAMETERS,
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
)
from weakrank.scores import ScoreMatrix
from weakrank.synthetic import generate_synthetic
from weakrank.trainer import (
    RunConfig,
    _train_selected_models,
    clamp_for_ablation,
    joint_train,
    pretrain,
    pretrain_all,
    run_episode,
)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """Planted corpus with oracle and noise score matrices saved as CSV."""
    corpus, ann = generate_synthetic(
        n_queries=16, n_candidates=140, n_topics=4, vocab_per_topic=8,
        doc_len=18, noise_rate=0.1, seed=51,
    )
    val, test = split_annotations(ann, seed=1)
    root = tmp_path_factory.mktemp("matrices")

    positives = {(q, c) for q, c, y in ann.pairs if y == 1}
    oracle = np.zeros((len(corpus.queries), len(corpus.candidates)))
    for i, q in enumerate(corpus.query_ids):
        for j, c in enumerate(corpus.candidate_ids):
            if (q, c) in positives:
                oracle[i, j] = 1.0
    oracle_m = ScoreMatrix("oracle", tuple(corpus.query_ids), tuple(corpus.candidate_ids), oracle)
    oracle_path = root / "oracle.csv"
    oracle_m.save_csv(oracle_path)

    noise = np.random.default_rng(7).random(oracle.shape)
    noise_m = ScoreMatrix("noise", tuple(corpus.query_ids), tuple(corpus.candidate_ids), noise)
    noise_path = root / "noise.csv"
    noise_m.save_csv(noise_path)

    # strong but imperfect scorer: margins small enough that averaging in
    # uniform noise produces rank overlaps and degraded pseudo labels
    jitter = np.random.default_rng(8)
    good = np.where(oracle == 1.0, 1.0 - 0.25 * jitter.random(oracle.shape),
                    0.65 * jitter.random(oracle.shape))
    good_m = ScoreMatrix("good", tuple(corpus.query_ids), tuple(corpus.candidate_ids), good)
    good_path = root / "good.csv"
    good_m.save_csv(good_path)

    return corpus, ann, val, test, str(oracle_path), str(noise_path), str(good_path)


def _fast_config(oracle_path, noise_path, **overrides):
    base = dict(
        unsup_registry=UnsupModelRegistry([
            UnsupModelSpec("oracle", "external", {"path": oracle_path}),
            UnsupModelSpec("noise", "external", {"path": noise_path}),
        ]),
        sup_registry=SupModelRegistry([SupModelSpec("interaction", "interaction")]),
        k_values=(5, 10),
        episodes=6,
        episode_sup_epochs=3,
        final_sup_epochs=4,
        backbone_epochs=2,
        backbone_dim=8,
        seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


def _pretrain_config(registry, seed=0, workers=SETTINGS.workers):
    """A config that pretrains ``registry`` from ``seed``, its backbone table
    at a budget a test can afford."""
    return RunConfig(
        unsup_registry=registry,
        sup_registry=SupModelRegistry([SupModelSpec("interaction", "interaction")]),
        backbone_dim=8, backbone_epochs=1, seed=seed, workers=workers,
    )


class TestPretrainAll:
    def test_seven_model_registry_yields_seven_matrices(self, tmp_path):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        graph = build_graph(corpus)
        hp = {"bm25": {}, "text-embedding": {}, "graph-aggregation": {"out_dim": 8}}
        registry = UnsupModelRegistry([UnsupModelSpec(kind, kind, hp.get(kind, {"dim": 8}))
                                       for kind in HYPERPARAMETERS["unsupervised"]
                                       if kind != "external"])
        assert len(registry) == 7
        matrices, _ = pretrain_all(corpus, graph, _pretrain_config(registry), tmp_path)
        assert len(matrices) == 7
        assert [m.model_name for m in matrices] == registry.names

    def test_cache_hit_is_bit_identical_and_logged(self, tmp_path, caplog):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        registry = UnsupModelRegistry([UnsupModelSpec("bm25", "bm25")])
        config = _pretrain_config(registry)
        (first,), _ = pretrain_all(corpus, None, config, tmp_path)
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            (second,), _ = pretrain_all(corpus, None, config, tmp_path)
        assert "cache hit" in caplog.text
        assert np.array_equal(first.values, second.values)

    def test_a_warm_backbone_is_read_and_not_trained(self, tmp_path, caplog):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        config = _pretrain_config(UnsupModelRegistry([UnsupModelSpec("bm25", "bm25")]),
                                  workers=1)
        _, cold = pretrain_all(corpus, None, config, tmp_path)
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            _, warm = pretrain_all(corpus, None, config, tmp_path)
        messages = [r.getMessage() for r in caplog.records]
        assert "cache hit for embedding backbone" in messages
        assert [m for m in messages if m.startswith("pretraining job")] == []
        assert warm.vectors.tobytes() == cold.vectors.tobytes()

    def test_each_pretraining_job_logs_its_seconds_once(self, tmp_path, caplog):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        registry = UnsupModelRegistry([
            UnsupModelSpec("bm25", "bm25"),
            UnsupModelSpec("text-embedding", "text-embedding"),
        ])
        config = _pretrain_config(registry, workers=1)
        for run in ("cold", "warm"):
            caplog.clear()
            with caplog.at_level("INFO", logger="weakrank.trainer"):
                pretrain_all(corpus, None, config, tmp_path)
            lines = [r.getMessage() for r in caplog.records if "pretraining job" in r.getMessage()]
            if run == "cold":  # the text scorer is no job: it scores with the table
                assert sorted(line.split(":")[0] for line in lines) == [
                    "pretraining job backbone", "pretraining job bm25"]
                assert all(line.endswith(" s in process 0") for line in lines)
            else:
                assert lines == []

    def test_fresh_and_cached_match_without_cache_dir(self):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        registry = UnsupModelRegistry([UnsupModelSpec("bm25", "bm25")])
        config = _pretrain_config(registry)
        (a,), _ = pretrain_all(corpus, None, config, None)
        (b,), _ = pretrain_all(corpus, None, config, None)
        assert np.array_equal(a.values, b.values)

    def test_failure_names_model(self, tmp_path):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        registry = UnsupModelRegistry(
            [UnsupModelSpec("broken", "external", {"path": str(tmp_path / "missing.csv")})]
        )
        with pytest.raises(RuntimeError, match="broken"):
            pretrain_all(corpus, None, _pretrain_config(registry), None)

    def test_parallel_pretraining_matches_sequential(self):
        corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
        graph = build_graph(corpus)
        registry = UnsupModelRegistry([
            UnsupModelSpec("bm25", "bm25"),
            UnsupModelSpec("text-embedding", "text-embedding"),
            UnsupModelSpec("graph-proximity-1", "graph-proximity-1", {"dim": 8, "epochs": 2}),
        ])
        seq, seq_table = pretrain_all(corpus, graph, _pretrain_config(registry, 4, 1), None)
        par, par_table = pretrain_all(corpus, graph, _pretrain_config(registry, 4, 2), None)
        for a, b in zip(seq, par):
            assert a.model_name == b.model_name
            assert np.array_equal(a.values, b.values)
        assert seq_table.vectors.tobytes() == par_table.vectors.tobytes()


class TestRunEpisode:
    def _setup(self, data, config):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        matrices, backbone = pretrain(corpus, config, None)
        val_lists = build_eval_lists(val, corpus, seed=derive_seed(config.seed, "val-lists"),
                                     n_negatives=config.eval_negatives)
        return corpus, matrices, backbone, val_lists

    def test_oracle_matrix_with_true_k_gives_unit_unsup_reward(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path, k_values=(35,))  # true positives per query
        _, matrices, backbone, val_lists = self._setup(data, config)
        controller = ControllerParams(2, 1, 1, hidden=8, seed=0)
        # clamp to the oracle matrix alone
        from weakrank.controller import Clamp

        entry = run_episode(
            matrices, controller, backbone, val_lists, config,
            episode=0, sample_rng=np.random.default_rng(0), reward_cache={},
            clamp=Clamp(unsup_mask=(1, 0)),
        )
        assert entry.reward_unsup == pytest.approx(1.0)
        assert 0.0 <= entry.reward <= 2.0

    def test_identical_seeds_identical_logs(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path)
        _, matrices, backbone, val_lists = self._setup(data, config)
        entries = []
        for _ in range(2):
            controller = ControllerParams(2, 2, 1, hidden=8, seed=5)
            entries.append(run_episode(
                matrices, controller, backbone, val_lists, config,
                episode=0, sample_rng=np.random.default_rng(11), reward_cache={},
            ))
        assert entries[0].to_dict() == entries[1].to_dict()

    def test_single_model_degenerate_space_reward_matches_pipeline(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(
            oracle_path, noise_path,
            unsup_registry=UnsupModelRegistry(
                [UnsupModelSpec("oracle", "external", {"path": oracle_path})]
            ),
            k_values=(10,),
        )
        _, matrices, backbone, val_lists = self._setup(data, config)
        controller = ControllerParams(1, 1, 1, hidden=8, seed=1)
        entry = run_episode(
            matrices, controller, backbone, val_lists, config,
            episode=0, sample_rng=np.random.default_rng(3), reward_cache={},
        )
        # replicate the only possible pipeline by hand
        agg = aggregate(matrices, (1,), normalize=config.normalize_scores)
        models = _train_selected_models(
            (1,), 10, agg, backbone, config, epochs=config.episode_sup_epochs,
            seed_label='{"I1":[1],"I3":[1],"k":10,"k_index":0}',
        )
        expected = mrr(score_lists_with_ensemble(val_lists, models))
        assert entry.reward_sup == pytest.approx(expected)


class TestJointTrain:
    def test_budget_one_best_is_the_single_sample(self, data, tmp_path):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path, episodes=1)
        result = joint_train(corpus, val, test, config, workdir=tmp_path / "run")
        assert len(result.episodes) == 1
        assert result.best_config == result.episodes[0].config

    def test_outputs_written_and_rewards_bounded(self, data, tmp_path):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path)
        workdir = tmp_path / "run"
        result = joint_train(corpus, val, test, config, workdir=workdir)
        assert (workdir / "episodes.jsonl").exists()
        assert (workdir / "best_config.json").exists()
        assert (workdir / "report.json").exists()
        lines = (workdir / "episodes.jsonl").read_text().strip().split("\n")
        assert len(lines) == len(result.episodes)
        best_so_far = -1.0
        for line in lines:
            entry = json.loads(line)
            assert 0.0 <= entry["R"] <= 2.0
            best_so_far = max(best_so_far, entry["R"])
        assert best_so_far == result.best_reward
        report = json.loads((workdir / "report.json").read_text())
        assert report["test"] is not None
        for key in ("hr@5", "ndcg@5", "mrr"):
            assert 0.0 <= report["test"][key] <= 1.0

    def test_noise_model_excluded_from_best_config(self, data, tmp_path):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        for seed in (0, 1):
            config = _fast_config(good_path, noise_path, episodes=25, seed=seed)
            result = joint_train(corpus, val, test, config)
            assert result.best_config.unsup_mask[1] == 0  # noise not selected

    def test_reproducible_without_workdir(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path)
        r1 = joint_train(corpus, val, test, config)
        r2 = joint_train(corpus, val, test, config)
        assert r1.report == r2.report
        assert [e.to_dict() for e in r1.episodes] == [e.to_dict() for e in r2.episodes]

    def test_test_split_influences_only_final_report(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path)
        with_test = joint_train(corpus, val, test, config)
        without = joint_train(corpus, val, None, config)
        assert [e.to_dict() for e in with_test.episodes] == [e.to_dict() for e in without.episodes]
        assert with_test.validation_metrics == without.validation_metrics
        assert with_test.best_config == without.best_config
        assert without.test_metrics is None
        assert with_test.test_metrics is not None

    def test_each_episode_logs_one_progress_line(self, data, caplog):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path, episodes=4)
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            result = joint_train(corpus, val, None, config)
        lines = [r.getMessage() for r in caplog.records if " episodes: R " in r.getMessage()]
        assert [line.split()[0] for line in lines] == ["1/4", "2/4", "3/4", "4/4"]
        for line, entry in zip(lines, result.episodes):
            assert f" R {entry.reward:.4f}, " in line
            assert " entropy " in line and line.endswith(" s")
        # the cache serves exactly the configurations already seen
        seen = set()
        for line, entry in zip(lines, result.episodes):
            signature = json.dumps(entry.config.to_dict(), sort_keys=True)
            assert f"cached {int(signature in seen)}/1," in line
            seen.add(signature)

    def test_a_single_scorer_episode_earns_that_scorer_baseline(self, data):
        """Min-max scaling keeps each row's order and ties break by id either
        way, so an episode that selects one scorer earns its baseline."""
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(good_path, noise_path, episodes=12)
        result = joint_train(corpus, val, test, config)
        baselines = result.report["baselines"]
        assert list(baselines) == ["oracle", "noise"]  # the registry's names, in its order
        single = [e for e in result.episodes if sum(e.config.unsup_mask) == 1]
        assert {e.config.unsup_mask for e in single} == {(1, 0), (0, 1)}
        for entry in single:
            name = config.unsup_registry.names[entry.config.unsup_mask.index(1)]
            assert entry.reward_unsup == baselines[name]["validation"]
        assert all(value["test"] is not None for value in baselines.values())
        assert all(value["test"] is None for value in joint_train(
            corpus, val, None, config).report["baselines"].values())

    def test_early_stop(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path, episodes=30, early_stop_patience=5)
        result = joint_train(corpus, val, None, config)
        assert len(result.episodes) < 30

    def test_early_stop_counts_episodes_not_samples(self, data, monkeypatch):
        """Two samples an episode, rewards falling after the first: patience 2
        stops the search after two whole episodes without a better reward."""
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        rewards = iter([1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.0])

        def fake_episode(matrices, controller, backbone, val_lists, config, *,
                         episode, sample_rng, reward_cache, clamp=None):
            cfg, log_prob = sample_configuration(controller, sample_rng, config.k_values)
            reward = next(rewards)
            return EpisodeLog(episode, cfg, log_prob, reward, 0.0, reward, baseline=0.0)

        monkeypatch.setattr(trainer, "run_episode", fake_episode)
        config = _fast_config(oracle_path, noise_path, episodes=5, n_monte_carlo=2,
                              early_stop_patience=2)
        result = joint_train(corpus, val, None, config)
        assert [e.episode for e in result.episodes] == [0, 0, 1, 1, 2, 2]
        assert result.best_reward == 1.0

    def test_overlapping_splits_rejected(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path)
        with pytest.raises(ValueError, match="share queries"):
            joint_train(corpus, val, val, config)

    def test_out_of_range_k_rejected(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path, k_values=(5, 500))
        with pytest.raises(ValueError, match="out of range"):
            joint_train(corpus, val, None, config)

    def test_greedy_best_selection(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path, best_selection="greedy")
        result = joint_train(corpus, val, None, config)
        assert sum(result.best_config.unsup_mask) >= 1


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _ahead_counts(caplog) -> tuple[int, int]:
    """(trained ahead, drawn by a later episode) from a search's closing line."""
    (line,) = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("configurations trained ahead: ")]
    trained, drawn = line.removeprefix("configurations trained ahead: ").split(
        ", drawn by a later episode: ")
    return int(trained), int(drawn)


def _counting_live_children(monkeypatch) -> list[int]:
    """At each fork, the number of this process's children not yet reaped,
    the new one included."""
    live, counts = set(), []
    fork, waitpid = os.fork, os.waitpid

    def counting_fork():
        pid = fork()
        if pid:
            live.add(pid)
            counts.append(len(live))
        return pid

    def counting_waitpid(pid, options):
        reaped = waitpid(pid, options)
        live.discard(reaped[0])
        return reaped

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", counting_waitpid)
    return counts


def _compare_runs():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
    spec = importlib.util.spec_from_file_location("compare_runs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


class TestTrainingAhead:
    """With more processes than one, an episode that trains trains the
    configurations later episodes are predicted to draw alongside its own,
    one reward job per process; nothing it does shows in a run."""

    def _config(self, data, **overrides):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        return _fast_config(good_path, noise_path, **overrides)

    def test_a_run_with_a_hit_and_a_miss_is_the_run_of_one_process(self, data, tmp_path,
                                                                    caplog):
        corpus, ann, val, test = data[:4]
        for workers in (1, 2):
            caplog.clear()
            with caplog.at_level("INFO", logger="weakrank.trainer"):
                result = joint_train(corpus, val, test, self._config(data, workers=workers),
                                     workdir=tmp_path / f"w{workers}")
            _no_child_left()
        trained, drawn = _ahead_counts(caplog)
        assert trained > drawn >= 1  # a hit, and a prediction no episode drew
        lines = [r.getMessage() for r in caplog.records if " episodes: R " in r.getMessage()]
        assert sum(int(line.split(", trained ahead ")[1].split(",")[0]) for line in lines) == trained
        # `cached` counts the draws an earlier draw trained, never a trained-ahead one
        seen = set()
        for line, entry in zip(lines, result.episodes):
            signature = json.dumps(entry.config.to_dict(), sort_keys=True)
            assert f"cached {int(signature in seen)}/1," in line
            seen.add(signature)
        assert _compare_runs()(tmp_path / "w1", tmp_path / "w2")[0] == []

    def test_never_more_busy_processes_than_workers(self, data, monkeypatch):
        """Two rankers, so an episode that predicts nothing splits them over
        both processes, and one that predicts trains them in one."""
        corpus, ann, val, test = data[:4]
        rankers = SupModelRegistry([SupModelSpec("representation", "representation"),
                                    SupModelSpec("interaction", "interaction")])
        live = _counting_live_children(monkeypatch)
        joint_train(corpus, val, test, self._config(data, workers=2, sup_registry=rankers,
                                                    episodes=8))
        assert live and max(live) == 1
        _no_child_left()

    def test_a_miss_trains_two_predictions_at_three_workers(self, tmp_path, monkeypatch, caplog):
        from test_score_command import _sandbox

        from weakrank.cli import main

        live = _counting_live_children(monkeypatch)
        for workers in (1, 3):
            caplog.clear()
            root = tmp_path / f"w{workers}"
            _sandbox(root, unsup_models="bm25,text-embedding", k_values="5,10", episodes="4",
                     workers=str(workers))
            monkeypatch.chdir(root)
            with caplog.at_level("INFO", logger="weakrank.trainer"):
                assert main(["-q", "search", "--config", "exp.cfg"]) == 0
            _no_child_left()
        assert max(live) == 2
        assert any(", trained ahead 2, " in r.getMessage() for r in caplog.records)
        # only the files that record the workers setting itself differ
        differences = _compare_runs()(tmp_path / "w1" / "run", tmp_path / "w3" / "run")[0]
        assert differences == ["differs: config.cfg", "differs: manifest.json"]

    def test_a_sweep_is_the_sweep_of_one_process(self, tmp_path, monkeypatch, caplog):
        from test_score_command import _sandbox

        from weakrank.cli import main

        for workers in (1, 2):
            caplog.clear()
            root = tmp_path / f"w{workers}"
            _sandbox(root, unsup_models="bm25,text-embedding", external_scores="",
                     k_values="5,10", episodes="4", workers=str(workers))
            monkeypatch.chdir(root)
            with caplog.at_level("INFO", logger="weakrank.trainer"):
                assert main(["-q", "ablate", "--config", "exp.cfg", "--mode", "fix-k",
                             "--sweep"]) == 0
            _no_child_left()
        closing = [r.getMessage() for r in caplog.records
                   if r.getMessage().startswith("configurations trained ahead: ")]
        assert any(not line.startswith("configurations trained ahead: 0,") for line in closing)
        # only the files that record the workers setting itself differ
        differences = _compare_runs()(tmp_path / "w1" / "run", tmp_path / "w2" / "run")[0]
        assert {Path(line.removeprefix("differs: ")).name for line in differences} == {
            "config.cfg", "manifest.json"}
        assert len(differences) == 3 * 2  # the sweep's run and its two sub-runs

    def test_one_process_trains_nothing_ahead(self, data, monkeypatch, caplog):
        corpus, ann, val, test = data[:4]
        live = _counting_live_children(monkeypatch)
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            joint_train(corpus, val, test, self._config(data, workers=1))
        assert _ahead_counts(caplog) == (0, 0)
        assert live == []

    def test_an_early_stop_leaves_no_helper(self, data, caplog):
        corpus, ann, val, test = data[:4]
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            result = joint_train(corpus, val, test, self._config(
                data, workers=2, episodes=30, early_stop_patience=2))
        assert len(result.episodes) < 30
        assert _ahead_counts(caplog)[0] >= 1
        _no_child_left()

    def test_an_error_in_a_later_episode_leaves_no_helper(self, data, monkeypatch):
        corpus, ann, val, test = data[:4]
        calls, parent, compute = [], os.getpid(), trainer.configuration_rewards

        def failing_second(*args):
            if os.getpid() == parent:
                calls.append(args)
                if len(calls) == 2:  # this process's second training, a helper running
                    raise KeyboardInterrupt
            return compute(*args)

        monkeypatch.setattr(trainer, "configuration_rewards", failing_second)
        with pytest.raises(KeyboardInterrupt):
            joint_train(corpus, val, test, self._config(data, workers=2))
        _no_child_left()

    def _failing_in_helpers(self, monkeypatch):
        """``train_supervised`` that fails in any forked process, naming its seed."""
        parent, train = os.getpid(), trainer.train_supervised

        def train_here(model, triples, **kwargs):
            if os.getpid() != parent:
                raise ValueError(f"no training at seed {kwargs['seed']}")
            return train(model, triples, **kwargs)

        monkeypatch.setattr(trainer, "train_supervised", train_here)

    def test_a_failed_prediction_fails_only_the_episode_that_draws_it(self, data, tmp_path,
                                                                      monkeypatch):
        """A configuration trained ahead fails in its helper, and again in
        the episode that draws it, which raises what one process raises."""
        corpus, ann, val, test = data[:4]
        config = self._config(data, workers=2)
        predicted, predict = [], trainer.predicted_configurations

        def recording(*args):
            ahead = predict(*args)
            predicted.extend(sig for sig, _ in ahead)
            return ahead

        monkeypatch.setattr(trainer, "predicted_configurations", recording)
        drawn = {trainer._config_signature(e.config)
                 for e in joint_train(corpus, val, test, config).episodes}
        sig = next(sig for sig in predicted if sig in drawn)
        seed = derive_seed(config.seed, "sup-train", "interaction", sig)
        train = trainer.train_supervised

        def failing_at_that_seed(model, triples, **kwargs):
            if kwargs["seed"] == seed:
                raise ValueError(f"no training at seed {seed}")
            return train(model, triples, **kwargs)

        monkeypatch.setattr(trainer, "train_supervised", failing_at_that_seed)
        predicted.clear()
        message = f"^training failed for model 'interaction': no training at seed {seed}$"
        with pytest.raises(RuntimeError, match=message):
            joint_train(corpus, val, test, config, workdir=tmp_path / "w2")
        assert sig in predicted  # it failed ahead first
        _no_child_left()
        with pytest.raises(RuntimeError, match=message):
            joint_train(corpus, val, test, self._config(data, workers=1),
                        workdir=tmp_path / "w1")
        # raised by the same episode, after the same ones were logged
        assert ((tmp_path / "w1" / "episodes.jsonl").read_bytes()
                == (tmp_path / "w2" / "episodes.jsonl").read_bytes())

    def test_a_failed_prediction_that_is_not_drawn_is_ignored(self, data, monkeypatch, caplog):
        corpus, ann, val, test = data[:4]
        self._failing_in_helpers(monkeypatch)
        predict = trainer.predicted_configurations

        def never_drawn(*args):  # a k outside the grid, which no episode draws
            ahead = [dataclasses.replace(cfg, k_value=7) for _, cfg in predict(*args)]
            return [(trainer._config_signature(cfg), cfg) for cfg in ahead]

        monkeypatch.setattr(trainer, "predicted_configurations", never_drawn)
        live = _counting_live_children(monkeypatch)
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            ahead = joint_train(corpus, val, test, self._config(data, workers=2))
        assert live and _ahead_counts(caplog) == (0, 0)
        _no_child_left()
        alone = joint_train(corpus, val, test, self._config(data, workers=1))
        assert ahead.report == alone.report

    def test_a_helper_that_dies_is_replaced_by_training_here(self, data, monkeypatch, caplog):
        corpus, ann, val, test = data[:4]
        parent, compute = os.getpid(), trainer.configuration_rewards

        def dying_in_helpers(*args):
            if os.getpid() != parent:
                os._exit(3)
            return compute(*args)

        monkeypatch.setattr(trainer, "configuration_rewards", dying_in_helpers)
        with caplog.at_level("INFO", logger="weakrank.trainer"):
            died = joint_train(corpus, val, test, self._config(data, workers=2))
        assert _ahead_counts(caplog) == (0, 0)
        _no_child_left()
        assert died.report == joint_train(corpus, val, test, self._config(data, workers=1)).report


class TestAblation:
    def test_invalid_fixed_choice_rejected(self, data):
        corpus, ann, val, test, oracle_path, noise_path, good_path = data
        config = _fast_config(oracle_path, noise_path)
        with pytest.raises(ValueError, match="not in k_values"):
            clamp_for_ablation("fix-k", 999, config)
        with pytest.raises(ValueError, match="'unknown-model': choose from oracle, noise"):
            clamp_for_ablation("fix-unsup", "unknown-model", config)
        # an index or a 0/1 mask is not a name
        with pytest.raises(ValueError, match="unknown model 0: choose from interaction"):
            clamp_for_ablation("fix-sup", 0, config)
        with pytest.raises(ValueError, match="unknown model 1: choose from oracle, noise"):
            clamp_for_ablation("fix-unsup", (1, 0), config)
        with pytest.raises(ValueError, match="unknown ablation mode"):
            clamp_for_ablation("fix-everything", 0, config)
