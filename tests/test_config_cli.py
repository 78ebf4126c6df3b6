import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from weakrank.cli import main
from weakrank.config import ExperimentConfig
from weakrank.trainer import SearchSettings

# What ExperimentConfig().save() wrote before the search settings had one
# declaration: every configuration file in use names a subset of these keys.
RELEASED_DEFAULT_CFG = """\
annotations=
backbone_dim=32
backbone_epochs=3
backbone_lr=0.05
backbone_neg=5
backbone_window=5
baseline_decay=0.9
best_selection=reward
controller_hidden=32
controller_lr=0.5
corpus=
documents=
early_stop_patience=0
entropy_coef=0.0
episode_sup_epochs=5
episodes=200
eval_negatives=99
external_scores=
final_patience=5
final_sup_epochs=30
graph_sample_size=10
k_values=10,20,30,40,50
kernel_negative_exponent=True
max_candidate_len=200
max_query_len=100
n_monte_carlo=1
n_neg_per_pos=2
normalize_scores=True
output_dir=
pretrain_seed=-1
seed=0
split_seed=0
sup_batch_size=32
sup_lr=0.005
sup_models=representation,interaction,graph-aggregation
sup_optimizer=adam
test_annotations=
unsup_models=bm25,text-embedding,graph-walk,graph-biased-walk,graph-proximity-1,graph-proximity-2,graph-aggregation
use_baseline=True
val_annotations=
workers=0
"""
RELEASED_DEFAULT_HASH = "4200b1e40e2dafa3c2d4dee037018ac0aff5693cb6f33b96405b66fa1aebaa7a"


class TestExperimentConfig:
    def test_defaults_documented_and_typed(self):
        config = ExperimentConfig()
        assert config.episodes == 200
        assert config.k_values_tuple() == (10, 20, 30, 40, 50)
        assert config.eval_negatives == 99

    def test_unknown_key_rejected(self):
        config = ExperimentConfig()
        with pytest.raises(ValueError, match="unknown configuration key"):
            config.set_key("episdoes", "10")

    def test_type_coercion(self):
        config = ExperimentConfig()
        config.set_key("episodes", "42")
        config.set_key("controller_lr", "0.25")
        config.set_key("use_baseline", "false")
        assert config.episodes == 42
        assert config.controller_lr == 0.25
        assert config.use_baseline is False

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            ExperimentConfig().set_key("use_baseline", "maybe")

    def test_hp_prefix(self):
        config = ExperimentConfig()
        config.set_key("hp.graph-walk.walk_len", "60")
        config.set_key("hp.interaction.lr", "0.01")
        assert config.hp == {"graph-walk": {"walk_len": 60}, "interaction": {"lr": 0.01}}

    def test_file_roundtrip(self, tmp_path):
        config = ExperimentConfig()
        config.set_key("episodes", "17")
        config.set_key("hp.bm25.k1", "1.5")
        path = tmp_path / "exp.cfg"
        config.save(path)
        loaded = ExperimentConfig.from_file(path)
        assert loaded.content_hash() == config.content_hash()

    def test_overrides_apply_after_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        ExperimentConfig().save(path)
        loaded = ExperimentConfig.from_file(path, overrides=["episodes=3"])
        assert loaded.episodes == 3

    def test_registry_construction(self):
        config = ExperimentConfig()
        config.unsup_models = "bm25,text-embedding"
        config.external_scores = "plugin=path/to.csv"
        config.hp = {"bm25": {"k1": 1.5}}
        registry = config.build_unsup_registry()
        assert registry.names == ["bm25", "text-embedding", "plugin"]
        assert registry[0].params == {"k1": 1.5}
        assert registry[2].kind == "external"

    def test_unknown_model_rejected(self):
        config = ExperimentConfig()
        config.unsup_models = "bm42"
        with pytest.raises(ValueError, match="unknown unsupervised model"):
            config.build_unsup_registry()

    def test_kernel_exponent_flag_reaches_interaction_spec(self):
        config = ExperimentConfig()
        config.kernel_negative_exponent = False
        registry = config.build_sup_registry()
        inter = registry[registry.index_of("interaction")]
        assert inter.params["negative_exponent"] is False

    def test_to_run_config(self):
        config = ExperimentConfig()
        config.sup_models = "interaction"
        config.set_key("episodes", "5")
        run_config = config.to_run_config()
        assert run_config.episodes == 5
        assert run_config.sup_registry.names == ["interaction"]

    def test_every_search_setting_reaches_the_run_config(self):
        # baseline_decay must stay in [0, 1], so it moves to 0.5 instead of 2.9
        changed = {"best_selection": "greedy", "sup_optimizer": "sgd", "baseline_decay": 0.5}
        config = ExperimentConfig()
        for f in fields(SearchSettings):
            default = getattr(config, f.name)
            if isinstance(default, bool):
                changed[f.name] = not default
            elif isinstance(default, (int, float)):
                changed.setdefault(f.name, default + 2)
            config.set_key(f.name, str(changed[f.name]))
        assert len(changed) == 27
        run_config = config.to_run_config()
        for name, value in changed.items():
            assert getattr(run_config, name) == value, name
            assert getattr(run_config, name) != getattr(SearchSettings(), name), name

    def test_accepts_exactly_the_released_keys(self):
        lines = RELEASED_DEFAULT_CFG.splitlines()
        keys = [line.partition("=")[0] for line in lines] + ["hp"]
        assert len(keys) == 42
        assert sorted(f.name for f in fields(ExperimentConfig)) == sorted(keys)
        config = ExperimentConfig()
        for line in lines:
            config.set_key(*line.split("=", 1))
        config.set_key("hp.bm25.k1", "1.5")
        with pytest.raises(ValueError, match="unknown configuration key"):
            config.set_key("hp", "{}")

    def test_default_save_writes_the_released_bytes(self, tmp_path):
        ExperimentConfig().save(tmp_path / "exp.cfg")
        assert (tmp_path / "exp.cfg").read_text(encoding="utf-8") == RELEASED_DEFAULT_CFG
        assert ExperimentConfig().content_hash() == RELEASED_DEFAULT_HASH


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main([
        "gen-synth", "--queries", "8", "--candidates", "120", "--topics", "4",
        "--vocab-per-topic", "8", "--doc-len", "15", "--noise-rate", "0.1",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    return out


class TestCli:
    def test_gen_synth_outputs(self, synth_dir):
        assert (synth_dir / "docs.jsonl").exists()
        assert (synth_dir / "annotations.tsv").exists()
        assert (synth_dir / "corpus.json").exists()

    def test_gen_synth_idempotent(self, synth_dir, tmp_path):
        again = tmp_path / "again"
        main([
            "gen-synth", "--queries", "8", "--candidates", "120", "--topics", "4",
            "--vocab-per-topic", "8", "--doc-len", "15", "--noise-rate", "0.1",
            "--seed", "5", "--out", str(again),
        ])
        assert (again / "docs.jsonl").read_bytes() == (synth_dir / "docs.jsonl").read_bytes()
        assert (again / "corpus.json").read_bytes() == (synth_dir / "corpus.json").read_bytes()

    def test_ingest_roundtrips_gen_synth(self, synth_dir, tmp_path):
        out = tmp_path / "corpus.json"
        rc = main([
            "ingest", "--docs", str(synth_dir / "docs.jsonl"),
            "--annotations", str(synth_dir / "annotations.tsv"),
            "--out", str(out), "--set", "max_query_len=15", "--set", "max_candidate_len=15",
        ])
        assert rc == 0
        assert out.read_bytes() == (synth_dir / "corpus.json").read_bytes()

    def test_eval_command_emits_metric_json(self, synth_dir, tmp_path, capsys):
        from weakrank.bm25 import bm25_matrix
        from weakrank.corpus import Corpus

        corpus = Corpus.load(synth_dir / "corpus.json")
        scores = tmp_path / "bm25.csv"
        bm25_matrix(corpus).save_csv(scores)
        rc = main([
            "eval", "--corpus", str(synth_dir / "corpus.json"),
            "--annotations", str(synth_dir / "annotations.tsv"),
            "--scores", str(scores), "--seed", "3",
            "--set", "eval_negatives=80",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        for key in ("hr@5", "ndcg@5", "mrr", "n_lists"):
            assert key in payload
        assert 0.0 <= payload["mrr"] <= 1.0

    def test_eval_reads_a_permuted_csv_in_corpus_order(self, synth_dir, tmp_path, capsys):
        import numpy as np

        from weakrank.bm25 import bm25_matrix
        from weakrank.corpus import Corpus
        from weakrank.scores import ScoreMatrix

        corpus = Corpus.load(synth_dir / "corpus.json")
        matrix = bm25_matrix(corpus)
        rng = np.random.default_rng(0)
        q_perm = rng.permutation(len(corpus.query_ids))
        c_perm = rng.permutation(len(corpus.candidate_ids))
        permuted = ScoreMatrix("bm25", [corpus.query_ids[i] for i in q_perm],
                               [corpus.candidate_ids[j] for j in c_perm],
                               matrix.values[np.ix_(q_perm, c_perm)])
        narrow = ScoreMatrix("bm25", corpus.query_ids, corpus.candidate_ids[1:],
                             matrix.values[:, 1:])

        def run_eval(m, name):
            path = tmp_path / f"{name}.csv"
            m.save_csv(path)
            rc = main(["eval", "--corpus", str(synth_dir / "corpus.json"),
                       "--annotations", str(synth_dir / "annotations.tsv"),
                       "--scores", str(path), "--seed", "3", "--set", "eval_negatives=80"])
            return rc, capsys.readouterr()

        ordered = run_eval(matrix, "ordered")
        assert ordered[0] == 0
        assert run_eval(permuted, "permuted") == ordered
        rc, captured = run_eval(narrow, "narrow")  # a CSV must cover the corpus's ids
        assert rc == 2
        assert f"no row or column for id {corpus.candidate_ids[0]!r}" in captured.err

    def test_eval_refuses_a_csv_with_a_duplicate_column(self, synth_dir, tmp_path, capsys):
        from weakrank.bm25 import bm25_matrix
        from weakrank.corpus import Corpus

        corpus = Corpus.load(synth_dir / "corpus.json")
        path = tmp_path / "bm25.csv"
        bm25_matrix(corpus).save_csv(path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        first = corpus.candidate_ids[0]
        # the first candidate's column again, under its own id, at the end
        path.write_text("\n".join([header + "," + first]
                                  + [r + "," + r.split(",")[1] for r in rows]) + "\n",
                        encoding="utf-8")
        rc = main(["eval", "--corpus", str(synth_dir / "corpus.json"),
                   "--annotations", str(synth_dir / "annotations.tsv"),
                   "--scores", str(path), "--seed", "3", "--set", "eval_negatives=80"])
        assert rc == 2
        assert f"duplicate candidate id {first!r}" in capsys.readouterr().err

    def test_error_exit_is_machine_parsable(self, capsys):
        rc = main(["eval", "--annotations", "nope.tsv", "--scores", "nope.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_config_key_fails_cleanly(self, capsys):
        rc = main(["pretrain", "--set", "bogus_key=1"])
        assert rc == 2
        assert "unknown configuration key" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "episodes=0", "unsup_models=nope", "sup_batch_size=0", "n_neg_per_pos=0",
        "eval_negatives=-1", "graph_sample_size=0", "backbone_dim=0",
        "early_stop_patience=-1", "final_patience=-1", "sup_optimizer=rmsprop",
        "controller_hidden=0", "backbone_window=0", "backbone_neg=0", "backbone_epochs=0",
        "controller_lr=-1", "sup_lr=0", "backbone_lr=-0.1", "sup_lr=inf",
        "baseline_decay=1.5", "entropy_coef=nan", "entropy_coef=inf", "entropy_coef=-inf",
    ])
    @pytest.mark.parametrize("command", [["search"], ["ablate", "--mode", "fix-k", "--sweep"]],
                             ids=["search", "ablate"])
    def test_bad_configuration_writes_nothing(self, synth_dir, tmp_path, capsys,
                                              command, setting):
        # eval_negatives=20 fits the corpus, so only ``setting`` is at fault
        out = tmp_path / "run"
        rc = main([*command, "--set", f"corpus={synth_dir / 'corpus.json'}",
                   "--set", f"annotations={synth_dir / 'annotations.tsv'}",
                   "--set", f"output_dir={out}", "--set", "eval_negatives=20",
                   "--set", setting])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ValueError: ")
        assert not out.exists()

    @pytest.mark.parametrize("command,setting,message", [
        (["search"], "k_values=500", "k value 500 out of range"),
        (["search"], "eval_negatives=99", "eligible negatives"),
        (["ablate", "--mode", "fix-k", "--fixed", "35"], "k_values=10", "fixed k 35 not in"),
        (["ablate", "--mode", "fix-unsup", "--fixed", "nope"], "seed=0", "nope"),
    ], ids=["k-range", "eval-lists", "fixed-k", "fixed-scorer"])
    def test_failed_search_input_check_writes_nothing(self, synth_dir, tmp_path, capsys,
                                                      command, setting, message):
        out = tmp_path / "run"
        rc = main([*command, "--set", f"corpus={synth_dir / 'corpus.json'}",
                   "--set", f"annotations={synth_dir / 'annotations.tsv'}",
                   "--set", f"output_dir={out}", "--set", "eval_negatives=20",
                   "--set", setting])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_console_entrypoint(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for module in ("weakrank.cli", "weakrank"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "--version"],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
            )
            assert proc.returncode == 0, module
            assert "weakrank" in proc.stdout
