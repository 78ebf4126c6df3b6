import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from defaults import scorer_hp
from weakrank.cli import main
from weakrank.config import ExperimentConfig
from weakrank.trainer import SearchSettings

# What ExperimentConfig().save() wrote before the search settings had one
# declaration, less kernel_negative_exponent, which
# hp.interaction.negative_exponent replaced: every configuration file in use
# names a subset of these keys.
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
RELEASED_DEFAULT_HASH = "756e52652dcb86b5dca09a03a8f1389728d40292d5a2c30c2b270edaa7715a46"


class TestExperimentConfig:
    def test_defaults_documented_and_typed(self):
        config = ExperimentConfig()
        assert config.episodes == 200
        assert config.to_run_config().k_values == (10, 20, 30, 40, 50)
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

    def test_override_without_equals_rejected(self):
        with pytest.raises(ValueError, match="--set: expected key=value, got 'episodes'"):
            ExperimentConfig.from_file(None, overrides=["episodes"])

    @pytest.mark.parametrize("line,message", [
        ("seed=abc", "seed must be an integer, not 'abc'"),
        ("controller_lr=fast", "controller_lr must be a number, not 'fast'"),
        ("use_baseline=maybe", "use_baseline must be a boolean, not 'maybe'"),
    ])
    def test_a_malformed_value_names_its_source_and_key(self, tmp_path, capsys, line, message):
        path = tmp_path / "exp.cfg"
        path.write_text(f"# a comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(path)
        assert str(err.value) == f"{path}:2: {message}"
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(None, overrides=[line])
        assert str(err.value) == f"--set: {message}"
        assert main(["search", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ValueError: {path}:2: {message}\n"

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

    def test_kernel_bank_reaches_interaction_spec(self):
        config = ExperimentConfig()
        config.set_key("hp.interaction.mus", "[1.0, 0.5]")
        config.set_key("hp.interaction.sigmas", "[0.001, 0.1]")
        registry = config.build_sup_registry()
        inter = registry[registry.names.index("interaction")]
        assert inter.params == {"mus": [1.0, 0.5], "sigmas": [0.001, 0.1]}

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
        assert len(keys) == 41
        assert sorted(f.name for f in fields(ExperimentConfig)) == sorted(keys)
        config = ExperimentConfig()
        for line in lines:
            config.set_key(*line.split("=", 1))
        config.set_key("hp.bm25.k1", "1.5")
        for removed in ("hp", "kernel_negative_exponent"):
            with pytest.raises(ValueError, match="unknown configuration key"):
                config.set_key(removed, "{}")

    def test_default_save_writes_the_released_bytes(self, tmp_path):
        ExperimentConfig().save(tmp_path / "exp.cfg")
        assert (tmp_path / "exp.cfg").read_text(encoding="utf-8") == RELEASED_DEFAULT_CFG
        assert ExperimentConfig().content_hash() == RELEASED_DEFAULT_HASH


def test_every_key_of_the_readme_quick_start_is_accepted(tmp_path):
    """The README quick start's ``exp.cfg`` block parses through the one
    configuration check, and each of its lines sets its key: a removed or
    renamed key cannot leave the quick start stale."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("cat > exp.cfg <<EOF\n", 1)[1].split("\nEOF\n", 1)[0]
    (tmp_path / "exp.cfg").write_text(block + "\n", encoding="utf-8")
    config = ExperimentConfig.from_file(tmp_path / "exp.cfg")
    items = [line.partition("=")[::2] for line in block.splitlines()
             if line.strip() and not line.startswith("#")]
    assert len(items) >= 8
    for key, value in items:
        if key.startswith("hp."):
            _, model, name = key.split(".", 2)
            assert config.hp[model][name] == json.loads(value), key
        else:
            assert str(getattr(config, key)) == value, key


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
        bm25_matrix(corpus, **scorer_hp("bm25")).save_csv(scores)
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
        matrix = bm25_matrix(corpus, **scorer_hp("bm25"))
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
        bm25_matrix(corpus, **scorer_hp("bm25")).save_csv(path)
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

    def test_eval_refuses_an_annotations_file_without_pairs(self, synth_dir, tmp_path, capsys):
        """No pair means no evaluation list: the command names the empty split
        and exits 2 before ranking anything, with no NumPy warning."""
        import warnings

        from weakrank.bm25 import bm25_matrix
        from weakrank.corpus import Corpus

        corpus = Corpus.load(synth_dir / "corpus.json")
        scores = tmp_path / "bm25.csv"
        bm25_matrix(corpus, **scorer_hp("bm25")).save_csv(scores)
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", "--corpus", str(synth_dir / "corpus.json"),
                       "--annotations", str(empty), "--scores", str(scores), "--seed", "3",
                       "--set", "eval_negatives=80"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: ValueError: the 'all' annotation split is empty: "
                                "it has no evaluation lists\n")

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
        "hp.graph-walk.n_walks",
        "hp.graph-walk.wlak_len=5", "hp.bm25.k=1", "hp.text-embedding.seed=3",
        "hp.graph-walk.n_walks=two", "hp.representation.hiden=64", "hp.nosuch.dim=3",
        "hp.graph-walk.lr=NaN", "hp.graph-walk.dim=32.5",
        "external_scores=ext=ext.csv;hp.ext.dim=8",
        "hp.graph-walk.dim=0", "hp.interaction.mus=[0.5]", "hp.text-embedding.epochs=-1",
        "hp.text-embedding.dim=8", "hp.text-embedding.epochs=10",
        "hp.graph-biased-walk.q=0.0", "hp.representation.hidden=0", "hp.bm25.b=5.0",
        "max_query_len=-3",
    ])
    @pytest.mark.parametrize("command", [["search"], ["ablate", "--mode", "fix-k", "--sweep"],
                                         ["pretrain"]], ids=["search", "ablate", "pretrain"])
    def test_bad_configuration_writes_nothing(self, synth_dir, tmp_path, capsys, monkeypatch,
                                              command, setting):
        # eval_negatives=20 fits the corpus and ext.csv is a valid scorer, so
        # only ``setting`` (one or more ;-separated keys) is at fault
        from weakrank.bm25 import bm25_matrix
        from weakrank.corpus import Corpus

        monkeypatch.chdir(tmp_path)
        bm25_matrix(Corpus.load(synth_dir / "corpus.json"),
                    **scorer_hp("bm25")).save_csv(tmp_path / "ext.csv")
        out = tmp_path / "run"
        rc = main([*command, "--set", f"corpus={synth_dir / 'corpus.json'}",
                   "--set", f"annotations={synth_dir / 'annotations.tsv'}",
                   "--set", f"output_dir={out}", "--set", "eval_negatives=20",
                   *(arg for key in setting.split(";") for arg in ("--set", key))])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ")
        key = setting.split(";")[-1].partition("=")[0]
        if key.startswith("hp.") or key in {f.name for f in fields(ExperimentConfig)
                                            if "key" in f.metadata}:
            assert key.rpartition(".")[2] in err  # the key is named
        # neither the run directory nor its pretrain cache exists
        assert [p.name for p in tmp_path.iterdir()] == ["ext.csv"]

    @pytest.mark.parametrize("key", ["dim", "window", "neg", "epochs", "lr"])
    def test_a_text_embedding_key_in_a_config_file_writes_nothing(self, synth_dir, tmp_path,
                                                                  capsys, monkeypatch, key):
        """The text-embedding scorer scores with the backbone's table, so
        ``backbone_*`` alone sets it: a key of its own is refused."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text(
            f"corpus={synth_dir / 'corpus.json'}\nannotations={synth_dir / 'annotations.tsv'}\n"
            f"output_dir=run\nunsup_models=bm25,text-embedding\nhp.text-embedding.{key}=3\n")
        assert main(["search", "--config", "exp.cfg"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: ValueError: exp.cfg:5: hp.text-embedding.{key}: model "
                       f"'text-embedding' has no hyperparameter {key!r} (accepted keys: none)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("setting,value", [
        ("hp.graph-walk.dim=0", "0"), ("hp.interaction.mus=[0.5]", "[0.5]"),
        ("hp.graph-walk.epochs=-1", "-1"), ("hp.graph-biased-walk.q=0.0", "0.0"),
        ("hp.representation.hidden=0", "0"), ("hp.bm25.b=5.0", "5.0"),
    ])
    def test_a_value_outside_its_rule_is_named_with_its_key(self, setting, value):
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(None, [setting])
        assert str(err.value).startswith("--set: " + setting.partition("=")[0] + ": ")
        assert str(err.value).endswith(f", not {value}")

    def test_a_refused_hyperparameter_names_the_place_that_set_it_last(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed=1\nhp.bm25.b=5.0\n")
        with pytest.raises(ValueError, match=r"^.*exp\.cfg:2: hp\.bm25\.b: "):
            ExperimentConfig.from_file(path)
        assert ExperimentConfig.from_file(path, ["hp.bm25.b=0.5"]).hp == {"bm25": {"b": 0.5}}
        path.write_text("hp.bm25.b=0.5\n")
        with pytest.raises(ValueError, match=r"^--set: hp\.bm25\.b: "):
            ExperimentConfig.from_file(path, ["hp.bm25.b=5.0"])

    @pytest.mark.parametrize("limit", ["max_query_len=-3", "max_query_len=0",
                                       "max_candidate_len=0"])
    def test_ingest_refuses_a_length_limit_below_one(self, synth_dir, tmp_path, capsys, limit):
        out = tmp_path / "corpus.json"
        rc = main(["ingest", "--docs", str(synth_dir / "docs.jsonl"), "--out", str(out),
                   "--set", limit])
        assert rc == 2
        name, _, value = limit.partition("=")
        assert capsys.readouterr().err.strip() == (
            f"error: ValueError: {name} must be an integer >= 1, not {value}")
        assert not out.exists()

    @pytest.mark.parametrize("command,setting,message", [
        (["search"], "k_values=500", "k value 500 out of range"),
        (["search"], "k_values=10,10,20", "k_values must be a non-empty list of distinct values"),
        (["search"], "eval_negatives=99", "eligible negatives"),
        (["ablate", "--mode", "fix-k", "--fixed", "35"], "k_values=10", "fixed k 35 not in"),
        (["ablate", "--mode", "fix-unsup", "--fixed", "nope"], "seed=0", "nope"),
        (["ablate", "--mode", "fix-k", "--sweep"], "k_values=10,500", "k value 500 out of range"),
        (["ablate", "--mode", "fix-k", "--sweep"], "k_values=10,10,20",
         "k_values must be a non-empty list of distinct values, each an integer >= 1, "
         "not (10, 10, 20)"),
        (["ablate", "--mode", "fix-unsup", "--sweep"], "external_scores=cache=scores.csv",
         "sub-run cannot be its pretrain cache"),
        (["ablate", "--mode", "fix-k", "--sweep", "--fixed", "10"], "seed=0",
         "exactly one of --fixed and --sweep"),
        (["ablate", "--mode", "fix-sup"], "seed=0", "exactly one of --fixed and --sweep"),
    ], ids=["k-range", "repeated-k", "eval-lists", "fixed-k", "fixed-scorer", "sweep-k-range",
            "sweep-repeated-k", "sweep-into-cache", "fixed-and-sweep", "neither"])
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

    @pytest.mark.parametrize("test_annotations", ["tset.tsv", ""], ids=["missing", "empty"])
    def test_a_named_test_split_must_exist(self, synth_dir, tmp_path, capsys, monkeypatch,
                                           test_annotations):
        """A ``test_annotations`` path that names no file fails before the run
        directory exists; an empty value means there is no test split."""
        from weakrank.corpus import load_annotations_tsv, save_annotations_tsv, split_annotations

        monkeypatch.chdir(tmp_path)
        val, _ = split_annotations(load_annotations_tsv(synth_dir / "annotations.tsv"), seed=0)
        save_annotations_tsv(tmp_path / "val.tsv", val)
        settings = [f"corpus={synth_dir / 'corpus.json'}", "val_annotations=val.tsv",
                    f"test_annotations={test_annotations}", "output_dir=run",
                    "unsup_models=bm25", "sup_models=interaction", "k_values=5", "episodes=1",
                    "episode_sup_epochs=1", "final_sup_epochs=1", "backbone_dim=8",
                    "backbone_epochs=1", "eval_negatives=20", "workers=1"]
        rc = main(["search", *(arg for key in settings for arg in ("--set", key))])
        if test_annotations:
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: FileNotFoundError: ") and "tset.tsv" in err
            assert [p.name for p in tmp_path.iterdir()] == ["val.tsv"]
        else:
            assert rc == 0
            assert json.loads((tmp_path / "run" / "report.json").read_text())["test"] is None

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
