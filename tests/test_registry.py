"""The hyperparameter table: every ``hp.<model>.<key>`` is checked against
it when a configuration becomes a run, and every model reads its defaults
from it."""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from weakrank.bm25 import bm25_matrix
from weakrank.config import ExperimentConfig
from weakrank.embeddings import train_text_embeddings
from weakrank.graph import build_graph
from weakrank.registry import (
    HYPERPARAMETERS,
    Follows,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
    check_hyperparameters,
)
from weakrank.synthetic import generate_synthetic
from weakrank.trainer import pretrain_all

ROOT = Path(__file__).resolve().parents[1]
WALK_KEYS = "dim, epochs, lr, n_walks, neg, walk_len, window"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def _run_config(*settings):
    return ExperimentConfig.from_file(None, list(settings)).to_run_config()


@pytest.mark.parametrize("settings,message", [
    (["hp.graph-walk.wlak_len=5"],
     "hp.graph-walk.wlak_len: model 'graph-walk' has no hyperparameter 'wlak_len' "
     f"(accepted keys: {WALK_KEYS})"),
    (["hp.bm25.k=1"], "model 'bm25' has no hyperparameter 'k' (accepted keys: b, k1)"),
    (["hp.text-embedding.seed=3"],
     "model 'text-embedding' has no hyperparameter 'seed' (accepted keys: dim, epochs, lr, "
     "neg, window)"),
    (["hp.representation.hiden=64"],
     "model 'representation' has no hyperparameter 'hiden' (accepted keys: hidden, lr)"),
    (["hp.nosuch.dim=3"],
     "hp.nosuch.dim: no built-in model or external_scores entry is named 'nosuch' "
     "(accepted keys: none)"),
    (["external_scores=ext=ext.csv", "hp.ext.dim=8"],
     "model 'ext' has no hyperparameter 'dim' (accepted keys: none)"),
    (["hp.external.path=x.csv"], "no built-in model or external_scores entry is named"),
    (["hp.graph-walk.n_walks=two"],
     "hp.graph-walk.n_walks: model 'graph-walk' takes a finite value of the type of its "
     "default (10) for 'n_walks', not 'two'"),
    (["hp.graph-walk.lr=NaN"], "default (0.05) for 'lr', not nan"),
    (["hp.graph-walk.lr=Infinity"], "default (0.05) for 'lr', not inf"),
    (["hp.graph-walk.dim=32.5"], "default (32) for 'dim', not 32.5"),
    (["hp.graph-walk.dim=true"], "default (32) for 'dim', not True"),
    (["hp.interaction.negative_exponent=1"], "default (True) for 'negative_exponent', not 1"),
    (["hp.interaction.mus=[0.5, NaN]"], "for 'mus', not [0.5, nan]"),
    (["hp.representation.lr=NaN"], "default (the sup_lr setting) for 'lr', not nan"),
], ids=["misspelt", "bm25-k", "text-seed", "ranker-misspelt", "no-such-model",
        "external-key", "external-kind", "string-for-int", "nan", "inf", "float-for-int",
        "bool-for-int", "int-for-bool", "nan-in-list", "ranker-lr-nan"])
def test_bad_hyperparameter_is_refused_with_model_key_and_accepted_keys(settings, message):
    with pytest.raises(ValueError) as err:
        _run_config(*settings)
    assert message in str(err.value)


def test_unknown_kind_is_refused_when_specs_are_built():
    # moved here from the graph dispatcher, which no longer checks methods
    with pytest.raises(ValueError, match="unknown unsupervised model kind 'graph-laplacian'"):
        UnsupModelSpec("graph-laplacian", "graph-laplacian")
    with pytest.raises(ValueError, match="unknown unsupervised model kind 'graph-laplacian'"):
        _run_config("unsup_models=graph-laplacian")
    with pytest.raises(ValueError, match="unknown supervised model kind 'laplacian'"):
        _run_config("sup_models=laplacian")


def test_unknown_graph_hyperparameter_is_refused_before_pretraining():
    # moved here from the graph dispatcher, which reads only declared keys
    with pytest.raises(ValueError, match=re.escape(
            f"model 'graph-walk' has no hyperparameter 'warp' (accepted keys: {WALK_KEYS})")):
        check_hyperparameters({"graph-walk": {"warp": 3}}, [])


@pytest.mark.parametrize("settings", [
    ["hp.graph-walk.lr=1"], ["hp.bm25.k1=2", "hp.bm25.b=0.5"],
    ["hp.interaction.mus=[0.5, -0.5]", "hp.interaction.sigmas=[0.1, 0.2]"],
    ["hp.interaction.negative_exponent=false"], ["hp.representation.lr=0.01"],
    ["hp.graph-walk.walk_len=60", "unsup_models=bm25"],
], ids=["int-for-float", "bm25", "kernel-bank", "bool", "ranker-lr", "model-off-the-menu"])
def test_declared_hyperparameters_are_accepted(settings):
    _run_config(*settings)


def test_shared_name_takes_either_models_keys_and_reaches_both():
    run = _run_config("hp.graph-aggregation.hidden=16", "hp.graph-aggregation.n_walks=2")
    scorer = run.unsup_registry[run.unsup_registry.names.index("graph-aggregation")]
    ranker = run.sup_registry[run.sup_registry.names.index("graph-aggregation")]
    assert scorer.params == ranker.params == {"hidden": 16, "n_walks": 2}
    assert scorer.hyperparameters()["hidden"] == ranker.hyperparameters()["hidden"] == 16
    assert "n_walks" not in ranker.hyperparameters()


def test_ranker_lr_follows_sup_lr_unless_given():
    run = _run_config("sup_lr=0.02", "hp.interaction.lr=0.1")
    lrs = {spec.name: spec.hyperparameters(run)["lr"] for spec in run.sup_registry}
    assert lrs == {"representation": 0.02, "interaction": 0.1, "graph-aggregation": 0.02}


def test_interaction_negative_exponent_follows_the_setting():
    run = _run_config("kernel_negative_exponent=false")
    inter = run.sup_registry[run.sup_registry.names.index("interaction")]
    assert inter.params == {"negative_exponent": False}
    assert inter.hyperparameters()["negative_exponent"] is False
    assert SupModelSpec("i", "interaction").hyperparameters()["negative_exponent"] is True


def test_resolving_defaults_leaves_params_as_given():
    spec = UnsupModelSpec("graph-biased-walk", "graph-biased-walk", {"p": 2})
    hp = spec.hyperparameters()
    assert spec.params == {"p": 2}
    assert hp["p"] == 2 and hp["q"] == HYPERPARAMETERS["unsupervised"]["graph-biased-walk"]["q"]
    assert set(hp) == set(HYPERPARAMETERS["unsupervised"]["graph-biased-walk"])


def test_library_defaults_are_read_from_the_functions():
    def defaults(fn):
        return {k: p.default for k, p in inspect.signature(fn).parameters.items()
                if p.default is not p.empty and k != "seed"}

    table = HYPERPARAMETERS["unsupervised"]
    assert table["bm25"] == defaults(bm25_matrix)
    assert table["text-embedding"] == defaults(train_text_embeddings)


def test_every_default_fits_its_own_check():
    for kinds in HYPERPARAMETERS.values():
        for kind, table in kinds.items():
            if kind != "external":
                plain = {k: v for k, v in table.items() if not isinstance(v, Follows)}
                check_hyperparameters({kind: plain}, [])


def test_cache_file_names_are_those_of_user_given_params(tmp_path):
    """The cache keys hash the params as given, never resolved defaults:
    these names were computed before the table existed."""
    corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
    registry = UnsupModelRegistry([UnsupModelSpec("bm25", "bm25", {"k1": 1.5}),
                                   UnsupModelSpec("graph-walk", "graph-walk", {})])
    pretrain_all(corpus, build_graph(corpus), registry, tmp_path, master_seed=0, workers=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "unsup_bm25_49cf21566e2a94a3.bin", "unsup_bm25_49cf21566e2a94a3.csv",
        "unsup_graph-walk_1d991f6a017c633f.bin", "unsup_graph-walk_1d991f6a017c633f.csv",
    ]
    assert [spec.params for spec in registry] == [{"k1": 1.5}, {}]


def test_benchmark_configurations_pass_the_check(monkeypatch):
    """Every benchmark run, preparing searches included, passes the check,
    with its scorer budget on the shared graph-aggregation dict."""
    workloads = _load_workloads(monkeypatch)
    budget = [f"hp.{scorer}.{key}={value}"
              for scorer, hp in workloads.SCORERS.items() for key, value in hp.items()]
    for wl in workloads.WORKLOADS.values():
        for keys in [wl.search, {**wl.search, **(wl.prep or {})}]:
            run = _run_config(*(f"{k}={v}" for k, v in keys.items()), *budget)
            assert run.unsup_registry.names == list(workloads.SCORERS)
            for spec in [*run.unsup_registry, *run.sup_registry]:
                shared = workloads.SCORERS.get(spec.name, {})
                assert spec.params == (shared if spec.kind != "interaction" else
                                       {**shared, "negative_exponent": True})


def test_readme_table_lists_every_declared_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    roles = {"unsupervised": "scorer", "supervised": "ranker"}
    for role, kinds in HYPERPARAMETERS.items():
        for kind, table in kinds.items():
            rows = [line for line in readme.splitlines()
                    if line.startswith(f"| `{kind}` | {roles[role]} |")]
            assert len(rows) == 1, (role, kind)
            missing = [key for key in table if f"`{key}`" not in rows[0]]
            assert not missing, (kind, missing)
            if not table:
                assert rows[0].endswith("| none |"), kind
