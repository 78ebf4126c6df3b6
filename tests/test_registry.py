"""The declared keys: every search setting and every ``hp.<model>.<key>``
carries its default and its rule, ``check_config`` holds a configuration to
them before anything runs, and every model reads its defaults from them."""

import ast
import importlib.util
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from weakrank.config import ExperimentConfig
from weakrank.graph import build_graph
from weakrank.registry import (
    HYPERPARAMETERS,
    Follows,
    Key,
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
    check_config,
)
from weakrank.synthetic import generate_synthetic
from weakrank.trainer import RunConfig, SearchSettings, pretrain_all

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
     "model 'text-embedding' has no hyperparameter 'seed' (accepted keys: none)"),
    (["hp.representation.hiden=64"],
     "model 'representation' has no hyperparameter 'hiden' (accepted keys: hidden, lr)"),
    (["hp.nosuch.dim=3"],
     "hp.nosuch.dim: no built-in model or external_scores entry is named 'nosuch' "
     "(accepted keys: none)"),
    (["external_scores=ext=ext.csv", "hp.ext.dim=8"],
     "model 'ext' has no hyperparameter 'dim' (accepted keys: none)"),
    (["hp.external.path=x.csv"], "no built-in model or external_scores entry is named"),
    (["hp.graph-walk.n_walks=two"],
     "hp.graph-walk.n_walks: model 'graph-walk' takes an integer >= 1 for 'n_walks', "
     "not 'two'"),
    (["hp.graph-walk.lr=NaN"], "hp.graph-walk.lr: model 'graph-walk' takes a finite number > 0 "
                               "for 'lr', not nan"),
    (["hp.graph-walk.lr=Infinity"], "for 'lr', not inf"),
    (["hp.graph-walk.dim=32.5"], "takes an integer >= 1 for 'dim', not 32.5"),
    (["hp.graph-walk.dim=true"], "takes an integer >= 1 for 'dim', not True"),
    (["hp.interaction.mus=[0.5, NaN]"], "for 'mus', not [0.5, nan]"),
    (["hp.representation.lr=NaN"],
     "hp.representation.lr: model 'representation' takes a finite number > 0 for 'lr', "
     "not nan"),
    (["hp.graph-walk.dim=0"], "hp.graph-walk.dim: model 'graph-walk' takes an integer >= 1 "
                              "for 'dim', not 0"),
    (["hp.interaction.mus=[0.5]"],
     "hp.interaction.mus: model 'interaction' takes a non-empty list, each a finite number, "
     "as long as sigmas for 'mus', not [0.5]"),
    (["hp.interaction.sigmas=[0.1, 0.2]"], "as long as mus for 'sigmas', not [0.1, 0.2]"),
    (["hp.interaction.sigmas=[0.1, 0]", "hp.interaction.mus=[1, 0.5]"],
     "takes a non-empty list, each a finite number > 0, as long as mus for 'sigmas', "
     "not [0.1, 0]"),
    (["hp.graph-walk.epochs=-1"], "for 'epochs', not -1"),
    (["hp.graph-biased-walk.q=0.0"], "takes a finite number > 0 for 'q', not 0.0"),
    (["hp.representation.hidden=0"], "for 'hidden', not 0"),
    (["hp.bm25.b=5.0"], "hp.bm25.b: model 'bm25' takes a finite number >= 0, <= 1 for 'b', "
                        "not 5.0"),
    (["episodes=0"], "episodes must be an integer >= 1, not 0"),
    (["sup_optimizer=rmsprop"], "sup_optimizer must be adam or sgd, not 'rmsprop'"),
    (["max_query_len=-3"], "max_query_len must be an integer >= 1, not -3"),
    (["k_values=,"], "k_values must be a non-empty list of distinct values, each an integer "
                     ">= 1, not ()"),
], ids=["misspelt", "bm25-k", "text-seed", "ranker-misspelt", "no-such-model",
        "external-key", "external-kind", "string-for-int", "nan", "inf", "float-for-int",
        "bool-for-int", "nan-in-list", "ranker-lr-nan", "zero-dim",
        "short-mus", "short-sigmas", "zero-sigma", "negative-epochs", "zero-q", "zero-hidden",
        "b-above-1", "zero-episodes", "unknown-optimizer", "negative-query-len",
        "empty-k-values"])
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
        check_config(SearchSettings(), [("graph-walk", "graph-walk", {"warp": 3})])


@pytest.mark.parametrize("settings", [
    ["hp.graph-walk.lr=1"], ["hp.bm25.k1=2", "hp.bm25.b=0.5"],
    ["hp.interaction.mus=[0.5, -0.5]", "hp.interaction.sigmas=[0.1, 0.2]"],
    ["hp.representation.lr=0.01"],
    ["hp.graph-walk.walk_len=60", "unsup_models=bm25"],
], ids=["int-for-float", "bm25", "kernel-bank", "ranker-lr", "model-off-the-menu"])
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


def test_resolving_defaults_leaves_params_as_given():
    spec = UnsupModelSpec("graph-biased-walk", "graph-biased-walk", {"p": 2})
    hp = spec.hyperparameters()
    assert spec.params == {"p": 2}
    assert hp["p"] == 2
    assert hp["q"] == HYPERPARAMETERS["unsupervised"]["graph-biased-walk"]["q"].default
    assert set(hp) == set(HYPERPARAMETERS["unsupervised"]["graph-biased-walk"])


# Parameters that take a setting's value under another name.
ALIASES = {"n_negatives", "decay", "normalize", "algorithm", "graph_seed"}
# The classes whose fields declare the settings, each the value's one source.
DECLARING = {"SearchSettings", "RunConfig", "ExperimentConfig"}


def defaulted_settings(source: str, names) -> list[str]:
    """``<function or class>:<name>`` for each parameter or class field in
    ``names`` that ``source`` gives a default, outside ``DECLARING``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
            found += [f"{getattr(node, 'name', 'lambda')}:{arg.arg}" for arg in defaulted
                      if arg.arg in names]
        elif isinstance(node, ast.ClassDef) and node.name not in DECLARING:
            found += [f"{node.name}:{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and item.value is not None
                      and isinstance(item.target, ast.Name) and item.target.id in names]
    return found


def test_library_functions_take_settings_without_defaults():
    """A setting's or hyperparameter's default is written once, where it is
    declared: no function in ``src/weakrank`` defaults a parameter named like
    a setting, an ``hp`` key or an alias of one, and no dataclass a field."""
    names = ({f.name for f in fields(ExperimentConfig)} | {f.name for f in fields(RunConfig)}
             | {key for kinds in HYPERPARAMETERS.values() for table in kinds.values()
                for key in table} | ALIASES)
    assert defaulted_settings("def f(a, n_negatives=99, *, lr=0.1, seed): pass\n"
                              "class B:\n    decay: float = 0.9\n", names) == [
        "f:n_negatives", "f:lr", "B:decay"]
    found = [f"{path.name}:{where}" for path in sorted((ROOT / "src" / "weakrank").glob("*.py"))
             for where in defaulted_settings(path.read_text(encoding="utf-8"), names)]
    assert found == []


def test_cache_file_names_are_those_of_user_given_params(tmp_path):
    """The cache keys hash the params as given, never resolved defaults:
    these names were computed before the table existed."""
    corpus, _ = generate_synthetic(6, 10, 2, 6, 12, 0.0, seed=2)
    registry = UnsupModelRegistry([UnsupModelSpec("bm25", "bm25", {"k1": 1.5}),
                                   UnsupModelSpec("graph-walk", "graph-walk", {})])
    config = RunConfig(unsup_registry=registry, seed=0, workers=1,
                       sup_registry=SupModelRegistry([SupModelSpec("interaction", "interaction")]))
    pretrain_all(corpus, build_graph(corpus), config, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "backbone_75f289bc3f8733d7.bin", "unsup_bm25_49cf21566e2a94a3.bin", "unsup_bm25_49cf21566e2a94a3.csv",
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
                assert spec.params == workloads.SCORERS.get(spec.name, {})


# ExperimentConfig fields that hold no plain value: paths, the menus, the k
# grid as written (RunConfig's parsed k_values carries the rule) and hp.
RULELESS = {"corpus", "documents", "annotations", "val_annotations", "test_annotations",
            "output_dir", "external_scores", "unsup_models", "sup_models", "k_values", "hp"}


def _settings() -> dict:
    """Every declared setting: name -> (its Key, a check of one value)."""
    def check_file_key(name):
        def check(value):
            config = ExperimentConfig()
            setattr(config, name, value)
            check_config(config)
        return check

    def check_k_values(value):
        run = _run_config()
        run.k_values = value
        check_config(run)

    declared = {f.name: (f.metadata.get("key"), check_file_key(f.name))
                for f in fields(ExperimentConfig) if f.name not in RULELESS}
    declared["k_values"] = ({f.name: f for f in fields(RunConfig)}["k_values"].metadata["key"],
                            check_k_values)
    return declared


def _hyperparameters() -> dict:
    """Every declared hyperparameter: hp.<kind>.<key> -> (its Key, a check of one value)."""
    def check(kind, key):
        return lambda value: check_config(SearchSettings(), [(kind, kind, {key: value})])

    return {f"hp.{kind}.{key}": (entry, check(kind, key))
            for kinds in HYPERPARAMETERS.values() for kind, table in kinds.items()
            for key, entry in table.items()}


DECLARED = {**_settings(), **_hyperparameters()}


def _edges(entry: Key) -> list[tuple]:
    """(first value outside the rule, value just inside it) at each of a
    numeric rule's bounds; a float rule also refuses inf and nan."""
    default = entry.default[0] if type(entry.default) in (list, tuple) else entry.default
    if type(default) is int:
        return [(entry.low - 1, entry.low)]
    if type(default) not in (float, Follows):
        return []
    down, up = (lambda x: math.nextafter(x, -math.inf)), (lambda x: math.nextafter(x, math.inf))
    edges = [(math.inf, min(entry.high, 1e300)), (math.nan, 0.5)]
    if math.isfinite(entry.low):
        edges.append((down(entry.low), entry.low))
    if math.isfinite(entry.above):
        edges.append((entry.above, up(entry.above)))
    if math.isfinite(entry.high):
        edges.append((up(entry.high), entry.high))
    return edges


def _as_value(entry: Key, item):
    """``item`` as the key's value: a list of the length its rule asks for
    (one item where its items must be distinct)."""
    if type(entry.default) not in (list, tuple):
        return item
    return [item] * (1 if entry.distinct else len(entry.default))


def test_every_setting_and_hyperparameter_declares_a_rule():
    for f in fields(ExperimentConfig):
        assert (f.name in RULELESS) != isinstance(f.metadata.get("key"), Key), f.name
    assert set(f.name for f in fields(RunConfig) if "key" in f.metadata) == (
        set(f.name for f in fields(SearchSettings)) | {"k_values"})
    for name, (entry, _) in DECLARED.items():
        assert isinstance(entry, Key), name


def test_every_default_fits_its_own_check():
    for name, (entry, check) in DECLARED.items():
        default = entry.default
        if isinstance(default, Follows):
            default = getattr(SearchSettings(), default.setting)
        check(default)


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_each_bound_of_a_rule_is_exact(name):
    entry, check = DECLARED[name]
    for outside, inside in _edges(entry):
        check(_as_value(entry, inside))
        with pytest.raises(ValueError, match=re.escape(name.rpartition(".")[2])):
            check(_as_value(entry, outside))
    if type(entry.default) in (list, tuple):
        with pytest.raises(ValueError, match="non-empty list"):
            check([])
    if entry.distinct:
        with pytest.raises(ValueError, match="of distinct values"):
            check([entry.default[0]] * 2)


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_a_value_of_another_type_is_refused(name):
    entry, check = DECLARED[name]
    for wrong in ("5", None, [1], {"a": 1}) + (() if type(entry.default) is bool else (True,)):
        if type(entry.default) in (list, tuple) and type(wrong) is list:
            continue
        with pytest.raises(ValueError):
            check(wrong)


def test_a_key_both_graph_aggregation_models_declare_carries_one_rule():
    scorer = HYPERPARAMETERS["unsupervised"]["graph-aggregation"]
    ranker = HYPERPARAMETERS["supervised"]["graph-aggregation"]
    shared = set(scorer) & set(ranker)
    assert shared == {"hidden", "out_dim", "n_layers", "lr"}
    for key in shared:
        assert scorer[key]._replace(default=None) == ranker[key]._replace(default=None), key


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
            segments = rows[0].split(" | ")[-1].rstrip(" |").split("; ")
            for key, entry in table.items():
                found = [seg for seg in segments if seg.startswith(f"`{key}` ")]
                assert len(found) == 1 and found[0].endswith(f"({entry})"), (kind, key, found)
            if not table:
                assert rows[0].endswith("| none |"), kind
    for name, (entry, _) in _settings().items():
        rows = [line for line in readme.splitlines() if line.startswith(f"| `{name}` |")]
        assert len(rows) == 1, name
        shown = str(entry.default).lower() if type(entry.default) is bool else entry.default
        if name == "k_values":
            shown = ",".join(map(str, entry.default))
        assert rows[0].endswith(f"| {shown} | {entry} |"), (name, rows[0])
