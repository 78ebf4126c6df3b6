"""Model registries: the ordered menus the controller chooses from, and
``HYPERPARAMETERS``, each model kind's hyperparameters with the only copy
of their defaults.

Registry order is part of a run's identity (it fixes the meaning of each
mask position), so registries are immutable once built. Externally supplied
score matrices plug in through the "external" kind, which is how scorers
outside this package (a pretrained contextual encoder, say) join the menu.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

from .bm25 import bm25_matrix
from .corpus import Corpus
from .embeddings import node_feature_matrix, score_matrix_from_embeddings, train_text_embeddings
from .graph import HetGraph
from .graph_embeddings import train_graph_embeddings
from .nncore import default_kernel_bank
from .scores import ScoreMatrix


class Follows(NamedTuple):
    """A default that is the value of the float search setting ``setting``."""
    setting: str


def _keyword_defaults(fn, *skip: str) -> dict:
    """``fn``'s keyword defaults less ``skip``, so the table need not repeat them."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty and name not in skip}


_TEXT = _keyword_defaults(train_text_embeddings, "seed")
_WALK = {"dim": 32, "n_walks": 10, "walk_len": 40, "window": 5, "neg": 5, "epochs": 2,
         "lr": 0.05}
_PROXIMITY = {"dim": 32, "neg": 5, "epochs": 20, "lr": 0.05, "batch_size": 128}
_LAYERS = {"hidden": 32, "out_dim": 32, "n_layers": 2}
_MUS, _SIGMAS = (bank.tolist() for bank in default_kernel_bank())

# role -> kind -> {hyperparameter: default}. A scorer and a ranker of one
# name share one ``hp.<name>`` dict, so each takes the keys either declares.
HYPERPARAMETERS = {
    "unsupervised": {
        "bm25": _keyword_defaults(bm25_matrix),
        "text-embedding": _TEXT,
        "graph-walk": _WALK,
        "graph-biased-walk": {**_WALK, "p": 1.0, "q": 0.5},
        "graph-proximity-1": _PROXIMITY,
        "graph-proximity-2": _PROXIMITY,
        # the frozen node features are a text embedding trained with feature_*
        "graph-aggregation": {**_LAYERS, "neg": 5, "epochs": 3, "lr": 0.01, "sample_size": 10,
                              "n_walks": 5, "walk_len": 20, "window": 5, "batch_size": 256,
                              **{f"feature_{key}": v for key, v in _TEXT.items()},
                              "feature_epochs": 2},
        "external": {},
    },
    "supervised": {
        "representation": {"hidden": 32, "lr": Follows("sup_lr")},
        "interaction": {"mus": _MUS, "sigmas": _SIGMAS, "negative_exponent": True,
                        "lr": Follows("sup_lr")},
        "graph-aggregation": {**_LAYERS, "lr": Follows("sup_lr")},
    },
}


@dataclass(frozen=True)
class _ModelSpec:
    role: ClassVar[str]
    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in HYPERPARAMETERS[self.role]:
            raise ValueError(f"unknown {self.role} model kind {self.kind!r}")
        if self.kind == "external" and "path" not in self.params:
            raise ValueError(f"external model {self.name!r} needs a 'path' parameter")

    def hyperparameters(self, settings=None) -> dict:
        """Every hyperparameter the kind declares: the value in ``params``,
        else the table's default. A default that follows a search setting
        is read from ``settings`` (None without them)."""
        return {key: self.params.get(key, getattr(settings, default.setting, None)
                                     if isinstance(default, Follows) else default)
                for key, default in HYPERPARAMETERS[self.role][self.kind].items()}


@dataclass(frozen=True)
class UnsupModelSpec(_ModelSpec):
    role: ClassVar[str] = "unsupervised"


@dataclass(frozen=True)
class SupModelSpec(_ModelSpec):
    role: ClassVar[str] = "supervised"


def _fits(value, default) -> bool:
    """Whether ``value`` fits ``default``: a finite number for a float or a setting, a
    list of finite numbers for a list, else the very type (no bool for an int)."""
    if isinstance(default, (float, Follows)):
        return type(value) in (int, float) and math.isfinite(value)
    if isinstance(default, list):
        return type(value) is list and len(value) > 0 and all(_fits(v, 0.0) for v in value)
    return type(value) is type(default)


def check_hyperparameters(hp: dict, external_names) -> None:
    """Refuse an ``hp.<name>.<key>`` that no model named ``name`` declares,
    or whose value does not fit the declared default. ``name`` is a built-in
    kind or one of ``external_names``, which take no keys."""
    for name, params in hp.items():
        tables = [kinds[name] for kinds in HYPERPARAMETERS.values()
                  if name in kinds and name != "external"]
        declared = {key: default for table in tables for key, default in table.items()}
        accepted = ", ".join(sorted(declared)) or "none"
        for key, value in params.items():
            if not tables and name not in external_names:
                raise ValueError(f"hp.{name}.{key}: no built-in model or external_scores "
                                 f"entry is named {name!r} (accepted keys: {accepted})")
            if key not in declared:
                raise ValueError(f"hp.{name}.{key}: model {name!r} has no hyperparameter "
                                 f"{key!r} (accepted keys: {accepted})")
            default = declared[key]
            if not _fits(value, default):
                shown = (f"the {default.setting} setting" if isinstance(default, Follows)
                         else default)
                raise ValueError(f"hp.{name}.{key}: model {name!r} takes a finite value of the "
                                 f"type of its default ({shown}) for {key!r}, not {value!r}")


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class _Registry:
    def __init__(self, models):
        self.models = tuple(models)
        if not self.models:
            raise ValueError("registry must contain at least one model")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names in registry: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"model name {name!r} is not filesystem-safe")

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.models]

    def __len__(self):
        return len(self.models)

    def __iter__(self):
        return iter(self.models)

    def __getitem__(self, i):
        return self.models[i]


class UnsupModelRegistry(_Registry):
    """Ordered unsupervised scorers; position i is mask position i."""


class SupModelRegistry(_Registry):
    """Ordered supervised rankers; position i is mask position i."""


def needs_graph(specs) -> bool:
    """Whether any of the model specs trains on the heterogeneous graph."""
    return any(spec.kind.startswith("graph-") for spec in specs)


def compute_score_matrix(
    spec: UnsupModelSpec, corpus: Corpus, graph: HetGraph | None, seed: int
) -> ScoreMatrix:
    """Pretrain one unsupervised model and score every (query, candidate)."""
    hp = spec.hyperparameters()
    if spec.kind == "bm25":
        matrix = bm25_matrix(corpus, **hp)
    elif spec.kind == "text-embedding":
        table = train_text_embeddings(corpus, seed=seed, **hp)
        matrix = score_matrix_from_embeddings(table, corpus, "doc-mean")
    elif spec.kind == "external":
        matrix = ScoreMatrix.load_csv(spec.params["path"], model_name=spec.name)
        if (matrix.query_ids, matrix.candidate_ids) != (corpus.query_ids, corpus.candidate_ids):
            raise ValueError(
                f"external matrix {spec.name!r} does not cover this corpus's "
                "queries/candidates in order"
            )
    else:
        if graph is None:
            raise ValueError(f"model {spec.name!r} needs the heterogeneous graph")
        features = None
        if spec.kind == "graph-aggregation":
            feature_hp = {key.removeprefix("feature_"): value for key, value in hp.items()
                          if key.startswith("feature_")}
            table = train_text_embeddings(corpus, seed=seed, **feature_hp)
            features = node_feature_matrix(graph, corpus, table)
        node_table = train_graph_embeddings(graph, spec.kind.removeprefix("graph-"), hp, seed,
                                            node_features=features)
        matrix = score_matrix_from_embeddings(node_table, corpus, "node")
    return ScoreMatrix(spec.name, matrix.query_ids, matrix.candidate_ids, matrix.values)
