"""Model registries: the ordered menus the controller chooses from, and
``HYPERPARAMETERS``, each model kind's hyperparameters with the only copy
of their defaults and rules, which ``check_config`` holds values to.

Registry order is part of a run's identity (it fixes the meaning of each
mask position), so registries are immutable once built. Externally supplied
score matrices plug in through the "external" kind, which is how scorers
outside this package (a pretrained contextual encoder, say) join the menu.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple

from .bm25 import bm25_matrix
from .corpus import Corpus
from .embeddings import (
    EmbeddingTable,
    cosine_matrix,
    doc_means,
    node_feature_matrix,
    train_text_embeddings,
)
from .graph import HetGraph
from .graph_embeddings import train_graph_embeddings
from .nncore import default_kernel_bank
from .scores import ScoreMatrix


class Follows(NamedTuple):
    """A default that is the value of the float search setting ``setting``."""
    setting: str


class Key(NamedTuple):
    """A declared key's default, and the rule its value keeps besides being
    of the default's type (an integer passes for a float, a bool only for a
    bool): finite, >= ``low``, > ``above``, <= ``high``, one of ``members``
    when given. A list is non-empty, each item so, its items ``distinct``
    when set, and as long as the key ``like``'s resolved list. ``str(key)``
    states the rule."""
    default: object
    low: float = -math.inf
    above: float = -math.inf
    high: float = math.inf
    members: tuple = ()
    like: str = ""
    distinct: bool = False

    def holds(self, value, resolved: dict) -> bool:
        kind = type(self.default)
        if kind in (list, tuple):
            other = resolved.get(self.like)
            return (type(value) in (list, tuple) and len(value) > 0
                    and all(self._replace(default=self.default[0]).holds(v, {}) for v in value)
                    and (not self.distinct or len(set(value)) == len(value))
                    and (type(other) not in (list, tuple) or len(value) == len(other)))
        if kind in (bool, str):
            return type(value) is kind and (not self.members or value in self.members)
        return (type(value) in ((int, float) if kind in (float, Follows) else (kind,))
                and math.isfinite(value) and self.low <= value <= self.high and value > self.above)

    def __str__(self):
        if type(self.default) in (list, tuple):
            return (f"a non-empty list{' of distinct values' * self.distinct}, "
                    f"each {self._replace(default=self.default[0])}"
                    + (self.like and f", as long as {self.like}"))
        if type(self.default) in (bool, str):
            return " or ".join(self.members or ("true", "false"))
        bounds = [f"{op} {bound:g}" for op, bound in ((">=", self.low), (">", self.above),
                                                      ("<=", self.high)) if math.isfinite(bound)]
        noun = "an integer" if type(self.default) is int else "a finite number"
        return " ".join([noun, ", ".join(bounds)]).rstrip()


def setting(default, **rule):
    """A dataclass field whose ``Key`` ``check_config`` holds its value to."""
    return field(default=default, metadata={"key": Key(default, **rule)})


_WALK = {"dim": Key(32, low=1), "n_walks": Key(10, low=1), "walk_len": Key(40, low=2),
         "window": Key(5, low=1), "neg": Key(5, low=0), "epochs": Key(2, low=1),
         "lr": Key(0.05, above=0)}
_PROXIMITY = {"dim": Key(32, low=1), "neg": Key(5, low=0), "epochs": Key(20, low=1),
              "lr": Key(0.05, above=0), "batch_size": Key(128, low=1)}
_LAYERS = {"hidden": Key(32, low=1), "out_dim": Key(32, low=1), "n_layers": Key(2, low=1)}
_MU, _SIGMA = (bank.tolist() for bank in default_kernel_bank())

# role -> kind -> {hyperparameter: Key}. A scorer and a ranker of one name
# share one ``hp.<name>`` dict, so each takes the keys either declares, and
# a key both declare carries one rule.
HYPERPARAMETERS = {
    "unsupervised": {
        "bm25": {"k1": Key(1.2, above=0), "b": Key(0.75, low=0, high=1)},
        "text-embedding": {},  # it scores with the backbone's table, set by backbone_*
        "graph-walk": _WALK,
        "graph-biased-walk": {**_WALK, "p": Key(1.0, above=0), "q": Key(0.5, above=0)},
        "graph-proximity-1": _PROXIMITY,
        "graph-proximity-2": _PROXIMITY,
        # the frozen node features are a text embedding trained with feature_*
        "graph-aggregation": {**_LAYERS, "neg": Key(5, low=0), "epochs": Key(3, low=1),
                              "lr": Key(0.01, above=0), "sample_size": Key(10, low=1),
                              "n_walks": Key(5, low=1), "walk_len": Key(20, low=2),
                              "window": Key(5, low=1), "batch_size": Key(256, low=1),
                              "feature_dim": Key(32, low=1), "feature_window": Key(5, low=1),
                              "feature_neg": Key(5, low=0), "feature_epochs": Key(2, low=1),
                              "feature_lr": Key(0.05, above=0)},
        "external": {},
    },
    "supervised": {
        "representation": {"hidden": Key(32, low=1), "lr": Key(Follows("sup_lr"), above=0)},
        "interaction": {"mus": Key(_MU, like="sigmas"), "sigmas": Key(_SIGMA, above=0, like="mus"),
                        "negative_exponent": Key(True), "lr": Key(Follows("sup_lr"), above=0)},
        "graph-aggregation": {**_LAYERS, "lr": Key(Follows("sup_lr"), above=0)},
    },
}


def check_config(settings, models=(), where=None) -> None:
    """The one check of a configuration, before anything is trained or
    written: refuses, naming key and value, a field of ``settings`` or an
    ``hp.<name>.<key>`` of a ``(name, kind, params)`` in ``models`` that
    breaks its rule, or that ``kind`` (None: no such model) does not declare.
    ``where`` maps an ``hp.<name>.<key>`` to the place that set it, which
    its refusal names first."""
    for f in fields(settings):
        declared, value = f.metadata.get("key"), getattr(settings, f.name)
        if declared and not declared.holds(value, {}):
            raise ValueError(f"{f.name} must be {declared}, not {value!r}")
    for name, kind, params in models:
        table = {k: v for kinds in HYPERPARAMETERS.values() for k, v in kinds.get(kind, {}).items()}
        resolved = {key: params.get(key, entry.default) for key, entry in table.items()}
        accepted = ", ".join(sorted(table)) or "none"
        for key, value in params.items():
            label = f"hp.{name}.{key}"
            if where and label in where:
                label = f"{where[label]}: {label}"
            if key not in table:
                raise ValueError(f"{label}: " + (
                    f"model {name!r} has no hyperparameter {key!r}" if kind else
                    f"no built-in model or external_scores entry is named {name!r}")
                    + f" (accepted keys: {accepted})")
            if not table[key].holds(value, resolved):
                raise ValueError(f"{label}: model {name!r} takes {table[key]} for "
                                 f"{key!r}, not {value!r}")


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
        return {key: self.params.get(key, getattr(settings, entry.default.setting, None)
                                     if isinstance(entry.default, Follows) else entry.default)
                for key, entry in HYPERPARAMETERS[self.role][self.kind].items()}


@dataclass(frozen=True)
class UnsupModelSpec(_ModelSpec):
    role: ClassVar[str] = "unsupervised"


@dataclass(frozen=True)
class SupModelSpec(_ModelSpec):
    role: ClassVar[str] = "supervised"


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


class _Registry(tuple):
    def __new__(cls, models):
        self = super().__new__(cls, models)
        if not self:
            raise ValueError("registry must contain at least one model")
        names = self.names
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate model names in registry: {names}")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValueError(f"model name {name!r} is not filesystem-safe")
        return self

    @property
    def names(self) -> list[str]:
        return [m.name for m in self]


class UnsupModelRegistry(_Registry):
    """Ordered unsupervised scorers; position i is mask position i."""


class SupModelRegistry(_Registry):
    """Ordered supervised rankers; position i is mask position i."""


def needs_graph(specs) -> bool:
    """Whether any of the model specs trains on the heterogeneous graph."""
    return any(spec.kind.startswith("graph-") for spec in specs)


def compute_score_matrix(
    spec: UnsupModelSpec, corpus: Corpus, graph: HetGraph | None, seed: int,
    table: EmbeddingTable | None = None,
) -> ScoreMatrix:
    """Pretrain one unsupervised model and score every (query, candidate). A
    text-embedding scorer trains nothing: it scores with ``table``, the
    run's one text table, which ``trainer.pretrain_all`` reads or trains."""
    hp = spec.hyperparameters()
    if spec.kind == "external":
        matrix = ScoreMatrix.load_csv(spec.params["path"], model_name=spec.name)
        if (matrix.query_ids, matrix.candidate_ids) != (corpus.query_ids, corpus.candidate_ids):
            raise ValueError(
                f"external matrix {spec.name!r} does not cover this corpus's "
                "queries/candidates in order"
            )
        return matrix
    if spec.kind == "bm25":
        values = bm25_matrix(corpus, **hp).values
    elif spec.kind == "text-embedding":
        if table is None:
            raise ValueError(f"model {spec.name!r} needs the backbone's text table")
        values = cosine_matrix(*doc_means(table, corpus))
    else:
        if graph is None:
            raise ValueError(f"model {spec.name!r} needs the heterogeneous graph")
        features = None
        if spec.kind == "graph-aggregation":
            feature_hp = {key.removeprefix("feature_"): value for key, value in hp.items()
                          if key.startswith("feature_")}
            table = train_text_embeddings(corpus, seed=seed, **feature_hp)
            features = node_feature_matrix(graph, corpus, table)
        Z = train_graph_embeddings(graph, spec.kind.removeprefix("graph-"), hp, seed,
                                   node_features=features)
        q_nodes, c_nodes = graph.doc_nodes(corpus)
        values = cosine_matrix(Z[q_nodes], Z[c_nodes])
    return ScoreMatrix(spec.name, corpus.query_ids, corpus.candidate_ids, values)
