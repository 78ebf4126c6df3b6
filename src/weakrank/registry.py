"""Model registries: the ordered menus the controller chooses from.

Registry order is part of a run's identity (it fixes the meaning of each
mask position), so registries are immutable once built. Externally supplied
score matrices plug in through the "external" kind, which is how scorers
outside this package (a pretrained contextual encoder, say) join the menu.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .bm25 import bm25_matrix
from .corpus import Corpus
from .embeddings import node_feature_matrix, score_matrix_from_embeddings, train_text_embeddings
from .graph import HetGraph
from .graph_embeddings import train_graph_embeddings
from .ioutil import stable_hash
from .scores import ScoreMatrix

UNSUP_KINDS = (
    "bm25",
    "text-embedding",
    "graph-walk",
    "graph-biased-walk",
    "graph-proximity-1",
    "graph-proximity-2",
    "graph-aggregation",
    "external",
)

SUP_KINDS = ("representation", "interaction", "graph-aggregation")


@dataclass(frozen=True)
class UnsupModelSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in UNSUP_KINDS:
            raise ValueError(f"unknown unsupervised model kind {self.kind!r}")
        if self.kind == "external" and "path" not in self.params:
            raise ValueError(f"external model {self.name!r} needs a 'path' parameter")

    def hp_hash(self) -> str:
        return stable_hash({"kind": self.kind, "params": self.params})


@dataclass(frozen=True)
class SupModelSpec:
    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SUP_KINDS:
            raise ValueError(f"unknown supervised model kind {self.kind!r}")

    def hp_hash(self) -> str:
        return stable_hash({"kind": self.kind, "params": self.params})


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
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def names(self) -> list[str]:
        return [m.name for m in self.models]

    def index_of(self, name: str) -> int:
        return self._index[name]

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
    params = dict(spec.params)
    if spec.kind == "bm25":
        matrix = bm25_matrix(corpus, **params)
    elif spec.kind == "text-embedding":
        table = train_text_embeddings(corpus, seed=seed, **params)
        matrix = score_matrix_from_embeddings(table, corpus, "doc-mean")
    elif spec.kind == "external":
        matrix = ScoreMatrix.load_csv(params["path"], model_name=spec.name)
        if matrix.query_ids != tuple(corpus.query_ids) or matrix.candidate_ids != tuple(
            corpus.candidate_ids
        ):
            raise ValueError(
                f"external matrix {spec.name!r} does not cover this corpus's "
                "queries/candidates in order"
            )
    else:
        if graph is None:
            raise ValueError(f"model {spec.name!r} needs the heterogeneous graph")
        method = spec.kind.removeprefix("graph-")
        features = None
        if method == "aggregation":
            feat_hp = {
                "dim": params.pop("feature_dim", 32),
                "window": params.pop("feature_window", 5),
                "neg": params.pop("feature_neg", 5),
                "epochs": params.pop("feature_epochs", 2),
                "lr": params.pop("feature_lr", 0.05),
            }
            table = train_text_embeddings(corpus, seed=seed, **feat_hp)
            features = node_feature_matrix(graph, corpus, table)
        node_table = train_graph_embeddings(graph, method, params, seed, node_features=features)
        matrix = score_matrix_from_embeddings(node_table, corpus, "node")
    return ScoreMatrix(spec.name, matrix.query_ids, matrix.candidate_ids, matrix.values)
