"""Automated weak supervision for ranking tasks.

Pipeline: unsupervised scorers produce relevance matrices, top-k aggregation
turns them into pseudo labels, neural rankers train on those labels, and a
recurrent policy trained with reinforcement learning searches for the best
combination of scorers, k, and rankers.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig
from .controller import (
    BaselineState,
    Clamp,
    Configuration,
    ControllerParams,
    EpisodeLog,
    action_log_prob,
    reinforce_update,
    sample_configuration,
)
from .corpus import AnnotationSet, Corpus, Document, build_corpus, split_annotations, tokenize
from .graph import HetGraph, build_graph
from .metrics import EvalList, build_eval_lists, hr_at_k, mrr, ndcg_at_k
from .pseudo_labels import (
    PseudoLabelSet,
    aggregate,
    normalize_per_query,
    sample_training_pairs,
    top_k_labels,
)
from .registry import (
    SupModelRegistry,
    SupModelSpec,
    UnsupModelRegistry,
    UnsupModelSpec,
)
from .scores import ScoreMatrix
from .synthetic import generate_synthetic
from .trainer import RunConfig, RunResult, ablation_run, joint_train, pretrain_all

__all__ = [
    "AnnotationSet",
    "BaselineState",
    "Clamp",
    "Configuration",
    "ControllerParams",
    "Corpus",
    "Document",
    "EpisodeLog",
    "EvalList",
    "ExperimentConfig",
    "HetGraph",
    "PseudoLabelSet",
    "RunConfig",
    "RunResult",
    "ScoreMatrix",
    "SupModelRegistry",
    "SupModelSpec",
    "UnsupModelRegistry",
    "UnsupModelSpec",
    "ablation_run",
    "action_log_prob",
    "aggregate",
    "build_corpus",
    "build_eval_lists",
    "build_graph",
    "generate_synthetic",
    "hr_at_k",
    "joint_train",
    "mrr",
    "ndcg_at_k",
    "normalize_per_query",
    "pretrain_all",
    "reinforce_update",
    "sample_configuration",
    "sample_training_pairs",
    "split_annotations",
    "tokenize",
    "top_k_labels",
]
