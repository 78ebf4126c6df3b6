"""Configuration values for tests that need one but not a particular one.

Library functions take every setting and hyperparameter without a default,
so a test passes them. Each value here is read from its one declaration:
``SearchSettings``/``ExperimentConfig`` fields and ``registry.HYPERPARAMETERS``.
"""

from __future__ import annotations

from weakrank.config import ExperimentConfig
from weakrank.registry import UnsupModelSpec
from weakrank.trainer import _backbone_settings

SETTINGS = ExperimentConfig()
LIMITS = {"max_query_len": SETTINGS.max_query_len,
          "max_candidate_len": SETTINGS.max_candidate_len}
# the keywords RankerBackbone takes from the settings
GRAPH_SAMPLE = {"graph_sample_size": SETTINGS.graph_sample_size, "graph_seed": SETTINGS.seed}
# the keywords train_supervised takes from the settings
TRAINING = {"batch_size": SETTINGS.sup_batch_size, "algorithm": SETTINGS.sup_optimizer}


def scorer_hp(kind: str, **given) -> dict:
    """Every hyperparameter scorer ``kind`` declares: ``given``, else the
    table's default."""
    return UnsupModelSpec(kind, kind, given).hyperparameters()


def text_hp(**given) -> dict:
    """The text table's settings, ``train_text_embeddings``' keywords but
    the seed: ``given``, else the ``backbone_*`` default."""
    return {**_backbone_settings(SETTINGS), **given}
