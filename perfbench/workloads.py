"""Workload definitions: corpus recipe, search configuration, preparation.

Each workload is generated from the benchmark's seed with ``weakrank
gen-synth``. A repetition times a search followed by ``score`` on its result.
A workload with ``prep`` is warm: a prior search with those overrides, into
the same run directory, fills its pretrain cache and backbone, and each
repetition keeps only ``cache/``. A workload without is cold: each repetition
starts from an empty run directory.

Every workload's menu holds all seven built-in scorers at the budget in
``SCORERS``, so each reports every scorer's MRR.
"""

from __future__ import annotations

from dataclasses import dataclass

# Pretraining budget, applied as hp.<scorer>.<key> overrides. Program
# defaults: walks n_walks=10 walk_len=40; proximity epochs=20; aggregation
# n_walks=5 walk_len=20 epochs=3 feature_epochs=2. Walks below this budget
# give embeddings whose MRR swings by a fifth between seeds.
SCORERS = {
    "bm25": {},
    "text-embedding": {},
    "graph-walk": {"n_walks": 2, "walk_len": 20},
    "graph-biased-walk": {"n_walks": 2, "walk_len": 20},
    "graph-proximity-1": {"epochs": 30},
    "graph-proximity-2": {"epochs": 30},
    "graph-aggregation": {"n_walks": 1, "walk_len": 10, "epochs": 1, "feature_epochs": 1},
}
ALL_SCORERS = ",".join(SCORERS)


@dataclass(frozen=True)
class Workload:
    why: str
    corpus: dict  # gen-synth arguments
    val_share: float  # share of queries in the validation split
    search: dict  # configuration keys of the timed (or preparing) search
    prep: dict | None = None  # overrides for the preparing search
    min_reps: int = 3  # repetitions made even when they take longer than --seconds
    scores: int = 1  # score commands per repetition of an untraced run


WORKLOADS = {
    "search-warm": Workload(
        why="re-running a search on a known corpus: pretraining is a cache hit, so the "
            "episode loop (pseudo labels, ranker training, validation scoring, controller) "
            "and score do the work",
        corpus=dict(queries=160, candidates=120, topics=6, vocab_per_topic=20, doc_len=16,
                    noise_rate=0.6),
        val_share=0.2,
        search=dict(unsup_models=ALL_SCORERS, sup_models="representation,interaction",
                    k_values=10, episodes=4, final_sup_epochs=3, backbone_epochs=3,
                    eval_negatives=49, seed=0),
        prep=dict(episodes=1),
    ),
    "pretrain-cold": Workload(
        why="an empty cache: pretraining all seven scorers (skip-gram, walks, proximity, "
            "aggregation), cache-miss writes and the graph ranker do the work search-warm "
            "skips",
        corpus=dict(queries=120, candidates=120, topics=6, vocab_per_topic=15, doc_len=16,
                    noise_rate=0.65),
        val_share=0.3,
        # A repetition takes 10-20 s, so a run makes three; three short score
        # commands alone would be too few samples for a steady median.
        scores=2,
        search=dict(unsup_models=ALL_SCORERS,
                    sup_models="representation,interaction,graph-aggregation", k_values=10,
                    episodes=1, final_sup_epochs=3, backbone_epochs=3, eval_negatives=49,
                    seed=0),
    ),
}
