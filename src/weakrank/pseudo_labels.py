"""Aggregate unsupervised score matrices into top-k pseudo labels."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ioutil import canonical_json
from .scores import ScoreMatrix, min_max_rows


def normalize_per_query(m: ScoreMatrix) -> ScoreMatrix:
    """Min-max scale each query row to [0, 1]; constant rows become all 0.5."""
    return ScoreMatrix(m.model_name, m.query_ids, m.candidate_ids, min_max_rows(m.values))


def aggregate(matrices: list[ScoreMatrix], mask, normalize: bool = True) -> ScoreMatrix:
    """Entrywise mean of the selected matrices (normalized per query first,
    unless raw mode is requested)."""
    mask = np.asarray(mask)
    if len(mask) != len(matrices):
        raise ValueError(f"mask length {len(mask)} != {len(matrices)} matrices")
    selected = [m for m, keep in zip(matrices, mask) if keep]
    if not selected:
        raise ValueError("mask selects no matrices")
    ref = selected[0]
    for m in selected[1:]:
        if m.query_ids != ref.query_ids or m.candidate_ids != ref.candidate_ids:
            raise ValueError(f"matrix {m.model_name!r} has mismatched query/candidate ids")
    if normalize:
        selected = [normalize_per_query(m) for m in selected]
    values = np.mean([m.values for m in selected], axis=0)
    return ScoreMatrix("aggregate", ref.query_ids, ref.candidate_ids, values)


@dataclass(frozen=True)
class PseudoLabelSet:
    """Per query: k positives ordered by aggregated score, rest negative."""

    k: int
    query_ids: tuple[str, ...]
    positives: dict  # query id -> tuple of candidate ids, score-descending
    negatives: dict  # query id -> tuple of candidate ids (residual pool)

    def __post_init__(self):
        for qid in self.query_ids:
            pos, neg = self.positives[qid], self.negatives[qid]
            if len(pos) != self.k:
                raise ValueError(f"query {qid!r} has {len(pos)} positives, expected k={self.k}")
            if set(pos) & set(neg):
                raise ValueError(f"query {qid!r} has overlapping positives and negatives")

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for qid in self.query_ids:
                fh.write(canonical_json(
                    {"query_id": qid, "positives": list(self.positives[qid]), "k": self.k}
                ))
                fh.write("\n")


def top_k_labels(agg: ScoreMatrix, k: int) -> PseudoLabelSet:
    """Mark each query's k highest-scored candidates positive.

    Ties break by candidate id ascending, so labels are reproducible for any
    score matrix.
    """
    n_cand = len(agg.candidate_ids)
    if not 1 <= k < n_cand:
        raise ValueError(f"k={k} out of range [1, {n_cand - 1}]")
    cand_ids = agg.candidate_ids
    by_id = np.argsort(np.array(cand_ids), kind="stable")
    positives, negatives = {}, {}
    for qi, qid in enumerate(agg.query_ids):
        row = agg.values[qi][by_id]
        ranked = [cand_ids[j] for j in by_id[np.argsort(-row, kind="stable")].tolist()]
        positives[qid] = tuple(ranked[:k])
        negatives[qid] = tuple(ranked[k:])
    return PseudoLabelSet(k, agg.query_ids, positives, negatives)


def sample_training_pairs(labels: PseudoLabelSet, n_neg_per_pos: int, seed: int):
    """Triples (query, positive, negative): each positive paired with
    n_neg_per_pos uniform draws from that query's negative pool."""
    rng = np.random.default_rng(seed)
    triples = []
    for qid in labels.query_ids:
        pool = labels.negatives[qid]
        if not pool:
            raise ValueError(f"query {qid!r} has an empty negative pool")
        for pos in labels.positives[qid]:
            draws = rng.integers(len(pool), size=n_neg_per_pos)
            for d in draws:
                triples.append((qid, pos, pool[int(d)]))
    return triples
