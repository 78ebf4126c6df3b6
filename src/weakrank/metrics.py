"""Ranking metrics under the 1-positive-plus-sampled-negatives protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotationSet, Corpus
from .scores import ScoreMatrix


@dataclass(frozen=True)
class EvalList:
    """One positive plus its sampled negative candidates for a query."""

    query_id: str
    positive_id: str
    negative_ids: tuple[str, ...]

    def __post_init__(self):
        if self.positive_id in self.negative_ids:
            raise ValueError(f"positive {self.positive_id!r} appears among negatives")
        if len(set(self.negative_ids)) != len(self.negative_ids):
            raise ValueError("negative ids contain duplicates")

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return (self.positive_id,) + self.negative_ids


def build_eval_lists(
    annotations: AnnotationSet, corpus: Corpus, seed: int, n_negatives: int = 99
) -> list[EvalList]:
    """One list per (query, positive) pair with seeded uniform negatives.

    Negatives are drawn from candidates not annotated positive for that
    query, so a query's other positives never appear as its negatives.
    """
    rng = np.random.default_rng(seed)
    cand_ids = corpus.candidate_ids
    column = {cid: j for j, cid in enumerate(cand_ids)}
    pos_by_query: dict[str, list[str]] = {}
    for qid, cid, label in annotations.pairs:
        if label == 1:
            pos_by_query.setdefault(qid, []).append(cid)

    lists = []
    for qid in annotations.query_ids:
        positives = pos_by_query.get(qid, [])
        if not positives:
            raise ValueError(f"annotated query {qid!r} has no positive candidate")
        keep = np.ones(len(cand_ids), dtype=bool)
        keep[[column[c] for c in positives if c in column]] = False
        eligible = np.flatnonzero(keep)  # candidate columns, in corpus order
        if len(eligible) < n_negatives:
            raise ValueError(
                f"query {qid!r} has only {len(eligible)} eligible negatives, "
                f"needs {n_negatives}"
            )
        for pos in positives:
            draw = rng.choice(len(eligible), size=n_negatives, replace=False)
            negatives = tuple([cand_ids[j] for j in eligible[np.sort(draw)].tolist()])
            lists.append(EvalList(qid, pos, negatives))
    return lists


def ranks_of_positives(lists, scores) -> np.ndarray:
    """1-based rank of each list's positive, descending score, ties by id
    ascending. ``scores`` holds one row per list, the positive's score first."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != len(lists):
        raise ValueError("need one score row per eval list")
    if not lists:
        return np.zeros(0, dtype=np.int64)
    for el in lists:
        if len(el.candidate_ids) != scores.shape[1]:
            raise ValueError(f"got {scores.shape[1]} scores for {len(el.candidate_ids)} candidates")
    pos = scores[:, :1]
    neg = scores[:, 1:]
    ranks = 1 + np.count_nonzero(neg > pos, axis=1)
    for r, j in zip(*np.nonzero(neg == pos)):
        ranks[r] += lists[r].negative_ids[j] < lists[r].positive_id
    return ranks


def rank_of_positive(eval_list: EvalList, scores: np.ndarray) -> int:
    """1-based rank of the positive, descending score, ties by id ascending."""
    return int(ranks_of_positives([eval_list], np.asarray(scores, dtype=np.float64)[None])[0])


def hr_at_k(lists, scores, k: int = 5) -> float:
    """Fraction of lists whose positive ranks within the top k."""
    return float(np.mean(ranks_of_positives(lists, scores) <= k))


def ndcg_at_k(lists, scores, k: int = 5) -> float:
    """Single-positive discounted gain: 1/log2(rank+1) inside the cutoff."""
    ranks = ranks_of_positives(lists, scores)
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(np.mean(gains))


def mrr(lists, scores) -> float:
    """Mean reciprocal rank of the positive, no cutoff."""
    return float(np.mean(1.0 / ranks_of_positives(lists, scores)))


def all_metrics(lists, scores, k: int = 5) -> dict:
    ranks = ranks_of_positives(lists, scores)
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return {
        f"hr@{k}": float(np.mean(ranks <= k)),
        f"ndcg@{k}": float(np.mean(gains)),
        "mrr": float(np.mean(1.0 / ranks)),
        "n_lists": len(lists),
    }


def score_lists_with_matrix(lists, matrix: ScoreMatrix) -> list[np.ndarray]:
    """Look up each list's candidate scores in a score matrix."""
    out = []
    for el in lists:
        row = matrix.row(el.query_id)
        cols = matrix.columns_for(el.candidate_ids)
        out.append(row[cols])
    return out
