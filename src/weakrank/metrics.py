"""Ranking metrics under the 1-positive-plus-sampled-negatives protocol."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import AnnotationSet, Corpus
from .scores import ScoreMatrix


@dataclass(frozen=True, eq=False)
class EvalLists:
    """Evaluation lists as corpus positions: list i ranks the candidate
    columns ``cols[i]``, its positive first, for query row ``rows[i]``.
    The corpus's id tuples travel along for the tie-break and for checks
    that a score source covers the same corpus."""

    rows: np.ndarray  # (n,) int64
    cols: np.ndarray  # (n, 1 + negatives) int64
    query_ids: tuple[str, ...]
    candidate_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def id_order(self) -> np.ndarray:
        """Each candidate column's place in ascending id order, so a tie
        between two columns breaks by comparing two integers."""
        ids = self.candidate_ids
        order = np.empty(len(ids), dtype=np.int32)  # a tie-break gathers one per negative
        order[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return order


def _positives(annotations: AnnotationSet, corpus: Corpus, n_negatives: int):
    """Per annotated query, in order: (its query row, its positives' columns).
    Raises as soon as a query has no positive or fewer than ``n_negatives``
    eligible negatives: candidates it does not annotate positive, counted."""
    annotations.validate_against(corpus)
    pos_by_query: dict[str, list[int]] = {}
    for qid, cid, label in annotations.pairs:
        if label == 1:
            pos_by_query.setdefault(qid, []).append(corpus.candidate_column[cid])

    for qid in annotations.query_ids:
        positives = pos_by_query.get(qid, [])
        if not positives:
            raise ValueError(f"annotated query {qid!r} has no positive candidate")
        n_eligible = len(corpus.candidate_ids) - len(positives)  # each pair annotated once
        if n_eligible < n_negatives:
            raise ValueError(
                f"query {qid!r} has only {n_eligible} eligible negatives, "
                f"needs {n_negatives}"
            )
        yield corpus.query_row[qid], positives


def check_eval_lists(annotations: AnnotationSet, corpus: Corpus, n_negatives: int) -> None:
    """Raise the error ``build_eval_lists`` would, without drawing a list or
    building a query's eligible negatives, so an infeasible split fails
    before any training."""
    for _ in _positives(annotations, corpus, n_negatives):
        pass


def build_eval_lists(
    annotations: AnnotationSet, corpus: Corpus, seed: int, n_negatives: int
) -> EvalLists:
    """One list per (query, positive) pair with seeded uniform negatives.

    Negatives are drawn from candidates not annotated positive for that
    query, so a query's other positives never appear as its negatives.
    """
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for row, positives in _positives(annotations, corpus, n_negatives):
        keep = np.ones(len(corpus.candidate_ids), dtype=bool)
        keep[positives] = False
        eligible = np.flatnonzero(keep)  # candidate columns, in corpus order
        for pos in positives:
            draw = rng.choice(len(eligible), size=n_negatives, replace=False)
            rows.append(row)
            cols.append(np.concatenate([[pos], eligible[np.sort(draw)]]))
    return EvalLists(np.array(rows, dtype=np.int64),
                     np.array(cols, dtype=np.int64).reshape(len(rows), 1 + n_negatives),
                     corpus.query_ids, corpus.candidate_ids)


def ranks_of_positives(lists: EvalLists, scores) -> np.ndarray:
    """1-based rank of each list's positive, descending score, ties by id
    ascending. ``scores`` holds one row per list, the positive's score first."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != len(lists):
        raise ValueError("need one score row per eval list")
    if not lists:
        return np.zeros(0, dtype=np.int64)
    if lists.cols.shape[1] != scores.shape[1]:
        raise ValueError(f"got {scores.shape[1]} scores for {lists.cols.shape[1]} candidates")
    pos = scores[:, :1]
    neg = scores[:, 1:]
    ranks = 1 + np.count_nonzero(neg > pos, axis=1)
    tied = neg == pos
    if tied.any():
        order = lists.id_order
        ranks += np.count_nonzero(tied & (order[lists.cols[:, 1:]] < order[lists.cols[:, :1]]),
                                  axis=1)
    return ranks


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


def score_lists_with_matrix(lists: EvalLists, matrix: ScoreMatrix) -> np.ndarray:
    """Each list's candidate scores in a score matrix, one row per list. The
    matrix must hold the lists' corpus in corpus order (``ScoreMatrix.in_order``)."""
    if (matrix.query_ids, matrix.candidate_ids) != (lists.query_ids, lists.candidate_ids):
        raise ValueError(f"score matrix {matrix.model_name!r} is not in the eval lists' "
                         "corpus order")
    return matrix.values[lists.rows[:, None], lists.cols]
