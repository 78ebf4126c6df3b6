"""Ranking metrics under the 1-positive-plus-sampled-negatives protocol.

Every evaluation ranks its lists from one (queries x candidates) score
array: a scorer's matrix (``score_lists_with_matrix``) or the rankers'
ensemble, ``scores.ensemble_scores`` of their matrices
(``sup_rankers.score_lists_with_ensemble``), the matrix ``weakrank score``
serves. ``rank_lists`` gathers the scores of at most ``ENSEMBLE_BLOCK`` lists
at a time, ranks each block's positives and keeps only the (n,) integer
ranks, which ``mrr`` and ``all_metrics`` read. No (lists x candidates) score
array is built, so an evaluation holds one block of scores, not one per
list: 256 x 50 float64 entries (100 KB) where 2,560 lists held 1 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import AnnotationSet, Corpus
from .scores import ScoreMatrix

ENSEMBLE_BLOCK = 256  # eval lists gathered at once: bounds the gather's temporaries
# Keys drawn per block of lists: it keeps the draw's temporaries near 64 KB,
# where blocks of 2**14 raised a warm search's peak memory by 0.4 MB.
DRAW_BLOCK = 1 << 13


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
    Raises for a split with no pairs, which has no evaluation list, and as
    soon as a query has no positive or fewer than ``n_negatives`` eligible
    negatives: candidates it does not annotate positive, counted."""
    if not annotations.pairs:
        raise ValueError(f"the {annotations.split!r} annotation split is empty: "
                         "it has no evaluation lists")
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
    """Raise the error ``build_eval_lists`` would, without drawing a list,
    so an infeasible split fails before any training."""
    for _ in _positives(annotations, corpus, n_negatives):
        pass


def build_eval_lists(
    annotations: AnnotationSet, corpus: Corpus, seed: int, n_negatives: int
) -> EvalLists:
    """One list per (query, positive) pair with seeded uniform negatives.

    Negatives are drawn without replacement from candidates not annotated
    positive for that query, so a query's other positives never appear as
    its negatives. Each list draws one uniform key per candidate, its
    query's positives set above every key, and keeps the ``n_negatives``
    smallest, sorted: lists in turn from one ``default_rng(seed)``, a block
    of at most ``DRAW_BLOCK`` keys at a time, which draws what one
    ``rng.random(n_candidates)`` per list would.
    """
    queries = list(_positives(annotations, corpus, n_negatives))
    counts = [len(positives) for _, positives in queries]
    n_cand = len(corpus.candidate_ids)
    rows = np.repeat(np.array([row for row, _ in queries], dtype=np.int64), counts)
    cols = np.empty((len(rows), 1 + n_negatives), dtype=np.int64)
    cols[:, 0] = [pos for _, positives in queries for pos in positives]
    query_of = np.repeat(np.arange(len(queries)), counts)  # each list's query
    own = np.zeros((len(queries), n_cand), dtype=bool)  # each query's positives, 1 byte a pair
    own[query_of, cols[:, 0]] = True
    rng = np.random.default_rng(seed)
    per_block = max(1, DRAW_BLOCK // n_cand)
    for start in range(0, len(rows), per_block):
        stop = min(start + per_block, len(rows))
        keys = rng.random((stop - start, n_cand))
        keys[own[query_of[start:stop]]] = 2.0
        # kth = n_negatives < n_cand, as each query has a positive: the keys
        # before it are the smallest, also for no negative
        picks = np.argpartition(keys, n_negatives, axis=1)[:, :n_negatives]
        cols[start:stop, 1:] = np.sort(picks, axis=1)
    return EvalLists(rows, cols, corpus.query_ids, corpus.candidate_ids)


def ranks_of_positives(lists: EvalLists, scores, block: slice = slice(None)) -> np.ndarray:
    """1-based rank of the positive of each list in ``lists[block]``
    (all lists by default), descending score, ties by id ascending.
    ``scores`` holds one row per list of the block, the positive's score
    first."""
    cols = lists.cols[block]
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) != len(cols):
        raise ValueError("need one score row per eval list")
    if not len(cols):
        return np.zeros(0, dtype=np.int64)
    if cols.shape[1] != scores.shape[1]:
        raise ValueError(f"got {scores.shape[1]} scores for {cols.shape[1]} candidates")
    pos = scores[:, :1]
    neg = scores[:, 1:]
    ranks = 1 + np.count_nonzero(neg > pos, axis=1)
    tied = neg == pos
    if tied.any():
        order = lists.id_order
        ranks += np.count_nonzero(tied & (order[cols[:, 1:]] < order[cols[:, :1]]), axis=1)
    return ranks


def rank_lists(lists: EvalLists, values: np.ndarray) -> np.ndarray:
    """``ranks_of_positives`` of every list under the (queries x candidates)
    scores ``values``, gathered for at most ``ENSEMBLE_BLOCK`` lists at a
    time. Only the (n,) ranks are kept."""
    ranks = np.empty(len(lists), dtype=np.int64)
    for start in range(0, len(lists), ENSEMBLE_BLOCK):
        block = slice(start, start + ENSEMBLE_BLOCK)
        ranks[block] = ranks_of_positives(
            lists, values[lists.rows[block, None], lists.cols[block]], block)
    return ranks


def mrr(ranks) -> float:
    """Mean reciprocal rank of the positive, no cutoff, from its ranks."""
    return float(np.mean(1.0 / ranks))


def all_metrics(ranks, k: int = 5) -> dict:
    """HR@k, NDCG@k and MRR of the positives' ranks."""
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return {
        f"hr@{k}": float(np.mean(ranks <= k)),
        f"ndcg@{k}": float(np.mean(gains)),
        "mrr": float(np.mean(1.0 / ranks)),
        "n_lists": len(ranks),
    }


def score_lists_with_matrix(lists: EvalLists, matrix: ScoreMatrix) -> np.ndarray:
    """The rank of each list's positive under a score matrix, ranked block by
    block (``rank_lists``). The matrix must hold the lists' corpus in corpus
    order (``ScoreMatrix.in_order``)."""
    if (matrix.query_ids, matrix.candidate_ids) != (lists.query_ids, lists.candidate_ids):
        raise ValueError(f"score matrix {matrix.model_name!r} is not in the eval lists' "
                         "corpus order")
    return rank_lists(lists, matrix.values)
