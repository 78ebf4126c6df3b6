"""Ranking metrics under the 1-positive-plus-sampled-negatives protocol.

Every evaluation ranks its lists in blocks: ``rank_lists`` gathers the
scores of at most ``ENSEMBLE_BLOCK`` lists at a time, from one score matrix
(``score_lists_with_matrix``) or from an ensemble's member matrices
(``sup_rankers.score_lists_with_ensemble``), ranks each block's positives
and keeps only the (n,) integer ranks, which ``mrr`` and ``all_metrics``
read. No (lists x candidates) score array is built, so an evaluation holds
one block of scores, not one per list: 256 x 50 float64 entries (100 KB)
where 2,560 lists held 1 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import AnnotationSet, Corpus
from .scores import ScoreMatrix

ENSEMBLE_BLOCK = 256  # eval lists gathered at once: bounds the gather's temporaries
# Generator.choice without replacement draws by Floyd's algorithm up to this
# population; above it, only when the sample is at most a fiftieth of it.
FLOYD_MAX_POP = 10_000
# Words drawn per block of lists (and a block's candidate marks, over 8): it
# keeps each of the draw's temporaries near 64 KB, where blocks of 2**14
# words raised a warm search's peak memory by 0.4 MB.
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
    """Raise the error ``build_eval_lists`` would, without drawing a list or
    building a query's eligible negatives, so an infeasible split fails
    before any training."""
    for _ in _positives(annotations, corpus, n_negatives):
        pass


def _draw_sorted(seed: int, pops: np.ndarray, out: np.ndarray) -> bool:
    """Fill row i of ``out``, (n, size), with the sorted picks of
    ``rng.choice(pops[i], size, replace=False)`` for each list i in turn,
    all from one ``default_rng(seed)``, drawn at once. False, ``out`` partly
    written, when Generator.choice would pick another way (a population
    above ``FLOYD_MAX_POP``), or when it would reject a word (below 10,000
    candidates, fewer than one word in 430,000), which moves the words of
    every later list: the caller then draws list by list.

    Generator.choice uses Floyd's algorithm: for j = pop - size, ...,
    pop - 1 one 32-bit word w, v = w * (j + 1) >> 32 (Lemire's method,
    which rejects w when its low product bits fall below 2**32 % (j + 1)),
    and j itself when v is already picked. It then shuffles the picks, one
    word per i = size - 1, ..., 1, which only moves the stream here, as the
    picks are sorted. A bound of 0 takes no word. The words are the bit
    generator's 64-bit outputs, low half first. Here every list's v come
    first, then Floyd's steps run over many lists at once, marking each
    list's picks in a row of candidates, which lists them sorted."""
    n, size = out.shape
    if n == 0 or size == 0:
        return True
    if pops.max() > FLOYD_MAX_POP:
        return False
    words = np.random.default_rng(seed).bit_generator
    spare = np.zeros(0, dtype=np.uint32)  # the high half a block left of its last word
    shuffle = np.arange(size, 1, -1)  # the shuffle's exclusive bounds i + 1
    per_block = max(1, DRAW_BLOCK // (2 * size))
    for start in range(0, n, per_block):  # every list's v of each step, a block of words at a time
        pop = pops[start:start + per_block]
        excl = np.empty((len(pop), 2 * size - 1), dtype=np.uint64)  # each word's exclusive bound
        excl[:, :size] = (pop - size + 1)[:, None] + np.arange(size)  # Floyd's j + 1
        excl[:, size:] = shuffle
        taken = excl > 1
        needed = int(np.count_nonzero(taken))
        raw = words.random_raw(max(0, needed - len(spare) + 1) // 2)
        stream = np.concatenate([spare, raw.astype("<u8", copy=False).view("<u4")])
        spare = stream[needed:]
        scaled = np.zeros(excl.shape, dtype=np.uint64)
        scaled[taken] = stream[:needed]
        scaled *= excl
        out[start:start + len(pop)] = scaled[:, :size] >> 32
        scaled &= 0xFFFFFFFF
        near = np.flatnonzero(scaled < excl)  # a rejection needs low < 2**32 % (j + 1) < j + 1
        if len(near) and np.any(scaled.flat[near] < 2**32 % excl.flat[near]):
            return False
    width = int(pops.max())
    per_block = max(1, 8 * DRAW_BLOCK // width)
    for start in range(0, n, per_block):  # Floyd's steps in turn, over a block of lists
        block = out[start:start + per_block]
        base = np.arange(len(block)) * width  # each list's marks are one row of `picked`
        first = pops[start:start + per_block] - size + base
        picked = np.zeros(len(block) * width, dtype=bool)
        for t in range(size):
            v = block[:, t] + base
            picked[np.where(picked[v], first + t, v)] = True  # v, or j itself when v is picked
        block[:] = np.flatnonzero(picked).reshape(len(block), size) - base[:, None]  # sorted
    return True


def build_eval_lists(
    annotations: AnnotationSet, corpus: Corpus, seed: int, n_negatives: int
) -> EvalLists:
    """One list per (query, positive) pair with seeded uniform negatives.

    Negatives are drawn from candidates not annotated positive for that
    query, so a query's other positives never appear as its negatives. Each
    list's negatives are those ``rng.choice(eligible, n_negatives,
    replace=False)`` picks, one generator for all lists in turn, sorted;
    ``_draw_sorted`` draws them all at once where it can reproduce that.
    """
    queries = list(_positives(annotations, corpus, n_negatives))
    counts = [len(positives) for _, positives in queries]
    n_cand = len(corpus.candidate_ids)
    rows = np.repeat(np.array([row for row, _ in queries], dtype=np.int64), counts)
    cols = np.empty((len(rows), 1 + n_negatives), dtype=np.int64)
    cols[:, 0] = [pos for _, positives in queries for pos in positives]
    drawn = _draw_sorted(seed, np.repeat(n_cand - np.array(counts, dtype=np.int64), counts),
                         cols[:, 1:])  # each list's picks, positions among its eligible
    rng = None if drawn else np.random.default_rng(seed)
    i = 0
    for _, positives in queries:
        keep = np.ones(n_cand, dtype=bool)
        keep[positives] = False
        eligible = np.flatnonzero(keep)  # candidate columns, in corpus order
        end = i + len(positives)
        if drawn:
            cols[i:end, 1:] = eligible[cols[i:end, 1:]]
        else:
            for k in range(i, end):
                draw = rng.choice(len(eligible), size=n_negatives, replace=False)
                cols[k, 1:] = eligible[np.sort(draw)]
        i = end
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


def rank_lists(lists: EvalLists, block_scores) -> np.ndarray:
    """``ranks_of_positives`` of every list, from the scores of at most
    ``ENSEMBLE_BLOCK`` lists at a time: ``block_scores(rows, cols)`` returns
    the (b, 1 + negatives) scores of the b lists whose query rows and
    candidate columns it is given. Only the (n,) ranks are kept."""
    ranks = np.empty(len(lists), dtype=np.int64)
    for start in range(0, len(lists), ENSEMBLE_BLOCK):
        block = slice(start, start + ENSEMBLE_BLOCK)
        ranks[block] = ranks_of_positives(
            lists, block_scores(lists.rows[block], lists.cols[block]), block)
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
    values = matrix.values
    return rank_lists(lists, lambda rows, cols: values[rows[:, None], cols])
