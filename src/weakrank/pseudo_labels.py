"""Aggregate unsupervised score matrices into top-k pseudo labels; the
aggregate is ``scores.ensemble_scores``, the combine of the rankers too."""

from __future__ import annotations

import numpy as np

from .scores import ScoreMatrix, ensemble_scores


def aggregate(matrices: list[ScoreMatrix], mask, normalize: bool) -> ScoreMatrix:
    """``ensemble_scores`` of the selected matrices, in mask order: their
    entrywise mean, each query row min-max scaled first unless raw mode is
    requested."""
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
    return ScoreMatrix("aggregate", ref.query_ids, ref.candidate_ids,
                       ensemble_scores([m.values for m in selected], normalize))


def _check_k(k: int, n_cand: int) -> None:
    if not 1 <= k < n_cand:
        raise ValueError(f"k={k} out of range [1, {n_cand - 1}]")


def top_k_labels(agg: ScoreMatrix, k: int) -> np.ndarray:
    """Each query row's candidate columns, best first, as a (queries,
    candidates) int64 array: the first ``k`` of a row are its query's pseudo
    positives, the rest its negative pool.

    Ties break by candidate id ascending, so labels are reproducible for any
    score matrix.
    """
    _check_k(k, len(agg.candidate_ids))
    by_id = np.argsort(np.array(agg.candidate_ids), kind="stable")
    return by_id[np.argsort(-agg.values[:, by_id], axis=1, kind="stable")]


def sample_training_pairs(ranked: np.ndarray, k: int, n_neg_per_pos: int,
                          seed: int) -> np.ndarray:
    """(query row, positive column, negative column) triples, (n, 3) int64.

    Query by query and positive by positive, as ``ranked`` (``top_k_labels``)
    orders them, each of the first ``k`` columns is paired with
    ``n_neg_per_pos`` uniform draws from the query's remaining columns. The
    draws come from one ``rng.integers`` call. It yields the same values, and
    leaves the generator in the same state, as one call per positive would:
    the bit generator, not the call, keeps a half-used 64-bit word.
    """
    n_query, n_cand = ranked.shape
    _check_k(k, n_cand)
    rng = np.random.default_rng(seed)
    draws = rng.integers(n_cand - k, size=(n_query, k * n_neg_per_pos))
    return np.stack([
        np.repeat(np.arange(n_query), k * n_neg_per_pos),
        np.repeat(ranked[:, :k], n_neg_per_pos, axis=1).ravel(),
        np.take_along_axis(ranked[:, k:], draws, axis=1).ravel(),
    ], axis=1)
