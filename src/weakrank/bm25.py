"""Okapi-style lexical relevance scoring over a corpus."""

from __future__ import annotations

import numpy as np

from .corpus import Corpus
from .scores import ScoreMatrix


def bm25_matrix(corpus: Corpus, k1: float, b: float) -> ScoreMatrix:
    """Score every (query, candidate) pair.

    score(q, c) = sum over query token occurrences t of
        idf(t) * tf(t, c) * (k1 + 1) / (tf(t, c) + k1 * (1 - b + b * |c| / avgdl))
    with idf(t) = ln(1 + (N - df(t) + 0.5) / (df(t) + 0.5)), where N counts
    candidates, df is candidate-side document frequency, and |c| / avgdl use
    retained token counts. A query token occurring twice contributes twice.
    """
    n_cand = len(corpus.candidates)
    # tf[c, t] for every candidate; dense is fine at the corpus sizes this
    # library targets. df and avgdl are integer counts, so they are exact.
    tf = np.zeros((n_cand, len(corpus.vocab)), dtype=np.float64)
    for ci, doc in enumerate(corpus.candidates):
        for tid in doc.token_ids:
            tf[ci, tid] += 1.0
    doc_len = np.array([len(d.token_ids) for d in corpus.candidates], dtype=np.float64)
    avgdl = float(doc_len.mean())
    if avgdl <= 0:
        raise ValueError("candidates must have positive average length")
    df = (tf > 0).sum(axis=0).astype(np.float64)
    idf = np.log(1.0 + (n_cand - df + 0.5) / (df + 0.5))
    norm = k1 * (1.0 - b + b * doc_len / avgdl)  # per candidate

    values = np.zeros((len(corpus.queries), n_cand), dtype=np.float64)
    for qi, query in enumerate(corpus.queries):
        tids, counts = np.unique(np.array(query.token_ids, dtype=np.int64), return_counts=True)
        tf_qc = tf[:, tids]  # (n_cand, n_terms)
        contrib = idf[tids] * tf_qc * (k1 + 1.0) / (tf_qc + norm[:, None])
        values[qi] = contrib @ counts.astype(np.float64)
    return ScoreMatrix("bm25", corpus.query_ids, corpus.candidate_ids, values)
