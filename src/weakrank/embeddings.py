"""Skip-gram embeddings with negative sampling, trained by explicit SGD.

The same trainer runs over token sequences (text embeddings) and over node
id sequences produced by graph walks; callers map their entities to integer
ids and back.

An epoch takes one SGD step per centre position, in a seeded shuffled
order of the sequences. It works through that order in blocks of
``SEQ_BLOCK`` sequences: NumPy lays out each block's (centre, context)
windows, draws the block's negatives in one call from the same random
stream the per-centre draws would use, and sums the block's loss in one
pass, so the Python loop per centre is left with the step itself. The
trained vectors are bitwise those of a plain per-centre loop.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import Corpus
from .ioutil import load_arrays, save_arrays
from .nncore import log_sigmoid, scatter_add_rows, sigmoid
from .scores import ScoreMatrix

SEQ_BLOCK = 64  # sequences laid out at once: bounds the layout's memory


class EmbeddingTable:
    """Fixed-dimension vectors keyed by entity id (token or graph node)."""

    def __init__(self, ids, vectors: np.ndarray):
        self.ids = tuple(ids)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.ids):
            raise ValueError("vectors must be a (n_ids, dim) matrix")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("embedding table contains non-finite values")
        self.dim = self.vectors.shape[1]
        self.index = {e: i for i, e in enumerate(self.ids)}

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.index

    def vector(self, entity_id: str) -> np.ndarray:
        try:
            return self.vectors[self.index[entity_id]]
        except KeyError:
            raise KeyError(f"no embedding for entity {entity_id!r}") from None

    def save(self, path: str | Path) -> None:
        save_arrays(path, {"vectors": self.vectors}, meta={"ids": list(self.ids)})

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        arrays, meta = load_arrays(path)
        return cls(meta["ids"], arrays["vectors"])


def window_layout(sequences, window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every position's in-window contexts, in sequence order.

    Returns ``(centres, contexts, n_ctx)``: the tokens of all positions
    concatenated, each position's context tokens laid end to end (within a
    position in sequence order, skipping the position itself), and the
    number of contexts per position. A length-1 sequence yields a position
    with no contexts.
    """
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    centres = np.concatenate(sequences) if len(sequences) else np.zeros(0, dtype=np.int64)
    pos = np.arange(len(centres))
    i = pos - np.repeat(np.cumsum(lengths) - lengths, lengths)
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    j = i[:, None] + offsets
    valid = (j >= 0) & (j < np.repeat(lengths, lengths)[:, None])
    contexts = centres[(pos[:, None] + offsets)[valid]]
    return centres, contexts, valid.sum(axis=1)


def noise_cdf(counts) -> np.ndarray:
    """The cumulative negative-sampling distribution, proportional to
    ``counts`` ** 0.75."""
    weights = np.asarray(counts, dtype=np.float64) ** 0.75
    total = weights.sum()
    if total <= 0:
        raise ValueError("noise distribution needs at least one positive count")
    return np.cumsum(weights / total)


class SkipGramTrainer:
    """Skip-gram with negative sampling over integer sequences.

    One SGD step per center position: all in-window contexts plus their
    negative draws form the step's targets. Negatives follow the unigram^0.75
    distribution and are drawn once per block of ``SEQ_BLOCK`` sequences, in
    the stream order a per-centre draw would use. Fully deterministic for a
    given seed.
    """

    def __init__(self, vocab_size: int, dim: int, window: int, neg: int, lr: float, seed: int,
                 counts: np.ndarray | None = None):
        if vocab_size < neg + 1:
            raise ValueError(f"vocabulary size {vocab_size} must be at least neg+1 = {neg + 1}")
        self.vocab_size = vocab_size
        self.dim = dim
        self.window = window
        self.neg = neg
        self.lr = lr
        self.rng = np.random.default_rng(seed)
        self.w_in = self.rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab_size, dim))
        self.w_out = np.zeros((vocab_size, dim))
        self._noise_cum = None if counts is None else noise_cdf(counts)

    def _draw_negatives(self, n: int) -> np.ndarray:
        return np.searchsorted(self._noise_cum, self.rng.random(n))

    def loss_on_pairs(self, centers: np.ndarray, contexts: np.ndarray,
                      negatives: np.ndarray) -> float:
        """Mean binary objective on a fixed batch (contexts positive, negatives
        per pair negative); used for training sanity checks."""
        h = self.w_in[centers]
        pos = log_sigmoid(np.einsum("id,id->i", h, self.w_out[contexts]))
        neg_scores = np.einsum("id,ind->in", h, self.w_out[negatives])
        neg = log_sigmoid(-neg_scores).sum(axis=1)
        return float(-(pos + neg).mean())

    def _block_targets(self, contexts: np.ndarray, n_ctx: np.ndarray):
        """Each centre's targets (its contexts, then ``neg`` negatives per
        context) laid end to end, their labels, and each centre's offset."""
        span = n_ctx * (1 + self.neg)
        bounds = np.concatenate([[0], np.cumsum(span)])
        first = np.repeat(bounds[:-1], span)
        is_ctx = np.arange(bounds[-1]) - first < np.repeat(n_ctx, span)
        targets = np.empty(bounds[-1], dtype=np.int64)
        targets[is_ctx] = contexts
        targets[~is_ctx] = self._draw_negatives(int(n_ctx.sum()) * self.neg)
        return targets, is_ctx.astype(np.float64), bounds

    def train_epoch(self, sequences: list[np.ndarray]) -> float:
        """One pass over all sequences in seeded shuffled order; returns the
        mean per-pair loss observed during the epoch."""
        if self._noise_cum is None:
            raise RuntimeError("noise distribution not set")
        order = self.rng.permutation(len(sequences))
        loss_sum, pair_count = 0.0, 0
        w_in, w_out, lr = self.w_in, self.w_out, self.lr
        for b0 in range(0, len(order), SEQ_BLOCK):
            block = [sequences[si] for si in order[b0:b0 + SEQ_BLOCK]]
            centres, contexts, n_ctx = window_layout(block, self.window)
            centres = centres[n_ctx > 0]
            n_ctx = n_ctx[n_ctx > 0]
            targets, labels, bounds = self._block_targets(contexts, n_ctx)
            scores = np.empty(len(targets))
            for center, lo, hi in zip(centres.tolist(), bounds[:-1].tolist(),
                                      bounds[1:].tolist()):
                t = targets[lo:hi]
                h = w_in[center]
                out_rows = w_out[t]
                s = out_rows @ h
                scores[lo:hi] = s
                g = sigmoid(s) - labels[lo:hi]
                dh = g @ out_rows
                scatter_add_rows(w_out, t, -lr * g[:, None] * h[None, :])
                w_in[center] -= lr * dh
            loss_sum -= float(log_sigmoid(np.where(labels > 0, scores, -scores)).sum())
            pair_count += len(contexts)
        return loss_sum / max(pair_count, 1)

    def train(self, sequences: list[np.ndarray], epochs: int) -> list[float]:
        return [self.train_epoch(sequences) for _ in range(epochs)]


def train_text_embeddings(
    corpus: Corpus,
    dim: int = 32,
    window: int = 5,
    neg: int = 5,
    epochs: int = 3,
    lr: float = 0.05,
    seed: int = 0,
) -> EmbeddingTable:
    """Train token embeddings on in-document windows; table keyed by token."""
    docs = list(corpus.queries) + list(corpus.candidates)
    for doc in docs:
        if len(doc.token_ids) < 2:
            raise ValueError(f"document {doc.id!r} is shorter than 2 tokens")
    sequences = [np.array(d.token_ids, dtype=np.int64) for d in docs]
    counts = np.bincount(np.concatenate(sequences), minlength=len(corpus.vocab)).astype(np.float64)
    trainer = SkipGramTrainer(len(corpus.vocab), dim, window, neg, lr, seed, counts=counts)
    trainer.train(sequences, epochs)
    return EmbeddingTable(corpus.vocab, trainer.w_in.copy())


def doc_vector(table: EmbeddingTable, tokens) -> np.ndarray:
    """Unweighted mean of the tokens' vectors; error if none is in the table."""
    rows = [table.index[t] for t in tokens if t in table.index]
    if not rows:
        raise ValueError(f"no embedding found for any of the tokens {list(tokens)[:5]!r}")
    return table.vectors[rows].mean(axis=0)


def node_feature_matrix(graph, corpus: Corpus, table: EmbeddingTable) -> np.ndarray:
    """Frozen input features per graph node: word nodes take their token
    vector, document nodes the mean of their tokens' vectors."""
    feats = np.zeros((graph.n_nodes, table.dim))
    for i, (ntype, key) in enumerate(graph.nodes):
        if ntype == "word":
            feats[i] = table.vector(key)
        else:
            doc = corpus.document(ntype, key)
            feats[i] = doc_vector(table, corpus.tokens(doc))
    return feats


def unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.where(norms > 0, norms, 1.0)


def score_matrix_from_embeddings(
    table: EmbeddingTable, corpus: Corpus, mode: str, model_name: str | None = None
) -> ScoreMatrix:
    """Cosine score matrix from an embedding table.

    mode "doc-mean" averages token vectors per document; mode "node" looks
    up the graph node entity directly ("q:<id>" / "c:<id>"). Zero vectors
    score 0 against everything.
    """
    from .graph import node_entity_id  # local import avoids a cycle

    if mode == "doc-mean":
        def vec(doc):
            return doc_vector(table, corpus.tokens(doc))
    elif mode == "node":
        def vec(doc):
            return table.vector(node_entity_id(doc.role, doc.id))
    else:
        raise ValueError(f"unknown scoring mode {mode!r}")

    q_mat = unit_rows(np.stack([vec(d) for d in corpus.queries]))
    c_mat = unit_rows(np.stack([vec(d) for d in corpus.candidates]))
    values = q_mat @ c_mat.T
    name = model_name if model_name is not None else f"emb-{mode}"
    return ScoreMatrix(name, tuple(corpus.query_ids), tuple(corpus.candidate_ids), values)
