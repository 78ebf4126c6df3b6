"""Supervised rankers trained on pseudo labels, plus their ensemble.

Three model families: a two-tower representation model over mean word
embeddings, an interaction model pooling word-by-word cosines through RBF
kernels, and a graph ranker aggregating sampled neighborhoods. All share a
RankerBackbone of frozen inputs (word embeddings, document means, kernel
feature caches) so per-episode models are cheap to create and train.

Rankers score whole matrices: ``score_matrix()`` returns every (query,
candidate) score in one batched pass. Everything that scores a trained
ranker (validation rewards, the final retrain's early stopping, the test
metrics and ``weakrank score``) gathers columns from those matrices and
combines them with ``ensemble_scores``. Each model's parameters form one
``ParamGroup``, so a training step zeroes and updates flat buffers.

Training runs on integer batches: ``train_supervised`` maps its id triples
once to (query row, positive column, negative column) and hands each
``loss_and_grads`` a (batch, 3) slice, which gathers its rows of the frozen
inputs directly. No gradient is computed into frozen inputs.
"""

from __future__ import annotations

import numpy as np

from .corpus import CANDIDATE, QUERY, Corpus
from .embeddings import EmbeddingTable, node_feature_matrix
from .graph import HetGraph
from .ioutil import load_arrays, save_arrays
from .nncore import (
    OptimizerState,
    ParamGroup,
    ParamTensor,
    cosine_rows_backward,
    cosine_rows_forward,
    default_kernel_bank,
    dense_backward,
    dense_forward,
    init_param,
    kernel_pool_backward,
    kernel_pool_forward,
    optimizer_step,
    scatter_add_rows,
    sigmoid,
    zero_grads,
)
from .registry import SupModelSpec
from .scores import min_max_rows
from .sageops import (
    build_neighbor_matrix,
    create_layers,
    sage_backward,
    sage_forward,
    sage_input,
)

CHECKPOINT_FORMAT_VERSION = 1

_EPS_LOG = 1e-10  # guard inside log of kernel features
ENSEMBLE_BLOCK = 256  # eval lists gathered at once: bounds the gather's temporaries
PHI_BLOCK = 1 << 16  # word-cosine entries pooled at once: bounds phi's temporaries


def _softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows stay zero."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / np.where(norms > 0, norms, 1.0)


class RankerBackbone:
    """Frozen inputs shared by every supervised ranker in a run.

    The table is recentered (mean word vector subtracted) before anything is
    derived from it: skip-gram geometry is strongly anisotropic, and without
    centering all document means collapse onto one direction, which starves
    tower and kernel models of usable input variation. The original table is
    kept for persistence.
    """

    def __init__(self, corpus: Corpus, table: EmbeddingTable, graph: HetGraph | None = None,
                 graph_sample_size: int = 10, graph_seed: int = 0, center: bool = True):
        self.corpus = corpus
        self.table = table
        self.centered = center
        if center:
            shifted = table.vectors - table.vectors.mean(axis=0)
            self.table = EmbeddingTable(table.ids, shifted)
        self.raw_table = table
        self.graph = graph
        self.graph_sample_size = graph_sample_size
        self.graph_seed = graph_seed

        self.query_row = {d.id: i for i, d in enumerate(corpus.queries)}
        self.cand_row = {d.id: i for i, d in enumerate(corpus.candidates)}
        self.q_means = np.stack([self._doc_mean(d) for d in corpus.queries])
        self.c_means = np.stack([self._doc_mean(d) for d in corpus.candidates])

        self._phi_cache: dict = {}
        self._graph_inputs = None
        self._list_index = None

    def _doc_mean(self, doc) -> np.ndarray:
        rows = [self.table.index[t] for t in self.corpus.tokens(doc) if t in self.table.index]
        if not rows:
            raise ValueError(f"document {doc.id!r} has no tokens in the embedding table")
        return self.table.vectors[rows].mean(axis=0)

    def _word_counts(self, docs) -> tuple[np.ndarray, np.ndarray]:
        """(table rows of the words in ``docs``, each document's count of each)."""
        rows = [[self.table.index[t] for t in self.corpus.tokens(d)] for d in docs]
        words, word_of = np.unique(np.concatenate(rows), return_inverse=True)
        doc_of = np.repeat(np.arange(len(docs)), [len(r) for r in rows])
        counts = np.zeros((len(docs), len(words)))
        np.add.at(counts, (doc_of, word_of), 1.0)
        return words, counts

    def phi_features(self, mus, sigmas, negative_exponent: bool = True) -> np.ndarray:
        """Kernel-pooled match features for every (query, candidate) pair.

        phi[i, j, h] = sum over query words of log(K_h(similarity row) + eps),
        where K_h pools kernel h over the candidate's words. Word embeddings
        are frozen, so a kernel value depends only on the two words: each
        kernel is applied once to the table of word cosines, multiplied by the
        candidates' word counts, logged, and summed with the queries' word
        counts. Cached per kernel bank; it never changes within a run.
        """
        key = (tuple(np.asarray(mus)), tuple(np.asarray(sigmas)), negative_exponent)
        if key in self._phi_cache:
            return self._phi_cache[key]
        mus = np.asarray(mus, dtype=np.float64)
        sigmas = np.asarray(sigmas, dtype=np.float64)
        if np.any(sigmas <= 0):
            raise ValueError("kernel sigmas must be positive")
        sign = -1.0 if negative_exponent else 1.0

        q_words, q_counts = self._word_counts(self.corpus.queries)
        c_words, c_counts = self._word_counts(self.corpus.candidates)
        hats = _unit_rows(self.table.vectors)
        c_hats = hats[c_words]
        pooled = np.zeros((len(mus), len(self.corpus.queries), len(self.corpus.candidates)))
        step = max(1, PHI_BLOCK // len(c_words))
        for lo in range(0, len(q_words), step):
            S = hats[q_words[lo:lo + step]] @ c_hats.T  # (query words, candidate words)
            for h in range(len(mus)):
                g = np.exp(sign * (S - mus[h]) ** 2 / (2.0 * sigmas[h] ** 2))
                pooled[h] += q_counts[:, lo:lo + step] @ np.log(g @ c_counts.T + _EPS_LOG)
        phi = np.ascontiguousarray(pooled.transpose(1, 2, 0))
        self._phi_cache[key] = phi
        return phi

    def triple_index(self, triples) -> np.ndarray:
        """(n, 3) int64 rows of (query row, positive column, negative column)."""
        q, c = self.query_row, self.cand_row
        return np.array([(q[qid], c[pos], c[neg]) for qid, pos, neg in triples],
                        dtype=np.int64).reshape(-1, 3)

    def list_index(self, lists) -> tuple[np.ndarray, np.ndarray]:
        """(query row of each eval list, int32 candidate column of each of its ids).

        The last list set's index is kept, by identity and with a reference
        held, so the validation lists scored once per episode are mapped
        through the id dicts only once.
        """
        memo = self._list_index
        if memo is not None and memo[0] is lists and memo[1] == len(lists):
            return memo[2], memo[3]
        rows = np.array([self.query_row[el.query_id] for el in lists], dtype=np.int64)
        cols = np.array([[self.cand_row[c] for c in el.candidate_ids] for el in lists],
                        dtype=np.int32)
        self._list_index = (lists, len(lists), rows, cols)
        return rows, cols

    def gather(self, matrix: np.ndarray, query_id: str, candidate_ids) -> np.ndarray:
        return matrix[self.query_row[query_id], [self.cand_row[c] for c in candidate_ids]]

    def graph_inputs(self):
        """(neighbor matrix, node features, node index arrays) for graph rankers."""
        if self.graph is None:
            raise ValueError("backbone was built without a graph")
        if self._graph_inputs is None:
            rng = np.random.default_rng(self.graph_seed)
            A = build_neighbor_matrix(self.graph, self.graph_sample_size, rng)
            features = node_feature_matrix(self.graph, self.corpus, self.table)
            q_nodes = np.array(
                [self.graph.node_index(QUERY, d.id) for d in self.corpus.queries]
            )
            c_nodes = np.array(
                [self.graph.node_index(CANDIDATE, d.id) for d in self.corpus.candidates]
            )
            self._graph_inputs = (A, features, q_nodes, c_nodes)
        return self._graph_inputs


def _cosine_matrix(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Cosine of every row of U with every row of V; zero-norm rows score 0."""
    return _unit_rows(U) @ _unit_rows(V).T


def _pairwise_loss_grads(r_pos: np.ndarray, r_neg: np.ndarray):
    """Mean pairwise logistic objective and its gradients w.r.t. the scores.

    Maximizing log sigma(r+) + log(1 - sigma(r-)) is minimizing
    softplus(-r+) + softplus(r-); the gradient w.r.t. r is sigma(r) - target.
    """
    B = len(r_pos)
    sp = _softplus(np.concatenate([-r_pos, r_neg]))  # elementwise: one call for both
    loss = float((sp[:B] + sp[B:]).mean())
    s = sigmoid(np.concatenate([r_pos, r_neg]))
    return loss, (s[:B] - 1.0) / B, s[B:] / B


def _pair_cosine_loss(yq: np.ndarray, yp: np.ndarray, yn: np.ndarray):
    """Pairwise loss on cos(yq, yp) against cos(yq, yn), and its gradients
    (d yq, (d yp, d yn)). Both cosines run as one row-wise op on stacked
    rows; each row's value is the same as in two separate calls."""
    B = len(yq)
    r, cache = cosine_rows_forward(np.concatenate([yq, yq]), np.concatenate([yp, yn]))
    loss, d_pos, d_neg = _pairwise_loss_grads(r[:B], r[B:])
    dU, dV = cosine_rows_backward(np.concatenate([d_pos, d_neg]), cache)
    return loss, dU[:B] + dU[B:], (dV[:B], dV[B:])


def _check_loss(model, loss: float, batch) -> None:
    if not np.isfinite(loss):
        raise ValueError(f"non-finite loss in {model.kind} ranker on a batch of {len(batch)}")


class _Ranker:
    """What every ranker shares; each defines ``score_matrix()``, and its own
    ``score_pairs`` (a gather from it) so the method can be wrapped per class."""

    def after_update(self) -> None:
        pass

    def score(self, query_id: str, candidate_id: str) -> float:
        return float(self.score_pairs(query_id, [candidate_id])[0])


class RepresentationRanker(_Ranker):
    """Two dense tanh layers per side over mean word embeddings, then cosine."""

    kind = "representation"

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        self.backbone = backbone
        self.spec = spec
        self.seed = seed
        hidden = spec.params.get("hidden", 32)
        d0 = backbone.table.dim
        rng = np.random.default_rng(seed)
        self.sides = {}
        for side in ("q", "c"):
            self.sides[side] = [
                init_param(f"rep.{side}.W1", (hidden, d0), rng),
                init_param(f"rep.{side}.b1", (hidden,), rng),
                init_param(f"rep.{side}.W2", (hidden, hidden), rng),
                init_param(f"rep.{side}.b2", (hidden,), rng),
            ]
        self._params = ParamGroup(self.sides["q"] + self.sides["c"])

    def params(self) -> ParamGroup:
        return self._params

    def _tower(self, X: np.ndarray, side: str):
        W1, b1, W2, b2 = self.sides[side]
        h1, cache1 = dense_forward(X, W1, b1, "tanh")
        y, cache2 = dense_forward(h1, W2, b2, "tanh")
        return y, (cache1, cache2)

    def _tower_backward(self, dy: np.ndarray, caches) -> None:
        cache1, cache2 = caches
        dh1 = dense_backward(dy, cache2)
        dense_backward(dh1, cache1, input_grad=False)  # document means are frozen

    def score_matrix(self) -> np.ndarray:
        yq, _ = self._tower(self.backbone.q_means, "q")
        yc, _ = self._tower(self.backbone.c_means, "c")
        return _cosine_matrix(yq, yc)

    def score_pairs(self, query_id: str, candidate_ids) -> np.ndarray:
        return self.backbone.gather(self.score_matrix(), query_id, candidate_ids)

    def loss_and_grads(self, batch: np.ndarray) -> float:
        q, p, n = batch.T
        yq, qcache = self._tower(self.backbone.q_means[q], "q")
        # Separate GEMMs: one stacked (2B, d) product is not bitwise the same.
        yp, pcache = self._tower(self.backbone.c_means[p], "c")
        yn, ncache = self._tower(self.backbone.c_means[n], "c")
        loss, dyq, (dyp, dyn) = _pair_cosine_loss(yq, yp, yn)
        self._tower_backward(dyq, qcache)
        self._tower_backward(dyp, pcache)
        self._tower_backward(dyn, ncache)
        _check_loss(self, loss, batch)
        return loss


class InteractionRanker(_Ranker):
    """Kernel-pooled word interactions mapped to a score by one linear layer."""

    kind = "interaction"

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        self.backbone = backbone
        self.spec = spec
        self.seed = seed
        mus, sigmas = default_kernel_bank()
        self.mus = np.asarray(spec.params.get("mus", mus), dtype=np.float64)
        self.sigmas = np.asarray(spec.params.get("sigmas", sigmas), dtype=np.float64)
        self.negative_exponent = bool(spec.params.get("negative_exponent", True))
        self.phi = backbone.phi_features(self.mus, self.sigmas, self.negative_exponent)
        rng = np.random.default_rng(seed)
        H = len(self.mus)
        self.w = init_param("inter.w", (H,), rng)
        self.b = init_param("inter.b", (1,), rng)
        self._params = ParamGroup([self.w, self.b])

    def params(self) -> ParamGroup:
        return self._params

    def score_matrix(self) -> np.ndarray:
        return self.phi @ self.w.value + self.b.value[0]

    def score_pairs(self, query_id: str, candidate_ids) -> np.ndarray:
        return self.backbone.gather(self.score_matrix(), query_id, candidate_ids)

    def loss_and_grads(self, batch: np.ndarray) -> float:
        q, p, n = batch.T
        phi_p = self.phi[q, p]
        phi_n = self.phi[q, n]
        r_pos = phi_p @ self.w.value + self.b.value[0]
        r_neg = phi_n @ self.w.value + self.b.value[0]
        loss, d_pos, d_neg = _pairwise_loss_grads(r_pos, r_neg)
        self.w.grad += d_pos @ phi_p + d_neg @ phi_n
        self.b.grad += d_pos.sum() + d_neg.sum()
        _check_loss(self, loss, batch)
        return loss


def interaction_score_from_embeddings(q_vecs: np.ndarray, c_vecs: np.ndarray, mus, sigmas,
                                      w: ParamTensor, b: ParamTensor,
                                      negative_exponent: bool = True):
    """Reference interaction scorer differentiable down to raw word vectors.

    Returns (score, d_score/d_q_vecs, d_score/d_c_vecs) and accumulates into
    w.grad / b.grad. Zero-norm word vectors contribute all-zero similarity
    rows or columns.
    """
    q_vecs = np.asarray(q_vecs, dtype=np.float64)
    c_vecs = np.asarray(c_vecs, dtype=np.float64)

    def normalize(v):
        norms = np.linalg.norm(v, axis=1, keepdims=True)
        safe = np.where(norms > 0, norms, 1.0)
        return v / safe, norms[:, 0]

    q_hat, q_norm = normalize(q_vecs)
    c_hat, c_norm = normalize(c_vecs)
    S = q_hat @ c_hat.T  # (N, M)

    H = len(mus)
    K_rows, caches = [], []
    for i in range(S.shape[0]):
        K, cache = kernel_pool_forward(S[i], mus, sigmas, negative_exponent)
        K_rows.append(K)
        caches.append(cache)
    K_mat = np.stack(K_rows)  # (N, H)
    phi = np.log(K_mat + _EPS_LOG).sum(axis=0)  # (H,)
    score = float(w.value @ phi + b.value[0])

    # backward: d score / d phi = w
    w.grad += phi
    b.grad += 1.0
    dK = w.value[None, :] / (K_mat + _EPS_LOG)  # (N, H)
    dS = np.stack([kernel_pool_backward(dK[i], caches[i]) for i in range(S.shape[0])])
    dq_hat = dS @ c_hat
    dc_hat = dS.T @ q_hat

    def denormalize(d_hat, v_hat, norm):
        # d/dv of v/|v| applied to upstream d_hat; zero-norm rows get no grad
        safe = np.where(norm > 0, norm, 1.0)[:, None]
        dv = (d_hat - v_hat * np.einsum("id,id->i", v_hat, d_hat)[:, None]) / safe
        dv[norm == 0] = 0.0
        return dv

    return score, denormalize(dq_hat, q_hat, q_norm), denormalize(dc_hat, c_hat, c_norm)


class GraphAggregationRanker(_Ranker):
    """Sampled-neighborhood mean aggregation; cosine of final embeddings."""

    kind = "graph-aggregation"

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        self.backbone = backbone
        self.spec = spec
        self.seed = seed
        A, features, q_nodes, c_nodes = backbone.graph_inputs()
        self.A = A
        self.features = features
        self.M0 = sage_input(features, A)  # frozen features, fixed sample
        self.q_nodes = q_nodes
        self.c_nodes = c_nodes
        hidden = spec.params.get("hidden", 32)
        out_dim = spec.params.get("out_dim", 32)
        n_layers = spec.params.get("n_layers", 2)
        d0 = features.shape[1]
        dims = [d0] + [hidden] * max(0, n_layers - 1) + ([out_dim] if n_layers else [])
        rng = np.random.default_rng(seed)
        self.layers = create_layers("sup-agg", dims, rng)
        self._Z: np.ndarray | None = None

    def params(self) -> ParamGroup:
        return self.layers

    def after_update(self) -> None:
        self._Z = None

    def _embeddings(self) -> np.ndarray:
        if self._Z is None:
            self._Z, _ = sage_forward(self.features, self.A, self.layers, self.M0)
        return self._Z

    def score_matrix(self) -> np.ndarray:
        Z = self._embeddings()
        return _cosine_matrix(Z[self.q_nodes], Z[self.c_nodes])

    def score_pairs(self, query_id: str, candidate_ids) -> np.ndarray:
        return self.backbone.gather(self.score_matrix(), query_id, candidate_ids)

    def loss_and_grads(self, batch: np.ndarray) -> float:
        Z, caches = sage_forward(self.features, self.A, self.layers, self.M0)
        q, p, n = batch.T
        qn, pn, nn = self.q_nodes[q], self.c_nodes[p], self.c_nodes[n]
        loss, dZq, (dZp, dZn) = _pair_cosine_loss(Z[qn], Z[pn], Z[nn])
        dZ = np.zeros(Z.shape)
        scatter_add_rows(dZ, qn, dZq)
        scatter_add_rows(dZ, pn, dZp)
        scatter_add_rows(dZ, nn, dZn)
        sage_backward(dZ, self.A, caches)  # node features are frozen
        _check_loss(self, loss, batch)
        return loss


_MODEL_CLASSES = {
    "representation": RepresentationRanker,
    "interaction": InteractionRanker,
    "graph-aggregation": GraphAggregationRanker,
}


def create_sup_model(spec: SupModelSpec, backbone: RankerBackbone, seed: int):
    return _MODEL_CLASSES[spec.kind](backbone, spec, seed)


def train_supervised(
    model,
    triples,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 32,
    algorithm: str = "adam",
    eval_fn=None,
    patience: int = 0,
    optimizer_state: OptimizerState | None = None,
) -> list[float]:
    """Seeded minibatch training on (query, positive, negative) triples.

    The id triples are mapped once to an (n, 3) integer index
    (``RankerBackbone.triple_index``); each epoch permutes its rows and hands
    the ranker (batch, 3) slices.

    Returns the per-epoch mean objective. With ``eval_fn`` the best-scoring
    parameters are restored at the end, and training stops early once the
    metric fails to improve for ``patience`` consecutive epochs (patience 0
    disables early stopping but still restores the best). Passing an
    ``optimizer_state`` lets the caller keep it (e.g. for checkpointing) or
    resume a previous run; it overrides ``lr`` and ``algorithm``.
    """
    if not triples:
        raise ValueError("empty training stream")
    index = model.backbone.triple_index(triples)
    rng = np.random.default_rng(seed)
    opt = optimizer_state if optimizer_state is not None else OptimizerState(algorithm, lr=lr)
    params = model.params()
    curve = []
    best_metric, best_values, stale = -np.inf, None, 0
    for _ in range(epochs):
        shuffled = index[rng.permutation(len(index))]
        losses = []
        for start in range(0, len(shuffled), batch_size):
            zero_grads(params)
            losses.append(model.loss_and_grads(shuffled[start:start + batch_size]))
            optimizer_step(params, opt)
            model.after_update()
        curve.append(float(np.mean(losses)))
        if eval_fn is not None:
            metric = float(eval_fn(model))
            if metric > best_metric:
                best_metric, stale = metric, 0
                best_values = [p.value.copy() for p in params]
            else:
                stale += 1
                if patience and stale >= patience:
                    break
    if eval_fn is not None and best_values is not None:
        for p, v in zip(params, best_values):
            np.copyto(p.value, v)
        model.after_update()
    return curve


def ensemble_scores(matrices, rows, cols) -> np.ndarray:
    """Mean of member scores, each min-max scaled over its row's candidates.

    ``matrices`` are the members' (queries x candidates) score matrices.
    Entry (i, j) of the result combines column ``cols[i, j]`` of query row
    ``rows[i]``; ``cols`` may be a single row shared by every query. A member
    constant on a row contributes 0.5 there.
    """
    if not matrices:
        raise ValueError("ensemble needs at least one model")
    rows = np.asarray(rows)[:, None]
    total = 0.0
    for S in matrices:
        total = total + min_max_rows(S[rows, cols])
    return total / len(matrices)


def score_lists_with_ensemble(lists, models) -> np.ndarray:
    """Ensemble scores of every eval list's candidates, one row per list.

    Each member's score matrix is computed once; the lists are gathered in
    blocks of ``ENSEMBLE_BLOCK`` so the temporaries stay small.
    """
    if not models:
        raise ValueError("ensemble needs at least one model")
    matrices = [m.score_matrix() for m in models]
    rows, cols = models[0].backbone.list_index(lists)
    out = np.empty((len(lists), cols.shape[1] if lists else 0))
    for start in range(0, len(lists), ENSEMBLE_BLOCK):
        block = slice(start, start + ENSEMBLE_BLOCK)
        out[block] = ensemble_scores(matrices, rows[block], cols[block])
    return out


def save_checkpoint(model, path, config_hash: str = "",
                    optimizer_state: OptimizerState | None = None) -> None:
    """Self-describing parameter container; load requires the same backbone.

    Holds shapes and values of every parameter, the model's hyperparameters
    and seed, the creating configuration hash, and (when given) the optimizer
    state so training can resume.
    """
    arrays = {p.name: p.value for p in model.params()}
    opt_meta = None
    if optimizer_state is not None:
        opt_meta = {
            "algorithm": optimizer_state.algorithm,
            "lr": optimizer_state.lr,
            "beta1": optimizer_state.beta1,
            "beta2": optimizer_state.beta2,
            "eps": optimizer_state.eps,
            "t": optimizer_state.t,
            "moment_names": sorted(optimizer_state.moments),
        }
        for name in opt_meta["moment_names"]:
            m, v = optimizer_state.moments[name]
            arrays[f"opt.m.{name}"] = m
            arrays[f"opt.v.{name}"] = v
    save_arrays(path, arrays, meta={
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": model.kind,
        "name": model.spec.name,
        "params": model.spec.params,
        "seed": model.seed,
        "config_hash": config_hash,
        "optimizer": opt_meta,
    })


def load_checkpoint(path, backbone: RankerBackbone, with_optimizer: bool = False,
                    config_hash: str | None = None):
    """Rebuild a saved model on ``backbone``. With ``config_hash``, refuse a
    checkpoint that a different configuration wrote."""
    arrays, meta = load_arrays(path)
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {meta.get('format_version')!r}")
    if config_hash is not None and meta.get("config_hash") != config_hash:
        raise ValueError(f"checkpoint {str(path)!r} was written under configuration hash "
                         f"{meta.get('config_hash')!r}, not {config_hash!r}")
    spec = SupModelSpec(meta["name"], meta["kind"], meta["params"])
    model = create_sup_model(spec, backbone, meta["seed"])
    for p in model.params():
        if p.name not in arrays:
            raise ValueError(f"checkpoint missing parameter {p.name!r}")
        if arrays[p.name].shape != p.value.shape:
            raise ValueError(f"checkpoint parameter {p.name!r} has wrong shape")
        np.copyto(p.value, arrays[p.name])
    model.after_update()
    if not with_optimizer:
        return model
    opt_meta = meta.get("optimizer")
    state = None
    if opt_meta is not None:
        state = OptimizerState(opt_meta["algorithm"], lr=opt_meta["lr"],
                               beta1=opt_meta["beta1"], beta2=opt_meta["beta2"],
                               eps=opt_meta["eps"], t=opt_meta["t"])
        for name in opt_meta["moment_names"]:
            state.moments[name] = (arrays[f"opt.m.{name}"], arrays[f"opt.v.{name}"])
    return model, state
