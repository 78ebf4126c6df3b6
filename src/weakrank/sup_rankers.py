"""Supervised rankers trained on pseudo labels, plus their ensemble.

Three model families: a two-tower representation model over mean word
embeddings, an interaction model pooling word-by-word cosines through RBF
kernels, and a graph ranker aggregating sampled neighborhoods. All share a
RankerBackbone of frozen inputs (word embeddings, document means, kernel
feature caches) so per-episode models are cheap to create and train. The
document means are ``embeddings.doc_means``, and the graph ranker reads its
documents' node rows from ``graph.HetGraph.doc_nodes``. The two cosine
rankers turn their outputs into scores through ``embeddings.cosine_matrix``,
the op the embedding scorers score through.

Rankers score whole matrices: ``score_matrix()`` returns every (query,
candidate) score in one batched pass. Everything that scores a trained
ranker (validation rewards, the final retrain's early stopping, the test
metrics and ``weakrank score``) gathers columns from those matrices and
combines them with ``ensemble_scores``. Each model's parameters form one
``ParamGroup``, so a training step zeroes and updates flat buffers.

Training runs on integer batches: ``train_supervised`` takes (query row,
positive column, negative column) triples in corpus positions and hands
each ``loss_and_grads`` a (batch, 3) slice, which gathers its rows of the
frozen inputs directly. No gradient is computed into frozen inputs. The
cosine rankers score a step's positives and negatives as one stacked block
of candidate rows: the representation ranker runs its candidate tower once
over [positives; negatives], forward and backward, and the pairwise loss
takes both cosines from one row-wise op.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, cosine_matrix, doc_means, node_feature_matrix, unit_rows
from .graph import HetGraph
from .ioutil import load_arrays, save_arrays
from .metrics import rank_lists
from .nncore import (
    OptimizerState,
    ParamGroup,
    cosine_rows_backward,
    cosine_rows_forward,
    dense_backward,
    dense_forward,
    init_param,
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

PHI_BLOCK = 1 << 16  # word-cosine entries pooled at once: bounds phi's temporaries
# Part of every cached kernel-feature entry's key: bump it whenever the
# pooling's rounding can change (PHI_BLOCK, the pooling op), so old entries miss.
PHI_VERSION = 1


def kernel_bank(mus, sigmas) -> tuple:
    """A kernel bank as a hashable key: (mus, sigmas) as plain floats."""
    return (tuple(float(m) for m in np.asarray(mus, dtype=np.float64)),
            tuple(float(s) for s in np.asarray(sigmas, dtype=np.float64)))


class RankerBackbone:
    """Frozen inputs shared by every supervised ranker in a run.

    The table is recentered (mean word vector subtracted) before anything is
    derived from it: skip-gram geometry is strongly anisotropic, and without
    centering all document means collapse onto one direction, which starves
    tower and kernel models of usable input variation. The original table is
    kept for persistence.
    """

    def __init__(self, corpus: Corpus, table: EmbeddingTable, graph: HetGraph | None = None, *,
                 graph_sample_size: int, graph_seed: int, center: bool = True):
        self.corpus = corpus
        self.table = table
        if center:
            shifted = table.vectors - table.vectors.mean(axis=0)
            self.table = EmbeddingTable(table.ids, shifted)
        self.raw_table = table
        self.graph = graph
        self.graph_sample_size = graph_sample_size
        self.graph_seed = graph_seed

        self.q_means, self.c_means = doc_means(self.table, corpus)

        self._phi_cache: dict = {}
        self._graph_inputs = None

    def _word_counts(self, docs) -> tuple[np.ndarray, np.ndarray]:
        """(table rows of the words in ``docs``, each document's count of each)."""
        rows = [[self.table.index[t] for t in self.corpus.tokens(d)] for d in docs]
        words, word_of = np.unique(np.concatenate(rows), return_inverse=True)
        doc_of = np.repeat(np.arange(len(docs)), [len(r) for r in rows])
        counts = np.zeros((len(docs), len(words)))
        np.add.at(counts, (doc_of, word_of), 1.0)
        return words, counts

    def phi_features(self, mus, sigmas) -> np.ndarray:
        """Kernel-pooled match features for every (query, candidate) pair.

        phi[i, j, h] = sum over query words of log(K_h(similarity row) + eps),
        where K_h pools kernel h over the candidate's words. Word embeddings
        are frozen, so a kernel value depends only on the two words: each
        kernel is applied once to the table of word cosines, multiplied by the
        candidates' word counts, logged, and summed with the queries' word
        counts (``nncore.kernel_pool_forward``, a block of query words at a
        time). Kept per kernel bank; it never changes within a run, and
        pretraining puts in (``put_phi_features``) the features it read from
        the cache.
        """
        bank = kernel_bank(mus, sigmas)
        if bank in self._phi_cache:
            return self._phi_cache[bank]
        q_words, q_counts = self._word_counts(self.corpus.queries)
        c_words, c_counts = self._word_counts(self.corpus.candidates)
        hats = unit_rows(self.table.vectors)
        c_hats = hats[c_words]
        pooled = np.zeros((len(mus), len(self.corpus.queries), len(self.corpus.candidates)))
        step = max(1, PHI_BLOCK // len(c_words))
        for lo in range(0, len(q_words), step):
            S = hats[q_words[lo:lo + step]] @ c_hats.T  # (query words, candidate words)
            pooled += kernel_pool_forward(S, q_counts[:, lo:lo + step], c_counts, mus, sigmas)
        phi = np.ascontiguousarray(pooled.transpose(1, 2, 0))
        self._phi_cache[bank] = phi
        return phi

    def put_phi_features(self, bank: tuple, phi: np.ndarray) -> None:
        """Keep ``phi`` as the features of ``bank`` (a ``kernel_bank``)."""
        shape = (len(self.corpus.queries), len(self.corpus.candidates), len(bank[0]))
        if phi.shape != shape:
            raise ValueError(f"kernel features of shape {phi.shape}, expected {shape}")
        self._phi_cache[bank] = phi

    def gather(self, matrix: np.ndarray, query_id: str, candidate_ids) -> np.ndarray:
        column = self.corpus.candidate_column
        return matrix[self.corpus.query_row[query_id], [column[c] for c in candidate_ids]]

    def graph_inputs(self):
        """(neighbor sample, node features, node index arrays) for graph rankers."""
        if self.graph is None:
            raise ValueError("backbone was built without a graph")
        if self._graph_inputs is None:
            rng = np.random.default_rng(self.graph_seed)
            sample = build_neighbor_matrix(self.graph, self.graph_sample_size, rng)
            features = node_feature_matrix(self.graph, self.corpus, self.table)
            self._graph_inputs = (sample, features, *self.graph.doc_nodes(self.corpus))
        return self._graph_inputs


def _pairwise_loss_grads(r_pos: np.ndarray, r_neg: np.ndarray):
    """Mean pairwise logistic objective and its gradients w.r.t. the scores.

    Maximizing log sigma(r+) + log(1 - sigma(r-)) is minimizing
    softplus(-r+) + softplus(r-) = -log sigma(r+) - log sigma(-r-); the
    gradient w.r.t. r is sigma(r) - target.
    """
    B = len(r_pos)
    r = np.concatenate([r_pos, r_neg])
    e = np.exp(-np.abs(r))  # one exp(-|r|) serves the softplus and the sigmoid
    sp = np.maximum(np.concatenate([-r_pos, r_neg]), 0.0) + np.log1p(e)
    loss = float((sp[:B] + sp[B:]).sum() / B)  # bitwise .mean(), without its Python wrapper
    s = sigmoid(r, e)
    return loss, (s[:B] - 1.0) / B, s[B:] / B


def _pair_cosine_loss(yq: np.ndarray, yc: np.ndarray):
    """Pairwise loss on cos(yq, positives) against cos(yq, negatives) for the
    stacked candidate rows ``yc = [positives; negatives]``, and its gradients
    (d yq, d yc). Both cosines run as one row-wise op; each row's value is
    the same as in two separate calls."""
    B = len(yq)
    r, cache = cosine_rows_forward(np.concatenate([yq, yq]), yc)
    loss, d_pos, d_neg = _pairwise_loss_grads(r[:B], r[B:])
    dU, dV = cosine_rows_backward(np.concatenate([d_pos, d_neg]), cache)
    return loss, dU[:B] + dU[B:], dV


def _check_loss(model, loss: float, batch) -> None:
    if not np.isfinite(loss):
        raise ValueError(f"non-finite loss in {model.kind} ranker on a batch of {len(batch)}")


class _Ranker:
    """What every ranker shares; each defines ``score_matrix()``, and its own
    ``score_pairs`` (a gather from it) so the method can be wrapped per class."""

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        self.backbone, self.spec, self.seed = backbone, spec, seed
        self.hp = spec.hyperparameters()

    def params(self) -> ParamGroup:
        return self._params

    def after_update(self) -> None:
        pass


class RepresentationRanker(_Ranker):
    """Two dense tanh layers per side over mean word embeddings, then cosine."""

    kind = "representation"

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        super().__init__(backbone, spec, seed)
        hidden = self.hp["hidden"]
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
        return cosine_matrix(yq, yc)

    def score_pairs(self, query_id: str, candidate_ids) -> np.ndarray:
        return self.backbone.gather(self.score_matrix(), query_id, candidate_ids)

    def loss_and_grads(self, batch: np.ndarray) -> float:
        # one pass of each tower: the query rows, then the candidate rows
        # stacked as [positives; negatives]
        yq, qcache = self._tower(self.backbone.q_means[batch[:, 0]], "q")
        yc, ccache = self._tower(self.backbone.c_means[batch.T[1:].ravel()], "c")
        loss, dyq, dyc = _pair_cosine_loss(yq, yc)
        self._tower_backward(dyq, qcache)
        self._tower_backward(dyc, ccache)
        _check_loss(self, loss, batch)
        return loss


class InteractionRanker(_Ranker):
    """Kernel-pooled word interactions mapped to a score by one linear layer."""

    kind = "interaction"

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        super().__init__(backbone, spec, seed)
        self.mus = np.asarray(self.hp["mus"], dtype=np.float64)
        self.sigmas = np.asarray(self.hp["sigmas"], dtype=np.float64)
        self.phi = backbone.phi_features(self.mus, self.sigmas)
        rng = np.random.default_rng(seed)
        H = len(self.mus)
        self.w = init_param("inter.w", (H,), rng)
        self.b = init_param("inter.b", (1,), rng)
        self._params = ParamGroup([self.w, self.b])

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


class GraphAggregationRanker(_Ranker):
    """Sampled-neighborhood mean aggregation; cosine of final embeddings."""

    kind = "graph-aggregation"

    def __init__(self, backbone: RankerBackbone, spec: SupModelSpec, seed: int):
        super().__init__(backbone, spec, seed)
        sample, features, q_nodes, c_nodes = backbone.graph_inputs()
        self.sample = sample
        self.features = features
        self.M0 = sage_input(features, sample)  # frozen features, fixed sample
        self.q_nodes = q_nodes
        self.c_nodes = c_nodes
        hidden, out_dim, n_layers = self.hp["hidden"], self.hp["out_dim"], self.hp["n_layers"]
        d0 = features.shape[1]
        dims = [d0] + [hidden] * max(0, n_layers - 1) + ([out_dim] if n_layers else [])
        self.layers = self._params = create_layers("sup-agg", dims, np.random.default_rng(seed))
        self._Z: np.ndarray | None = None

    def after_update(self) -> None:
        self._Z = None

    def _embeddings(self) -> np.ndarray:
        if self._Z is None:
            self._Z, _ = sage_forward(self.features, self.sample, self.layers, self.M0)
        return self._Z

    def score_matrix(self) -> np.ndarray:
        Z = self._embeddings()
        return cosine_matrix(Z[self.q_nodes], Z[self.c_nodes])

    def score_pairs(self, query_id: str, candidate_ids) -> np.ndarray:
        return self.backbone.gather(self.score_matrix(), query_id, candidate_ids)

    def loss_and_grads(self, batch: np.ndarray) -> float:
        # the top layer runs only at the batch's nodes; Z's rows follow them
        q, p, n = batch.T
        nodes, at = np.unique(np.concatenate([self.q_nodes[q], self.c_nodes[p], self.c_nodes[n]]),
                              return_inverse=True)
        Z, caches = sage_forward(self.features, self.sample, self.layers, self.M0, rows=nodes)
        B = len(batch)
        loss, dZq, dZc = _pair_cosine_loss(Z[at[:B]], Z[at[B:]])
        dZ = np.zeros(Z.shape)
        scatter_add_rows(dZ, at, np.concatenate([dZq, dZc]))
        sage_backward(dZ, self.sample, caches)  # node features are frozen
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
    batch_size: int,
    algorithm: str,
    eval_fn=None,
    patience: int = 0,
) -> list[float]:
    """Seeded minibatch training on (n, 3) integer (query row, positive
    column, negative column) triples (``sample_training_pairs``); each epoch
    permutes the rows and hands the ranker (batch, 3) slices. ``algorithm``
    is the ``sup_optimizer`` setting, "adam" or "sgd".

    Returns the per-epoch mean objective. With ``eval_fn`` the best-scoring
    parameters are restored at the end, and training stops early once the
    metric fails to improve for ``patience`` consecutive epochs (patience 0
    disables early stopping but still restores the best). The optimizer
    state lives only for this call.
    """
    if not len(triples):
        raise ValueError("empty training stream")
    rng = np.random.default_rng(seed)
    opt = OptimizerState(algorithm, lr=lr)
    params = model.params()
    curve = []
    best_metric, best_values, stale = -np.inf, None, 0
    for _ in range(epochs):
        shuffled = triples[rng.permutation(len(triples))]
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
    """The rank of each eval list's positive under the models' ensemble.

    Each member's score matrix is computed once; ``rank_lists`` gathers the
    ensemble scores of one block of lists at a time and keeps only the
    ranks. The lists must come from the models' corpus.
    """
    if not models:
        raise ValueError("ensemble needs at least one model")
    corpus = models[0].backbone.corpus
    if (lists.query_ids, lists.candidate_ids) != (corpus.query_ids, corpus.candidate_ids):
        raise ValueError("eval lists were built from another corpus than the rankers'")
    matrices = [m.score_matrix() for m in models]
    return rank_lists(lists, lambda rows, cols: ensemble_scores(matrices, rows, cols))


def save_checkpoint(model, path, config_hash: str) -> None:
    """Self-describing parameter container; load requires the same backbone.

    Holds shapes and values of every parameter, the model's hyperparameters
    and seed, and the creating configuration hash: what ``score`` serves,
    and no optimizer state.
    """
    save_arrays(path, {p.name: p.value for p in model.params()}, meta={
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": model.kind,
        "name": model.spec.name,
        "params": model.spec.params,
        "seed": model.seed,
        "config_hash": config_hash,
    })


def load_checkpoint(path, backbone: RankerBackbone, config_hash: str):
    """Rebuild a saved model on ``backbone``, refusing a checkpoint that a
    configuration of another hash wrote. Arrays that are not the model's
    parameters are ignored."""
    arrays, meta = load_arrays(path)
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {meta.get('format_version')!r}")
    if meta.get("config_hash") != config_hash:
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
    return model
