"""Unsupervised node embeddings for the heterogeneous graph.

Five methods share this module: plain weighted random walks, biased walks
with return/in-out parameters, first- and second-order edge proximity with
negative sampling, and neighbor-mean aggregation trained on walk
co-occurrence. All trainers are seed-deterministic.
"""

from __future__ import annotations

import numpy as np

from .embeddings import EmbeddingTable, SkipGramTrainer, noise_cdf, window_layout
from .graph import HetGraph
from .nncore import (
    OptimizerState,
    log_sigmoid,
    optimizer_step,
    scatter_add_rows,
    sigmoid,
    zero_grads,
)
from .sageops import (
    build_neighbor_matrix,
    create_layers,
    sage_backward,
    sage_forward,
    sage_input,
)

GRAPH_METHODS = ("walk", "biased-walk", "proximity-1", "proximity-2", "aggregation")


def _check_no_isolated(graph: HetGraph) -> None:
    isolated = np.flatnonzero(graph.degrees == 0)
    if len(isolated):
        raise ValueError(f"graph has isolated nodes, e.g. {graph.nodes[isolated[0]]!r}")


# ---------------------------------------------------------------------------
# random walks


def biased_transition_probs(
    graph: HetGraph, prev: int, cur: int, p: float, q: float
) -> tuple[np.ndarray, np.ndarray]:
    """Biased law: edge weight times 1/p (back to prev), 1 (distance-1 from
    prev), or 1/q (distance 2). With p = q = 1 this equals the plain law."""
    nbrs = graph.neighbors[cur]
    w = graph.weights[cur].copy()
    prev_nbrs = _neighbor_sets(graph)[prev]
    for i, x in enumerate(nbrs):
        if x == prev:
            w[i] /= p
        elif x not in prev_nbrs:
            w[i] /= q
    return nbrs, w / w.sum()


def _neighbor_sets(graph: HetGraph) -> list[frozenset]:
    # cached on the graph: membership tests drive the biased walk inner loop
    if not hasattr(graph, "_neighbor_sets"):
        graph._neighbor_sets = [frozenset(n.tolist()) for n in graph.neighbors]
    return graph._neighbor_sets


def step_plain(graph: HetGraph, cur: int, rng: np.random.Generator) -> int:
    """Draw the next node of a plain walk."""
    cum = graph.cum_weights[cur]
    return int(graph.neighbors[cur][np.searchsorted(cum, rng.random() * cum[-1], side="right")])


def step_biased(graph: HetGraph, prev: int, cur: int, p: float, q: float,
                rng: np.random.Generator) -> int:
    """Draw the next node of a biased walk given the previous node."""
    nbrs, probs = biased_transition_probs(graph, prev, cur, p, q)
    cum = np.cumsum(probs)
    return int(nbrs[np.searchsorted(cum, rng.random() * cum[-1], side="right")])


def generate_walks(
    graph: HetGraph,
    n_walks: int,
    walk_len: int,
    seed: int,
    p: float | None = None,
    q: float | None = None,
) -> list[np.ndarray]:
    """n_walks seeded walks of walk_len nodes from every node. Passing p and q
    switches to the biased law (first step is always plain)."""
    _check_no_isolated(graph)
    biased = p is not None or q is not None
    if biased:
        p = 1.0 if p is None else float(p)
        q = 1.0 if q is None else float(q)
        _neighbor_sets(graph)
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(n_walks):
        starts = rng.permutation(graph.n_nodes)
        for start in starts:
            walk = [int(start)]
            while len(walk) < walk_len:
                cur = walk[-1]
                if not biased or len(walk) == 1:
                    nxt = step_plain(graph, cur, rng)
                else:
                    nxt = step_biased(graph, walk[-2], cur, p, q, rng)
                walk.append(nxt)
            walks.append(np.array(walk, dtype=np.int64))
    return walks


def _strength_noise_cdf(graph: HetGraph) -> np.ndarray:
    """Negative sampling by node strength (weighted degree) ** 0.75."""
    return noise_cdf([graph.edge_weight_sum(v) for v in range(graph.n_nodes)])


def _walks_to_table(graph: HetGraph, walks, dim, window, neg, epochs, lr, seed) -> EmbeddingTable:
    counts = np.bincount(np.concatenate(walks), minlength=graph.n_nodes).astype(np.float64)
    counts = np.maximum(counts, 1e-12)  # unvisited nodes keep a vanishing noise weight
    trainer = SkipGramTrainer(graph.n_nodes, dim, window, neg, lr, seed, counts=counts)
    trainer.train(walks, epochs)
    return EmbeddingTable(graph.entity_ids(), trainer.w_in.copy())


# ---------------------------------------------------------------------------
# edge proximity (first and second order)


class EdgeProximityTrainer:
    """Maximizes sigma(u . v) over edges with negative sampling.

    First order shares one vector table across both endpoints; second order
    scores a vertex vector against a separate context table. Edges are drawn
    proportionally to weight, negatives to (weighted) degree^0.75.
    """

    def __init__(self, graph: HetGraph, dim: int, order: int, neg: int, lr: float, seed: int):
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        _check_no_isolated(graph)
        self.graph = graph
        self.dim = dim
        self.order = order
        self.neg = neg
        self.lr = lr
        self.rng = np.random.default_rng(seed)

        self.edge_src = np.repeat(np.arange(graph.n_nodes, dtype=np.int64), graph.degrees)
        self.edge_dst = np.concatenate(graph.neighbors)
        w = np.concatenate(graph.weights)
        self._edge_cum = np.cumsum(w / np.sum(w))

        self._noise_cum = _strength_noise_cdf(graph)

        self.emb = self.rng.uniform(-0.5 / dim, 0.5 / dim, size=(graph.n_nodes, dim))
        self.ctx = np.zeros((graph.n_nodes, dim)) if order == 2 else self.emb

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    def _draw(self, cum: np.ndarray, n: int) -> np.ndarray:
        return np.searchsorted(cum, self.rng.random(n))

    def train_batch(self, batch_size: int) -> float:
        idx = self._draw(self._edge_cum, batch_size)
        src, dst = self.edge_src[idx], self.edge_dst[idx]
        negs = self._draw(self._noise_cum, batch_size * self.neg).reshape(batch_size, self.neg)

        h = self.emb[src]  # (B, d)
        targets = np.concatenate([dst[:, None], negs], axis=1)  # (B, 1+neg)
        out = self.ctx[targets]  # (B, 1+neg, d)
        scores = np.einsum("bd,bnd->bn", h, out)
        labels = np.zeros_like(scores)
        labels[:, 0] = 1.0
        probs = sigmoid(scores)
        g = probs - labels  # (B, 1+neg)

        loss = float(-(
            log_sigmoid(scores[:, 0]) + log_sigmoid(-scores[:, 1:]).sum(axis=1)
        ).mean())

        dh = np.einsum("bn,bnd->bd", g, out)
        dout = g[:, :, None] * h[:, None, :]
        # for order 1 ctx aliases emb, so both updates land in one table
        scatter_add_rows(self.ctx, targets, -self.lr * dout)
        scatter_add_rows(self.emb, src, -self.lr * dh)
        return loss

    def train(self, epochs: int, batch_size: int = 128) -> list[float]:
        """One epoch covers roughly every directed edge once."""
        batches = max(1, self.n_edges // batch_size)
        curve = []
        for _ in range(epochs):
            losses = [self.train_batch(batch_size) for _ in range(batches)]
            curve.append(float(np.mean(losses)))
        return curve

    def table(self) -> EmbeddingTable:
        return EmbeddingTable(self.graph.entity_ids(), self.emb.copy())


# ---------------------------------------------------------------------------
# neighbor aggregation trained on walk co-occurrence


class AggregationTrainer:
    """Two mean-aggregate-then-transform layers; positives are node pairs
    co-occurring in walks, negatives drawn by degree^0.75."""

    def __init__(self, graph: HetGraph, features: np.ndarray, hidden: int, out_dim: int,
                 n_layers: int, neg: int, lr: float, sample_size: int, seed: int):
        _check_no_isolated(graph)
        self.graph = graph
        self.features = np.asarray(features, dtype=np.float64)
        self.neg = neg
        self.rng = np.random.default_rng(seed)
        self.A = build_neighbor_matrix(graph, sample_size, self.rng)
        self.M0 = sage_input(self.features, self.A)
        dims = [self.features.shape[1]] + [hidden] * max(0, n_layers - 1) + ([out_dim] if n_layers else [])
        self.layers = create_layers("agg", dims, self.rng)
        self.opt = OptimizerState("adam", lr=lr)
        self._noise_cum = _strength_noise_cdf(graph)

    def embeddings(self) -> np.ndarray:
        H, _ = sage_forward(self.features, self.A, self.layers, self.M0)
        return H

    def train_batch(self, pairs: np.ndarray) -> float:
        B = len(pairs)
        negs = np.searchsorted(self._noise_cum, self.rng.random(B * self.neg)).reshape(B, self.neg)
        zero_grads(self.layers)
        Z, caches = sage_forward(self.features, self.A, self.layers, self.M0)

        u, v = pairs[:, 0], pairs[:, 1]
        s_pos = np.einsum("id,id->i", Z[u], Z[v])
        s_neg = np.einsum("id,ind->in", Z[u], Z[negs])
        loss = float(-(log_sigmoid(s_pos) + log_sigmoid(-s_neg).sum(axis=1)).mean())

        g_pos = (sigmoid(s_pos) - 1.0) / B  # (B,)
        g_neg = sigmoid(s_neg) / B  # (B, neg)
        dZ = np.zeros(Z.shape)
        scatter_add_rows(dZ, u, g_pos[:, None] * Z[v] + np.einsum("bn,bnd->bd", g_neg, Z[negs]))
        scatter_add_rows(dZ, v, g_pos[:, None] * Z[u])
        scatter_add_rows(dZ, negs, g_neg[:, :, None] * Z[u][:, None, :])

        sage_backward(dZ, self.A, caches)
        optimizer_step(self.layers, self.opt)
        return loss

    def train(self, pairs: np.ndarray, epochs: int, batch_size: int = 256) -> list[float]:
        curve = []
        for _ in range(epochs):
            order = self.rng.permutation(len(pairs))
            losses = [
                self.train_batch(pairs[order[i:i + batch_size]])
                for i in range(0, len(order), batch_size)
            ]
            curve.append(float(np.mean(losses)))
        return curve


def cooccurrence_pairs(walks, window: int) -> np.ndarray:
    """All (center, context) pairs within the window across walks, walk by
    walk and position by position, contexts in walk order."""
    centres, contexts, n_ctx = window_layout(walks, window)
    return np.stack([np.repeat(centres, n_ctx), contexts], axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# dispatcher


def train_graph_embeddings(
    graph: HetGraph,
    method: str,
    hp: dict | None = None,
    seed: int = 0,
    node_features: np.ndarray | None = None,
) -> EmbeddingTable:
    """Train node embeddings with one of the five methods.

    ``hp`` overrides the per-method defaults below. The aggregation method
    requires ``node_features`` (frozen input vectors per node, in graph node
    order).
    """
    if method not in GRAPH_METHODS:
        raise ValueError(f"unknown graph embedding method {method!r}")
    _check_no_isolated(graph)
    hp = dict(hp or {})

    def pop(key, default):
        return hp.pop(key, default)

    if method in ("walk", "biased-walk"):
        dim = pop("dim", 32)
        n_walks = pop("n_walks", 10)
        walk_len = pop("walk_len", 40)
        window = pop("window", 5)
        neg = pop("neg", 5)
        epochs = pop("epochs", 2)
        lr = pop("lr", 0.05)
        p = pop("p", 1.0) if method == "biased-walk" else None
        q = pop("q", 0.5) if method == "biased-walk" else None
        _reject_unknown(hp, method)
        walks = generate_walks(graph, n_walks, walk_len, seed, p=p, q=q)
        return _walks_to_table(graph, walks, dim, window, neg, epochs, lr, seed)

    if method in ("proximity-1", "proximity-2"):
        dim = pop("dim", 32)
        neg = pop("neg", 5)
        epochs = pop("epochs", 20)
        lr = pop("lr", 0.05)
        batch_size = pop("batch_size", 128)
        _reject_unknown(hp, method)
        order = 1 if method == "proximity-1" else 2
        trainer = EdgeProximityTrainer(graph, dim, order, neg, lr, seed)
        trainer.train(epochs, batch_size)
        return trainer.table()

    # aggregation
    if node_features is None:
        raise ValueError("aggregation needs node_features")
    hidden = pop("hidden", 32)
    out_dim = pop("out_dim", 32)
    n_layers = pop("n_layers", 2)
    neg = pop("neg", 5)
    epochs = pop("epochs", 3)
    lr = pop("lr", 0.01)
    sample_size = pop("sample_size", 10)
    n_walks = pop("n_walks", 5)
    walk_len = pop("walk_len", 20)
    window = pop("window", 5)
    batch_size = pop("batch_size", 256)
    _reject_unknown(hp, method)
    trainer = AggregationTrainer(
        graph, node_features, hidden, out_dim, n_layers, neg, lr, sample_size, seed
    )
    walks = generate_walks(graph, n_walks, walk_len, seed + 1)
    pairs = cooccurrence_pairs(walks, window)
    trainer.train(pairs, epochs, batch_size)
    return EmbeddingTable(graph.entity_ids(), trainer.embeddings())


def _reject_unknown(hp: dict, method: str) -> None:
    if hp:
        raise ValueError(f"unknown hyperparameters for {method}: {sorted(hp)}")
