"""Unsupervised node embeddings for the heterogeneous graph.

Five methods share this module: plain weighted random walks, biased walks
with return/in-out parameters, first- and second-order edge proximity with
negative sampling, and neighbor-mean aggregation trained on walk
co-occurrence. All trainers are seed-deterministic.

Proximity draws edges by weight, and both it and aggregation draw negatives
by node strength ** 0.75, each epoch's uniforms in one call, through
``embeddings.CdfSampler``. Neither computes a loss.

Walks step in lockstep: every walker of a round takes its next step in one
set of NumPy calls over the graph's CSR arrays, with the random draws a
walk-by-walk, step-by-step loop would make, so the walks are bitwise that
loop's.
"""

from __future__ import annotations

import numpy as np

from .embeddings import CdfSampler, SkipGramTrainer, window_layout
from .graph import HetGraph
from .nncore import (
    OptimizerState,
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

def _check_no_isolated(graph: HetGraph) -> None:
    isolated = np.flatnonzero(graph.degrees == 0)
    if len(isolated):
        raise ValueError(f"graph has isolated nodes, e.g. {graph.nodes[isolated[0]]!r}")


# ---------------------------------------------------------------------------
# random walks


def _plain_steps(indptr: np.ndarray, cum: np.ndarray, cur: np.ndarray, u: np.ndarray,
                 n_iter: int) -> np.ndarray:
    """Each walker's next position in the flat CSR arrays: in ``cur``'s row,
    ``searchsorted(cum_weights[cur], u * cum_weights[cur][-1], side="right")``,
    as one binary search run by all walkers together. ``cum`` ends in one
    padding entry, so an empty interval may look one past the last edge."""
    lo, hi = indptr[cur], indptr[cur + 1]
    x = u * cum[hi - 1]
    for _ in range(n_iter):
        mid = (lo + hi) >> 1
        right = (lo < hi) & (cum[mid] <= x)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _biased_steps(graph: HetGraph, indptr: np.ndarray, nbrs: np.ndarray, weights: np.ndarray,
                  edge_keys: np.ndarray, prev: np.ndarray, cur: np.ndarray, u: np.ndarray,
                  p: float, q: float) -> np.ndarray:
    """Each walker's next node under the biased law: edge weight divided by
    ``p`` back to ``prev``, kept to a neighbour of ``prev``, divided by ``q``
    otherwise. Walkers are grouped by their current node's degree, so every
    row's weight sum and cumulative sum runs over that row alone, exactly as
    a per-walker ``np.sum`` and ``np.cumsum`` would."""
    n = graph.n_nodes
    deg = graph.degrees[cur]
    order = np.argsort(deg, kind="stable")
    nxt = np.empty(len(cur), dtype=np.int64)
    for grp in np.split(order, np.flatnonzero(np.diff(deg[order])) + 1):
        cols = indptr[cur[grp]][:, None] + np.arange(deg[grp[0]])
        nb, w = nbrs[cols], weights[cols]
        back = prev[grp][:, None]
        keys = back * n + nb
        near = edge_keys[np.searchsorted(edge_keys, keys)] == keys
        w = np.where(nb == back, w / p, np.where(near, w, w / q))
        c = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
        pick = (c <= u[grp][:, None] * c[:, -1:]).sum(axis=1)
        nxt[grp] = nb[np.arange(len(grp)), pick]
    return nxt


def generate_walks(
    graph: HetGraph,
    n_walks: int,
    walk_len: int,
    seed: int,
    p: float | None,
    q: float | None,
) -> list[np.ndarray]:
    """n_walks seeded walks of walk_len nodes from every node. A p or q that
    is not None switches to the biased law (first step is always plain).

    Each round draws a permutation of the start nodes, then one uniform per
    step of every walk, walk after walk; walker ``i`` takes step ``j`` with
    ``U[i, j - 1]``. All walkers of a round then step together over the
    graph's CSR arrays. The walks are bitwise those of stepping each walk in
    turn with one ``rng.random()`` per step, in that order.
    """
    _check_no_isolated(graph)
    biased = p is not None or q is not None
    if biased:
        p = 1.0 if p is None else float(p)
        q = 1.0 if q is None else float(q)
    n, length = graph.n_nodes, max(walk_len, 1)
    indptr = np.concatenate([[0], np.cumsum(graph.degrees)])
    nbrs = np.concatenate(graph.neighbors)
    cum = np.append(np.concatenate(graph.cum_weights), np.inf)
    weights = np.concatenate(graph.weights)
    edge_keys = np.append(np.repeat(np.arange(n), graph.degrees) * n + nbrs, n * n)
    n_iter = int(graph.degrees.max()).bit_length()
    rng = np.random.default_rng(seed)
    walks = np.empty((n_walks * n, length), dtype=np.int64)
    for r in range(n_walks):
        block = walks[r * n:(r + 1) * n]
        block[:, 0] = rng.permutation(n)
        U = rng.random((n, length - 1))
        for j in range(1, length):
            cur = block[:, j - 1]
            if biased and j > 1:
                block[:, j] = _biased_steps(graph, indptr, nbrs, weights, edge_keys,
                                            block[:, j - 2], cur, U[:, j - 1], p, q)
            else:
                block[:, j] = nbrs[_plain_steps(indptr, cum, cur, U[:, j - 1], n_iter)]
    return list(walks)


def _strength_noise(graph: HetGraph) -> CdfSampler:
    """Negative sampling by node strength (weighted degree) ** 0.75."""
    return CdfSampler(np.array([graph.edge_weight_sum(v) for v in range(graph.n_nodes)]) ** 0.75)


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
        self.dim = dim
        self.order = order
        self.neg = neg
        self.lr = lr
        self.rng = np.random.default_rng(seed)

        self.edge_src = np.repeat(np.arange(graph.n_nodes, dtype=np.int64), graph.degrees)
        self.edge_dst = np.concatenate(graph.neighbors)
        self._edges = CdfSampler(np.concatenate(graph.weights))
        self._noise = _strength_noise(graph)

        self.emb = self.rng.uniform(-0.5 / dim, 0.5 / dim, size=(graph.n_nodes, dim))
        self.ctx = np.zeros((graph.n_nodes, dim)) if order == 2 else self.emb

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    def train(self, epochs: int, batch_size: int) -> None:
        """One epoch covers roughly every directed edge once.

        An epoch draws all its uniforms in one call: per batch, one per edge,
        then ``neg`` per edge for its negatives, the stream that a draw per
        batch would consume. Edges and negatives are looked up for the whole
        epoch; only the table updates run batch by batch.
        """
        batches = max(1, self.n_edges // batch_size)
        for _ in range(epochs):
            U = self.rng.random((batches, batch_size * (1 + self.neg)))
            idx = self._edges.draw(U[:, :batch_size])
            negs = self._noise.draw(U[:, batch_size:])
            all_targets = np.concatenate(
                [self.edge_dst[idx][:, :, None], negs.reshape(batches, batch_size, self.neg)],
                axis=2)  # (batches, B, 1 + neg): each edge's destination, then its negatives
            for src, targets in zip(self.edge_src[idx], all_targets):
                h = self.emb[src]  # (B, d)
                out = self.ctx[targets]  # (B, 1 + neg, d)
                g = sigmoid(np.einsum("bd,bnd->bn", h, out))
                g[:, 0] -= 1.0  # sigma(score) - label; only the destination is labelled 1
                dh = np.einsum("bn,bnd->bd", g, out)
                dout = g[:, :, None] * h[:, None, :]
                # for order 1 ctx aliases emb, so both updates land in one table
                scatter_add_rows(self.ctx, targets, -self.lr * dout)
                scatter_add_rows(self.emb, src, -self.lr * dh)


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
        self.sample = build_neighbor_matrix(graph, sample_size, self.rng)
        self.M0 = sage_input(self.features, self.sample)
        dims = [self.features.shape[1]] + [hidden] * max(0, n_layers - 1) + ([out_dim] if n_layers else [])
        self.layers = create_layers("agg", dims, self.rng)
        self.opt = OptimizerState("adam", lr=lr)
        self._noise = _strength_noise(graph)

    def embeddings(self) -> np.ndarray:
        H, _ = sage_forward(self.features, self.sample, self.layers, self.M0)
        return H

    def train(self, pairs: np.ndarray, epochs: int, batch_size: int) -> None:
        """Minibatch Adam over the (node, co-occurring node) ``pairs``. Each
        epoch permutes the pairs, then draws the negatives of all its batches
        in one call, the stream that a draw per batch would consume."""
        n = len(pairs)
        for _ in range(epochs):
            shuffled = pairs[self.rng.permutation(n)]
            all_negs = self._noise.draw(self.rng.random(n * self.neg))
            all_negs = all_negs.reshape(n, self.neg)
            for i in range(0, n, batch_size):
                u, v = shuffled[i:i + batch_size].T
                negs = all_negs[i:i + batch_size]
                B = len(u)
                zero_grads(self.layers)
                Z, caches = sage_forward(self.features, self.sample, self.layers, self.M0)
                s_pos = np.einsum("id,id->i", Z[u], Z[v])
                s_neg = np.einsum("id,ind->in", Z[u], Z[negs])
                g_pos = (sigmoid(s_pos) - 1.0) / B  # (B,)
                g_neg = sigmoid(s_neg) / B  # (B, neg)
                dZ = np.zeros(Z.shape)
                scatter_add_rows(dZ, u, g_pos[:, None] * Z[v]
                                 + np.einsum("bn,bnd->bd", g_neg, Z[negs]))
                scatter_add_rows(dZ, v, g_pos[:, None] * Z[u])
                scatter_add_rows(dZ, negs, g_neg[:, :, None] * Z[u][:, None, :])
                sage_backward(dZ, self.sample, caches)
                optimizer_step(self.layers, self.opt)


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
    hp: dict,
    seed: int,
    node_features: np.ndarray | None = None,
) -> np.ndarray:
    """Train node embeddings with one of the five methods: a (nodes, dim)
    array whose row i is node i's vector.

    ``hp`` holds every hyperparameter the method's kind declares in
    ``registry.HYPERPARAMETERS`` (``spec.hyperparameters()``). The
    aggregation method requires ``node_features`` (frozen input vectors per
    node, in graph node order).
    """
    if method in ("walk", "biased-walk"):
        walks = generate_walks(graph, hp["n_walks"], hp["walk_len"], seed,
                               p=hp.get("p"), q=hp.get("q"))
        counts = np.bincount(np.concatenate(walks), minlength=graph.n_nodes).astype(np.float64)
        counts = np.maximum(counts, 1e-12)  # unvisited nodes keep a vanishing noise weight
        trainer = SkipGramTrainer(graph.n_nodes, hp["dim"], hp["window"], hp["neg"], hp["lr"],
                                  seed, counts=counts)
        trainer.train(walks, hp["epochs"])
        return trainer.w_in
    if method in ("proximity-1", "proximity-2"):
        trainer = EdgeProximityTrainer(graph, hp["dim"], int(method[-1]), hp["neg"], hp["lr"],
                                       seed)
        trainer.train(hp["epochs"], hp["batch_size"])
        return trainer.emb
    if node_features is None:
        raise ValueError("aggregation needs node_features")
    trainer = AggregationTrainer(graph, node_features, hp["hidden"], hp["out_dim"],
                                 hp["n_layers"], hp["neg"], hp["lr"], hp["sample_size"], seed)
    walks = generate_walks(graph, hp["n_walks"], hp["walk_len"], seed + 1, None, None)
    trainer.train(cooccurrence_pairs(walks, hp["window"]), hp["epochs"], hp["batch_size"])
    return trainer.embeddings()
