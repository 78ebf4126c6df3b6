"""Test-side oracles: code the tests check production against.

None of this runs in a search. It holds the exact enumeration of the
controller's sampling law, the central finite-difference gradient checker,
the gradient of kernel pooling (production runs the pooling forward-only,
on frozen word cosines), the random walks' transition laws with a walk
generator that steps one walk at a time, the dense n x n neighbor-mean
matrix and the GraphSAGE stack run through it, the evaluation lists drawn
one list at a time, and the objectives the embedding trainers minimise,
evaluated on a fixed batch, in the overflow-safe log-sigmoid.
"""

from __future__ import annotations

import numpy as np

from weakrank.controller import Clamp, ControllerParams, _traverse
from weakrank.graph import HetGraph
from weakrank.nncore import _EPS_LOG, dense_backward, dense_forward

# ---------------------------------------------------------------------------
# exact policy enumeration (small registries only)


def _nonzero_mask_distribution(probs: np.ndarray) -> dict[tuple[int, ...], float]:
    """Joint law of a Bernoulli mask conditioned on not being all-zero, which
    is what redraw-until-nonzero sampling converges to."""
    n = len(probs)
    if n > 16:
        raise ValueError("mask enumeration is limited to 16 choices")
    out = {}
    total = 0.0
    for bits in range(1, 2**n):
        mask = tuple((bits >> i) & 1 for i in range(n))
        p = float(np.prod([probs[i, m] for i, m in enumerate(mask)]))
        out[mask] = p
        total += p
    return {m: p / total for m, p in out.items()}


def enumerate_policy(params: ControllerParams, clamp: Clamp = Clamp()) -> dict:
    """Exact marginals of the sampling policy, resampling correction included.

    Enumerates every non-zero step-1 mask (so the unsupervised registry must
    stay small), then every k, then the step-3 marginals conditioned on each
    prefix. Returns marginal select probabilities per step.
    """
    p_unsup = np.zeros(params.n_unsup)
    p_k = np.zeros(params.n_k)
    p_sup = np.zeros(params.n_sup)

    def probs_for(mask, k_index):
        state = _traverse(params, Clamp(mask, k_index, (1,) * params.n_sup), None, None)
        return state["probs"]

    if clamp.unsup_mask is not None:
        mask_dist = {tuple(clamp.unsup_mask): 1.0}
    else:
        probs1 = probs_for(tuple([1] * params.n_unsup), 0)[0]
        mask_dist = _nonzero_mask_distribution(probs1)

    for mask, pm in mask_dist.items():
        p_unsup += pm * np.asarray(mask)
        probs2 = probs_for(mask, 0)[1]
        if clamp.k_index is not None:
            k_dist = {clamp.k_index: 1.0}
        else:
            k_dist = {t: float(probs2[t]) for t in range(params.n_k)}
        for t, pk in k_dist.items():
            p_k[t] += pm * pk
            probs3 = probs_for(mask, t)[2]
            if clamp.sup_mask is not None:
                sup_marg = np.asarray(clamp.sup_mask, dtype=np.float64)
            else:
                sup_dist = _nonzero_mask_distribution(probs3)
                sup_marg = np.zeros(params.n_sup)
                for smask, sp in sup_dist.items():
                    sup_marg += sp * np.asarray(smask)
            p_sup += pm * pk * sup_marg
    return {"unsup": p_unsup, "k": p_k, "sup": p_sup}


def sup_mask_distribution(params: ControllerParams, unsup_mask, k_index: int) -> dict:
    """Exact step-3 mask law for a fixed prefix (resampling correction included)."""
    state = _traverse(params, Clamp(unsup_mask, k_index, (1,) * params.n_sup), None, None)
    return _nonzero_mask_distribution(state["probs"][2])


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def finite_difference_check(forward_backward, tensors, h: float = 1e-5,
                            denom_floor: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward_backward()`` must return the scalar loss and leave gradients in
    ``tensors`` (it is responsible for zeroing them first). Every coordinate
    of every tensor is perturbed.
    """
    tensors = list(tensors)
    loss0 = forward_backward()
    analytic = [t.grad.copy() for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.value.reshape(-1)
        aflat = a.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = forward_backward()
            flat[idx] = orig - h
            lm = forward_backward()
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            denom = max(abs(aflat[idx]), abs(numeric), denom_floor)
            worst = max(worst, abs(aflat[idx] - numeric) / denom)
    # restore the analytic gradients for the caller
    forward_backward()
    for t, a in zip(tensors, analytic):
        np.copyto(t.grad, a)
    del loss0
    return worst


# ---------------------------------------------------------------------------
# kernel pooling's gradient


def kernel_pool_backward(dpooled: np.ndarray, S: np.ndarray, q_counts: np.ndarray,
                         c_counts: np.ndarray, mus, sigmas,
                         negative_exponent: bool = True) -> np.ndarray:
    """Gradient of ``nncore.kernel_pool_forward`` (same arguments) with
    respect to ``S``; the counts are data."""
    mus = np.asarray(mus, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    sign = -1.0 if negative_exponent else 1.0
    dS = np.zeros_like(S)
    for h in range(len(mus)):
        diff = S - mus[h]
        g = np.exp(sign * diff ** 2 / (2.0 * sigmas[h] ** 2))
        dK = (q_counts.T @ dpooled[h]) / (g @ c_counts.T + _EPS_LOG)
        # dg_h/dS = g_h * sign * (S - mu_h) / sigma_h^2
        dS += (dK @ c_counts) * g * (sign * diff) / sigmas[h] ** 2
    return dS


# ---------------------------------------------------------------------------
# dense neighbor-mean aggregation


def dense_neighbor_matrix(graph: HetGraph, sample_size: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Row-stochastic n x n matrix averaging each node's sampled neighbors,
    drawn with ``sageops.build_neighbor_matrix``'s ``rng.choice`` calls."""
    n = graph.n_nodes
    A = np.zeros((n, n))
    for v in range(n):
        nbrs = graph.neighbors[v]
        if len(nbrs) > sample_size:
            nbrs = nbrs[rng.choice(len(nbrs), size=sample_size, replace=False)]
        A[v, nbrs] = 1.0 / len(nbrs)
    return A


def dense_sage(H0: np.ndarray, A: np.ndarray, layers, dHL: np.ndarray) -> np.ndarray:
    """The full-graph GraphSAGE stack through the dense matrix ``A``,
    h_l = relu(W_l @ concat(h_{l-1}, A h_{l-1})): returns H_L and
    accumulates the layers' weight gradients for the output gradient dHL."""
    H, caches = H0, []
    for W in layers:
        H_next, cache = dense_forward(np.concatenate([H, A @ H], axis=1), W, None, "relu")
        caches.append((cache, H.shape[1]))
        H = H_next
    dH = dHL
    for cache, d_in in reversed(caches):
        dM = dense_backward(dH, cache)
        dH = dM[:, :d_in] + A.T @ dM[:, d_in:]
    return H


# ---------------------------------------------------------------------------
# evaluation lists drawn one list at a time


def eval_lists_per_list(annotations, corpus, seed: int,
                        n_negatives: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of ``metrics.build_eval_lists``'s lists, built one list
    at a time: per annotated query in order, one list per positive, its
    column first, then the ``n_negatives`` candidates the query does not
    annotate positive whose keys are smallest, in column order. Each list's
    keys are one ``rng.random(n_candidates)``, lists in turn from one
    generator."""
    pos_by_query: dict[str, list[int]] = {}
    for qid, cid, label in annotations.pairs:
        if label == 1:
            pos_by_query.setdefault(qid, []).append(corpus.candidate_column[cid])
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for qid in annotations.query_ids:
        positives = pos_by_query[qid]
        eligible = np.setdiff1d(np.arange(len(corpus.candidate_ids)), positives)
        for pos in positives:
            keys = rng.random(len(corpus.candidate_ids))
            smallest = eligible[np.argsort(keys[eligible], kind="stable")[:n_negatives]]
            rows.append(corpus.query_row[qid])
            cols.append(np.concatenate([[pos], np.sort(smallest)]))
    return (np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64).reshape(len(rows), 1 + n_negatives))


# ---------------------------------------------------------------------------
# random-walk law and embedding objectives


def walk_transition_probs(graph: HetGraph, cur: int) -> tuple[np.ndarray, np.ndarray]:
    """Next-node law for plain walks: proportional to edge weight."""
    w = graph.weights[cur]
    return graph.neighbors[cur], w / w.sum()


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
    # cached on the graph: membership tests drive the biased step
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


def walks_per_step(graph: HetGraph, n_walks: int, walk_len: int, seed: int,
                   p: float | None = None, q: float | None = None) -> list[np.ndarray]:
    """``graph_embeddings.generate_walks`` one walk and one step at a time:
    each round a permutation of the start nodes, then each walk in turn with
    one ``rng.random()`` per step."""
    biased = p is not None or q is not None
    if biased:
        p = 1.0 if p is None else float(p)
        q = 1.0 if q is None else float(q)
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(n_walks):
        for start in rng.permutation(graph.n_nodes):
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


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log sigmoid(x) = -softplus(-x), overflow-safe."""
    lp = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -lp, x - lp)


def skipgram_loss(trainer, centers: np.ndarray, contexts: np.ndarray,
                  negatives: np.ndarray) -> float:
    """A ``SkipGramTrainer``'s mean binary objective on a fixed batch
    (contexts positive, negatives per pair negative)."""
    h = trainer.w_in[centers]
    pos = log_sigmoid(np.einsum("id,id->i", h, trainer.w_out[contexts]))
    neg_scores = np.einsum("id,ind->in", h, trainer.w_out[negatives])
    neg = log_sigmoid(-neg_scores).sum(axis=1)
    return float(-(pos + neg).mean())


def proximity_loss(trainer, src: np.ndarray, dst: np.ndarray, negs: np.ndarray) -> float:
    """An ``EdgeProximityTrainer``'s objective on fixed edges and negatives."""
    h = trainer.emb[src]
    pos = log_sigmoid(np.einsum("id,id->i", h, trainer.ctx[dst]))
    neg = log_sigmoid(-np.einsum("id,ind->in", h, trainer.ctx[negs])).sum(axis=1)
    return float(-(pos + neg).mean())


def aggregation_loss(trainer, pairs: np.ndarray, negs: np.ndarray) -> float:
    """An ``AggregationTrainer``'s objective on fixed pairs and negatives."""
    Z = trainer.embeddings()
    pos = log_sigmoid(np.einsum("id,id->i", Z[pairs[:, 0]], Z[pairs[:, 1]]))
    neg = log_sigmoid(-np.einsum("id,ind->in", Z[pairs[:, 0]], Z[negs])).sum(axis=1)
    return float(-(pos + neg).mean())
