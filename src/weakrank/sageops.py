"""Neighbor-mean aggregation layers over a fixed sampled neighborhood.

Each node keeps one seeded neighbor sample (capped at ``sample_size``) for
its whole lifetime, which makes every forward pass a pure function: layer l
computes h_l = relu(W_l @ concat(h_{l-1}, mean of sampled neighbors)).
The aggregation is expressed as a dense row-stochastic matrix; at the corpus
sizes this library targets that is both simple and fast. Node features are
frozen inputs: ``sage_backward`` computes the layers' weight gradients and
no gradient into the features, and the first layer's input
``sage_input(H0, A)`` is a constant a trainer computes once and passes to
every ``sage_forward``.
"""

from __future__ import annotations

import numpy as np

from .graph import HetGraph
from .nncore import ParamGroup, ParamTensor, dense_backward, dense_forward, init_param


def build_neighbor_matrix(graph: HetGraph, sample_size: int, rng: np.random.Generator) -> np.ndarray:
    """Row-stochastic matrix averaging each node's sampled neighbors.

    Nodes with degree <= sample_size keep their full neighborhood (the
    aggregation is then deterministic regardless of seed); larger ones get a
    seeded sample without replacement.
    """
    n = graph.n_nodes
    A = np.zeros((n, n))
    for v in range(n):
        nbrs = graph.neighbors[v]
        if len(nbrs) == 0:
            raise ValueError(f"isolated node {graph.nodes[v]!r}")
        if len(nbrs) > sample_size:
            nbrs = nbrs[rng.choice(len(nbrs), size=sample_size, replace=False)]
        A[v, nbrs] = 1.0 / len(nbrs)
    return A


def create_layers(name: str, dims: list[int], rng: np.random.Generator,
                  scale: float = 0.1) -> ParamGroup:
    """Weights of an L-layer stack; layer l maps 2*dims[l] -> dims[l+1]."""
    return ParamGroup(
        init_param(f"{name}.W{l}", (dims[l + 1], 2 * dims[l]), rng, scale)
        for l in range(len(dims) - 1)
    )


def sage_input(H0: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The first layer's input concat(H0, A @ H0): constant while the node
    features and the neighbor sample are."""
    return np.concatenate([H0, A @ H0], axis=1)


def sage_forward(H0: np.ndarray, A: np.ndarray, layers: list[ParamTensor],
                 M0: np.ndarray | None = None):
    """Returns (H_L, caches). With no layers this is the identity on H0.
    ``M0``, when given, is ``sage_input(H0, A)``; the first layer then uses it
    as is, with bitwise the same result."""
    H = H0
    caches = []
    for l, W in enumerate(layers):
        M = M0 if l == 0 and M0 is not None else sage_input(H, A)
        H_next, cache = dense_forward(M, W, None, "relu")
        caches.append((cache, H.shape[1]))
        H = H_next
    return H, caches


def sage_backward(dHL: np.ndarray, A: np.ndarray, caches) -> None:
    """Backprop through the stack; accumulates into each layer's W.grad. The
    first layer computes no gradient into the frozen input features."""
    dH = dHL
    for l in range(len(caches) - 1, -1, -1):
        cache, d_in = caches[l]
        dM = dense_backward(dH, cache, input_grad=l > 0)
        if l > 0:
            dH = dM[:, :d_in] + A.T @ dM[:, d_in:]
