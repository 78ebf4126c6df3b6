"""Neighbor-mean aggregation layers over a fixed sampled neighborhood.

Each node keeps one seeded neighbor sample (capped at ``sample_size``) for
its whole lifetime, which makes every forward pass a pure function: layer l
computes h_l = relu(W_l @ concat(h_{l-1}, mean of sampled neighbors)).
The aggregation is a dense row-stochastic n x n matrix ``A``; at the corpus
sizes this library targets that is both simple and fast. Node features are
frozen inputs: ``sage_backward`` computes the layers' weight gradients and
no gradient into the features, and the first layer's input
``sage_input(H0, A)`` is a constant a trainer computes once and passes to
every ``sage_forward``.

A step whose loss reads only some nodes passes them as ``rows``: strictly
increasing node indices. The last layer is then computed at those rows only,
from ``concat(H[rows], A[rows] @ H)``, and its backward sends the gradient to
the layer below through ``A[rows].T``; the layers below stay full-graph,
because the rows' sampled neighbors need them. The forward's caches carry
the rows and the ``A[rows]`` block, so the backward runs at the rows the
forward used. ``sage_forward(..., rows=r)`` is bitwise
``sage_forward(...)[r]``, and ``sage_backward`` of a gradient at those rows
accumulates bitwise the layer gradients of the full backward with a
gradient that is zero outside them. Fewer than ``MIN_ROWS`` rows run the
full graph and are sliced, which keeps that equality for any row count.
"""

from __future__ import annotations

import numpy as np

from .graph import HetGraph
from .nncore import ParamGroup, ParamTensor, dense_backward, dense_forward, init_param


# Fewer rows than this run the last layer on the full graph and are sliced:
# BLAS runs a product of a few rows through other kernels, whose rounding
# differs from the full graph's product (with OpenBLAS 0.3.31, gemv for one
# row and a small-matrix kernel below about 1,200 output entries).
MIN_ROWS = 64


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
    """A layer's input concat(H0, A @ H0). The first layer's is constant
    while the node features and the neighbor sample are."""
    return np.concatenate([H0, A @ H0], axis=1)


def _valid_rows(rows, n: int) -> np.ndarray:
    """``rows`` as an array, checked to be strictly increasing node indices:
    a duplicate would drop a gradient under a fancy-index ``+=``."""
    r = np.asarray(rows)
    if (r.ndim != 1 or not np.issubdtype(r.dtype, np.integer) or np.any(r[1:] <= r[:-1])
            or (len(r) and (r[0] < 0 or r[-1] >= n))):
        raise ValueError(f"rows must be strictly increasing node indices in [0, {n})")
    return r


def sage_forward(H0: np.ndarray, A: np.ndarray, layers: list[ParamTensor],
                 M0: np.ndarray | None = None, rows: np.ndarray | None = None):
    """Returns (H_L, caches). With no layers this is the identity on H0.
    ``M0``, when given, is ``sage_input(H0, A)``; the first layer then uses it
    as is, with bitwise the same result. With ``rows``, H_L holds only those
    nodes' rows (see the module docstring). ``caches`` holds the layers'
    (dense cache, input width) pairs, the checked rows (or None) and, when
    the last layer ran at the rows, the ``A[rows]`` block it gathered (or
    None)."""
    A_top = None
    if rows is not None:
        rows = _valid_rows(rows, len(A))
        if len(rows) >= MIN_ROWS and layers:
            A_top = A[rows]
    H = H0
    layer_caches = []
    for l, W in enumerate(layers):
        at_rows = A_top is not None and l == len(layers) - 1
        if l == 0 and M0 is not None:
            M = M0[rows] if at_rows else M0
        elif at_rows:
            M = np.concatenate([H[rows], A_top @ H], axis=1)
        else:
            M = sage_input(H, A)
        H_next, cache = dense_forward(M, W, None, "relu")
        layer_caches.append((cache, H.shape[1]))
        H = H_next
    if rows is not None and A_top is None:
        H = H[rows]
    return H, (layer_caches, rows, A_top)


def sage_backward(dHL: np.ndarray, A: np.ndarray, caches) -> None:
    """Backprop through the stack; accumulates into each layer's W.grad. The
    first layer computes no gradient into the frozen input features. When
    the forward was given ``rows``, ``dHL`` is the gradient at the rows it
    returned."""
    layer_caches, rows, A_top = caches
    dH = dHL
    if rows is not None and A_top is None:  # the forward ran the full graph
        dH = np.zeros((len(A), dHL.shape[1]))
        dH[rows] = dHL
    for l in range(len(layer_caches) - 1, -1, -1):
        cache, d_in = layer_caches[l]
        dM = dense_backward(dH, cache, input_grad=l > 0)
        if l > 0 and A_top is not None and l == len(layer_caches) - 1:
            dH = A_top.T @ dM[:, d_in:]
            dH[rows] += dM[:, :d_in]
        elif l > 0:
            dH = dM[:, :d_in] + A.T @ dM[:, d_in:]
