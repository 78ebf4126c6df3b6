"""Neighbor-mean aggregation layers over a fixed sampled neighborhood.

Each node keeps one seeded neighbor sample (capped at ``sample_size``) for
its whole lifetime, which makes every forward pass a pure function: layer l
computes h_l = relu(W_l @ concat(h_{l-1}, mean of sampled neighbors)).
The sample is a ``NeighborSample``, a padded (n, s) neighbor index and
weight array: O(n s) memory, where a dense row-stochastic n x n matrix
takes 80 MB at 3,165 nodes. The mean is a gather: each block of
``BLOCK_ROWS`` nodes gathers its (rows, s, d) neighbor features and weighs
them in one batched product. Its transpose, the backward, drops the nodes
whose gradient is all zero, blocks the rest the same way, and multiplies
each block's gradient by the block's transposed sample, compacted to the
nodes the block samples. Neither builds an (n, s, d) or n x n temporary. Node
features are frozen inputs: ``sage_backward`` computes the layers' weight
gradients and no gradient into the features, and the first layer's input
``sage_input(H0, sample)`` is a constant a trainer computes once and passes
to every ``sage_forward``.

A step whose loss reads only some nodes passes them as ``rows``: strictly
increasing node indices. The last layer is then computed at those rows only,
from ``concat(H[rows], mean of the rows' sampled neighbors)``; the layers
below stay full-graph, because the rows' sampled neighbors need them. The
backward puts the last layer's input gradient back at the rows of an (n, 2d)
zero array and sends it down through the transpose, which drops the zero
rows: it runs the blocks of the rows alone, which are also the full
backward's blocks when the gradient is zero outside the rows. The forward's
caches carry the rows, so the backward runs at the rows the forward used. A
node's mean reads only its own sample, so ``sage_forward(..., rows=r)`` is
bitwise ``sage_forward(...)[r]``, and ``sage_backward`` of a gradient at
those rows accumulates bitwise the layer gradients of the full backward with
a gradient that is zero outside them. Fewer than ``MIN_ROWS`` rows run the
full graph and are sliced, which keeps both equalities for any row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import HetGraph
from .nncore import ParamGroup, ParamTensor, dense_backward, dense_forward, init_param


# Fewer rows than this run the last layer on the full graph and are sliced:
# BLAS runs a product of a few rows through other kernels, whose rounding
# differs from the full graph's product (with OpenBLAS 0.3.31, gemv for one
# row and a small-matrix kernel below about 1,200 output entries).
MIN_ROWS = 64

# Nodes per block of the gather and its transpose, which bounds their
# temporaries whatever n is: a block's gathered features are 48 x s x d
# floats (120 KB at s = 10, d = 32). Blocks of 80 or more nodes ran the
# transpose up to 3x slower per call on a 360-node graph.
BLOCK_ROWS = 48


@dataclass(frozen=True, eq=False)
class NeighborSample:
    """Each node's sampled neighbors: ``index[v, :k]`` holds v's k sampled
    neighbors in ascending order and ``weight[v, :k]`` their weight 1/k. The
    other s - k slots pad with v itself at weight 0; no node neighbors
    itself, so a padding slot never meets a sampled neighbor."""

    index: np.ndarray  # (n, s) int64
    weight: np.ndarray  # (n, s) float64

    @property
    def n_nodes(self) -> int:
        return len(self.index)

    @property
    def nbytes(self) -> int:
        return self.index.nbytes + self.weight.nbytes


def build_neighbor_matrix(graph: HetGraph, sample_size: int,
                          rng: np.random.Generator) -> NeighborSample:
    """Each node's sampled neighbors, averaged with equal weights.

    Nodes with degree <= sample_size keep their full neighborhood (the
    aggregation is then deterministic regardless of seed); larger ones get a
    seeded sample without replacement, one ``rng.choice`` per node in node
    order.
    """
    n = graph.n_nodes
    index = np.repeat(np.arange(n, dtype=np.int64)[:, None], sample_size, axis=1)
    weight = np.zeros((n, sample_size))
    for v in range(n):
        nbrs = graph.neighbors[v]
        if len(nbrs) == 0:
            raise ValueError(f"isolated node {graph.nodes[v]!r}")
        if len(nbrs) > sample_size:
            nbrs = nbrs[np.sort(rng.choice(len(nbrs), size=sample_size, replace=False))]
        index[v, :len(nbrs)] = nbrs
        weight[v, :len(nbrs)] = 1.0 / len(nbrs)
    return NeighborSample(index, weight)


def create_layers(name: str, dims: list[int], rng: np.random.Generator,
                  scale: float = 0.1) -> ParamGroup:
    """Weights of an L-layer stack; layer l maps 2*dims[l] -> dims[l+1]."""
    return ParamGroup(
        init_param(f"{name}.W{l}", (dims[l + 1], 2 * dims[l]), rng, scale)
        for l in range(len(dims) - 1)
    )


def _neighbor_mean(H: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Row i: the sum over slots j of ``weight[i, j] * H[index[i, j]]``."""
    out = np.empty((len(index), H.shape[1]))
    for a in range(0, len(index), BLOCK_ROWS):
        block = slice(a, a + BLOCK_ROWS)
        np.matmul(weight[block, None, :], H[index[block]], out=out[block, None, :])
    return out


def _neighbor_mean_transpose(G: np.ndarray, index: np.ndarray, weight: np.ndarray,
                             n: int) -> np.ndarray:
    """The (n, d) gradient of ``_neighbor_mean(H, index, weight)`` with respect
    to H, given G at its rows: row u sums ``weight[i, j] * G[i]`` over the
    slots with ``index[i, j] == u``. Rows of G that are all zero add nothing
    and are dropped before the rows are blocked, so a gradient that is zero
    outside some rows costs only those rows' blocks, and its blocks are the
    same whether the zero rows are passed or not."""
    live = np.flatnonzero(G.any(axis=1))
    if len(live) < len(G):
        G, index, weight = G[live], index[live], weight[live]
    out = np.zeros((n, G.shape[1]))
    column = np.empty(n, dtype=np.intp)
    for a in range(0, len(index), BLOCK_ROWS):
        block = index[a:a + BLOCK_ROWS]
        hit = np.flatnonzero(np.bincount(block.reshape(-1), minlength=n))
        column[hit] = np.arange(len(hit))
        transposed = np.zeros((len(hit), len(block)))
        transposed[column[block], np.arange(len(block))[:, None]] = weight[a:a + BLOCK_ROWS]
        out[hit] += transposed @ G[a:a + BLOCK_ROWS]
    return out


def sage_input(H0: np.ndarray, sample: NeighborSample) -> np.ndarray:
    """A layer's input concat(H0, neighbor mean of H0). The first layer's is
    constant while the node features and the neighbor sample are."""
    return np.concatenate([H0, _neighbor_mean(H0, sample.index, sample.weight)], axis=1)


def _valid_rows(rows, n: int) -> np.ndarray:
    """``rows`` as an array, checked to be strictly increasing node indices:
    a duplicate would drop a gradient under a fancy-index ``+=``."""
    r = np.asarray(rows)
    if (r.ndim != 1 or not np.issubdtype(r.dtype, np.integer) or np.any(r[1:] <= r[:-1])
            or (len(r) and (r[0] < 0 or r[-1] >= n))):
        raise ValueError(f"rows must be strictly increasing node indices in [0, {n})")
    return r


def sage_forward(H0: np.ndarray, sample: NeighborSample, layers: list[ParamTensor],
                 M0: np.ndarray, rows: np.ndarray | None = None):
    """Returns (H_L, caches). With no layers this is the identity on H0.
    ``M0`` is ``sage_input(H0, sample)``, the first layer's input. With
    ``rows``, H_L holds only those nodes' rows (see the module docstring).
    ``caches`` holds the layers' (dense cache, input width) pairs, the
    checked rows (or None) and whether the last layer ran at the rows."""
    at_rows = False
    if rows is not None:
        rows = _valid_rows(rows, sample.n_nodes)
        at_rows = len(rows) >= MIN_ROWS and bool(layers)
    H = H0
    layer_caches = []
    for l, W in enumerate(layers):
        top = at_rows and l == len(layers) - 1
        if l == 0:
            M = M0[rows] if top else M0
        elif top:
            M = np.concatenate(
                [H[rows], _neighbor_mean(H, sample.index[rows], sample.weight[rows])], axis=1)
        else:
            M = sage_input(H, sample)
        H_next, cache = dense_forward(M, W, None, "relu")
        layer_caches.append((cache, H.shape[1]))
        H = H_next
    if rows is not None and not at_rows:
        H = H[rows]
    return H, (layer_caches, rows, at_rows)


def sage_backward(dHL: np.ndarray, sample: NeighborSample, caches) -> None:
    """Backprop through the stack; accumulates into each layer's W.grad. The
    first layer computes no gradient into the frozen input features. When
    the forward was given ``rows``, ``dHL`` is the gradient at the rows it
    returned."""
    layer_caches, rows, at_rows = caches
    n = sample.n_nodes
    dH = dHL
    if rows is not None and not at_rows:  # the forward ran the full graph
        dH = np.zeros((n, dHL.shape[1]))
        dH[rows] = dHL
    for l in range(len(layer_caches) - 1, -1, -1):
        cache, d_in = layer_caches[l]
        dM = dense_backward(dH, cache, input_grad=l > 0)
        if l > 0:
            if at_rows and l == len(layer_caches) - 1:
                dM_rows, dM = dM, np.zeros((n, dM.shape[1]))
                dM[rows] = dM_rows
            dH = _neighbor_mean_transpose(dM[:, d_in:], sample.index, sample.weight, n)
            dH += dM[:, :d_in]
