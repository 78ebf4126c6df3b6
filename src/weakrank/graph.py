"""Typed query-word-candidate graph built from a corpus.

Nodes are addressed by row; each carries a (type, key) pair, and
``node_index`` maps a pair back to its row. ``HetGraph.doc_nodes`` is the
one map from a corpus's documents to node rows: node embeddings are read at
these rows. The only edges are document-word links weighted by term
frequency.
"""

from __future__ import annotations

import numpy as np

from .corpus import CANDIDATE, QUERY, Corpus

WORD = "word"


class HetGraph:
    """Undirected weighted graph over query, candidate, and word nodes."""

    def __init__(self, nodes: list[tuple[str, str]], edges: list[tuple[int, int, float]]):
        self.nodes = tuple(nodes)
        self.index_of = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for a, b, w in edges:
            ta, tb = nodes[a][0], nodes[b][0]
            if WORD not in (ta, tb) or ta == tb:
                raise ValueError(f"edge must connect a document node and a word node, got {ta}-{tb}")
            if w < 1:
                raise ValueError("edge weight must be a term frequency >= 1")
            adj[a].append((b, float(w)))
            adj[b].append((a, float(w)))
        self.neighbors = []
        self.weights = []
        self.cum_weights = []
        for lst in adj:
            lst.sort()
            nbr = np.array([i for i, _ in lst], dtype=np.int64)
            wts = np.array([w for _, w in lst], dtype=np.float64)
            self.neighbors.append(nbr)
            self.weights.append(wts)
            self.cum_weights.append(np.cumsum(wts))
        self.degrees = np.array([len(a) for a in adj], dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_index(self, ntype: str, key: str) -> int:
        try:
            return self.index_of[(ntype, key)]
        except KeyError:
            raise KeyError(f"no {ntype} node with key {key!r}") from None

    def doc_nodes(self, corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
        """Node rows of the corpus's queries and of its candidates, in corpus
        order; a ``KeyError`` names a document the graph lacks."""
        return tuple(np.array([self.node_index(role, d.id) for d in docs])
                     for role, docs in ((QUERY, corpus.queries), (CANDIDATE, corpus.candidates)))

    def edge_weight_sum(self, idx: int) -> float:
        return float(self.weights[idx].sum())


def build_graph(corpus: Corpus) -> HetGraph:
    """Connect every document node to its word nodes, weight = term frequency."""
    nodes: list[tuple[str, str]] = []
    for doc in corpus.queries:
        nodes.append((QUERY, doc.id))
    for doc in corpus.candidates:
        nodes.append((CANDIDATE, doc.id))
    word_base = len(nodes)
    for token in corpus.vocab:
        nodes.append((WORD, token))

    edges = []
    for offset, docs in ((0, corpus.queries), (len(corpus.queries), corpus.candidates)):
        for i, doc in enumerate(docs):
            counts: dict[int, int] = {}
            for tid in doc.token_ids:
                counts[tid] = counts.get(tid, 0) + 1
            for tid, tf in sorted(counts.items()):
                edges.append((offset + i, word_base + tid, float(tf)))
    return HetGraph(nodes, edges)
