import numpy as np
import pytest

from defaults import LIMITS, SETTINGS, text_hp
from oracles import (
    aggregation_loss,
    biased_transition_probs,
    dense_neighbor_matrix,
    dense_sage,
    proximity_loss,
    step_biased,
    step_plain,
    walk_transition_probs,
    walks_per_step,
)
from weakrank.corpus import build_corpus
from weakrank.embeddings import (
    CdfSampler,
    cosine_matrix,
    node_feature_matrix,
    train_text_embeddings,
)
from weakrank.graph import HetGraph, build_graph
from weakrank.graph_embeddings import (
    AggregationTrainer,
    EdgeProximityTrainer,
    _plain_steps,
    cooccurrence_pairs,
    generate_walks,
    train_graph_embeddings,
)
from weakrank.nncore import dense_backward, optimizer_step, sigmoid, zero_grads
from weakrank.registry import UnsupModelSpec, compute_score_matrix
from weakrank.sageops import (
    MIN_ROWS,
    _neighbor_mean_transpose,
    build_neighbor_matrix,
    create_layers,
    sage_backward,
    sage_forward,
    sage_input,
)
from weakrank.synthetic import generate_synthetic


def _train(graph, method, params, seed, node_features=None):
    """``train_graph_embeddings`` on ``params`` over the method's declared
    defaults, as ``registry.compute_score_matrix`` calls it."""
    hp = UnsupModelSpec("m", f"graph-{method}", params).hyperparameters()
    return train_graph_embeddings(graph, method, hp, seed, node_features=node_features)


@pytest.fixture(scope="module")
def small_graph():
    docs = [
        {"id": "q1", "role": "query", "text": "aa bb aa"},
        {"id": "q2", "role": "query", "text": "cc dd"},
        {"id": "c1", "role": "candidate", "text": "aa bb"},
        {"id": "c2", "role": "candidate", "text": "cc cc dd"},
        {"id": "c3", "role": "candidate", "text": "aa dd"},
    ]
    return build_graph(build_corpus(docs, **LIMITS))


@pytest.fixture(scope="module")
def planted_graph():
    corpus, _ = generate_synthetic(
        n_queries=6, n_candidates=10, n_topics=2, vocab_per_topic=6,
        doc_len=15, noise_rate=0.0, seed=8,
    )
    return corpus, build_graph(corpus)


@pytest.fixture(scope="module")
def bench_graph():
    """A graph with more nodes than ``MIN_ROWS``, so a row subset can be
    computed at its rows only."""
    corpus, _ = generate_synthetic(
        n_queries=40, n_candidates=40, n_topics=4, vocab_per_topic=10,
        doc_len=15, noise_rate=0.3, seed=8,
    )
    return build_graph(corpus)


class TestTransitions:
    def test_plain_law_proportional_to_weight(self, small_graph):
        q1 = small_graph.node_index("query", "q1")
        nbrs, probs = walk_transition_probs(small_graph, q1)
        # q1 has aa with weight 2, bb with weight 1
        aa = small_graph.node_index("word", "aa")
        assert probs[list(nbrs).index(aa)] == pytest.approx(2.0 / 3.0)
        assert probs.sum() == pytest.approx(1.0)

    def test_biased_with_unit_params_equals_plain(self, small_graph):
        for cur in range(small_graph.n_nodes):
            for prev in small_graph.neighbors[cur]:
                nbrs_b, probs_b = biased_transition_probs(small_graph, int(prev), cur, 1.0, 1.0)
                nbrs_p, probs_p = walk_transition_probs(small_graph, cur)
                assert np.array_equal(nbrs_b, nbrs_p)
                assert np.allclose(probs_b, probs_p)

    def test_biased_return_parameter_discourages_backtracking(self, small_graph):
        aa = small_graph.node_index("word", "aa")
        q1 = small_graph.node_index("query", "q1")
        _, probs_hi_p = biased_transition_probs(small_graph, q1, aa, 10.0, 1.0)
        _, probs_lo_p = biased_transition_probs(small_graph, q1, aa, 0.1, 1.0)
        back_idx = list(small_graph.neighbors[aa]).index(q1)
        assert probs_hi_p[back_idx] < probs_lo_p[back_idx]

    def test_plain_step_frequencies_match_law(self, small_graph):
        rng = np.random.default_rng(0)
        q1 = small_graph.node_index("query", "q1")
        nbrs, probs = walk_transition_probs(small_graph, q1)
        counts = np.zeros(small_graph.n_nodes)
        n = 100_000
        for _ in range(n):
            counts[step_plain(small_graph, q1, rng)] += 1
        tv = 0.5 * float(np.abs(counts[nbrs] / n - probs).sum() + counts.sum() / n - counts[nbrs].sum() / n)
        assert tv < 0.02

    def test_biased_step_frequencies_match_law(self, small_graph):
        rng = np.random.default_rng(1)
        aa = small_graph.node_index("word", "aa")
        q1 = small_graph.node_index("query", "q1")
        nbrs, probs = biased_transition_probs(small_graph, q1, aa, 2.0, 0.5)
        counts = np.zeros(small_graph.n_nodes)
        n = 100_000
        for _ in range(n):
            counts[step_biased(small_graph, q1, aa, 2.0, 0.5, rng)] += 1
        tv = 0.5 * float(np.abs(counts[nbrs] / n - probs).sum())
        assert tv < 0.02


class TestWalks:
    def test_deterministic_walk_corpus(self, small_graph):
        w1 = generate_walks(small_graph, 2, 10, seed=5, p=None, q=None)
        w2 = generate_walks(small_graph, 2, 10, seed=5, p=None, q=None)
        assert all(np.array_equal(a, b) for a, b in zip(w1, w2))

    def test_walk_count_and_length(self, small_graph):
        walks = generate_walks(small_graph, 3, 12, seed=0, p=None, q=None)
        assert len(walks) == 3 * small_graph.n_nodes
        assert all(len(w) == 12 for w in walks)

    def test_walks_follow_edges(self, small_graph):
        for walk in generate_walks(small_graph, 1, 8, seed=2, p=None, q=None):
            for a, b in zip(walk, walk[1:]):
                assert b in small_graph.neighbors[a]

    def test_isolated_node_rejected(self):
        nodes = [("query", "q1"), ("word", "aa"), ("word", "zz")]
        graph = HetGraph(nodes, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="isolated"):
            generate_walks(graph, 1, 5, seed=0, p=None, q=None)

    def test_cooccurrence_pairs_window(self):
        pairs = cooccurrence_pairs([np.array([1, 2, 3])], window=1)
        assert {tuple(p) for p in pairs} == {(1, 2), (2, 1), (2, 3), (3, 2)}


def _graph_with_triangles(seed: int, n: int = 30) -> HetGraph:
    """A connected weighted graph with odd cycles, so a biased step meets
    neighbours of its previous node. A ``HetGraph`` links documents to words
    only and never has one."""
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(3 * n)}
    adj = [[] for _ in range(n)]
    for a, b in sorted(edges):
        w = float(rng.integers(1, 5))
        adj[a].append((b, w))
        adj[b].append((a, w))
    graph = HetGraph.__new__(HetGraph)
    graph.nodes = tuple(("word", f"w{i}") for i in range(n))
    rows = [sorted(lst) for lst in adj]
    graph.neighbors = [np.array([x for x, _ in r], dtype=np.int64) for r in rows]
    graph.weights = [np.array([w for _, w in r]) for r in rows]
    graph.cum_weights = [np.cumsum(w) for w in graph.weights]
    graph.degrees = np.array([len(r) for r in rows], dtype=np.int64)
    return graph


@pytest.mark.parametrize("p,q", [(None, None), (1.0, 1.0), (1.0, 0.5), (4.0, 0.25), (0.5, 2.0),
                                 (None, 3.0)])
def test_lockstep_walks_equal_the_per_step_oracle(small_graph, planted_graph, bench_graph, p, q):
    """Bitwise the walks of stepping one walk at a time, one uniform draw
    per step, on bipartite graphs and on graphs with triangles."""
    graphs = [small_graph, planted_graph[1], bench_graph,
              _graph_with_triangles(1), _graph_with_triangles(2, n=12)]
    for graph in graphs:
        for seed in (0, 7):
            for n_walks, walk_len in ((1, 1), (1, 2), (3, 2), (2, 3), (3, 11)):
                fast = generate_walks(graph, n_walks, walk_len, seed, p=p, q=q)
                slow = walks_per_step(graph, n_walks, walk_len, seed, p=p, q=q)
                assert len(fast) == len(slow) == n_walks * graph.n_nodes
                for a, b in zip(fast, slow):
                    assert a.dtype == np.int64
                    assert a.tobytes() == b.tobytes()


def test_plain_step_breaks_exact_ties_as_searchsorted_right(planted_graph):
    """A draw landing exactly on a cumulative weight moves past it, as
    ``searchsorted(side="right")`` does. Random draws almost never tie."""
    _, graph = planted_graph
    indptr = np.concatenate([[0], np.cumsum(graph.degrees)])
    cum = np.append(np.concatenate(graph.cum_weights), np.inf)
    n_iter = int(graph.degrees.max()).bit_length()
    cur, u, expected = [], [], []
    for v in range(graph.n_nodes):
        row = graph.cum_weights[v]
        for c in row:
            x = c / row[-1]
            if x < 1.0 and x * row[-1] == c:
                cur.append(v)
                u.append(x)
                expected.append(indptr[v] + np.searchsorted(row, c, side="right"))
    assert len(cur) > graph.n_nodes
    got = _plain_steps(indptr, cum, np.array(cur), np.array(u), n_iter)
    assert got.tolist() == [int(e) for e in expected]


def test_triangle_graph_exercises_every_biased_branch():
    """The oracle test's triangle graphs reach all three biased weights:
    back to the previous node, to its neighbours, and further away."""
    graph = _graph_with_triangles(1)
    seen = set()
    for walk in walks_per_step(graph, 2, 6, seed=0, p=2.0, q=0.5):
        for prev, nxt in zip(walk, walk[2:]):
            seen.add("back" if nxt == prev else
                     "near" if nxt in graph.neighbors[prev] else "far")
    assert seen == {"back", "near", "far"}


def _reference_pairs(walks, window):
    pairs = []
    for walk in walks:
        n = len(walk)
        for i in range(n):
            lo, hi = max(0, i - window), min(n, i + window + 1)
            pairs += [(int(walk[i]), int(walk[j])) for j in range(lo, hi) if j != i]
    return np.array(pairs, dtype=np.int64)


def test_cooccurrence_pairs_match_the_window_loop(planted_graph):
    _, graph = planted_graph
    walks = generate_walks(graph, 2, 9, seed=4, p=None, q=None)
    walks += [np.array([3]), np.array([5, 6])]
    for window in (1, 3, 12):
        pairs = cooccurrence_pairs(walks, window)
        assert pairs.dtype == np.int64
        assert pairs.tobytes() == _reference_pairs(walks, window).tobytes()


def _reference_proximity_epoch(t, batch_size):
    """One epoch of the proximity trainer as it ran batch by batch: each
    batch draws its edges, then its negatives, and updates with
    two-dimensional np.add.at."""
    for _ in range(max(1, t.n_edges // batch_size)):
        idx = np.searchsorted(t._edges.table, t.rng.random(batch_size))
        src, dst = t.edge_src[idx], t.edge_dst[idx]
        negs = np.searchsorted(t._noise.table, t.rng.random(batch_size * t.neg))
        h = t.emb[src]
        targets = np.concatenate([dst[:, None], negs.reshape(batch_size, t.neg)], axis=1)
        out = t.ctx[targets]
        scores = np.einsum("bd,bnd->bn", h, out)
        labels = np.zeros_like(scores)
        labels[:, 0] = 1.0
        g = sigmoid(scores) - labels
        dh = np.einsum("bn,bnd->bd", g, out)
        np.add.at(t.ctx, targets, -t.lr * (g[:, :, None] * h[:, None, :]))
        np.add.at(t.emb, src, -t.lr * dh)


def _reference_aggregation_epoch(t, pairs, batch_size):
    """One epoch of the aggregation trainer as it ran batch by batch: each
    batch draws its own negatives after the epoch's permutation, and
    scatters with np.add.at."""
    order = t.rng.permutation(len(pairs))
    for i in range(0, len(order), batch_size):
        batch = pairs[order[i:i + batch_size]]
        B = len(batch)
        negs = np.searchsorted(t._noise.table, t.rng.random(B * t.neg)).reshape(B, t.neg)
        zero_grads(t.layers)
        Z, caches = sage_forward(t.features, t.sample, t.layers, t.M0)
        u, v = batch[:, 0], batch[:, 1]
        s_pos = np.einsum("id,id->i", Z[u], Z[v])
        s_neg = np.einsum("id,ind->in", Z[u], Z[negs])
        g_pos = (sigmoid(s_pos) - 1.0) / B
        g_neg = sigmoid(s_neg) / B
        dZ = np.zeros_like(Z)
        np.add.at(dZ, u, g_pos[:, None] * Z[v] + np.einsum("bn,bnd->bd", g_neg, Z[negs]))
        np.add.at(dZ, v, g_pos[:, None] * Z[u])
        np.add.at(dZ, negs.reshape(-1),
                  (g_neg[:, :, None] * Z[u][:, None, :]).reshape(-1, Z.shape[1]))
        sage_backward(dZ, t.sample, caches)
        optimizer_step(t.layers, t.opt)


def _reference_sage_backward(dHL, sample, caches):
    """Backprop through the stack, with the gradient into the input features."""
    dH = dHL
    for cache, d_in in reversed(caches[0]):
        dM = dense_backward(dH, cache)
        dH = dM[:, :d_in] + _neighbor_mean_transpose(dM[:, d_in:], sample.index, sample.weight,
                                                     sample.n_nodes)
    return dH


class TestNeighborSample:
    @pytest.mark.parametrize("sample_size", [3, 10])
    def test_holds_the_dense_oracles_neighbors(self, bench_graph, sample_size):
        """For one seed the sample holds exactly the dense matrix's neighbors
        and weights, ascending in each row and padded with the node itself at
        weight 0, and leaves the generator where the dense builder does."""
        n = bench_graph.n_nodes
        rng, rng_dense = np.random.default_rng(6), np.random.default_rng(6)
        sample = build_neighbor_matrix(bench_graph, sample_size, rng)
        A = dense_neighbor_matrix(bench_graph, sample_size, rng_dense)
        assert sample.index.shape == sample.weight.shape == (n, sample_size)
        assert sample.nbytes == n * sample_size * (8 + 8)
        rebuilt = np.zeros((n, n))
        for v in range(n):
            k = np.count_nonzero(sample.weight[v])
            assert np.all(np.diff(sample.index[v, :k]) > 0)
            assert np.all(sample.index[v, k:] == v) and not sample.weight[v, k:].any()
            rebuilt[v, sample.index[v, :k]] = sample.weight[v, :k]
        assert rebuilt.tobytes() == A.tobytes()
        assert rng.random() == rng_dense.random()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_both_paths_match_the_dense_formula(self, bench_graph, n_layers):
        """The full graph and the last layer at a proper subset of rows give
        the dense matrix's outputs and layer gradients within 1e-12."""
        n = bench_graph.n_nodes
        rng = np.random.default_rng(30 + n_layers)
        sample = build_neighbor_matrix(bench_graph, 10, np.random.default_rng(1))
        A = dense_neighbor_matrix(bench_graph, 10, np.random.default_rng(1))
        feats = rng.normal(size=(n, 16))
        rows = np.sort(rng.choice(n, size=MIN_ROWS + 16, replace=False))
        dZ = np.zeros((n, 32))
        dZ[rows] = rng.normal(size=(len(rows), 32))
        dims = [16] + [32] * n_layers
        full, at_rows, dense = (create_layers("agg", dims, np.random.default_rng(4))
                                for _ in range(3))
        M0 = sage_input(feats, sample)
        Z, caches = sage_forward(feats, sample, full, M0)
        sage_backward(dZ, sample, caches)
        Z_rows, caches = sage_forward(feats, sample, at_rows, M0, rows=rows)
        sage_backward(dZ[rows], sample, caches)
        Z_dense = dense_sage(feats, A, dense, dZ)
        assert np.abs(Z - Z_dense).max() < 1e-12
        assert np.abs(Z_rows - Z_dense[rows]).max() < 1e-12
        for layers in (full, at_rows):
            assert np.abs(layers.grads - dense.grads).max() < 1e-12


class TestBitwiseAgainstReferences:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_sage_backward_layer_gradients(self, planted_graph, n_layers):
        _, graph = planted_graph
        rng = np.random.default_rng(n_layers)
        feats = rng.normal(size=(graph.n_nodes, 6))
        sample = build_neighbor_matrix(graph, 4, rng)
        dims = [6] + [5] * n_layers
        fast, ref = (create_layers("agg", dims, np.random.default_rng(9)) for _ in range(2))
        dZ = rng.normal(size=(graph.n_nodes, 5))
        M0 = sage_input(feats, sample)
        Z, caches = sage_forward(feats, sample, fast, M0)
        assert sage_backward(dZ, sample, caches) is None
        Z_ref, caches_ref = sage_forward(feats, sample, ref, M0)
        _reference_sage_backward(dZ, sample, caches_ref)
        assert Z.tobytes() == Z_ref.tobytes()
        assert fast.grads.tobytes() == ref.grads.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_sage_with_precomputed_first_input(self, planted_graph, n_layers):
        """``sage_input(H0, sample)`` is the features, then their dense
        neighbor mean up to rounding, and a forward and backward leave it as
        it was, so one array serves every step."""
        _, graph = planted_graph
        rng = np.random.default_rng(10 + n_layers)
        feats = rng.normal(size=(graph.n_nodes, 6))
        sample = build_neighbor_matrix(graph, 4, np.random.default_rng(5))
        A = dense_neighbor_matrix(graph, 4, np.random.default_rng(5))
        layers = create_layers("agg", [6] + [5] * n_layers, np.random.default_rng(3))
        M0 = sage_input(feats, sample)
        before = M0.copy()
        dZ = rng.normal(size=(graph.n_nodes, 5))
        for _ in range(2):
            _, caches = sage_forward(feats, sample, layers, M0)
            sage_backward(dZ, sample, caches)
            assert M0.tobytes() == before.tobytes()
        assert M0[:, :6].tobytes() == feats.tobytes()
        assert np.abs(M0[:, 6:] - A @ feats).max() < 1e-12

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("which", ["one node", "proper subset", "all nodes"])
    def test_sage_at_rows_matches_the_full_graph(self, bench_graph, n_layers, which):
        """The last layer at ``rows`` is bitwise the full forward's rows, and
        its backward accumulates bitwise the full backward's layer gradients
        for a gradient that is zero outside ``rows``."""
        n = bench_graph.n_nodes
        rng = np.random.default_rng(20 + n_layers)
        feats = rng.normal(size=(n, 16))
        sample = build_neighbor_matrix(bench_graph, 10, rng)
        rows = {"one node": np.array([n // 2]),
                "proper subset": np.sort(rng.choice(n, size=MIN_ROWS + 16, replace=False)),
                "all nodes": np.arange(n)}[which]
        dims = [16] + [32] * n_layers
        at_rows, full = (create_layers("agg", dims, np.random.default_rng(4)) for _ in range(2))
        M0 = sage_input(feats, sample)
        dZ_rows = rng.normal(size=(len(rows), 32))
        dZ = np.zeros((n, 32))
        dZ[rows] = dZ_rows
        for _ in range(2):
            Z_rows, caches = sage_forward(feats, sample, at_rows, M0, rows=rows)
            sage_backward(dZ_rows, sample, caches)
            Z, caches_full = sage_forward(feats, sample, full, M0)
            sage_backward(dZ, sample, caches_full)
            assert Z_rows.tobytes() == Z[rows].tobytes()
            assert at_rows.grads.tobytes() == full.grads.tobytes()
        # past MIN_ROWS the last layer really ran at the rows only
        top_input = caches[0][-1][0][0]
        assert len(top_input) == (len(rows) if len(rows) >= MIN_ROWS else n)

    @pytest.mark.parametrize("rows", [[3, 1, 2], [1, 2, 2, 5], [0, 1, 99], [-1, 0, 1],
                                      [0.0, 1.0]],
                             ids=["unsorted", "duplicate", "past-end", "negative", "float"])
    def test_sage_rejects_rows_that_are_not_strictly_increasing_indices(self, planted_graph,
                                                                         rows):
        _, graph = planted_graph
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.n_nodes, 6))
        sample = build_neighbor_matrix(graph, 4, rng)
        layers = create_layers("agg", [6, 5, 5], rng)
        with pytest.raises(ValueError, match="strictly increasing node indices"):
            sage_forward(feats, sample, layers, sage_input(feats, sample), rows=np.array(rows))

    @pytest.mark.parametrize("order", [1, 2])
    def test_proximity_batches(self, planted_graph, order):
        """Whole epochs with one draw each give bitwise the tables of drawing
        and updating batch by batch."""
        _, graph = planted_graph
        fast, ref = (EdgeProximityTrainer(graph, dim=8, order=order, neg=4, lr=0.2, seed=6)
                     for _ in range(2))
        fast.train(epochs=3, batch_size=16)
        for _ in range(3):
            _reference_proximity_epoch(ref, 16)
        assert fast.emb.tobytes() == ref.emb.tobytes()
        assert fast.ctx.tobytes() == ref.ctx.tobytes()
        assert fast.rng.random() == ref.rng.random()  # the same stream consumed

    def test_aggregation_batches(self, planted_graph):
        """Whole epochs with one negative draw each give bitwise the layers of
        drawing batch by batch, a ragged last batch included."""
        corpus, graph = planted_graph
        table = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=SETTINGS.seed)
        feats = node_feature_matrix(graph, corpus, table)
        fast, ref = (AggregationTrainer(graph, feats, hidden=8, out_dim=8, n_layers=2, neg=3,
                                        lr=0.05, sample_size=3, seed=2) for _ in range(2))
        pairs = cooccurrence_pairs(generate_walks(graph, 1, 8, seed=1, p=None, q=None), window=2)
        batch_size = 64 + (len(pairs) % 64 == 0)
        fast.train(pairs, epochs=2, batch_size=batch_size)
        for _ in range(2):
            _reference_aggregation_epoch(ref, pairs, batch_size)
        assert fast.layers.values.tobytes() == ref.layers.values.tobytes()
        assert fast.rng.random() == ref.rng.random()

    def test_edge_arrays_follow_adjacency_order(self, planted_graph):
        _, graph = planted_graph
        t = EdgeProximityTrainer(graph, dim=4, order=1, neg=2, lr=0.1, seed=0)
        expected = [(v, int(x)) for v in range(graph.n_nodes) for x in graph.neighbors[v]]
        assert list(zip(t.edge_src.tolist(), t.edge_dst.tolist())) == expected
        w = np.array([wt for v in range(graph.n_nodes) for wt in graph.weights[v]])
        assert t._edges.table.tobytes() == CdfSampler(w).table.tobytes()


class TestProximityTrainers:
    def test_first_order_separates_shared_word_candidates(self, planted_graph):
        corpus, graph = planted_graph
        Z = _train(graph, "proximity-1", {"dim": 16, "epochs": 40}, seed=3)

        def cos(a, b):
            u, v = Z[a], Z[b]
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        topics = {}
        for c in corpus.candidates:
            topics.setdefault(corpus.tokens(c)[0][:2], []).append(
                graph.node_index("candidate", c.id))
        t_ids = sorted(topics)
        same = [cos(a, b) for t in t_ids for a in topics[t] for b in topics[t] if a < b]
        cross = [cos(a, b) for a in topics[t_ids[0]] for b in topics[t_ids[1]]]
        assert np.mean(same) > np.mean(cross)

    def test_second_order_uses_context_table(self, planted_graph):
        _, graph = planted_graph
        trainer = EdgeProximityTrainer(graph, dim=8, order=2, neg=3, lr=0.05, seed=0)
        assert trainer.ctx is not trainer.emb
        trainer1 = EdgeProximityTrainer(graph, dim=8, order=1, neg=3, lr=0.05, seed=0)
        assert trainer1.ctx is trainer1.emb

    @pytest.mark.parametrize("order", [1, 2])
    def test_loss_decreases_over_training(self, planted_graph, order):
        _, graph = planted_graph
        deltas = []
        for seed in range(3):
            trainer = EdgeProximityTrainer(graph, dim=16, order=order, neg=5, lr=0.05, seed=seed)
            probe = np.random.default_rng(7)
            idx = probe.integers(trainer.n_edges, size=64)
            src, dst = trainer.edge_src[idx], trainer.edge_dst[idx]
            negs = probe.integers(graph.n_nodes, size=(64, 5))
            before = proximity_loss(trainer, src, dst, negs)
            trainer.train(epochs=5, batch_size=128)
            after = proximity_loss(trainer, src, dst, negs)
            deltas.append(after - before)
        assert np.mean(deltas) < 0

    def test_deterministic(self, planted_graph):
        _, graph = planted_graph
        t1 = _train(graph, "proximity-2", {"dim": 8, "epochs": 3}, seed=11)
        t2 = _train(graph, "proximity-2", {"dim": 8, "epochs": 3}, seed=11)
        assert np.array_equal(t1, t2)


SMALL_SCORERS = {
    "graph-walk": {"dim": 8, "n_walks": 2, "walk_len": 6, "epochs": 1},
    "graph-biased-walk": {"dim": 8, "n_walks": 2, "walk_len": 6, "epochs": 1, "q": 2.0},
    "graph-proximity-1": {"dim": 8, "epochs": 2},
    "graph-proximity-2": {"dim": 8, "epochs": 2},
    "graph-aggregation": {"hidden": 8, "out_dim": 8, "epochs": 1, "n_walks": 1,
                          "walk_len": 6, "feature_dim": 8, "feature_epochs": 1},
}


@pytest.mark.parametrize("kind", sorted(SMALL_SCORERS))
def test_graph_scorer_is_the_cosine_of_its_rows_at_doc_nodes(planted_graph, kind):
    """A graph scorer's matrix is, bitwise, ``cosine_matrix`` of the trained
    node embeddings' rows at ``doc_nodes``."""
    corpus, graph = planted_graph
    spec = UnsupModelSpec(kind, kind, SMALL_SCORERS[kind])
    hp, seed, features = spec.hyperparameters(), 4, None
    if kind == "graph-aggregation":
        table = train_text_embeddings(corpus, seed=seed, **{
            key.removeprefix("feature_"): v for key, v in hp.items() if key.startswith("feature_")})
        features = node_feature_matrix(graph, corpus, table)
    Z = train_graph_embeddings(graph, kind.removeprefix("graph-"), hp, seed,
                               node_features=features)
    q_nodes, c_nodes = graph.doc_nodes(corpus)
    matrix = compute_score_matrix(spec, corpus, graph, seed)
    assert matrix.model_name == kind
    assert matrix.values.tobytes() == cosine_matrix(Z[q_nodes], Z[c_nodes]).tobytes()


class TestAggregation:
    def test_requires_features(self, planted_graph):
        _, graph = planted_graph
        with pytest.raises(ValueError, match="node_features"):
            _train(graph, "aggregation", {}, seed=0)

    def test_trains_and_is_deterministic(self, planted_graph):
        corpus, graph = planted_graph
        table = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=0)
        feats = node_feature_matrix(graph, corpus, table)
        hp = {"hidden": 8, "out_dim": 8, "epochs": 1, "n_walks": 2, "walk_len": 10}
        t1 = _train(graph, "aggregation", hp, seed=5, node_features=feats)
        t2 = _train(graph, "aggregation", hp, seed=5, node_features=feats)
        assert np.array_equal(t1, t2)
        assert t1.shape == (graph.n_nodes, 8)

    def test_loss_decreases(self, planted_graph):
        corpus, graph = planted_graph
        table = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=0)
        feats = node_feature_matrix(graph, corpus, table)
        deltas = []
        for seed in range(3):
            trainer = AggregationTrainer(
                graph, feats, hidden=8, out_dim=8, n_layers=2, neg=3, lr=0.01,
                sample_size=10, seed=seed,
            )
            walks = generate_walks(graph, 2, 10, seed=seed + 50, p=None, q=None)
            pairs = cooccurrence_pairs(walks, window=3)
            probe = np.random.default_rng(13)
            fixed = pairs[probe.integers(len(pairs), size=64)]
            fixed_negs = probe.integers(graph.n_nodes, size=(64, 3))
            before = aggregation_loss(trainer, fixed, fixed_negs)
            trainer.train(pairs, epochs=2, batch_size=256)
            after = aggregation_loss(trainer, fixed, fixed_negs)
            deltas.append(after - before)
        assert np.mean(deltas) < 0

