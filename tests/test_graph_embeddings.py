import numpy as np
import pytest

from oracles import (
    aggregation_loss,
    biased_transition_probs,
    proximity_loss,
    step_biased,
    step_plain,
    walk_transition_probs,
    walks_per_step,
)
from weakrank.corpus import build_corpus
from weakrank.embeddings import node_feature_matrix, train_text_embeddings
from weakrank.graph import HetGraph, build_graph
from weakrank.graph_embeddings import (
    AggregationTrainer,
    EdgeProximityTrainer,
    _plain_steps,
    cooccurrence_pairs,
    generate_walks,
    train_graph_embeddings,
)
from weakrank.nncore import dense_backward, log_sigmoid, optimizer_step, sigmoid, zero_grads
from weakrank.sageops import (
    MIN_ROWS,
    build_neighbor_matrix,
    create_layers,
    sage_backward,
    sage_forward,
    sage_input,
)
from weakrank.synthetic import generate_synthetic


@pytest.fixture(scope="module")
def small_graph():
    docs = [
        {"id": "q1", "role": "query", "text": "aa bb aa"},
        {"id": "q2", "role": "query", "text": "cc dd"},
        {"id": "c1", "role": "candidate", "text": "aa bb"},
        {"id": "c2", "role": "candidate", "text": "cc cc dd"},
        {"id": "c3", "role": "candidate", "text": "aa dd"},
    ]
    return build_graph(build_corpus(docs))


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
        w1 = generate_walks(small_graph, 2, 10, seed=5)
        w2 = generate_walks(small_graph, 2, 10, seed=5)
        assert all(np.array_equal(a, b) for a, b in zip(w1, w2))

    def test_walk_count_and_length(self, small_graph):
        walks = generate_walks(small_graph, 3, 12, seed=0)
        assert len(walks) == 3 * small_graph.n_nodes
        assert all(len(w) == 12 for w in walks)

    def test_walks_follow_edges(self, small_graph):
        for walk in generate_walks(small_graph, 1, 8, seed=2):
            for a, b in zip(walk, walk[1:]):
                assert b in small_graph.neighbors[a]

    def test_isolated_node_rejected(self):
        nodes = [("query", "q1"), ("word", "aa"), ("word", "zz")]
        graph = HetGraph(nodes, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="isolated"):
            generate_walks(graph, 1, 5, seed=0)

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
    walks = generate_walks(graph, 2, 9, seed=4) + [np.array([3]), np.array([5, 6])]
    for window in (1, 3, 12):
        pairs = cooccurrence_pairs(walks, window)
        assert pairs.dtype == np.int64
        assert pairs.tobytes() == _reference_pairs(walks, window).tobytes()


def _reference_proximity_batch(t, batch_size):
    """One batch of the proximity trainer with two-dimensional np.add.at."""
    idx = t._draw(t._edge_cum, batch_size)
    src, dst = t.edge_src[idx], t.edge_dst[idx]
    negs = t._draw(t._noise_cum, batch_size * t.neg).reshape(batch_size, t.neg)
    h = t.emb[src]
    targets = np.concatenate([dst[:, None], negs], axis=1)
    out = t.ctx[targets]
    scores = np.einsum("bd,bnd->bn", h, out)
    labels = np.zeros_like(scores)
    labels[:, 0] = 1.0
    g = sigmoid(scores) - labels
    loss = float(-(log_sigmoid(scores[:, 0]) + log_sigmoid(-scores[:, 1:]).sum(axis=1)).mean())
    dh = np.einsum("bn,bnd->bd", g, out)
    np.add.at(t.ctx, targets, -t.lr * (g[:, :, None] * h[:, None, :]))
    np.add.at(t.emb, src, -t.lr * dh)
    return loss


def _reference_aggregation_batch(t, pairs):
    B = len(pairs)
    negs = np.searchsorted(t._noise_cum, t.rng.random(B * t.neg)).reshape(B, t.neg)
    zero_grads(t.layers)
    Z, caches = sage_forward(t.features, t.A, t.layers)
    u, v = pairs[:, 0], pairs[:, 1]
    s_pos = np.einsum("id,id->i", Z[u], Z[v])
    s_neg = np.einsum("id,ind->in", Z[u], Z[negs])
    loss = float(-(log_sigmoid(s_pos) + log_sigmoid(-s_neg).sum(axis=1)).mean())
    g_pos = (sigmoid(s_pos) - 1.0) / B
    g_neg = sigmoid(s_neg) / B
    dZ = np.zeros_like(Z)
    np.add.at(dZ, u, g_pos[:, None] * Z[v] + np.einsum("bn,bnd->bd", g_neg, Z[negs]))
    np.add.at(dZ, v, g_pos[:, None] * Z[u])
    np.add.at(dZ, negs.reshape(-1), (g_neg[:, :, None] * Z[u][:, None, :]).reshape(-1, Z.shape[1]))
    sage_backward(dZ, t.A, caches)
    optimizer_step(t.layers, t.opt)
    return loss


def _reference_sage_backward(dHL, A, caches):
    """Backprop through the stack, with the gradient into the input features."""
    dH = dHL
    for cache, d_in in reversed(caches[0]):
        dM = dense_backward(dH, cache)
        dH = dM[:, :d_in] + A.T @ dM[:, d_in:]
    return dH


class TestBitwiseAgainstReferences:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_sage_backward_layer_gradients(self, planted_graph, n_layers):
        _, graph = planted_graph
        rng = np.random.default_rng(n_layers)
        feats = rng.normal(size=(graph.n_nodes, 6))
        A = build_neighbor_matrix(graph, 4, rng)
        dims = [6] + [5] * n_layers
        fast, ref = (create_layers("agg", dims, np.random.default_rng(9)) for _ in range(2))
        dZ = rng.normal(size=(graph.n_nodes, 5))
        Z, caches = sage_forward(feats, A, fast)
        assert sage_backward(dZ, A, caches) is None
        Z_ref, caches_ref = sage_forward(feats, A, ref)
        _reference_sage_backward(dZ, A, caches_ref)
        assert Z.tobytes() == Z_ref.tobytes()
        assert fast.grads.tobytes() == ref.grads.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_sage_with_precomputed_first_input(self, planted_graph, n_layers):
        """Passing ``sage_input(H0, A)`` gives bitwise the outputs and the
        layer gradients of computing it inside ``sage_forward``."""
        _, graph = planted_graph
        rng = np.random.default_rng(10 + n_layers)
        feats = rng.normal(size=(graph.n_nodes, 6))
        A = build_neighbor_matrix(graph, 4, rng)
        dims = [6] + [5] * n_layers
        given, inside = (create_layers("agg", dims, np.random.default_rng(3)) for _ in range(2))
        M0 = sage_input(feats, A)
        dZ = rng.normal(size=(graph.n_nodes, 5))
        for _ in range(2):  # the same constant input serves every step
            Z, caches = sage_forward(feats, A, given, M0)
            sage_backward(dZ, A, caches)
            Z_ref, caches_ref = sage_forward(feats, A, inside)
            sage_backward(dZ, A, caches_ref)
            assert Z.tobytes() == Z_ref.tobytes()
            assert given.grads.tobytes() == inside.grads.tobytes()
        assert M0.tobytes() == np.concatenate([feats, A @ feats], axis=1).tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("which", ["one node", "proper subset", "all nodes"])
    def test_sage_at_rows_matches_the_full_graph(self, bench_graph, n_layers, which):
        """The last layer at ``rows`` is bitwise the full forward's rows, and
        its backward accumulates bitwise the full backward's layer gradients
        for a gradient that is zero outside ``rows``."""
        n = bench_graph.n_nodes
        rng = np.random.default_rng(20 + n_layers)
        feats = rng.normal(size=(n, 16))
        A = build_neighbor_matrix(bench_graph, 10, rng)
        rows = {"one node": np.array([n // 2]),
                "proper subset": np.sort(rng.choice(n, size=MIN_ROWS + 16, replace=False)),
                "all nodes": np.arange(n)}[which]
        dims = [16] + [32] * n_layers
        at_rows, full = (create_layers("agg", dims, np.random.default_rng(4)) for _ in range(2))
        M0 = sage_input(feats, A)
        dZ_rows = rng.normal(size=(len(rows), 32))
        dZ = np.zeros((n, 32))
        dZ[rows] = dZ_rows
        for _ in range(2):
            Z_rows, caches = sage_forward(feats, A, at_rows, M0, rows=rows)
            sage_backward(dZ_rows, A, caches)
            Z, caches_full = sage_forward(feats, A, full, M0)
            sage_backward(dZ, A, caches_full)
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
        A = build_neighbor_matrix(graph, 4, rng)
        layers = create_layers("agg", [6, 5, 5], rng)
        with pytest.raises(ValueError, match="strictly increasing node indices"):
            sage_forward(feats, A, layers, rows=np.array(rows))

    @pytest.mark.parametrize("order", [1, 2])
    def test_proximity_batches(self, planted_graph, order):
        _, graph = planted_graph
        fast, ref = (EdgeProximityTrainer(graph, dim=8, order=order, neg=4, lr=0.2, seed=6)
                     for _ in range(2))
        for _ in range(20):
            assert fast.train_batch(16) == _reference_proximity_batch(ref, 16)
        assert fast.emb.tobytes() == ref.emb.tobytes()
        assert fast.ctx.tobytes() == ref.ctx.tobytes()

    def test_aggregation_batches(self, planted_graph):
        corpus, graph = planted_graph
        feats = node_feature_matrix(graph, corpus, train_text_embeddings(corpus, dim=8, epochs=1))
        fast, ref = (AggregationTrainer(graph, feats, hidden=8, out_dim=8, n_layers=2, neg=3,
                                        lr=0.05, sample_size=3, seed=2) for _ in range(2))
        pairs = cooccurrence_pairs(generate_walks(graph, 1, 8, seed=1), window=2)
        batches = np.random.default_rng(0).integers(len(pairs), size=(20, 24))
        for rows in batches:
            assert fast.train_batch(pairs[rows]) == _reference_aggregation_batch(ref, pairs[rows])
        assert fast.layers.values.tobytes() == ref.layers.values.tobytes()

    def test_edge_arrays_follow_adjacency_order(self, planted_graph):
        _, graph = planted_graph
        t = EdgeProximityTrainer(graph, dim=4, order=1, neg=2, lr=0.1, seed=0)
        expected = [(v, int(x)) for v in range(graph.n_nodes) for x in graph.neighbors[v]]
        assert list(zip(t.edge_src.tolist(), t.edge_dst.tolist())) == expected
        w = np.array([wt for v in range(graph.n_nodes) for wt in graph.weights[v]])
        assert t._edge_cum.tobytes() == np.cumsum(w / np.sum(w)).tobytes()


class TestProximityTrainers:
    def test_first_order_separates_shared_word_candidates(self, planted_graph):
        corpus, graph = planted_graph
        table = train_graph_embeddings(graph, "proximity-1", {"dim": 16, "epochs": 40}, seed=3)

        def cos(a, b):
            u, v = table.vector(a), table.vector(b)
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        topics = {}
        for c in corpus.candidates:
            topics.setdefault(corpus.tokens(c)[0][:2], []).append(f"c:{c.id}")
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
            trainer.train(epochs=5)
            after = proximity_loss(trainer, src, dst, negs)
            deltas.append(after - before)
        assert np.mean(deltas) < 0

    def test_deterministic(self, planted_graph):
        _, graph = planted_graph
        t1 = train_graph_embeddings(graph, "proximity-2", {"dim": 8, "epochs": 3}, seed=11)
        t2 = train_graph_embeddings(graph, "proximity-2", {"dim": 8, "epochs": 3}, seed=11)
        assert np.array_equal(t1.vectors, t2.vectors)


class TestAggregation:
    def test_requires_features(self, planted_graph):
        _, graph = planted_graph
        with pytest.raises(ValueError, match="node_features"):
            train_graph_embeddings(graph, "aggregation", {}, seed=0)

    def test_trains_and_is_deterministic(self, planted_graph):
        corpus, graph = planted_graph
        table = train_text_embeddings(corpus, dim=8, epochs=1, seed=0)
        feats = node_feature_matrix(graph, corpus, table)
        hp = {"hidden": 8, "out_dim": 8, "epochs": 1, "n_walks": 2, "walk_len": 10}
        t1 = train_graph_embeddings(graph, "aggregation", dict(hp), seed=5, node_features=feats)
        t2 = train_graph_embeddings(graph, "aggregation", dict(hp), seed=5, node_features=feats)
        assert np.array_equal(t1.vectors, t2.vectors)
        assert t1.vectors.shape == (graph.n_nodes, 8)

    def test_loss_decreases(self, planted_graph):
        corpus, graph = planted_graph
        table = train_text_embeddings(corpus, dim=8, epochs=1, seed=0)
        feats = node_feature_matrix(graph, corpus, table)
        deltas = []
        for seed in range(3):
            trainer = AggregationTrainer(
                graph, feats, hidden=8, out_dim=8, n_layers=2, neg=3, lr=0.01,
                sample_size=10, seed=seed,
            )
            walks = generate_walks(graph, 2, 10, seed=seed + 50)
            pairs = cooccurrence_pairs(walks, window=3)
            probe = np.random.default_rng(13)
            fixed = pairs[probe.integers(len(pairs), size=64)]
            fixed_negs = probe.integers(graph.n_nodes, size=(64, 3))
            before = aggregation_loss(trainer, fixed, fixed_negs)
            trainer.train(pairs, epochs=2)
            after = aggregation_loss(trainer, fixed, fixed_negs)
            deltas.append(after - before)
        assert np.mean(deltas) < 0


def test_unknown_method_rejected(small_graph):
    with pytest.raises(ValueError, match="unknown graph embedding method"):
        train_graph_embeddings(small_graph, "laplacian", {}, seed=0)


def test_unknown_hyperparameter_rejected(small_graph):
    with pytest.raises(ValueError, match="unknown hyperparameters"):
        train_graph_embeddings(small_graph, "walk", {"warp": 3}, seed=0)
