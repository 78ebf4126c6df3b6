import numpy as np
import pytest

from weakrank.corpus import build_corpus
from weakrank.embeddings import node_feature_matrix, train_text_embeddings
from weakrank.graph import HetGraph, build_graph
from weakrank.graph_embeddings import (
    AggregationTrainer,
    EdgeProximityTrainer,
    biased_transition_probs,
    cooccurrence_pairs,
    generate_walks,
    step_biased,
    step_plain,
    train_graph_embeddings,
    walk_transition_probs,
)
from weakrank.nncore import dense_backward, log_sigmoid, optimizer_step, sigmoid, zero_grads
from weakrank.sageops import build_neighbor_matrix, create_layers, sage_backward, sage_forward
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
    for cache, d_in in reversed(caches):
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
            before = trainer.loss_on(src, dst, negs)
            trainer.train(epochs=5)
            after = trainer.loss_on(src, dst, negs)
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
            before = trainer.loss_on(fixed, fixed_negs)
            trainer.train(pairs, epochs=2)
            after = trainer.loss_on(fixed, fixed_negs)
            deltas.append(after - before)
        assert np.mean(deltas) < 0


def test_unknown_method_rejected(small_graph):
    with pytest.raises(ValueError, match="unknown graph embedding method"):
        train_graph_embeddings(small_graph, "laplacian", {}, seed=0)


def test_unknown_hyperparameter_rejected(small_graph):
    with pytest.raises(ValueError, match="unknown hyperparameters"):
        train_graph_embeddings(small_graph, "walk", {"warp": 3}, seed=0)
