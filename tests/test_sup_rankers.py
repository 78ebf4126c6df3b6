import numpy as np
import pytest

from weakrank import sup_rankers
from weakrank.bm25 import bm25_matrix
from weakrank.corpus import build_corpus
from weakrank.embeddings import train_text_embeddings
from weakrank.graph import build_graph
from weakrank.metrics import build_eval_lists, mrr
from weakrank.nncore import (
    OptimizerState,
    ParamTensor,
    cosine_rows_backward,
    cosine_rows_forward,
    dense_backward,
    finite_difference_check,
    init_param,
    optimizer_step,
    scatter_add_rows,
    sigmoid,
    zero_grads,
)
from weakrank.pseudo_labels import aggregate, sample_training_pairs, top_k_labels
from weakrank.registry import SupModelSpec
from weakrank.sup_rankers import (
    ENSEMBLE_BLOCK,
    GraphAggregationRanker,
    InteractionRanker,
    RankerBackbone,
    RepresentationRanker,
    _pairwise_loss_grads,
    _softplus,
    create_sup_model,
    ensemble_scores,
    interaction_score_from_embeddings,
    load_checkpoint,
    save_checkpoint,
    score_lists_with_ensemble,
    train_supervised,
)
from weakrank.synthetic import generate_synthetic


@pytest.fixture(scope="module")
def mirror_backbone():
    """Tiny corpus where q1 and c1 share identical token sequences."""
    docs = [
        {"id": "q1", "role": "query", "text": "alpha beta gamma"},
        {"id": "q2", "role": "query", "text": "delta epsilon"},
        {"id": "c1", "role": "candidate", "text": "alpha beta gamma"},
        {"id": "c2", "role": "candidate", "text": "delta zeta"},
        {"id": "c3", "role": "candidate", "text": "eta theta iota"},
    ]
    corpus = build_corpus(docs)
    table = train_text_embeddings(corpus, dim=8, epochs=1, seed=0)
    return RankerBackbone(corpus, table, graph=build_graph(corpus), graph_seed=1)


@pytest.fixture(scope="module")
def planted_setup():
    """Clean planted corpus with a full pseudo-label pipeline ready."""
    corpus, ann = generate_synthetic(
        n_queries=12, n_candidates=150, n_topics=3, vocab_per_topic=8,
        doc_len=20, noise_rate=0.0, seed=33,
    )
    graph = build_graph(corpus)
    table = train_text_embeddings(corpus, dim=16, epochs=2, seed=7)
    backbone = RankerBackbone(corpus, table, graph=graph, graph_seed=2)
    agg = aggregate([bm25_matrix(corpus)], [1])
    labels = top_k_labels(agg, k=50)  # true positives per query = 50
    triples = sample_training_pairs(labels, n_neg_per_pos=2, seed=5)
    lists = build_eval_lists(ann, corpus, seed=11)
    return backbone, triples, lists


def _spec(kind, **params):
    return SupModelSpec(kind, kind, params)


class TestPairwiseLoss:
    def test_gradient_is_sigmoid_minus_target(self):
        r_pos = np.array([0.3, -1.2])
        r_neg = np.array([0.8, 0.1])
        _, d_pos, d_neg = _pairwise_loss_grads(r_pos, r_neg)
        sig = 1.0 / (1.0 + np.exp(-r_pos))
        assert np.allclose(d_pos * 2, sig - 1.0)
        sig_n = 1.0 / (1.0 + np.exp(-r_neg))
        assert np.allclose(d_neg * 2, sig_n - 0.0)

    def test_loss_vanishes_at_perfect_separation(self):
        loss, _, _ = _pairwise_loss_grads(np.array([40.0]), np.array([-40.0]))
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_loss_finite_at_extreme_scores(self):
        loss, d_pos, d_neg = _pairwise_loss_grads(np.array([-500.0]), np.array([500.0]))
        assert np.isfinite(loss) and loss > 100


class TestRepresentation:
    def test_identical_towers_score_one(self, mirror_backbone):
        model = RepresentationRanker(mirror_backbone, _spec("representation", hidden=8), seed=3)
        for pq, pc in zip(model.sides["q"], model.sides["c"]):
            np.copyto(pc.value, pq.value)
        assert model.score("q1", "c1") == pytest.approx(1.0)

    def test_output_in_cosine_range(self, mirror_backbone, rng):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=1)
        for qid in ("q1", "q2"):
            scores = model.score_pairs(qid, ["c1", "c2", "c3"])
            assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_scoring_is_pure(self, mirror_backbone):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=2)
        a = model.score("q1", "c2")
        b = model.score("q1", "c2")
        assert a == b

    def test_trained_beats_untrained(self, planted_setup):
        backbone, triples, lists = planted_setup
        for seed in range(3):
            model = RepresentationRanker(backbone, _spec("representation", hidden=16), seed=seed)
            before = mrr(lists, score_lists_with_ensemble(lists, [model]))
            train_supervised(model, triples, epochs=5, lr=0.005, seed=seed)
            after = mrr(lists, score_lists_with_ensemble(lists, [model]))
            assert after > before


class TestInteraction:
    def test_identical_candidate_maximizes_exact_match_feature(self, mirror_backbone):
        model = InteractionRanker(mirror_backbone, _spec("interaction"), seed=0)
        qi = mirror_backbone.query_row["q1"]
        phi_exact = model.phi[qi, :, 0]  # exact-match kernel is bank position 0
        identical = mirror_backbone.cand_row["c1"]
        assert phi_exact[identical] == phi_exact.max()

    def test_doubling_word_vector_leaves_similarities_unchanged(self, mirror_backbone):
        # cosine scale invariance holds on the vectors actually compared,
        # i.e. before any backbone recentering
        corpus = mirror_backbone.corpus
        table = mirror_backbone.table
        scaled = table.vectors.copy()
        scaled[table.index["alpha"]] *= 2.0
        from weakrank.embeddings import EmbeddingTable

        base = RankerBackbone(corpus, table, center=False)
        other = RankerBackbone(corpus, EmbeddingTable(table.ids, scaled), center=False)
        mus = np.array([0.9, 0.5, -0.5])
        sigmas = np.array([0.1, 0.2, 0.3])
        assert np.allclose(base.phi_features(mus, sigmas), other.phi_features(mus, sigmas))

    def test_reference_scorer_scale_invariant(self, rng):
        mus = np.array([0.9, 0.0])
        sigmas = np.array([0.1, 0.2])
        q_vecs = rng.normal(size=(3, 4))
        c_vecs = rng.normal(size=(4, 4))
        w = ParamTensor("w", rng.normal(size=2))
        b = ParamTensor("b", np.array([0.3]))
        r1, _, _ = interaction_score_from_embeddings(q_vecs, c_vecs, mus, sigmas, w, b)
        scaled = q_vecs.copy()
        scaled[0] *= 2.0
        w2 = ParamTensor("w", w.value.copy())
        b2 = ParamTensor("b", b.value.copy())
        r2, _, _ = interaction_score_from_embeddings(scaled, c_vecs, mus, sigmas, w2, b2)
        assert r1 == pytest.approx(r2)

    def test_reference_scorer_matches_cached_features(self, mirror_backbone):
        model = InteractionRanker(mirror_backbone, _spec("interaction"), seed=4)
        corpus = mirror_backbone.corpus
        q = corpus.document("query", "q2")
        c = corpus.document("candidate", "c2")
        q_vecs = np.stack([mirror_backbone.table.vector(t) for t in corpus.tokens(q)])
        c_vecs = np.stack([mirror_backbone.table.vector(t) for t in corpus.tokens(c)])
        w = ParamTensor("w", model.w.value.copy())
        b = ParamTensor("b", model.b.value.copy())
        ref, _, _ = interaction_score_from_embeddings(
            q_vecs, c_vecs, model.mus, model.sigmas, w, b
        )
        assert ref == pytest.approx(model.score("q2", "c2"), rel=1e-9)

    def test_gradient_wrt_word_embeddings(self):
        rng = np.random.default_rng(8)
        mus = np.array([0.9, 0.5, 0.1, -0.5])
        sigmas = np.array([0.1, 0.2, 0.2, 0.3])
        q_vecs = ParamTensor("qv", rng.normal(size=(3, 4)))
        c_vecs = ParamTensor("cv", rng.normal(size=(4, 4)))
        w = ParamTensor("w", rng.normal(size=4) * 0.1)
        b = ParamTensor("b", np.array([0.0]))

        def fb():
            zero_grads([q_vecs, c_vecs, w, b])
            r, dq, dc = interaction_score_from_embeddings(
                q_vecs.value, c_vecs.value, mus, sigmas, w, b
            )
            q_vecs.grad += dq
            c_vecs.grad += dc
            return r

        assert finite_difference_check(fb, [q_vecs, c_vecs, w, b]) < 1e-3

    def test_zero_norm_word_vector_contributes_zero_row(self, mirror_backbone):
        rng = np.random.default_rng(2)
        q_vecs = np.vstack([np.zeros(4), rng.normal(size=(2, 4))])
        c_vecs = rng.normal(size=(3, 4))
        w = ParamTensor("w", np.zeros(3))
        b = ParamTensor("b", np.array([0.0]))
        mus = np.array([0.9, 0.0, -0.9])
        sigmas = np.array([0.1, 0.1, 0.1])
        r, dq, dc = interaction_score_from_embeddings(q_vecs, c_vecs, mus, sigmas, w, b)
        assert np.all(dq[0] == 0.0)  # zero-norm row gets no gradient


class TestGraphAggregation:
    def test_zero_layers_degenerates_to_feature_cosine(self, mirror_backbone):
        model = GraphAggregationRanker(
            mirror_backbone, _spec("graph-aggregation", n_layers=0), seed=0
        )
        _, feats, q_nodes, c_nodes = mirror_backbone.graph_inputs()
        u = feats[q_nodes[mirror_backbone.query_row["q1"]]]
        v = feats[c_nodes[mirror_backbone.cand_row["c2"]]]
        expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert model.score("q1", "c2") == pytest.approx(float(expected))

    def test_full_neighborhood_sampling_deterministic(self, mirror_backbone):
        # degrees here are far below the sample cap, so any seed agrees
        b1 = RankerBackbone(
            mirror_backbone.corpus, mirror_backbone.table,
            graph=mirror_backbone.graph, graph_sample_size=50, graph_seed=1,
        )
        b2 = RankerBackbone(
            mirror_backbone.corpus, mirror_backbone.table,
            graph=mirror_backbone.graph, graph_sample_size=50, graph_seed=99,
        )
        assert np.array_equal(b1.graph_inputs()[0], b2.graph_inputs()[0])

    def test_identical_neighborhood_identical_embedding(self):
        docs = [
            {"id": "q1", "role": "query", "text": "aa bb"},
            {"id": "c1", "role": "candidate", "text": "aa bb"},
            {"id": "c2", "role": "candidate", "text": "aa bb"},
        ]
        corpus = build_corpus(docs)
        table = train_text_embeddings(corpus, dim=4, neg=1, epochs=1, seed=0)
        backbone = RankerBackbone(corpus, table, graph=build_graph(corpus))
        model = GraphAggregationRanker(backbone, _spec("graph-aggregation", hidden=4, out_dim=4), seed=1)
        Z = model._embeddings()
        _, _, _, c_nodes = backbone.graph_inputs()
        assert np.allclose(Z[c_nodes[0]], Z[c_nodes[1]])

    def test_scoring_pure_after_training(self, planted_setup):
        backbone, triples, _ = planted_setup
        model = GraphAggregationRanker(
            backbone, _spec("graph-aggregation", hidden=8, out_dim=8), seed=5
        )
        train_supervised(model, triples[:200], epochs=1, lr=0.01, seed=0)
        assert model.score("q00", "c000") == model.score("q00", "c000")


class TestTrainSupervised:
    def test_objective_improves_after_first_epoch(self, planted_setup):
        backbone, triples, _ = planted_setup
        deltas = []
        for seed in range(3):
            model = InteractionRanker(backbone, _spec("interaction"), seed=seed)
            fixed = backbone.triple_index(triples[:256])
            zero_grads(model.params())
            before = model.loss_and_grads(fixed)
            zero_grads(model.params())
            train_supervised(model, triples, epochs=1, lr=0.001, seed=seed)
            zero_grads(model.params())
            after = model.loss_and_grads(fixed)
            zero_grads(model.params())
            deltas.append(after - before)
        assert np.mean(deltas) < 0

    def test_empty_stream_rejected(self, mirror_backbone):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_supervised(model, [], epochs=1, lr=0.01, seed=0)

    def test_early_stopping_restores_best(self, planted_setup):
        backbone, triples, lists = planted_setup
        model = RepresentationRanker(backbone, _spec("representation", hidden=16), seed=9)
        seen = []

        def eval_fn(m):
            value = mrr(lists, score_lists_with_ensemble(lists, [m]))
            seen.append(value)
            return value

        train_supervised(
            model, triples, epochs=6, lr=0.005, seed=1, eval_fn=eval_fn, patience=2
        )
        final = mrr(lists, score_lists_with_ensemble(lists, [model]))
        assert final == pytest.approx(max(seen))

    def test_each_model_kind_reaches_mrr_090_on_planted_labels(self, planted_setup):
        backbone, triples, lists = planted_setup
        for kind, hp, lr in (
            ("representation", {"hidden": 16}, 0.005),
            ("interaction", {}, 0.005),
            ("graph-aggregation", {"hidden": 16, "out_dim": 16}, 0.01),
        ):
            values = []
            for seed in range(3):
                model = create_sup_model(_spec(kind, **hp), backbone, seed)
                train_supervised(model, triples, epochs=8, lr=lr, seed=seed)
                values.append(mrr(lists, score_lists_with_ensemble(lists, [model])))
            assert min(values) >= 0.9, f"{kind}: {values}"


def _reference_pairwise_loss_grads(r_pos, r_neg):
    """The pairwise objective with one softplus and one sigmoid call per side."""
    B = len(r_pos)
    loss = float((_softplus(-r_pos) + _softplus(r_neg)).mean())
    return loss, (sigmoid(r_pos) - 1.0) / B, sigmoid(r_neg) / B


def _reference_loss_and_grads(model, triples):
    """Per-triple string path: id lookups per triple, one cosine call per
    side, and the document means' input gradient. The row cosine and
    ``sage_backward`` are checked bitwise against their masked and full
    forms in test_nncore and test_graph_embeddings."""
    b = model.backbone
    qrows = [b.query_row[q] for q, _, _ in triples]
    prows = [b.cand_row[p] for _, p, _ in triples]
    nrows = [b.cand_row[n] for _, _, n in triples]
    if model.kind == "interaction":
        phi_p, phi_n = model.phi[qrows, prows], model.phi[qrows, nrows]
        r_pos = phi_p @ model.w.value + model.b.value[0]
        r_neg = phi_n @ model.w.value + model.b.value[0]
        loss, d_pos, d_neg = _reference_pairwise_loss_grads(r_pos, r_neg)
        model.w.grad += d_pos @ phi_p + d_neg @ phi_n
        model.b.grad += d_pos.sum() + d_neg.sum()
        return loss
    if model.kind == "representation":
        yq, qcache = model._tower(b.q_means[qrows], "q")
        yp, pcache = model._tower(b.c_means[prows], "c")
        yn, ncache = model._tower(b.c_means[nrows], "c")
    else:
        Z, caches = sup_rankers.sage_forward(model.features, model.A, model.layers)
        qn, pn, nn = model.q_nodes[qrows], model.c_nodes[prows], model.c_nodes[nrows]
        yq, yp, yn = Z[qn], Z[pn], Z[nn]
    r_pos, cache_p = cosine_rows_forward(yq, yp)
    r_neg, cache_n = cosine_rows_forward(yq, yn)
    loss, d_pos, d_neg = _reference_pairwise_loss_grads(r_pos, r_neg)
    dq_p, dp = cosine_rows_backward(d_pos, cache_p)
    dq_n, dn = cosine_rows_backward(d_neg, cache_n)
    if model.kind == "representation":
        for dy, (cache1, cache2) in ((dq_p + dq_n, qcache), (dp, pcache), (dn, ncache)):
            dense_backward(dense_backward(dy, cache2), cache1)
        return loss
    dZ = np.zeros(Z.shape)
    scatter_add_rows(dZ, qn, dq_p + dq_n)
    scatter_add_rows(dZ, pn, dp)
    scatter_add_rows(dZ, nn, dn)
    sup_rankers.sage_backward(dZ, model.A, caches)
    return loss


def _reference_train(model, triples, epochs, lr, seed, batch_size=32):
    """Seeded minibatch Adam over lists of string triples."""
    rng = np.random.default_rng(seed)
    opt = OptimizerState("adam", lr=lr)
    params = model.params()
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = [triples[i] for i in order[start:start + batch_size]]
            zero_grads(params)
            losses.append(_reference_loss_and_grads(model, batch))
            optimizer_step(params, opt)
            model.after_update()
        curve.append(float(np.mean(losses)))
    return curve


class TestIndexBatches:
    def test_triple_index_maps_ids_to_rows_and_columns(self, mirror_backbone):
        index = mirror_backbone.triple_index([("q2", "c3", "c1"), ("q1", "c1", "c2")])
        assert index.dtype == np.int64
        assert index.tolist() == [[1, 2, 0], [0, 0, 1]]
        assert mirror_backbone.triple_index([]).shape == (0, 3)

    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 8}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 8, "out_dim": 8}),
    ])
    def test_training_bitwise_equal_to_string_triple_reference(self, planted_setup, kind, hp):
        backbone, triples, _ = planted_setup
        triples = triples[:250]  # not a multiple of the batch size
        fast, ref = (create_sup_model(_spec(kind, **hp), backbone, seed=3) for _ in range(2))
        curve = train_supervised(fast, triples, epochs=3, lr=0.01, seed=4)
        ref_curve = _reference_train(ref, triples, epochs=3, lr=0.01, seed=4)
        assert curve == ref_curve
        assert fast.params().values.tobytes() == ref.params().values.tobytes()

    def test_eval_list_index_is_kept_per_list_set(self, planted_setup):
        backbone, _, lists = planted_setup
        rows, cols = backbone.list_index(lists)
        assert cols.dtype == np.int32
        assert cols.tolist() == [[backbone.cand_row[c] for c in el.candidate_ids]
                                 for el in lists]
        again = backbone.list_index(lists)
        assert again[0] is rows and again[1] is cols
        head = lists[:5]  # a different list set is indexed afresh
        assert backbone.list_index(head)[1].tolist() == cols[:5].tolist()
        grown = list(lists)
        backbone.list_index(grown)
        grown.append(lists[0])  # so is a set that changed length since
        assert len(backbone.list_index(grown)[0]) == len(lists) + 1

    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 4}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 4, "out_dim": 4}),
    ])
    def test_loss_gradients_vs_finite_differences(self, mirror_backbone, kind, hp):
        model = create_sup_model(_spec(kind, **hp), mirror_backbone, seed=2)
        if kind == "interaction":  # spread the weights so every kernel matters
            model.w.value[:] = np.random.default_rng(5).normal(size=model.w.value.shape)
        batch = mirror_backbone.triple_index(
            [("q1", "c1", "c2"), ("q2", "c2", "c3"), ("q1", "c3", "c2"), ("q1", "c1", "c2")])
        params = model.params()

        def fb():
            zero_grads(params)
            model.after_update()
            return model.loss_and_grads(batch)

        assert finite_difference_check(fb, params) < 1e-4


def _index(backbone, qid, cands):
    """Ensemble index arrays for one query's candidate list."""
    return [backbone.query_row[qid]], [[backbone.cand_row[c] for c in cands]]


class TestEnsemble:
    def test_single_model_preserves_ranking(self, mirror_backbone):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=0)
        cands = ["c1", "c2", "c3"]
        raw = model.score_pairs("q1", cands)
        ens = ensemble_scores([model.score_matrix()], *_index(mirror_backbone, "q1", cands))[0]
        assert np.array_equal(np.argsort(raw), np.argsort(ens))

    def test_identical_members_identical_ranking(self, mirror_backbone):
        m1 = RepresentationRanker(mirror_backbone, _spec("representation"), seed=7)
        m2 = RepresentationRanker(mirror_backbone, _spec("representation"), seed=7)
        index = _index(mirror_backbone, "q1", ["c1", "c2", "c3"])
        single = ensemble_scores([m1.score_matrix()], *index)
        double = ensemble_scores([m1.score_matrix(), m2.score_matrix()], *index)
        assert np.allclose(single, double)

    def test_constant_member_contributes_half(self):
        flat = np.zeros((1, 3))
        rising = np.arange(3, dtype=float)[None, :]
        ens = ensemble_scores([flat, rising], [0], [[0, 1, 2]])[0]
        assert np.allclose(ens, (0.5 + np.array([0.0, 0.5, 1.0])) / 2)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ensemble_scores([], [0], [[0]])

    def test_lists_match_per_list_min_max_reference(self, planted_setup):
        backbone, _, lists = planted_setup
        assert len(lists) > ENSEMBLE_BLOCK and len(lists) % ENSEMBLE_BLOCK != 0

        class Constant:
            def __init__(self, backbone):
                self.backbone = backbone

            def score_matrix(self):
                return np.full((len(backbone.query_row), len(backbone.cand_row)), 3.0)

            def score_pairs(self, qid, cands):
                return np.full(len(cands), 3.0)

        models = [
            RepresentationRanker(backbone, _spec("representation", hidden=8), seed=1),
            InteractionRanker(backbone, _spec("interaction"), seed=2),
            Constant(backbone),
        ]

        def min_max(row):
            lo, hi = row.min(), row.max()
            return np.full_like(row, 0.5) if hi == lo else (row - lo) / (hi - lo)

        expected = np.array([
            np.mean([min_max(m.score_pairs(el.query_id, el.candidate_ids)) for m in models],
                    axis=0)
            for el in lists
        ])
        got = score_lists_with_ensemble(lists, models)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12
        # the constant member adds exactly 0.5 / 3 to every entry
        without = score_lists_with_ensemble(lists, models[:2])
        assert np.allclose(got, (2 * without + 0.5) / 3, rtol=0, atol=1e-12)


def _phi_reference(backbone, mus, sigmas, negative_exponent=True):
    """Per-query kernel pooling over every token pair, repeated words included."""
    sign = -1.0 if negative_exponent else 1.0
    corpus, table = backbone.corpus, backbone.table

    def hats(doc):
        vecs = table.vectors[[table.index[t] for t in corpus.tokens(doc)]]
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        return vecs / np.where(norms > 0, norms, 1.0)

    c_hats = [hats(d) for d in corpus.candidates]
    phi = np.empty((len(corpus.queries), len(corpus.candidates), len(mus)))
    for i, q in enumerate(corpus.queries):
        q_hat = hats(q)
        for j, c_hat in enumerate(c_hats):
            S = q_hat @ c_hat.T
            for h in range(len(mus)):
                g = np.exp(sign * (S - mus[h]) ** 2 / (2.0 * sigmas[h] ** 2))
                phi[i, j, h] = np.log(g.sum(axis=1) + 1e-10).sum()
    return phi


class TestMatrixScoring:
    @pytest.fixture(scope="class")
    def repeat_backbone(self):
        docs = [
            {"id": "q1", "role": "query", "text": "alpha alpha beta gamma"},
            {"id": "q2", "role": "query", "text": "delta delta delta epsilon"},
            {"id": "q3", "role": "query", "text": "zeta zeta"},
            {"id": "c1", "role": "candidate", "text": "alpha beta beta gamma"},
            {"id": "c2", "role": "candidate", "text": "delta zeta zeta"},
            {"id": "c3", "role": "candidate", "text": "eta theta iota alpha eta"},
            {"id": "c4", "role": "candidate", "text": "epsilon gamma"},
        ]
        corpus = build_corpus(docs)
        table = train_text_embeddings(corpus, dim=8, epochs=1, seed=0)
        return RankerBackbone(corpus, table, graph=build_graph(corpus), graph_sample_size=2,
                              graph_seed=1)

    @pytest.mark.parametrize("negative_exponent", [True, False])
    @pytest.mark.parametrize("block", [sup_rankers.PHI_BLOCK, 7])
    def test_vocabulary_phi_matches_per_query_loop(self, repeat_backbone, planted_setup,
                                                   negative_exponent, block, monkeypatch):
        monkeypatch.setattr(sup_rankers, "PHI_BLOCK", block)  # 7: a few query words a block
        mus = np.array([1.0, 0.9, 0.5, 0.0, -0.5])
        sigmas = np.array([1e-3, 0.1, 0.3, 0.5, 0.6]) if negative_exponent else \
            np.array([0.5, 0.6, 0.7, 0.8, 0.9])
        for backbone in (repeat_backbone, planted_setup[0]):
            got = RankerBackbone(backbone.corpus, backbone.raw_table).phi_features(
                mus, sigmas, negative_exponent)
            ref = _phi_reference(backbone, mus, sigmas, negative_exponent)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-9

    def test_phi_repeat_call_returns_cached_array(self, repeat_backbone):
        mus, sigmas = np.array([0.5]), np.array([0.2])
        assert repeat_backbone.phi_features(mus, sigmas) is repeat_backbone.phi_features(mus, sigmas)

    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 8}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 4, "out_dim": 4}),
    ])
    def test_score_matrix_matches_per_pair_reference(self, repeat_backbone, kind, hp):
        from weakrank.nncore import cosine_rows_forward

        backbone = repeat_backbone
        model = create_sup_model(_spec(kind, **hp), backbone, seed=4)
        got = model.score_matrix()
        ref = np.empty_like(got)
        for qid, i in backbone.query_row.items():
            for cid, j in backbone.cand_row.items():
                if kind == "representation":
                    yq, _ = model._tower(backbone.q_means[i], "q")
                    yc, _ = model._tower(backbone.c_means[j], "c")
                    ref[i, j] = cosine_rows_forward(yq[None], yc[None])[0][0]
                elif kind == "interaction":
                    ref[i, j] = model.phi[i, j] @ model.w.value + model.b.value[0]
                else:
                    Z = model._embeddings()
                    ref[i, j] = cosine_rows_forward(Z[model.q_nodes[i]][None],
                                                    Z[model.c_nodes[j]][None])[0][0]
                assert model.score_pairs(qid, [cid])[0] == got[i, j]
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_zero_norm_rows_score_zero(self, repeat_backbone):
        rep = RepresentationRanker(repeat_backbone, _spec("representation", hidden=8), seed=1)
        for p in rep.sides["q"][2:]:  # q-side W2 and b2: every query tower outputs 0
            p.value[...] = 0.0
        assert np.array_equal(rep.score_matrix(), np.zeros((3, 4)))
        graph = GraphAggregationRanker(
            repeat_backbone, _spec("graph-aggregation", hidden=4, out_dim=4), seed=1)
        graph.layers[-1].value[...] = 0.0  # relu(0): every node embeds to 0
        graph.after_update()
        assert np.array_equal(graph.score_matrix(), np.zeros((3, 4)))


class TestCheckpoints:
    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 8}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 4, "out_dim": 4}),
    ])
    def test_roundtrip(self, mirror_backbone, tmp_path, kind, hp):
        model = create_sup_model(_spec(kind, **hp), mirror_backbone, seed=6)
        train_ready = model.score("q1", "c2")
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(model, path, config_hash="abc")
        loaded = load_checkpoint(path, mirror_backbone)
        assert loaded.score("q1", "c2") == train_ready
        assert loaded.kind == kind

    def test_optimizer_state_roundtrip(self, mirror_backbone, tmp_path):
        from weakrank.nncore import OptimizerState

        model = create_sup_model(_spec("interaction"), mirror_backbone, seed=1)
        opt = OptimizerState("adam", lr=0.01)
        triples = [("q1", "c1", "c2"), ("q2", "c2", "c3")] * 8
        train_supervised(model, triples, epochs=2, lr=0.01, seed=0, optimizer_state=opt)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, config_hash="h", optimizer_state=opt)
        loaded, state = load_checkpoint(path, mirror_backbone, with_optimizer=True)
        assert state.t == opt.t and state.algorithm == "adam"
        for name in opt.moments:
            assert np.array_equal(state.moments[name][0], opt.moments[name][0])
            assert np.array_equal(state.moments[name][1], opt.moments[name][1])
        assert loaded.score("q1", "c2") == model.score("q1", "c2")
