import copy
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from defaults import GRAPH_SAMPLE, LIMITS, SETTINGS, TRAINING, scorer_hp, text_hp
from oracles import finite_difference_check, log_sigmoid
from weakrank import sup_rankers
from weakrank.bm25 import bm25_matrix
from weakrank.corpus import build_corpus
from weakrank.embeddings import train_text_embeddings
from weakrank.graph import build_graph
from weakrank.ioutil import load_arrays, save_arrays
from weakrank.metrics import (
    ENSEMBLE_BLOCK,
    EvalLists,
    build_eval_lists,
    mrr,
    ranks_of_positives,
    score_lists_with_matrix,
)
from weakrank.nncore import (
    OptimizerState,
    cosine_rows_backward,
    cosine_rows_forward,
    dense_backward,
    optimizer_step,
    scatter_add_rows,
    sigmoid,
    zero_grads,
)
from weakrank.pseudo_labels import aggregate, sample_training_pairs, top_k_labels
from weakrank.registry import SupModelSpec
from weakrank.sageops import MIN_ROWS
from weakrank.scores import ScoreMatrix, ensemble_scores
from weakrank.sup_rankers import (
    GraphAggregationRanker,
    InteractionRanker,
    RankerBackbone,
    RepresentationRanker,
    _pairwise_loss_grads,
    create_sup_model,
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
    corpus = build_corpus(docs, **LIMITS)
    table = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=0)
    return RankerBackbone(corpus, table, graph=build_graph(corpus),
                          graph_sample_size=SETTINGS.graph_sample_size, graph_seed=1)


@pytest.fixture(scope="module")
def planted_setup():
    """Clean planted corpus with a full pseudo-label pipeline ready."""
    corpus, ann = generate_synthetic(
        n_queries=12, n_candidates=150, n_topics=3, vocab_per_topic=8,
        doc_len=20, noise_rate=0.0, seed=33,
    )
    graph = build_graph(corpus)
    table = train_text_embeddings(corpus, **text_hp(dim=16, epochs=2), seed=7)
    backbone = RankerBackbone(corpus, table, graph=graph,
                              graph_sample_size=SETTINGS.graph_sample_size, graph_seed=2)
    agg = aggregate([bm25_matrix(corpus, **scorer_hp("bm25"))], [1],
                    normalize=SETTINGS.normalize_scores)
    labels = top_k_labels(agg, k=50)  # true positives per query = 50
    triples = sample_training_pairs(labels, 50, n_neg_per_pos=2, seed=5)
    lists = build_eval_lists(ann, corpus, seed=11, n_negatives=SETTINGS.eval_negatives)
    return backbone, triples, lists


def _spec(kind, **params):
    return SupModelSpec(kind, kind, params)


def _score(model, qid, cid):
    """The model's score of one pair: its full matrix at corpus positions."""
    corpus = model.backbone.corpus
    return model.score_matrix()[corpus.query_row[qid], corpus.candidate_column[cid]]


def _triples(corpus, id_triples):
    """(query row, positive column, negative column) of (query, positive,
    negative) ids."""
    q, c = corpus.query_row, corpus.candidate_column
    return np.array([(q[qid], c[pos], c[neg]) for qid, pos, neg in id_triples],
                    dtype=np.int64).reshape(-1, 3)


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
        assert _score(model, "q1", "c1") == pytest.approx(1.0)

    def test_output_in_cosine_range(self, mirror_backbone, rng):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=1)
        for qid in ("q1", "q2"):
            scores = model.score_pairs(qid, ["c1", "c2", "c3"])
            assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_scoring_is_pure(self, mirror_backbone):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=2)
        a = _score(model, "q1", "c2")
        b = _score(model, "q1", "c2")
        assert a == b

    def test_trained_beats_untrained(self, planted_setup):
        backbone, triples, lists = planted_setup
        for seed in range(3):
            model = RepresentationRanker(backbone, _spec("representation", hidden=16), seed=seed)
            before = mrr(score_lists_with_ensemble(lists, [model]))
            train_supervised(model, triples, epochs=5, lr=0.005, seed=seed, **TRAINING)
            after = mrr(score_lists_with_ensemble(lists, [model]))
            assert after > before


class TestInteraction:
    def test_identical_candidate_maximizes_exact_match_feature(self, mirror_backbone):
        model = InteractionRanker(mirror_backbone, _spec("interaction"), seed=0)
        qi = mirror_backbone.corpus.query_row["q1"]
        phi_exact = model.phi[qi, :, 0]  # exact-match kernel is bank position 0
        identical = mirror_backbone.corpus.candidate_column["c1"]
        assert phi_exact[identical] == phi_exact.max()

    def test_doubling_word_vector_leaves_similarities_unchanged(self, mirror_backbone):
        # cosine scale invariance holds on the vectors actually compared,
        # i.e. before any backbone recentering
        corpus = mirror_backbone.corpus
        table = mirror_backbone.table
        scaled = table.vectors.copy()
        scaled[table.index["alpha"]] *= 2.0
        from weakrank.embeddings import EmbeddingTable

        base = RankerBackbone(corpus, table, center=False, **GRAPH_SAMPLE)
        other = RankerBackbone(corpus, EmbeddingTable(table.ids, scaled), center=False,
                               **GRAPH_SAMPLE)
        mus = np.array([0.9, 0.5, -0.5])
        sigmas = np.array([0.1, 0.2, 0.3])
        assert np.allclose(base.phi_features(mus, sigmas),
                           other.phi_features(mus, sigmas))

    def test_reference_scorer_matches_cached_features(self, mirror_backbone):
        model = InteractionRanker(mirror_backbone, _spec("interaction"), seed=4)
        ref = _phi_reference(mirror_backbone, model.mus, model.sigmas)
        corpus = mirror_backbone.corpus
        i, j = corpus.query_row["q2"], corpus.candidate_column["c2"]
        expected = ref[i, j] @ model.w.value + model.b.value[0]
        assert expected == pytest.approx(_score(model, "q2", "c2"), rel=1e-9)

    def test_zero_norm_word_vector_contributes_zero_row(self, mirror_backbone):
        # a zero word vector has cosine 0 with every word, so it pools like
        # a word orthogonal to all the others
        from weakrank.embeddings import EmbeddingTable

        table = mirror_backbone.table
        vectors = table.vectors.copy()
        vectors[table.index["alpha"]] = 0.0
        backbone = RankerBackbone(mirror_backbone.corpus, EmbeddingTable(table.ids, vectors),
                                  center=False, **GRAPH_SAMPLE)
        mus = np.array([0.9, 0.0, -0.9])
        sigmas = np.array([0.1, 0.1, 0.1])
        got = backbone.phi_features(mus, sigmas)
        assert np.isfinite(got).all()
        assert np.max(np.abs(got - _phi_reference(backbone, mus, sigmas))) <= 1e-9


class TestGraphAggregation:
    def test_zero_layers_degenerates_to_feature_cosine(self, mirror_backbone):
        model = GraphAggregationRanker(
            mirror_backbone, _spec("graph-aggregation", n_layers=0), seed=0
        )
        _, feats, q_nodes, c_nodes = mirror_backbone.graph_inputs()
        u = feats[q_nodes[mirror_backbone.corpus.query_row["q1"]]]
        v = feats[c_nodes[mirror_backbone.corpus.candidate_column["c2"]]]
        expected = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
        assert _score(model, "q1", "c2") == pytest.approx(float(expected))

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
        s1, s2 = b1.graph_inputs()[0], b2.graph_inputs()[0]
        assert np.array_equal(s1.index, s2.index) and np.array_equal(s1.weight, s2.weight)

    def test_identical_neighborhood_identical_embedding(self):
        docs = [
            {"id": "q1", "role": "query", "text": "aa bb"},
            {"id": "c1", "role": "candidate", "text": "aa bb"},
            {"id": "c2", "role": "candidate", "text": "aa bb"},
        ]
        corpus = build_corpus(docs, **LIMITS)
        table = train_text_embeddings(corpus, **text_hp(dim=4, neg=1, epochs=1), seed=0)
        backbone = RankerBackbone(corpus, table, graph=build_graph(corpus), **GRAPH_SAMPLE)
        model = GraphAggregationRanker(backbone, _spec("graph-aggregation", hidden=4, out_dim=4),
                                       seed=1)
        Z = model._embeddings()
        _, _, _, c_nodes = backbone.graph_inputs()
        assert np.allclose(Z[c_nodes[0]], Z[c_nodes[1]])

    def test_scoring_pure_after_training(self, planted_setup):
        backbone, triples, _ = planted_setup
        model = GraphAggregationRanker(
            backbone, _spec("graph-aggregation", hidden=8, out_dim=8), seed=5
        )
        train_supervised(model, triples[:200], epochs=1, lr=0.01, seed=0, **TRAINING)
        assert _score(model, "q00", "c000") == _score(model, "q00", "c000")


class TestTrainSupervised:
    def test_objective_improves_after_first_epoch(self, planted_setup):
        backbone, triples, _ = planted_setup
        deltas = []
        for seed in range(3):
            model = InteractionRanker(backbone, _spec("interaction"), seed=seed)
            fixed = triples[:256]
            zero_grads(model.params())
            before = model.loss_and_grads(fixed)
            zero_grads(model.params())
            train_supervised(model, triples, epochs=1, lr=0.001, seed=seed, **TRAINING)
            zero_grads(model.params())
            after = model.loss_and_grads(fixed)
            zero_grads(model.params())
            deltas.append(after - before)
        assert np.mean(deltas) < 0

    def test_empty_stream_rejected(self, mirror_backbone):
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_supervised(model, np.zeros((0, 3), dtype=np.int64), epochs=1, lr=0.01,
                             seed=0, **TRAINING)

    def test_early_stopping_restores_best(self, planted_setup):
        backbone, triples, lists = planted_setup
        model = RepresentationRanker(backbone, _spec("representation", hidden=16), seed=9)
        seen = []

        def eval_fn(m):
            value = mrr(score_lists_with_ensemble(lists, [m]))
            seen.append(value)
            return value

        train_supervised(
            model, triples, epochs=6, lr=0.005, seed=1, eval_fn=eval_fn, patience=2, **TRAINING
        )
        final = mrr(score_lists_with_ensemble(lists, [model]))
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
                train_supervised(model, triples, epochs=8, lr=lr, seed=seed, **TRAINING)
                values.append(mrr(score_lists_with_ensemble(lists, [model])))
            assert min(values) >= 0.9, f"{kind}: {values}"


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _reference_pairwise_loss_grads(r_pos, r_neg):
    """The pairwise objective with one softplus and one sigmoid call per side."""
    B = len(r_pos)
    loss = float((_softplus(-r_pos) + _softplus(r_neg)).mean())
    return loss, (sigmoid(r_pos) - 1.0) / B, sigmoid(r_neg) / B


def test_pairwise_loss_shares_one_exp_bitwise():
    """One exp(-|r|) for the softplus and the sigmoid gives bitwise what the
    two separate ``log_sigmoid`` and ``sigmoid`` calls gave, on signed zeros,
    saturated scores, ties and random scores."""
    rng = np.random.default_rng(4)
    cases = [
        (np.array([0.0, -0.0, 0.0, -0.0]), np.array([0.0, 0.0, -0.0, -0.0])),
        (np.array([1e3, -1e3, 1e3, -1e3]), np.array([1e3, 1e3, -1e3, -1e3])),
        (np.full(5, 0.3), np.full(5, 0.3)),
        (rng.normal(size=32), rng.normal(size=32)),
        (rng.uniform(-1, 1, size=32), rng.uniform(-1, 1, size=32)),
    ]
    for r_pos, r_neg in cases:
        B = len(r_pos)
        sp = -log_sigmoid(np.concatenate([r_pos, -r_neg]))
        s = sigmoid(np.concatenate([r_pos, r_neg]))
        expected = (float((sp[:B] + sp[B:]).mean()), (s[:B] - 1.0) / B, s[B:] / B)
        loss, d_pos, d_neg = _pairwise_loss_grads(r_pos, r_neg)
        assert np.float64(loss).tobytes() == np.float64(expected[0]).tobytes()
        assert d_pos.tobytes() == expected[1].tobytes()
        assert d_neg.tobytes() == expected[2].tobytes()


def _reference_loss_and_grads(model, triples):
    """Per-triple string path: id lookups per triple, one cosine call per
    side, and the document means' input gradient. The representation
    ranker's candidate tower runs once over [positives; negatives], as in
    production, so the stacked GEMMs round alike. The row cosine is checked
    bitwise against its masked form in test_nncore. The graph ranker runs
    the full graph here: batches of 32 triples of this corpus touch fewer
    than ``MIN_ROWS`` nodes, so production runs it too, and batches of 64
    run production's top layer at the batch's rows."""
    b = model.backbone
    q, c = b.corpus.query_row, b.corpus.candidate_column
    qrows = [q[qid] for qid, _, _ in triples]
    prows = [c[pos] for _, pos, _ in triples]
    nrows = [c[neg] for _, _, neg in triples]
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
        yc, ccache = model._tower(b.c_means[prows + nrows], "c")
        yp, yn = yc[:len(prows)], yc[len(prows):]
    else:
        Z, caches = sup_rankers.sage_forward(model.features, model.sample, model.layers,
                                             model.M0)
        qn, pn, nn = model.q_nodes[qrows], model.c_nodes[prows], model.c_nodes[nrows]
        yq, yp, yn = Z[qn], Z[pn], Z[nn]
    r_pos, cache_p = cosine_rows_forward(yq, yp)
    r_neg, cache_n = cosine_rows_forward(yq, yn)
    loss, d_pos, d_neg = _reference_pairwise_loss_grads(r_pos, r_neg)
    dq_p, dp = cosine_rows_backward(d_pos, cache_p)
    dq_n, dn = cosine_rows_backward(d_neg, cache_n)
    if model.kind == "representation":
        for dy, (cache1, cache2) in ((dq_p + dq_n, qcache), (np.concatenate([dp, dn]), ccache)):
            dense_backward(dense_backward(dy, cache2), cache1)
        return loss
    dZ = np.zeros(Z.shape)
    scatter_add_rows(dZ, qn, dq_p + dq_n)
    scatter_add_rows(dZ, pn, dp)
    scatter_add_rows(dZ, nn, dn)
    sup_rankers.sage_backward(dZ, model.sample, caches)
    return loss


def _three_tower_loss_and_grads(model, batch):
    """The representation step as three tower passes, queries, positives and
    negatives, each with its own GEMMs and backward pass."""
    b = model.backbone
    q, p, n = batch.T
    yq, qcache = model._tower(b.q_means[q], "q")
    yp, pcache = model._tower(b.c_means[p], "c")
    yn, ncache = model._tower(b.c_means[n], "c")
    r_pos, cache_p = cosine_rows_forward(yq, yp)
    r_neg, cache_n = cosine_rows_forward(yq, yn)
    loss, d_pos, d_neg = _reference_pairwise_loss_grads(r_pos, r_neg)
    dq_p, dp = cosine_rows_backward(d_pos, cache_p)
    dq_n, dn = cosine_rows_backward(d_neg, cache_n)
    for dy, cache in ((dq_p + dq_n, qcache), (dp, pcache), (dn, ncache)):
        model._tower_backward(dy, cache)
    return loss


@pytest.mark.parametrize("zero_candidate", [False, True])
def test_stacked_candidate_tower_equals_three_towers(planted_setup, zero_candidate):
    """One candidate-tower pass over [positives; negatives] gives the loss and
    gradients of three separate tower passes, up to the rounding of the
    stacked GEMMs; with a zero-norm candidate row too (score 0, no
    gradient through it)."""
    backbone, triples, _ = planted_setup
    batch = triples[:32]
    if zero_candidate:
        backbone = copy.copy(backbone)
        backbone.c_means = backbone.c_means.copy()
        backbone.c_means[batch[0, 2]] = 0.0
    stacked, towers = (RepresentationRanker(backbone, _spec("representation", hidden=8), seed=3)
                       for _ in range(2))
    if zero_candidate:  # biases 0: a zero document mean maps to a zero output row
        for model in (stacked, towers):
            for bias in model.sides["c"][1::2]:
                bias.value[:] = 0.0
        y, _ = stacked._tower(backbone.c_means[batch[:1, 2]], "c")
        assert not y.any()
    loss = stacked.loss_and_grads(batch)
    ref_loss = _three_tower_loss_and_grads(towers, batch)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    got, ref = stacked.params().grads, towers.params().grads
    assert np.abs(ref).max() > 0
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _reference_train(model, triples, epochs, lr, seed, batch_size):
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
    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 8}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 8, "out_dim": 8}),
    ])
    def test_training_bitwise_equal_to_string_triple_reference(self, planted_setup, kind, hp):
        backbone, triples, _ = planted_setup
        triples = triples[:250]  # not a multiple of the batch size
        qids, cids = backbone.corpus.query_ids, backbone.corpus.candidate_ids
        id_triples = [(qids[q], cids[p], cids[n]) for q, p, n in triples.tolist()]
        fast, ref = (create_sup_model(_spec(kind, **hp), backbone, seed=3) for _ in range(2))
        curve = train_supervised(fast, triples, epochs=3, lr=0.01, seed=4, batch_size=32,
                                 algorithm="adam")
        ref_curve = _reference_train(ref, id_triples, epochs=3, lr=0.01, seed=4, batch_size=32)
        assert curve == ref_curve
        assert fast.params().values.tobytes() == ref.params().values.tobytes()

    def test_graph_ranker_at_rows_bitwise_equal_to_full_graph_reference(
            self, planted_setup, monkeypatch):
        """Batches of 64 triples touch at least ``MIN_ROWS`` nodes, so every
        production step runs the top layer at its batch's rows; after every
        step the weights equal, bitwise, those of the reference's step on the
        full graph."""
        backbone, triples, _ = planted_setup
        qids, cids = backbone.corpus.query_ids, backbone.corpus.candidate_ids
        hp = {"hidden": 8, "out_dim": 8}
        fast, ref = (create_sup_model(_spec("graph-aggregation", **hp), backbone, seed=3)
                     for _ in range(2))
        forward, at_rows = sup_rankers.sage_forward, []

        def recording_forward(*args, rows=None, **kwargs):
            H, caches = forward(*args, rows=rows, **kwargs)
            if rows is not None:
                at_rows.append((len(rows), caches[2]))
            return H, caches

        monkeypatch.setattr(sup_rankers, "sage_forward", recording_forward)
        batches = triples[np.random.default_rng(4).permutation(len(triples))][:640]
        fast_opt, ref_opt = OptimizerState("adam", lr=0.01), OptimizerState("adam", lr=0.01)
        for step, start in enumerate(range(0, len(batches), 64)):
            batch = batches[start:start + 64]
            zero_grads(fast.params())
            zero_grads(ref.params())
            loss = fast.loss_and_grads(batch)
            ref_loss = _reference_loss_and_grads(
                ref, [(qids[q], cids[p], cids[n]) for q, p, n in batch.tolist()])
            for model, opt in ((fast, fast_opt), (ref, ref_opt)):
                optimizer_step(model.params(), opt)
                model.after_update()
            assert loss == ref_loss, f"step {step}"
            assert fast.params().values.tobytes() == ref.params().values.tobytes(), f"step {step}"
        assert len(at_rows) == 10
        assert all(n >= MIN_ROWS and ran_at_rows for n, ran_at_rows in at_rows), at_rows

    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 4}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 4, "out_dim": 4}),
    ])
    def test_loss_gradients_vs_finite_differences(self, mirror_backbone, kind, hp):
        model = create_sup_model(_spec(kind, **hp), mirror_backbone, seed=2)
        if kind == "interaction":  # spread the weights so every kernel matters
            model.w.value[:] = np.random.default_rng(5).normal(size=model.w.value.shape)
        batch = _triples(mirror_backbone.corpus, [
            ("q1", "c1", "c2"), ("q2", "c2", "c3"), ("q1", "c3", "c2"), ("q1", "c1", "c2")])
        params = model.params()

        def fb():
            zero_grads(params)
            model.after_update()
            return model.loss_and_grads(batch)

        assert finite_difference_check(fb, params) < 1e-4


class TestEnsemble:
    def test_single_model_preserves_ranking(self, mirror_backbone):
        raw = RepresentationRanker(mirror_backbone, _spec("representation"),
                                   seed=0).score_matrix()
        ens = ensemble_scores([raw], normalize=True)
        for raw_row, ens_row in zip(raw, ens):
            assert np.array_equal(np.argsort(raw_row), np.argsort(ens_row))

    def test_identical_members_identical_ranking(self, mirror_backbone):
        m1 = RepresentationRanker(mirror_backbone, _spec("representation"), seed=7)
        m2 = RepresentationRanker(mirror_backbone, _spec("representation"), seed=7)
        single = ensemble_scores([m1.score_matrix()], normalize=True)
        double = ensemble_scores([m1.score_matrix(), m2.score_matrix()], normalize=True)
        assert np.allclose(single, double)

    def test_constant_member_contributes_half(self):
        flat = np.zeros((1, 3))
        rising = np.arange(3, dtype=float)[None, :]
        ens = ensemble_scores([flat, rising], normalize=True)[0]
        assert np.allclose(ens, (0.5 + np.array([0.0, 0.5, 1.0])) / 2)

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ensemble_scores([], normalize=True)

    def test_lists_from_another_corpus_rejected(self, mirror_backbone, planted_setup):
        _, _, lists = planted_setup
        model = RepresentationRanker(mirror_backbone, _spec("representation"), seed=0)
        with pytest.raises(ValueError, match="another corpus"):
            score_lists_with_ensemble(lists, [model])

    def test_lists_match_per_row_min_max_reference(self, planted_setup):
        """The ensemble scales each member's query row over all candidates,
        and every list is ranked from that one matrix, block by block."""
        backbone, _, lists = planted_setup
        assert len(lists) > ENSEMBLE_BLOCK and len(lists) % ENSEMBLE_BLOCK != 0

        class Constant:
            def __init__(self, backbone):
                self.backbone = backbone

            def score_matrix(self):
                corpus = backbone.corpus
                return np.full((len(corpus.query_ids), len(corpus.candidate_ids)), 3.0)

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

        cids = backbone.corpus.candidate_ids
        expected = np.array([np.mean([min_max(m.score_pairs(qid, cids)) for m in models], axis=0)
                             for qid in backbone.corpus.query_ids])
        matrices = [m.score_matrix() for m in models]
        got = ensemble_scores(matrices, normalize=True)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12
        # the constant member adds exactly 0.5 / 3 to every entry
        without = ensemble_scores(matrices[:2], normalize=True)
        assert np.allclose(got, (2 * without + 0.5) / 3, rtol=0, atol=1e-12)
        # ranked block by block, the lists get the one-shot ranks of those scores
        ranks = score_lists_with_ensemble(lists, models)
        assert ranks.tobytes() == ranks_of_positives(
            lists, got[lists.rows[:, None], lists.cols]).tobytes()

    def test_ranks_as_the_aggregate_of_its_members(self, planted_setup):
        """The rankers' ensemble is the scorers' aggregate of its members'
        matrices: one combine, bit for bit."""
        backbone, _, lists = planted_setup
        models = [RepresentationRanker(backbone, _spec("representation", hidden=8), seed=1),
                  InteractionRanker(backbone, _spec("interaction"), seed=2)]
        corpus = backbone.corpus
        members = [ScoreMatrix(m.spec.name, corpus.query_ids, corpus.candidate_ids,
                               m.score_matrix()) for m in models]
        combined = aggregate(members, [1] * len(members), normalize=True)
        assert score_lists_with_ensemble(lists, models).tobytes() == \
            score_lists_with_matrix(lists, combined).tobytes()

    def test_ranking_holds_no_list_by_candidate_score_array(self):
        """Ranking 2,560 lists of 50 candidates under a three-member ensemble
        peaks below one float64 array of their scores (1 MB): the ensemble is
        one (queries x candidates) matrix, gathered one block of lists at a
        time."""
        rng = np.random.default_rng(0)
        n_queries, n_candidates = 7, 100
        corpus = SimpleNamespace(query_ids=tuple(f"q{i}" for i in range(n_queries)),
                                 candidate_ids=tuple(f"c{j}" for j in range(n_candidates)))
        cols = np.array([rng.permutation(n_candidates)[:50] for _ in range(2560)])
        lists = EvalLists(rng.integers(0, n_queries, size=2560), cols, corpus.query_ids,
                          corpus.candidate_ids)
        models = [SimpleNamespace(backbone=SimpleNamespace(corpus=corpus),
                                  score_matrix=lambda S=rng.random((n_queries, n_candidates)): S)
                  for _ in range(3)]
        limit = cols.size * 8
        tracemalloc.start()
        try:
            ranks = score_lists_with_ensemble(lists, models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranks) == 2560
        assert peak < limit, f"traced peak {peak} B, one score array is {limit} B"


def _phi_reference(backbone, mus, sigmas):
    """Per-query kernel pooling over every token pair, repeated words included."""
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
                g = np.exp(-(S - mus[h]) ** 2 / (2.0 * sigmas[h] ** 2))
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
        corpus = build_corpus(docs, **LIMITS)
        table = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=0)
        return RankerBackbone(corpus, table, graph=build_graph(corpus), graph_sample_size=2,
                              graph_seed=1)

    @pytest.mark.parametrize("narrow", [True, False])
    @pytest.mark.parametrize("block", [sup_rankers.PHI_BLOCK, 7])
    def test_vocabulary_phi_matches_per_query_loop(self, repeat_backbone, planted_setup,
                                                   narrow, block, monkeypatch):
        monkeypatch.setattr(sup_rankers, "PHI_BLOCK", block)  # 7: a few query words a block
        mus = np.array([1.0, 0.9, 0.5, 0.0, -0.5])
        sigmas = np.array([1e-3, 0.1, 0.3, 0.5, 0.6] if narrow else [0.5, 0.6, 0.7, 0.8, 0.9])
        for backbone in (repeat_backbone, planted_setup[0]):
            got = RankerBackbone(backbone.corpus, backbone.raw_table, **GRAPH_SAMPLE).phi_features(
                mus, sigmas)
            ref = _phi_reference(backbone, mus, sigmas)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-9

    def test_phi_repeat_call_returns_cached_array(self, repeat_backbone):
        mus, sigmas = np.array([0.5]), np.array([0.2])
        first = repeat_backbone.phi_features(mus, sigmas)
        assert repeat_backbone.phi_features(mus, sigmas) is first

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
        for qid, i in backbone.corpus.query_row.items():
            for cid, j in backbone.corpus.candidate_column.items():
                if kind == "representation":
                    yq, _ = model._tower(backbone.q_means[i:i + 1], "q")
                    yc, _ = model._tower(backbone.c_means[j:j + 1], "c")
                    ref[i, j] = cosine_rows_forward(yq, yc)[0][0]
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
        train_ready = _score(model, "q1", "c2")
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(model, path, config_hash="abc")
        loaded = load_checkpoint(path, mirror_backbone, config_hash="abc")
        assert _score(loaded, "q1", "c2") == train_ready
        assert loaded.kind == kind
        arrays, meta = load_arrays(path)
        assert sorted(arrays) == sorted(p.name for p in model.params())
        assert sorted(meta) == ["config_hash", "format_version", "kind", "name", "params", "seed"]

    @pytest.mark.parametrize("kind,hp", [
        ("representation", {"hidden": 8}),
        ("interaction", {}),
        ("graph-aggregation", {"hidden": 4, "out_dim": 4}),
    ])
    def test_checkpoint_in_the_old_layout_still_loads(self, mirror_backbone, tmp_path, kind, hp):
        # checkpoints once also held Adam's state: opt.m.*/opt.v.* arrays
        # and an "optimizer" meta block; the reader skips both
        model = create_sup_model(_spec(kind, **hp), mirror_backbone, seed=6)
        triples = _triples(mirror_backbone.corpus, [("q1", "c1", "c2"), ("q2", "c2", "c3")] * 8)
        train_supervised(model, triples, epochs=2, lr=0.01, seed=0, **TRAINING)
        arrays = {p.name: p.value for p in model.params()}
        for p in model.params():
            arrays[f"opt.m.{p.name}"] = np.full(p.shape, 0.25)
            arrays[f"opt.v.{p.name}"] = np.full(p.shape, 0.5)
        path = tmp_path / "old.ckpt"
        save_arrays(path, arrays, meta={
            "format_version": 1, "kind": kind, "name": kind, "params": hp, "seed": 6,
            "config_hash": "h", "optimizer": {
                "algorithm": "adam", "lr": 0.01, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8,
                "t": 4, "moment_names": sorted(p.name for p in model.params())},
        })
        loaded = load_checkpoint(path, mirror_backbone, config_hash="h")
        assert loaded.kind == kind and loaded.seed == 6
        assert loaded.score_matrix().tobytes() == model.score_matrix().tobytes()
