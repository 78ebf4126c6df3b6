import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from defaults import LIMITS, text_hp
from oracles import skipgram_loss
from weakrank.corpus import build_corpus
from weakrank.embeddings import (
    DRAW_CHUNK,
    SEQ_BLOCK,
    CdfSampler,
    EmbeddingTable,
    SkipGramTrainer,
    cosine_matrix,
    doc_means,
    doc_vector,
    train_text_embeddings,
)
from weakrank.graph import build_graph
from weakrank.graph_embeddings import generate_walks
from weakrank.synthetic import generate_synthetic


@pytest.fixture(scope="module")
def planted():
    corpus, ann = generate_synthetic(
        n_queries=8, n_candidates=12, n_topics=3, vocab_per_topic=8,
        doc_len=20, noise_rate=0.0, seed=21,
    )
    return corpus, ann


class TestEmbeddingTable:
    def test_lookup_and_contains(self):
        table = EmbeddingTable(["aa", "bb"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert table.index == {"aa": 0, "bb": 1}
        assert np.array_equal(table.vector("bb"), [0.0, 1.0])

    def test_missing_entity_named_in_error(self):
        table = EmbeddingTable(["aa"], np.zeros((1, 3)))
        with pytest.raises(KeyError, match="zz"):
            table.vector("zz")

    def test_save_load_roundtrip(self, tmp_path):
        table = EmbeddingTable(["aa", "bb"], np.random.default_rng(0).normal(size=(2, 4)))
        path = tmp_path / "table.bin"
        table.save(path)
        loaded = EmbeddingTable.load(path)
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.vectors, table.vectors)


class TestTrainTextEmbeddings:
    def test_vector_dimension(self, planted):
        corpus, _ = planted
        table = train_text_embeddings(corpus, **text_hp(dim=16, epochs=1), seed=0)
        assert table.dim == 16
        assert table.vectors.shape == (len(corpus.vocab), 16)

    def test_deterministic_per_seed(self, planted):
        corpus, _ = planted
        t1 = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=9)
        t2 = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=9)
        assert np.array_equal(t1.vectors, t2.vectors)

    def test_topic_separation_on_planted_corpus(self, planted):
        corpus, _ = planted
        table = train_text_embeddings(corpus, **text_hp(dim=16, epochs=5), seed=4)
        by_topic = {}
        for token in corpus.vocab:
            by_topic.setdefault(token[:2], []).append(table.vector(token))

        def mean_cos(pairs):
            vals = []
            for u, v in pairs:
                vals.append(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            return float(np.mean(vals))

        same, cross = [], []
        topics = sorted(by_topic)
        for t in topics:
            vecs = by_topic[t]
            same += [(vecs[i], vecs[j]) for i in range(len(vecs)) for j in range(i + 1, len(vecs))]
        for a in range(len(topics)):
            for b in range(a + 1, len(topics)):
                cross += [(u, v) for u in by_topic[topics[a]] for v in by_topic[topics[b]]]
        assert mean_cos(same) > mean_cos(cross)

    def test_rejects_tiny_vocabulary(self):
        docs = [
            {"id": "q1", "role": "query", "text": "aa bb aa bb"},
            {"id": "c1", "role": "candidate", "text": "bb aa"},
        ]
        corpus = build_corpus(docs, **LIMITS)
        with pytest.raises(ValueError, match="neg"):
            train_text_embeddings(corpus, **text_hp(neg=5), seed=0)

    def test_rejects_single_token_document(self):
        docs = [
            {"id": "q1", "role": "query", "text": "alpha beta gamma delta epsilon zeta"},
            {"id": "c1", "role": "candidate", "text": "alpha"},
        ]
        corpus = build_corpus(docs, **LIMITS)
        with pytest.raises(ValueError, match="shorter than 2"):
            train_text_embeddings(corpus, **text_hp(), seed=0)

    def test_loss_decreases_over_first_epoch(self, planted):
        # statistical sanity across 3 seeds at default lr
        corpus, _ = planted
        sequences = [
            np.array(d.token_ids) for d in corpus.queries + corpus.candidates
        ]
        counts = np.zeros(len(corpus.vocab))
        for s in sequences:
            np.add.at(counts, s, 1.0)
        deltas = []
        for seed in range(3):
            trainer = SkipGramTrainer(len(corpus.vocab), 16, 5, 5, 0.05, seed, counts=counts)
            probe_rng = np.random.default_rng(99)
            centers = probe_rng.integers(len(corpus.vocab), size=64)
            contexts = probe_rng.integers(len(corpus.vocab), size=64)
            negs = probe_rng.integers(len(corpus.vocab), size=(64, 5))
            before = skipgram_loss(trainer, centers, contexts, negs)
            trainer.train_epoch(sequences)
            after = skipgram_loss(trainer, centers, contexts, negs)
            deltas.append(after - before)
        assert np.mean(deltas) < 0


def _sigmoid_ref(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_epoch(trainer, sequences):
    """The plain per-centre epoch: window, negative draw by ``np.searchsorted``
    on the trainer's noise table, and one SGD step, one centre at a time."""
    order = trainer.rng.permutation(len(sequences))
    w = trainer.window
    for si in order:
        seq = sequences[si]
        n = len(seq)
        for i in range(n):
            lo, hi = max(0, i - w), min(n, i + w + 1)
            n_ctx = hi - lo - 1
            if n_ctx == 0:
                continue
            contexts = np.concatenate([seq[lo:i], seq[i + 1:hi]])
            negs = np.searchsorted(trainer._noise.table, trainer.rng.random(n_ctx * trainer.neg))
            targets = np.concatenate([contexts, negs])
            labels = np.zeros(len(targets))
            labels[:n_ctx] = 1.0
            h = trainer.w_in[seq[i]]
            out_rows = trainer.w_out[targets]
            g = _sigmoid_ref(out_rows @ h) - labels
            dh = g @ out_rows
            np.add.at(trainer.w_out, targets, -trainer.lr * g[:, None] * h[None, :])
            trainer.w_in[seq[i]] -= trainer.lr * dh


def _with_singletons(sequences, rng):
    """The sequences plus a few length-1 ones, padded so the count is more
    than one block and not a multiple of SEQ_BLOCK."""
    seqs = list(sequences)
    while len(seqs) <= SEQ_BLOCK:
        seqs += list(sequences)
    seqs += [rng.integers(0, max(s.max() for s in sequences) + 1, size=1) for _ in range(5)]
    if len(seqs) % SEQ_BLOCK == 0:
        seqs.append(seqs[0][:1])
    order = rng.permutation(len(seqs))
    return [seqs[i] for i in order]


@pytest.fixture(scope="module", params=["text", "walks"])
def sequence_set(request, planted):
    corpus, _ = planted
    rng = np.random.default_rng(17)
    if request.param == "text":
        base = [np.array(d.token_ids, dtype=np.int64) for d in corpus.queries + corpus.candidates]
        vocab = len(corpus.vocab)
    else:
        graph = build_graph(corpus)
        base = generate_walks(graph, 2, 9, seed=3, p=None, q=None)
        vocab = graph.n_nodes
    seqs = _with_singletons(base, rng)
    assert len(seqs) > SEQ_BLOCK and len(seqs) % SEQ_BLOCK
    assert any(len(s) == 1 for s in seqs)
    counts = np.bincount(np.concatenate(seqs), minlength=vocab).astype(np.float64)
    return vocab, seqs, np.maximum(counts, 1e-12)


class TestBlockedEpoch:
    def test_weights_bitwise_equal_to_per_centre_loop(self, sequence_set):
        vocab, seqs, counts = sequence_set
        fast = SkipGramTrainer(vocab, 12, 3, 4, 0.05, 8, counts=counts)
        ref = SkipGramTrainer(vocab, 12, 3, 4, 0.05, 8, counts=counts)
        for _ in range(2):
            fast.train_epoch(seqs)
            _reference_epoch(ref, seqs)
        assert fast.w_in.tobytes() == ref.w_in.tobytes()
        assert fast.w_out.tobytes() == ref.w_out.tobytes()
        # the random stream stays in step, too
        assert fast.rng.random() == ref.rng.random()

    def test_weights_bitwise_equal_at_the_default_width(self, sequence_set):
        vocab, seqs, counts = sequence_set
        fast = SkipGramTrainer(vocab, 32, 5, 5, 0.05, 2, counts=counts)
        ref = SkipGramTrainer(vocab, 32, 5, 5, 0.05, 2, counts=counts)
        fast.train_epoch(seqs)
        _reference_epoch(ref, seqs)
        assert fast.w_in.tobytes() == ref.w_in.tobytes()
        assert fast.w_out.tobytes() == ref.w_out.tobytes()

    def test_epoch_peak_memory_is_bounded(self):
        """One block of 64 walks of 20 nodes over 360 nodes (dim 32, window
        5, neg 5) peaks at 4.9 MB of traced allocations. A flat scatter-index
        table for the whole block would add about 17 MB."""
        rng = np.random.default_rng(0)
        walks = [rng.integers(360, size=20) for _ in range(SEQ_BLOCK)]
        counts = np.bincount(np.concatenate(walks), minlength=360).astype(np.float64)
        trainer = SkipGramTrainer(360, 32, 5, 5, 0.05, 0, counts=counts)
        tracemalloc.start()
        try:
            trainer.train_epoch(walks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_only_singletons_leave_weights_unchanged(self):
        trainer = SkipGramTrainer(8, 4, 2, 2, 0.05, 0, counts=np.ones(8))
        w_in = trainer.w_in.copy()
        trainer.train_epoch([np.array([3]), np.array([5])])
        assert np.array_equal(trainer.w_in, w_in) and not trainer.w_out.any()


def _probe_uniforms(sampler):
    """0, every bucket edge k/M and the float just below it, every table
    value and its neighbours, and the largest uniform: all below 1."""
    edges = np.arange(1, sampler._m) / sampler._m
    table = sampler.table
    u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0),
                        table, np.nextafter(table, 0.0), np.nextafter(table, 1.0)])
    return u[u < 1.0]


_WEIGHTS = st.lists(st.integers(0, 4) | st.sampled_from([1e-12, 0.3, 2.5]),
                    min_size=1, max_size=40).filter(lambda w: sum(w) > 0)


class TestCdfSampler:
    @given(_WEIGHTS, st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30))
    @example([1, 4, 1], [])  # the table ends below 1
    @example([1, 4, 1, 1], [])  # ... by two floats, below the largest uniform
    @example([1, 6, 3, 3], [])  # the table ends above 1
    @example([1, 4, 1, 0, 0], [])  # below 1, with a zero-weight tail
    @example([1, 1, 1, 1], [])  # every table value on a bucket edge
    @example([0, 0, 3, 0, 1e-12, 1e-12, 1e-12, 0], [])  # ties and a crowded bucket
    def test_draws_equal_searchsorted_bitwise(self, weights, extra):
        w = np.array(weights, dtype=np.float64)
        sampler = CdfSampler(w)
        raw = np.cumsum(w / w.sum())
        plateau = raw == raw[-1] if raw[-1] < 1.0 else np.zeros(len(raw), dtype=bool)
        assert sampler.table[~plateau].tobytes() == raw[~plateau].tobytes()
        assert np.all(sampler.table[plateau] == 1.0)
        u = np.concatenate([_probe_uniforms(sampler), extra])
        expected = np.searchsorted(sampler.table, u)
        assert sampler.draw(u).tobytes() == expected.tobytes()
        U = np.stack([u, u[::-1]], axis=1)
        assert sampler.draw(U).tobytes() == np.searchsorted(sampler.table, U).tobytes()
        assert sampler.draw(U[:, 1]).tobytes() == expected[::-1].tobytes()
        assert np.all(w[expected[u > 0]] > 0)  # never an item without weight

    @pytest.mark.parametrize("weights, crowded", [([2, 1, 1, 3, 1], False),
                                                  ([0, 3, 0, 1e-12, 1e-12, 1e-12, 0], True)])
    def test_draws_span_passes(self, weights, crowded):
        """More uniforms than one pass takes, not a multiple of it, in a
        strided 2-D view as the proximity trainer passes them."""
        sampler = CdfSampler(weights)
        assert sampler._crowded == crowded
        U = np.random.default_rng(3).random((3, 2 * (DRAW_CHUNK // 2 + 5)))[:, ::2]
        assert U.size > DRAW_CHUNK and U.size % DRAW_CHUNK
        assert sampler.draw(U).tobytes() == np.searchsorted(sampler.table, U).tobytes()

    @pytest.mark.parametrize("counts", [[1, 5, 5], [1, 5, 5, 0]])
    def test_largest_uniform_draws_the_last_item_with_weight(self, counts):
        """The noise table of ``counts`` ends two floats below 1, so the
        largest uniform lies above its last entry: it used to draw the index
        past the end."""
        trainer = SkipGramTrainer(len(counts), 2, 1, 1, 0.05, 0, counts=np.array(counts))

        class LargestUniform:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        trainer.rng = LargestUniform()
        assert trainer._draw_negatives(3).tolist() == [2, 2, 2]

    def test_rejects_weights_without_mass(self):
        with pytest.raises(ValueError, match="positive weight"):
            CdfSampler([0.0, 0.0])


class TestDocVector:
    def _table(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        return EmbeddingTable(["aa", "bb", "cc"], vecs)

    def test_single_token(self):
        assert np.array_equal(doc_vector(self._table(), ["bb"]), [0.0, 1.0])

    def test_duplicate_tokens_same_as_one(self):
        # mean over occurrences of one distinct token equals its vector
        assert np.array_equal(doc_vector(self._table(), ["aa", "aa"]), [1.0, 0.0])

    def test_opposite_vectors_cancel(self):
        assert np.array_equal(doc_vector(self._table(), ["aa", "cc"]), [0.0, 0.0])

    def test_all_unknown_tokens_rejected(self):
        with pytest.raises(ValueError, match="no embedding"):
            doc_vector(self._table(), ["zz", "yy"])


class TestScoreMatrixFromEmbeddings:
    """The text scorer's scores: ``cosine_matrix(*doc_means(table, corpus))``."""

    def _corpus(self):
        docs = [
            {"id": "q1", "role": "query", "text": "aa aa"},
            {"id": "q2", "role": "query", "text": "bb"},
            {"id": "c1", "role": "candidate", "text": "aa"},
            {"id": "c2", "role": "candidate", "text": "bb bb"},
            {"id": "c3", "role": "candidate", "text": "cc"},
        ]
        return build_corpus(docs, **LIMITS)

    def test_cosine_values(self):
        corpus = self._corpus()
        table = EmbeddingTable(
            ["aa", "bb", "cc"], np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        )
        values = cosine_matrix(*doc_means(table, corpus))
        q1 = values[corpus.query_row["q1"]]
        c1, c2, c3 = (corpus.candidate_column[c] for c in ("c1", "c2", "c3"))
        assert q1[c1] == pytest.approx(1.0)  # identical vectors
        assert q1[c2] == pytest.approx(0.0)  # orthogonal
        assert q1[c3] == 0.0  # zero vector scores 0

    def test_scale_invariance(self):
        corpus = self._corpus()
        base = np.array([[1.0, 2.0], [0.5, -1.0], [2.0, 0.3]])
        t1 = EmbeddingTable(["aa", "bb", "cc"], base)
        scaled = base.copy()
        scaled[0] *= 3.0
        t2 = EmbeddingTable(["aa", "bb", "cc"], scaled)
        m1 = cosine_matrix(*doc_means(t1, corpus))
        m2 = cosine_matrix(*doc_means(t2, corpus))
        q1 = corpus.query_row["q1"]
        assert np.allclose(m1[q1], m2[q1])

    def test_values_within_cosine_range(self, planted):
        corpus, _ = planted
        table = train_text_embeddings(corpus, **text_hp(dim=8, epochs=1), seed=1)
        m = cosine_matrix(*doc_means(table, corpus))
        assert m.min() >= -1.0 - 1e-12
        assert m.max() <= 1.0 + 1e-12
