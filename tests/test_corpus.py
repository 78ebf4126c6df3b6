import pytest
from hypothesis import given
from hypothesis import strategies as st

from defaults import LIMITS
from weakrank import corpus as corpus_module
from weakrank.corpus import (
    AnnotationSet,
    Corpus,
    build_corpus,
    load_annotations_tsv,
    load_documents_jsonl,
    save_annotations_tsv,
    save_documents_jsonl,
    split_annotations,
    tokenize,
)
from weakrank.ioutil import stable_hash
from weakrank.synthetic import generate_synthetic


class TestTokenize:
    def test_basic_rule(self):
        assert tokenize("Machine Learning, 101!") == ["machine", "learning", "101"]

    def test_short_tokens_dropped(self):
        assert tokenize("a b") == []

    def test_case_folding_preserves_duplicates(self):
        assert tokenize("SQL sql") == ["sql", "sql"]

    def test_empty(self):
        assert tokenize("") == []

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=200))
    def test_all_tokens_valid(self, text):
        for tok in tokenize(text):
            assert len(tok) >= 2
            assert tok == tok.lower()
            assert tok.isalnum()


class TestBuildCorpus:
    def test_vocab_counts_distinct_tokens(self):
        docs = [
            {"id": "q1", "role": "query", "text": "alpha beta"},
            {"id": "q2", "role": "query", "text": "gamma delta"},
            {"id": "c1", "role": "candidate", "text": "epsilon zeta"},
            {"id": "c2", "role": "candidate", "text": "eta theta"},
            {"id": "c3", "role": "candidate", "text": "iota kappa"},
        ]
        corpus = build_corpus(docs, **LIMITS)
        assert len(corpus.vocab) == 10

    def test_truncation(self):
        text = " ".join(f"tok{i:03d}" for i in range(200))
        docs = [
            {"id": "q1", "role": "query", "text": text},
            {"id": "c1", "role": "candidate", "text": "filler words here"},
        ]
        corpus = build_corpus(docs, max_query_len=100,
                              max_candidate_len=LIMITS["max_candidate_len"])
        assert len(corpus.document("query", "q1").token_ids) == 100
        # vocabulary covers retained tokens only
        assert "tok150" not in corpus.id_of_token

    def test_rejects_empty_document(self):
        docs = [
            {"id": "q1", "role": "query", "text": "a b"},
            {"id": "c1", "role": "candidate", "text": "real words"},
        ]
        with pytest.raises(ValueError, match="empty"):
            build_corpus(docs, **LIMITS)

    def test_rejects_duplicate_id(self):
        docs = [
            {"id": "q1", "role": "query", "text": "alpha beta"},
            {"id": "q1", "role": "query", "text": "gamma delta"},
            {"id": "c1", "role": "candidate", "text": "epsilon"},
        ]
        with pytest.raises(ValueError, match="duplicate"):
            build_corpus(docs, **LIMITS)

    def test_retokenizing_stored_text_reproduces_tokens(self, tiny_corpus):
        for doc in tiny_corpus.queries + tiny_corpus.candidates:
            assert tokenize(doc.text)[:200] == tiny_corpus.tokens(doc)

    def test_roundtrip_via_dict(self, tiny_corpus):
        clone = Corpus.from_dict(tiny_corpus.to_dict())
        assert clone.content_hash() == tiny_corpus.content_hash()

    def test_save_load(self, tiny_corpus, tmp_path):
        path = tmp_path / "corpus.json"
        tiny_corpus.save(path)
        assert Corpus.load(path).content_hash() == tiny_corpus.content_hash()

    def test_content_hash_is_computed_once(self, tiny_corpus, monkeypatch):
        corpus = Corpus.from_dict(tiny_corpus.to_dict())
        first = corpus.content_hash()
        assert first == stable_hash(corpus.to_dict())
        calls = []
        monkeypatch.setattr(corpus_module, "stable_hash", lambda data: calls.append(data))
        assert corpus.content_hash() == first
        assert calls == []


class TestAnnotations:
    def _ann(self, n_queries, positives_per_query=1):
        pairs = []
        for i in range(n_queries):
            for j in range(positives_per_query):
                pairs.append((f"q{i}", f"c{i}_{j}", 1))
        return AnnotationSet(tuple(pairs), "all")

    def test_split_200_queries_is_100_100(self):
        val, test = split_annotations(self._ann(200), seed=7)
        assert len(val.query_ids) == 100
        assert len(test.query_ids) == 100

    def test_split_deterministic(self):
        a1 = split_annotations(self._ann(50), seed=3)
        a2 = split_annotations(self._ann(50), seed=3)
        assert a1[0].pairs == a2[0].pairs and a1[1].pairs == a2[1].pairs

    def test_split_three_queries_larger_half_validation(self):
        val, test = split_annotations(self._ann(3), seed=0)
        assert len(val.query_ids) == 2
        assert len(test.query_ids) == 1

    def test_split_keeps_query_pairs_together(self):
        val, test = split_annotations(self._ann(20, positives_per_query=3), seed=1)
        assert set(q for q, _, _ in val.pairs).isdisjoint(q for q, _, _ in test.pairs)

    def test_split_rejects_query_without_positive(self):
        pairs = (("q0", "c0", 1), ("q1", "c1", 0))
        with pytest.raises(ValueError, match="without a positive"):
            split_annotations(AnnotationSet(pairs, "all"), seed=0)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AnnotationSet((("q0", "c0", 1), ("q0", "c0", 0)), "all")

    def test_tsv_roundtrip(self, tmp_path):
        ann = self._ann(5)
        path = tmp_path / "ann.tsv"
        save_annotations_tsv(path, ann)
        assert load_annotations_tsv(path).pairs == ann.pairs

    def test_a_malformed_label_names_its_line_and_pair(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("q1\tc1\t1\nq1\tc2\tyes\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_annotations_tsv(path)
        assert str(err.value) == f"{path}:2: label of ('q1', 'c2') must be 0 or 1, not 'yes'"

    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_an_integer_label_out_of_range_names_its_line_and_pair(self, tmp_path, label):
        path = tmp_path / "ann.tsv"
        path.write_text(f"q1\tc1\t1\nq1\tc2\t{label}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_annotations_tsv(path)
        assert str(err.value) == f"{path}:2: label of ('q1', 'c2') must be 0 or 1, not {label!r}"

    @pytest.mark.parametrize("line,message", [
        ('{"id": q2}', "not valid JSON: Expecting value: line 1 column 8 (char 7)"),
        ('["q2", "query", "text"]', "expected a JSON object with id, role and text"),
        ("7", "expected a JSON object with id, role and text"),
    ])
    def test_a_malformed_documents_line_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "q1", "role": "query", "text": "alpha"}\n' + line + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_documents_jsonl(path)
        assert str(err.value) == f"{path}:2: {message}"

    def test_jsonl_roundtrip(self, tmp_path):
        docs = [
            {"id": "q1", "role": "query", "text": "alpha beta"},
            {"id": "c1", "role": "candidate", "text": "gamma delta"},
        ]
        path = tmp_path / "docs.jsonl"
        save_documents_jsonl(path, docs)
        assert load_documents_jsonl(path) == docs


class TestSynthetic:
    def test_deterministic_per_seed(self):
        c1, a1 = generate_synthetic(6, 9, 3, 10, 20, 0.2, seed=11)
        c2, a2 = generate_synthetic(6, 9, 3, 10, 20, 0.2, seed=11)
        assert c1.content_hash() == c2.content_hash()
        assert a1.pairs == a2.pairs

    def test_different_seed_changes_topics(self):
        _, a1 = generate_synthetic(10, 15, 3, 10, 20, 0.0, seed=1)
        _, a2 = generate_synthetic(10, 15, 3, 10, 20, 0.0, seed=2)
        assert a1.pairs != a2.pairs

    def test_zero_noise_means_disjoint_topic_tokens(self):
        corpus, ann = generate_synthetic(4, 6, 2, 8, 15, 0.0, seed=5)
        positives = {(q, c) for q, c, y in ann.pairs if y == 1}
        for q in corpus.queries:
            for c in corpus.candidates:
                shared = set(corpus.tokens(q)) & set(corpus.tokens(c))
                if (q.id, c.id) not in positives:
                    assert shared == set()
                else:
                    assert shared != set()

    def test_positive_count_matches_topic_size(self):
        corpus, ann = generate_synthetic(6, 12, 3, 10, 20, 0.1, seed=9)
        by_query = {}
        for q, c, y in ann.pairs:
            by_query.setdefault(q, []).append(c)
        counts = sorted(len(v) for v in by_query.values())
        assert counts == [4] * 6  # 12 candidates over 3 balanced topics

    def test_rejects_too_noisy(self):
        with pytest.raises(ValueError, match="topic-token"):
            generate_synthetic(4, 6, 2, 10, 4, 0.5, seed=0)
