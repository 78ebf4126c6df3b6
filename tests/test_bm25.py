import numpy as np
import pytest

from weakrank.bm25 import bm25_matrix
from weakrank.corpus import build_corpus
from weakrank.scores import ScoreMatrix

# Hand evaluation of the scoring formula on the tiny_corpus fixture
# (k1=1.2, b=0.75, avgdl=13/3, candidate-side df):
#   idf(python)=ln(1.6), idf(machine)=idf(learning)=ln(8/3), idf(pasta)=ln(6)
# Worked per-term and frozen here; the implementation must match to 1e-9.
HAND_TABLE = {
    ("q1", "c1"): 0.9705490105724217,
    ("q1", "c2"): 3.0596483610460075,
    ("q1", "c3"): 0.0,
    ("q2", "c1"): 0.0,
    ("q2", "c2"): 0.0,
    ("q2", "c3"): 1.1220686654454148,
}


def test_matches_hand_computed_table(tiny_corpus):
    matrix = bm25_matrix(tiny_corpus)
    for (qid, cid), expected in HAND_TABLE.items():
        assert matrix.score(qid, cid) == pytest.approx(expected, abs=1e-9)


def test_no_shared_tokens_scores_zero(tiny_corpus):
    matrix = bm25_matrix(tiny_corpus)
    assert matrix.score("q1", "c3") == 0.0


def test_duplicate_query_token_counts_twice():
    docs = [
        {"id": "qa", "role": "query", "text": "term term"},
        {"id": "qb", "role": "query", "text": "term"},
        {"id": "c1", "role": "candidate", "text": "term other words"},
        {"id": "c2", "role": "candidate", "text": "unrelated stuff"},
    ]
    matrix = bm25_matrix(build_corpus(docs))
    assert matrix.score("qa", "c1") == pytest.approx(2.0 * matrix.score("qb", "c1"))


def test_scores_non_negative(tiny_corpus):
    matrix = bm25_matrix(tiny_corpus)
    assert np.all(matrix.values >= 0.0)


def test_all_candidates_share_every_token_still_finite():
    docs = [
        {"id": "q1", "role": "query", "text": "word word"},
        {"id": "c1", "role": "candidate", "text": "word"},
        {"id": "c2", "role": "candidate", "text": "word word"},
    ]
    matrix = bm25_matrix(build_corpus(docs))
    assert np.all(np.isfinite(matrix.values))
    assert np.all(matrix.values > 0)  # idf stays positive even at df == N


def test_adding_candidate_only_recomputes_idf():
    docs = [
        {"id": "q1", "role": "query", "text": "shared term"},
        {"id": "c1", "role": "candidate", "text": "shared words here"},
        {"id": "c2", "role": "candidate", "text": "other unrelated text"},
    ]
    small = build_corpus(docs)
    grown = build_corpus(docs + [{"id": "c3", "role": "candidate", "text": "shared again"}])
    # existing candidates' term frequencies are untouched by the rebuild
    for cid in ("c1", "c2"):
        before = small.document("candidate", cid)
        after = grown.document("candidate", cid)
        assert [small.vocab[t] for t in before.token_ids] == [
            grown.vocab[t] for t in after.token_ids
        ]
    # scores change only through idf / avgdl recomputation, which both use
    tid = grown.id_of_token["shared"]
    assert grown.df["candidate"][tid] == 2 and small.df["candidate"][small.id_of_token["shared"]] == 1


def test_csv_roundtrip(tiny_corpus, tmp_path):
    matrix = bm25_matrix(tiny_corpus)
    path = tmp_path / "bm25.csv"
    matrix.save_csv(path)
    loaded = ScoreMatrix.load_csv(path, model_name="bm25")
    assert loaded.query_ids == matrix.query_ids
    assert loaded.candidate_ids == matrix.candidate_ids
    assert np.array_equal(loaded.values, matrix.values)


def test_csv_bytes_match_the_per_value_repr(tmp_path):
    """Rows are written from ``tolist()``; each value keeps the bytes of
    ``repr(float(v))``, the per-value form, on signed zero, the smallest
    subnormal, a huge value and an inexact sum."""
    values = np.array([[-0.0, 5e-324, 1e300], [0.1 + 0.2, 1.0, -2.5e-8]])
    matrix = ScoreMatrix("m", ("q1", "q2"), ("c1", "c2", "c3"), values)
    path = tmp_path / "m.csv"
    matrix.save_csv(path)
    expected = ",c1,c2,c3\n" + "".join(
        qid + "," + ",".join(repr(float(v)) for v in row) + "\n"
        for qid, row in zip(matrix.query_ids, values)
    )
    assert path.read_bytes() == expected.encode("utf-8")
    assert "-0.0,5e-324,1e+300" in expected and "0.30000000000000004" in expected
    assert ScoreMatrix.load_csv(path).values.tobytes() == values.tobytes()


def test_cache_roundtrip(tiny_corpus, tmp_path):
    matrix = bm25_matrix(tiny_corpus)
    path = tmp_path / "bm25.bin"
    matrix.save_cache(path)
    loaded = ScoreMatrix.load_cache(path)
    assert np.array_equal(loaded.values, matrix.values)
    assert loaded.model_name == "bm25"
