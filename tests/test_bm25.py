import math
from collections import Counter

import numpy as np
import pytest

from defaults import LIMITS, scorer_hp
from weakrank.bm25 import bm25_matrix
from weakrank.corpus import build_corpus
from weakrank.scores import ScoreMatrix
from weakrank.synthetic import generate_synthetic

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


def _at(matrix, corpus, qid, cid):
    return matrix.values[corpus.query_row[qid], corpus.candidate_column[cid]]


def test_matches_hand_computed_table(tiny_corpus):
    matrix = bm25_matrix(tiny_corpus, k1=1.2, b=0.75)
    for (qid, cid), expected in HAND_TABLE.items():
        assert _at(matrix, tiny_corpus, qid, cid) == pytest.approx(expected, abs=1e-9)


def test_no_shared_tokens_scores_zero(tiny_corpus):
    matrix = bm25_matrix(tiny_corpus, **scorer_hp("bm25"))
    assert _at(matrix, tiny_corpus, "q1", "c3") == 0.0


def test_duplicate_query_token_counts_twice():
    docs = [
        {"id": "qa", "role": "query", "text": "term term"},
        {"id": "qb", "role": "query", "text": "term"},
        {"id": "c1", "role": "candidate", "text": "term other words"},
        {"id": "c2", "role": "candidate", "text": "unrelated stuff"},
    ]
    corpus = build_corpus(docs, **LIMITS)
    matrix = bm25_matrix(corpus, **scorer_hp("bm25"))
    assert _at(matrix, corpus, "qa", "c1") == pytest.approx(2.0 * _at(matrix, corpus, "qb", "c1"))


def test_scores_non_negative(tiny_corpus):
    matrix = bm25_matrix(tiny_corpus, **scorer_hp("bm25"))
    assert np.all(matrix.values >= 0.0)


def test_all_candidates_share_every_token_still_finite():
    docs = [
        {"id": "q1", "role": "query", "text": "word word"},
        {"id": "c1", "role": "candidate", "text": "word"},
        {"id": "c2", "role": "candidate", "text": "word word"},
    ]
    matrix = bm25_matrix(build_corpus(docs, **LIMITS), **scorer_hp("bm25"))
    assert np.all(np.isfinite(matrix.values))
    assert np.all(matrix.values > 0)  # idf stays positive even at df == N


def test_adding_candidate_only_recomputes_idf():
    docs = [
        {"id": "q1", "role": "query", "text": "shared term"},
        {"id": "c1", "role": "candidate", "text": "shared words here"},
        {"id": "c2", "role": "candidate", "text": "other unrelated text"},
    ]
    small = build_corpus(docs, **LIMITS)
    grown = build_corpus(docs + [{"id": "c3", "role": "candidate", "text": "shared again"}],
                         **LIMITS)
    # existing candidates' term frequencies are untouched by the rebuild
    for cid in ("c1", "c2"):
        before = small.document("candidate", cid)
        after = grown.document("candidate", cid)
        assert [small.vocab[t] for t in before.token_ids] == [
            grown.vocab[t] for t in after.token_ids
        ]
    # scores change only through idf / avgdl recomputation; with b = 0 and
    # tf 1, q1's score on c1 is idf(shared): df 1 of 2 candidates, then 2 of 3
    assert _at(bm25_matrix(small, k1=1.2, b=0.0), small, "q1", "c1") == pytest.approx(
        math.log(1.0 + 1.5 / 1.5))
    assert _at(bm25_matrix(grown, k1=1.2, b=0.0), grown, "q1", "c1") == pytest.approx(
        math.log(1.0 + 1.5 / 2.5))


def test_document_frequency_counts_the_candidates_holding_a_token(tiny_corpus):
    """q1 shares only "python" (twice) with c1, where it occurs once: with
    b = 0 the score is 2 * idf(python), and python is in 2 of 3 candidates."""
    matrix = bm25_matrix(tiny_corpus, k1=1.2, b=0.0)
    assert _at(matrix, tiny_corpus, "q1", "c1") == pytest.approx(2.0 * math.log(1.6), abs=1e-12)


def _recounted_bm25(corpus, k1, b):
    """Pair by pair, with df and avgdl recounted from the candidates."""
    n = len(corpus.candidates)
    avgdl = sum(len(c.token_ids) for c in corpus.candidates) / n
    df = Counter(t for c in corpus.candidates for t in set(c.token_ids))
    values = np.zeros((len(corpus.queries), n))
    for qi, query in enumerate(corpus.queries):
        for ci, cand in enumerate(corpus.candidates):
            tf, norm = Counter(cand.token_ids), k1 * (1 - b + b * len(cand.token_ids) / avgdl)
            values[qi, ci] = sum(math.log(1 + (n - df[t] + 0.5) / (df[t] + 0.5))
                                 * tf[t] * (k1 + 1) / (tf[t] + norm)
                                 for t in query.token_ids if tf[t])
    return values


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_df_and_avgdl_match_a_recount(seed):
    corpus, _ = generate_synthetic(n_queries=5, n_candidates=12, n_topics=3, vocab_per_topic=5,
                                   doc_len=9, noise_rate=0.3, seed=seed)
    matrix = bm25_matrix(corpus, **scorer_hp("bm25"))
    assert np.allclose(matrix.values, _recounted_bm25(corpus, 1.2, 0.75), rtol=1e-12, atol=0)


def test_csv_roundtrip(tiny_corpus, tmp_path):
    matrix = bm25_matrix(tiny_corpus, **scorer_hp("bm25"))
    path = tmp_path / "bm25.csv"
    matrix.save_csv(path)
    loaded = ScoreMatrix.load_csv(path, model_name="bm25")
    assert loaded.query_ids == matrix.query_ids
    assert loaded.candidate_ids == matrix.candidate_ids
    assert np.array_equal(loaded.values, matrix.values)


def test_a_malformed_csv_cell_names_its_file_and_query(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text(",c1,c2\nq1,0.5,1.0\nq2,abc,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        ScoreMatrix.load_csv(path)
    assert str(err.value) == (f"{path}: row for query 'q2': "
                              "could not convert string to float: 'abc'")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_a_non_finite_csv_cell_names_its_file_and_query(tmp_path, cell):
    path = tmp_path / "ext.csv"
    path.write_text(f",c1,c2\nq1,0.5,1.0\nq2,0.25,{cell}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        ScoreMatrix.load_csv(path)
    assert str(err.value) == f"{path}: row for query 'q2': non-finite score {cell!r}"


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
    matrix = bm25_matrix(tiny_corpus, **scorer_hp("bm25"))
    path = tmp_path / "bm25.bin"
    matrix.save_cache(path)
    loaded = ScoreMatrix.load_cache(path)
    assert np.array_equal(loaded.values, matrix.values)
    assert loaded.model_name == "bm25"
