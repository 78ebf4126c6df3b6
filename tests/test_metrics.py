import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakrank.corpus import AnnotationSet
from weakrank.metrics import (
    EvalList,
    all_metrics,
    build_eval_lists,
    hr_at_k,
    mrr,
    ndcg_at_k,
    rank_of_positive,
    ranks_of_positives,
    score_lists_with_matrix,
)
from weakrank.scores import ScoreMatrix
from weakrank.synthetic import generate_synthetic


def oracle_rank(eval_list, scores):
    """Independent full-sort oracle: descending score, ties by id ascending."""
    ids = eval_list.candidate_ids
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return order.index(0) + 1


def _list_with_rank(rank, n=100):
    """Scores placing the positive at exactly the given rank."""
    el = EvalList("q", "pos", tuple(f"neg{i:03d}" for i in range(n - 1)))
    neg = np.sort(np.linspace(0.0, 1.0, n - 1))[::-1]  # distinct, descending
    if rank == 1:
        pos = neg[0] + 1.0
    elif rank <= n - 1:
        pos = (neg[rank - 2] + neg[rank - 1]) / 2.0
    else:
        pos = neg[-1] - 1.0
    return el, np.concatenate([[pos], neg])


class TestRank:
    def test_rank_one(self):
        el, scores = _list_with_rank(1)
        assert rank_of_positive(el, scores) == 1

    def test_intermediate_ranks(self):
        for rank in (2, 3, 7, 50, 100):
            el, scores = _list_with_rank(rank)
            assert rank_of_positive(el, scores) == rank

    def test_tie_resolved_by_id(self):
        el = EvalList("q", "m", ("a", "z"))
        scores = np.array([0.5, 0.5, 0.5])
        # ids sorted: a < m < z, all tied, so positive "m" ranks 2nd
        assert rank_of_positive(el, scores) == 2

    def test_matches_oracle_on_random_lists_with_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            el = EvalList("q", "p000", tuple(f"n{i:03d}" for i in range(n)))
            scores = np.round(rng.random(n + 1) * 5) / 5  # heavy ties
            assert rank_of_positive(el, scores) == oracle_rank(el, scores)


    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12),
           st.integers(1, 4))
    def test_batched_ranks_match_oracle_with_forced_ties(self, seed, n_lists, n_neg, levels):
        rng = np.random.default_rng(seed)
        lists = []
        for i in range(n_lists):
            ids = [str(x) for x in rng.permutation([f"c{j:02d}" for j in range(n_neg + 1)])]
            lists.append(EvalList(f"q{i}", ids[0], tuple(ids[1:])))
        # few score levels: most lists tie the positive with some negatives
        scores = rng.integers(0, levels, size=(n_lists, n_neg + 1)) / levels
        ranks = ranks_of_positives(lists, scores)
        assert ranks.tolist() == [oracle_rank(el, s) for el, s in zip(lists, scores)]
        assert [rank_of_positive(el, s) for el, s in zip(lists, scores)] == ranks.tolist()

    def test_batched_ranks_reject_wrong_width(self):
        el = EvalList("q", "p", ("a", "b"))
        with pytest.raises(ValueError, match="got 2 scores for 3 candidates"):
            ranks_of_positives([el], np.zeros((1, 2)))


class TestMetrics:
    def test_hr_counts_top_k(self):
        el3, s3 = _list_with_rank(3)
        el7, s7 = _list_with_rank(7)
        assert hr_at_k([el3], [s3], k=5) == 1.0
        assert hr_at_k([el7], [s7], k=5) == 0.0

    def test_ndcg_closed_forms(self):
        el1, s1 = _list_with_rank(1)
        el3, s3 = _list_with_rank(3)
        el6, s6 = _list_with_rank(6)
        assert ndcg_at_k([el1], [s1], k=5) == pytest.approx(1.0)
        assert ndcg_at_k([el3], [s3], k=5) == pytest.approx(0.5)
        assert ndcg_at_k([el6], [s6], k=5) == 0.0

    def test_mrr_values(self):
        el1, s1 = _list_with_rank(1)
        assert mrr([el1], [s1]) == pytest.approx(1.0)
        el2, s2 = _list_with_rank(2)
        el4, s4 = _list_with_rank(4)
        assert mrr([el2, el4], [s2, s4]) == pytest.approx(0.375)

    def test_random_scores_hr5_near_five_percent(self, rng):
        el = EvalList("q", "p", tuple(f"n{i:03d}" for i in range(99)))
        hits = 0
        trials = 10_000
        for _ in range(trials):
            scores = rng.random(100)
            hits += rank_of_positive(el, scores) <= 5
        assert hits / trials == pytest.approx(0.05, abs=0.01)

    def test_metrics_in_unit_interval(self, rng):
        lists, scores = [], []
        for i in range(20):
            el = EvalList(f"q{i}", "p", tuple(f"n{j:02d}" for j in range(9)))
            lists.append(el)
            scores.append(rng.random(10))
        m = all_metrics(lists, scores)
        for key in ("hr@5", "ndcg@5", "mrr"):
            assert 0.0 <= m[key] <= 1.0

    def test_hr_monotone_in_k(self, rng):
        lists, scores = [], []
        for i in range(30):
            el = EvalList(f"q{i}", "p", tuple(f"n{j:02d}" for j in range(19)))
            lists.append(el)
            scores.append(rng.random(20))
        values = [hr_at_k(lists, scores, k=k) for k in range(1, 21)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_strictly_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        lists, scores = [], []
        for i in range(5):
            el = EvalList(f"q{i}", "p", tuple(f"n{j:02d}" for j in range(9)))
            lists.append(el)
            scores.append(rng.random(10))
        base = all_metrics(lists, scores)
        for transform in (lambda x: 3.0 * x + 2.0, np.exp, lambda x: x**3):
            mapped = [transform(s) for s in scores]
            assert all_metrics(lists, mapped) == base


class TestBuildEvalLists:
    def _setup(self):
        # 150 candidates over 3 topics: 50 positives, 100 eligible negatives
        corpus, ann = generate_synthetic(
            n_queries=6, n_candidates=150, n_topics=3, vocab_per_topic=8,
            doc_len=15, noise_rate=0.0, seed=3,
        )
        return corpus, ann

    def test_one_list_per_positive_pair(self):
        corpus, ann = self._setup()
        lists = build_eval_lists(ann, corpus, seed=0)
        n_positives = sum(1 for _, _, y in ann.pairs if y == 1)
        assert len(lists) == n_positives
        for el in lists:
            assert len(el.candidate_ids) == 100

    def test_deterministic(self):
        corpus, ann = self._setup()
        l1 = build_eval_lists(ann, corpus, seed=5)
        l2 = build_eval_lists(ann, corpus, seed=5)
        assert l1 == l2

    def test_other_positives_never_negatives(self):
        corpus, ann = self._setup()
        pos_by_query = {}
        for q, c, y in ann.pairs:
            if y == 1:
                pos_by_query.setdefault(q, set()).add(c)
        for el in build_eval_lists(ann, corpus, seed=1):
            assert not (set(el.negative_ids) & pos_by_query[el.query_id])

    def test_insufficient_negatives_rejected(self):
        corpus, ann = generate_synthetic(4, 40, 2, 8, 15, 0.0, seed=2)
        with pytest.raises(ValueError, match="eligible negatives"):
            build_eval_lists(ann, corpus, seed=0)  # only 20 non-positives per query

    def test_equal_to_per_candidate_filter_reference(self):
        corpus, ann = self._setup()
        rng = np.random.default_rng(7)
        all_cands = np.array(corpus.candidate_ids)
        pos_by_query = {}
        for q, c, y in ann.pairs:
            if y == 1:
                pos_by_query.setdefault(q, []).append(c)
        expected = []
        for qid in ann.query_ids:
            pos_set = set(pos_by_query[qid])
            eligible = all_cands[[c not in pos_set for c in all_cands]]
            for pos in pos_by_query[qid]:
                draw = rng.choice(len(eligible), size=30, replace=False)
                expected.append(EvalList(qid, pos, tuple(eligible[np.sort(draw)])))
        lists = build_eval_lists(ann, corpus, seed=7, n_negatives=30)
        assert lists == expected
        assert all(type(c) is str for el in lists for c in el.negative_ids)

    def test_positive_not_in_negatives(self):
        with pytest.raises(ValueError, match="among negatives"):
            EvalList("q", "c1", ("c1", "c2"))


def test_score_lists_with_matrix(rng):
    qids = ("q0", "q1")
    cids = tuple(f"c{i}" for i in range(6))
    matrix = ScoreMatrix("m", qids, cids, rng.random((2, 6)))
    el = EvalList("q1", "c3", ("c0", "c5"))
    (scores,) = score_lists_with_matrix([el], matrix)
    assert scores[0] == matrix.score("q1", "c3")
    assert scores[1] == matrix.score("q1", "c0")
    assert scores[2] == matrix.score("q1", "c5")
