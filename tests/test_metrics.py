import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import weakrank.metrics as metrics
from defaults import SETTINGS
from oracles import eval_lists_per_list
from weakrank.corpus import AnnotationSet
from weakrank.metrics import (
    ENSEMBLE_BLOCK,
    EvalLists,
    all_metrics,
    build_eval_lists,
    check_eval_lists,
    mrr,
    rank_lists,
    ranks_of_positives,
    score_lists_with_matrix,
)
from weakrank.scores import ScoreMatrix
from weakrank.synthetic import generate_synthetic


def make_lists(id_lists):
    """EvalLists ranking each entry of ``id_lists`` (candidate ids, the
    positive first) for its own query. Columns run against id order, so a
    tie-break on columns instead of ids shows."""
    universe = tuple(sorted({c for ids in id_lists for c in ids}, reverse=True))
    column = {c: j for j, c in enumerate(universe)}
    cols = np.array([[column[c] for c in ids] for ids in id_lists], dtype=np.int64)
    return EvalLists(np.arange(len(id_lists)), cols.reshape(len(id_lists), -1),
                     tuple(f"q{i}" for i in range(len(id_lists))), universe)


def ids_of(lists, r):
    """List ``r``'s candidate ids, the positive first."""
    return [lists.candidate_ids[j] for j in lists.cols[r]]


def oracle_rank(ids, scores):
    """Independent full-sort oracle: descending score, ties by id ascending."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return order.index(0) + 1


def rank_of(ids, scores):
    """The batched rank of one list's positive."""
    return int(ranks_of_positives(make_lists([ids]), np.asarray(scores)[None])[0])


def _list_with_rank(rank, n=100):
    """Scores placing the positive at exactly the given rank."""
    el = ["pos"] + [f"neg{i:03d}" for i in range(n - 1)]
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
        assert rank_of(el, scores) == 1

    def test_intermediate_ranks(self):
        for rank in (2, 3, 7, 50, 100):
            el, scores = _list_with_rank(rank)
            assert rank_of(el, scores) == rank

    def test_tie_resolved_by_id(self):
        scores = np.array([0.5, 0.5, 0.5])
        # ids sorted: a < m < z, all tied, so positive "m" ranks 2nd
        assert rank_of(["m", "a", "z"], scores) == 2
        assert rank_of(["a", "m", "z"], scores) == 1
        assert rank_of(["z", "a", "m"], scores) == 3

    def test_matches_oracle_on_random_lists_with_ties(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            el = ["p000"] + [f"n{i:03d}" for i in range(n)]
            scores = np.round(rng.random(n + 1) * 5) / 5  # heavy ties
            assert rank_of(el, scores) == oracle_rank(el, scores)


    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 12),
           st.integers(1, 4))
    def test_batched_ranks_match_oracle_with_forced_ties(self, seed, n_lists, n_neg, levels):
        rng = np.random.default_rng(seed)
        id_lists = [[str(x) for x in rng.permutation([f"c{j:02d}" for j in range(n_neg + 1)])]
                    for _ in range(n_lists)]
        lists = make_lists(id_lists)
        # few score levels: most lists tie the positive with some negatives
        scores = rng.integers(0, levels, size=(n_lists, n_neg + 1)) / levels
        ranks = ranks_of_positives(lists, scores)
        assert ranks.tolist() == [oracle_rank(ids, s) for ids, s in zip(id_lists, scores)]
        assert [rank_of(ids, s) for ids, s in zip(id_lists, scores)] == ranks.tolist()

    def test_batched_ranks_reject_wrong_width(self):
        with pytest.raises(ValueError, match="got 2 scores for 3 candidates"):
            ranks_of_positives(make_lists([["p", "a", "b"]]), np.zeros((1, 2)))


class TestMetrics:
    def test_hr_counts_top_k(self):
        el3, s3 = _list_with_rank(3)
        el7, s7 = _list_with_rank(7)
        assert all_metrics(ranks_of_positives(make_lists([el3]), [s3]), k=5)["hr@5"] == 1.0
        assert all_metrics(ranks_of_positives(make_lists([el7]), [s7]), k=5)["hr@5"] == 0.0

    def test_ndcg_closed_forms(self):
        el1, s1 = _list_with_rank(1)
        el3, s3 = _list_with_rank(3)
        el6, s6 = _list_with_rank(6)
        for el, s, ndcg in ((el1, s1, 1.0), (el3, s3, 0.5), (el6, s6, 0.0)):
            ranks = ranks_of_positives(make_lists([el]), [s])
            assert all_metrics(ranks, k=5)["ndcg@5"] == pytest.approx(ndcg)

    def test_mrr_values(self):
        el1, s1 = _list_with_rank(1)
        assert mrr(ranks_of_positives(make_lists([el1]), [s1])) == pytest.approx(1.0)
        el2, s2 = _list_with_rank(2)
        el4, s4 = _list_with_rank(4)
        assert mrr(ranks_of_positives(make_lists([el2, el4]), [s2, s4])) == pytest.approx(0.375)

    def test_random_scores_hr5_near_five_percent(self, rng):
        trials = 10_000
        lists = make_lists([["p"] + [f"n{i:03d}" for i in range(99)]] * trials)
        hits = ranks_of_positives(lists, rng.random((trials, 100))) <= 5
        assert hits.mean() == pytest.approx(0.05, abs=0.01)

    def test_metrics_in_unit_interval(self, rng):
        lists = make_lists([["p"] + [f"n{j:02d}" for j in range(9)]] * 20)
        m = all_metrics(ranks_of_positives(lists, rng.random((20, 10))))
        for key in ("hr@5", "ndcg@5", "mrr"):
            assert 0.0 <= m[key] <= 1.0

    def test_hr_monotone_in_k(self, rng):
        lists = make_lists([["p"] + [f"n{j:02d}" for j in range(19)]] * 30)
        scores = rng.random((30, 20))
        ranks = ranks_of_positives(lists, scores)
        values = [all_metrics(ranks, k=k)[f"hr@{k}"] for k in range(1, 21)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_strictly_increasing_transform(self, seed):
        rng = np.random.default_rng(seed)
        lists = make_lists([["p"] + [f"n{j:02d}" for j in range(9)]] * 5)
        scores = list(rng.random((5, 10)))
        base = all_metrics(ranks_of_positives(lists, scores))
        for transform in (lambda x: 3.0 * x + 2.0, np.exp, lambda x: x**3):
            mapped = [transform(s) for s in scores]
            assert all_metrics(ranks_of_positives(lists, mapped)) == base


@functools.lru_cache(maxsize=None)
def _planted(n_candidates=150, seed=3):
    # 150 candidates over 3 topics: 50 positives, 100 eligible negatives
    return generate_synthetic(
        n_queries=6, n_candidates=n_candidates, n_topics=3, vocab_per_topic=8,
        doc_len=15, noise_rate=0.0, seed=seed,
    )


def _positives_by_query(ann):
    out = {}
    for q, c, y in ann.pairs:
        if y == 1:
            out.setdefault(q, []).append(c)
    return out


class TestBuildEvalLists:
    def _setup(self):
        return _planted()

    def test_one_list_per_positive_pair(self):
        corpus, ann = self._setup()
        lists = build_eval_lists(ann, corpus, seed=0, n_negatives=SETTINGS.eval_negatives)
        n_positives = sum(1 for _, _, y in ann.pairs if y == 1)
        assert len(lists) == n_positives
        assert lists.rows.shape == (n_positives,)
        assert lists.cols.shape == (n_positives, 1 + SETTINGS.eval_negatives)
        assert lists.rows.dtype == lists.cols.dtype == np.int64
        assert lists.query_ids is corpus.query_ids
        assert lists.candidate_ids is corpus.candidate_ids

    def test_deterministic(self):
        corpus, ann = self._setup()
        l1, l2 = (build_eval_lists(ann, corpus, seed=5, n_negatives=SETTINGS.eval_negatives)
                  for _ in range(2))
        assert np.array_equal(l1.rows, l2.rows) and np.array_equal(l1.cols, l2.cols)

    def test_other_positives_never_negatives(self):
        corpus, ann = self._setup()
        pos_by_query = _positives_by_query(ann)
        lists = build_eval_lists(ann, corpus, seed=1, n_negatives=SETTINGS.eval_negatives)
        for r in range(len(lists)):
            negatives = ids_of(lists, r)[1:]
            assert not set(negatives) & set(pos_by_query[corpus.query_ids[lists.rows[r]]])

    def test_insufficient_negatives_rejected(self):
        corpus, ann = generate_synthetic(4, 40, 2, 8, 15, 0.0, seed=2)
        with pytest.raises(ValueError, match="eligible negatives"):
            build_eval_lists(ann, corpus, seed=0, n_negatives=21)  # only 20 non-positives

    @pytest.mark.parametrize("first_bad", ["no positive", "too few negatives"])
    def test_check_raises_the_first_failing_querys_error(self, first_bad):
        """``check_eval_lists`` counts instead of building arrays, yet raises
        ``build_eval_lists``'s error for the first failing query, word for
        word, whichever kind of failure comes first."""
        corpus, _ = generate_synthetic(4, 40, 2, 8, 15, 0.0, seed=2)
        q, c = corpus.query_ids, corpus.candidate_ids
        no_positive = [(q[1], c[0], 0)]
        too_few = [(q[2], cid, 1) for cid in c[:25]]  # 15 eligible negatives
        bad = [no_positive, too_few] if first_bad == "no positive" else [too_few, no_positive]
        ann = AnnotationSet(tuple([(q[0], c[0], 1)] + bad[0] + bad[1]), "all")
        expected = {"no positive": f"annotated query {q[1]!r} has no positive candidate",
                    "too few negatives": f"query {q[2]!r} has only 15 eligible negatives, "
                                         "needs 16"}[first_bad]
        for run in (lambda: check_eval_lists(ann, corpus, n_negatives=16),
                    lambda: build_eval_lists(ann, corpus, seed=0, n_negatives=16)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == expected

    def test_unknown_annotated_id_rejected(self):
        corpus, ann = self._setup()
        qid, _, _ = ann.pairs[0]
        bad = AnnotationSet(ann.pairs + ((qid, "no-such-candidate", 1),), "all")
        with pytest.raises(KeyError, match="no-such-candidate"):
            build_eval_lists(bad, corpus, seed=0, n_negatives=SETTINGS.eval_negatives)

    def test_equal_to_per_candidate_filter_reference(self):
        # the string-id path: one key per candidate id, the query's
        # positives filtered out, the smallest keys' ids in corpus order
        corpus, ann = self._setup()
        pos_by_query = _positives_by_query(ann)
        for n_negatives in (1, 30, 100):
            rng = np.random.default_rng(7)
            expected = []
            for qid in ann.query_ids:
                pos_set = set(pos_by_query[qid])
                for pos in pos_by_query[qid]:
                    keys = rng.random(len(corpus.candidate_ids))
                    ranked = sorted((key, cid) for key, cid in zip(keys, corpus.candidate_ids)
                                    if cid not in pos_set)
                    chosen = {cid for _, cid in ranked[:n_negatives]}
                    expected.append((qid, pos) + tuple(c for c in corpus.candidate_ids
                                                       if c in chosen))
            lists = build_eval_lists(ann, corpus, seed=7, n_negatives=n_negatives)
            got = [(corpus.query_ids[lists.rows[r]], *ids_of(lists, r))
                   for r in range(len(lists))]
            assert got == expected

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 49, 100]),
           st.sampled_from([0.0, 0.3]))
    def test_equal_to_one_array_per_list_reference(self, seed, n_negatives, noise_rate):
        """Drawn a block of lists at a time, the lists hold bitwise what
        drawing one list's keys at a time picks."""
        corpus, ann = generate_synthetic(
            n_queries=6, n_candidates=150, n_topics=3, vocab_per_topic=8, doc_len=15,
            noise_rate=noise_rate, seed=seed % 100)
        lists = build_eval_lists(ann, corpus, seed=seed, n_negatives=n_negatives)
        rows, cols = eval_lists_per_list(ann, corpus, seed=seed, n_negatives=n_negatives)
        for got, expected in ((lists.rows, rows), (lists.cols, cols)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [1, 997, 1 << 30], ids=["one list", "odd", "all lists"])
    @pytest.mark.parametrize("n_negatives", [0, 1, 40, 100], ids=lambda n: f"{n} negatives")
    def test_lists_do_not_depend_on_the_block(self, monkeypatch, block, n_negatives):
        """Blocks of one list (150 keys), of an odd number of keys, and of
        every list draw the same lists as one list at a time, down to no
        negative and up to every eligible candidate (100)."""
        monkeypatch.setattr(metrics, "DRAW_BLOCK", block)
        corpus, ann = self._setup()
        lists = build_eval_lists(ann, corpus, seed=3, n_negatives=n_negatives)
        rows, cols = eval_lists_per_list(ann, corpus, seed=3, n_negatives=n_negatives)
        assert lists.rows.tobytes() == rows.tobytes() and lists.cols.tobytes() == cols.tobytes()

    def test_negatives_are_uniform_over_subsets(self):
        """A query with one positive among 6 candidates: over 2,000 seeds,
        the C(5, 2) = 10 subsets of 2 negatives each come up about 200 times
        (chi-squared with 9 degrees of freedom below its 0.999 quantile,
        27.88)."""
        corpus, _ = generate_synthetic(n_queries=2, n_candidates=6, n_topics=2,
                                       vocab_per_topic=8, doc_len=15, noise_rate=0.0, seed=0)
        q, c = corpus.query_ids, corpus.candidate_ids
        ann = AnnotationSet(((q[0], c[3], 1),), "all")
        counts = {}
        for seed in range(2000):
            negatives = tuple(build_eval_lists(ann, corpus, seed=seed, n_negatives=2).cols[0, 1:])
            counts[negatives] = counts.get(negatives, 0) + 1
        assert len(counts) == 10 and all(3 not in subset for subset in counts)
        observed = np.array(list(counts.values()))
        assert ((observed - 200) ** 2 / 200).sum() < 27.88

    @pytest.mark.parametrize("split", ["validation", "test", "all"])
    def test_empty_split_refused_by_name(self, split):
        corpus, _ = self._setup()
        empty = AnnotationSet((), split)
        message = f"the {split!r} annotation split is empty: it has no evaluation lists"
        for run in (lambda: check_eval_lists(empty, corpus, n_negatives=5),
                    lambda: build_eval_lists(empty, corpus, seed=0, n_negatives=5)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == message

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 50, 99, 100]))
    def test_positive_not_in_negatives(self, seed, n_negatives):
        # a property of every draw: the positive is never among its list's
        # negatives, and no list repeats a negative
        corpus, ann = self._setup()
        lists = build_eval_lists(ann, corpus, seed=seed, n_negatives=n_negatives)
        cols = lists.cols
        assert not (cols[:, 1:] == cols[:, :1]).any()
        ordered = np.sort(cols[:, 1:], axis=1)
        assert not (ordered[:, 1:] == ordered[:, :-1]).any()


def test_score_lists_with_matrix(rng, tiny_corpus):
    corpus = tiny_corpus
    matrix = ScoreMatrix("m", corpus.query_ids, corpus.candidate_ids, rng.random((2, 3)))
    lists = EvalLists(np.array([1, 0]), np.array([[2, 0, 1], [0, 2, 1]]),
                      corpus.query_ids, corpus.candidate_ids)
    ranks = score_lists_with_matrix(lists, matrix)

    def rank(qid, cids):
        scores = [matrix.values[corpus.query_row[qid], corpus.candidate_column[c]]
                  for c in cids]
        return oracle_rank(cids, scores)

    assert ranks.dtype == np.int64
    assert ranks.tolist() == [rank("q2", ("c3", "c1", "c2")), rank("q1", ("c1", "c3", "c2"))]


def test_score_lists_with_matrix_refuses_another_order(rng, tiny_corpus):
    corpus = tiny_corpus
    lists = EvalLists(np.array([0]), np.array([[0, 1, 2]]), corpus.query_ids,
                      corpus.candidate_ids)
    flipped = ScoreMatrix("m", corpus.query_ids, corpus.candidate_ids[::-1], rng.random((2, 3)))
    with pytest.raises(ValueError, match="not in the eval lists' corpus order"):
        score_lists_with_matrix(lists, flipped)
    ordered = flipped.in_order(corpus.query_ids, corpus.candidate_ids)
    cids = ("c1", "c2", "c3")
    assert score_lists_with_matrix(lists, ordered).tolist() == [
        oracle_rank(cids, [flipped.values[0, flipped.candidate_ids.index(c)] for c in cids])]


def _tied_lists(n_lists, n_candidates=50, n_queries=7, levels=3, seed=0):
    """``n_lists`` lists over a universe whose column order runs against id
    order, scored by a matrix of ``levels`` values: most positives tie with
    some of their negatives, so most ranks turn on the id tie-break."""
    rng = np.random.default_rng(seed)
    universe = tuple(f"c{j:03d}" for j in range(2 * n_candidates))[::-1]
    cols = np.array([rng.permutation(len(universe))[:n_candidates] for _ in range(n_lists)])
    lists = EvalLists(rng.integers(0, n_queries, size=n_lists), cols.reshape(n_lists, -1),
                      tuple(f"q{i}" for i in range(n_queries)), universe)
    values = rng.integers(0, levels, size=(n_queries, len(universe))) / levels
    return lists, ScoreMatrix("m", lists.query_ids, universe, values)


class TestBlockedRanks:
    @pytest.mark.parametrize("n_lists", [1, ENSEMBLE_BLOCK - 1, ENSEMBLE_BLOCK,
                                         ENSEMBLE_BLOCK + 1, 2 * ENSEMBLE_BLOCK + 37])
    def test_equal_to_one_shot_ranks(self, n_lists):
        """A single list, one exact block, and blocks ending in a partial one:
        ranking block by block gives the one-shot ranks of every list, ties
        broken by id on both sides of each block edge."""
        lists, matrix = _tied_lists(n_lists)
        one_shot = ranks_of_positives(lists, matrix.values[lists.rows[:, None], lists.cols])
        blocked = score_lists_with_matrix(lists, matrix)
        assert blocked.dtype == one_shot.dtype == np.int64
        assert blocked.tobytes() == one_shot.tobytes()
        # the lists at each block edge really do break ties by id
        without_ids = 1 + np.count_nonzero(
            matrix.values[lists.rows[:, None], lists.cols[:, 1:]]
            > matrix.values[lists.rows, lists.cols[:, 0]][:, None], axis=1)
        edges = [e for e in (ENSEMBLE_BLOCK - 1, ENSEMBLE_BLOCK) if e < n_lists]
        assert all(blocked[e] > without_ids[e] for e in edges)
        assert mrr(blocked) == mrr(one_shot)
        assert all_metrics(blocked) == all_metrics(one_shot)

    def test_blocks_hold_at_most_ensemble_block_lists(self, monkeypatch):
        """``rank_lists`` gathers its array's scores for at most
        ``ENSEMBLE_BLOCK`` lists at a time."""
        lists, matrix = _tied_lists(2 * ENSEMBLE_BLOCK + 37)
        seen = []

        def recording(lists, scores, block):
            seen.append(scores.shape)
            return ranks_of_positives(lists, scores, block)

        monkeypatch.setattr(metrics, "ranks_of_positives", recording)
        ranks = rank_lists(lists, matrix.values)
        width = lists.cols.shape[1]
        assert seen == [(ENSEMBLE_BLOCK, width), (ENSEMBLE_BLOCK, width), (37, width)]
        assert ranks.tobytes() == ranks_of_positives(
            lists, matrix.values[lists.rows[:, None], lists.cols]).tobytes()

    def test_ranking_holds_no_list_by_candidate_score_array(self):
        """Ranking 2,560 lists of 50 candidates peaks below one float64 array
        of their scores (1 MB): the blocks bound what the ranking holds."""
        lists, matrix = _tied_lists(2560)
        limit = len(lists) * lists.cols.shape[1] * 8
        tracemalloc.start()
        try:
            ranks = score_lists_with_matrix(lists, matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ranks) == 2560
        assert peak < limit, f"traced peak {peak} B, one score array is {limit} B"


class TestInOrder:
    def test_permuted_matrix_returns_to_corpus_order(self, rng, tiny_corpus):
        corpus = tiny_corpus
        values = rng.random((2, 3))
        base = ScoreMatrix("m", corpus.query_ids, corpus.candidate_ids, values)
        q_perm, c_perm = [1, 0], [2, 0, 1]
        permuted = ScoreMatrix("m", [corpus.query_ids[i] for i in q_perm],
                               [corpus.candidate_ids[j] for j in c_perm],
                               values[np.ix_(q_perm, c_perm)])
        again = permuted.in_order(corpus.query_ids, corpus.candidate_ids)
        assert again.query_ids == base.query_ids
        assert again.candidate_ids == base.candidate_ids
        assert again.values.tobytes() == base.values.tobytes()

    def test_missing_id_rejected_extra_dropped(self, rng, tiny_corpus):
        corpus = tiny_corpus
        wide = ScoreMatrix("m", corpus.query_ids, corpus.candidate_ids + ("c9",),
                           rng.random((2, 4)))
        assert wide.in_order(corpus.query_ids, corpus.candidate_ids).values.shape == (2, 3)
        narrow = ScoreMatrix("m", corpus.query_ids, corpus.candidate_ids[:2], rng.random((2, 2)))
        with pytest.raises(ValueError, match="no row or column for id 'c3'"):
            narrow.in_order(corpus.query_ids, corpus.candidate_ids)

    @pytest.mark.parametrize("query_ids, candidate_ids, message", [
        (("q1",), ("c1", "c1"), "duplicate candidate id 'c1'"),
        (("q1", "q2", "q1"), ("c1",), "duplicate query id 'q1'"),
    ])
    def test_duplicate_ids_rejected(self, query_ids, candidate_ids, message):
        """A repeated id would make ``in_order`` keep one of its rows or
        columns and silently drop the other."""
        values = np.arange(len(query_ids) * len(candidate_ids), dtype=float).reshape(
            len(query_ids), len(candidate_ids))
        with pytest.raises(ValueError, match=message):
            ScoreMatrix("m", query_ids, candidate_ids, values)
