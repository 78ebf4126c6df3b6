import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from defaults import SETTINGS
from weakrank.pseudo_labels import aggregate, sample_training_pairs, top_k_labels
from weakrank.scores import ScoreMatrix, min_max_rows


def _matrix(values, name="m"):
    values = np.asarray(values, dtype=np.float64)
    qids = tuple(f"q{i}" for i in range(values.shape[0]))
    cids = tuple(f"c{j}" for j in range(values.shape[1]))
    return ScoreMatrix(name, qids, cids, values)


def brute_force_top_k(matrix, k):
    """Independent oracle: full sort by (-score, candidate id)."""
    out = {}
    for qi, qid in enumerate(matrix.query_ids):
        ranked = sorted(
            zip(matrix.candidate_ids, matrix.values[qi]), key=lambda t: (-t[1], t[0])
        )
        out[qid] = tuple(c for c, _ in ranked[:k])
    return out


class TestNormalize:
    """``min_max_rows``, the scaling ``aggregate`` applies to each scorer."""

    def test_min_max(self):
        assert np.allclose(min_max_rows(np.array([[2.0, 4.0, 6.0]])), [[0.0, 0.5, 1.0]])

    def test_constant_row(self):
        assert np.allclose(min_max_rows(np.array([[7.0, 7.0]])), [[0.5, 0.5]])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    def test_preserves_ranking(self, row):
        # monotone map: pairwise orderings never flip (equalities may appear
        # only through floating-point underflow of tiny gaps)
        row = np.asarray(row)
        norm = min_max_rows(row[None, :])[0]
        for i in range(len(row)):
            for j in range(len(row)):
                if row[i] < row[j]:
                    assert norm[i] <= norm[j]
                elif row[i] == row[j]:
                    assert norm[i] == norm[j]

    def test_output_in_unit_interval(self, rng):
        scaled = min_max_rows(rng.normal(size=(5, 7)) * 100)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0


class TestAggregate:
    def test_single_matrix_is_normalized_self(self):
        raw = _matrix([[1.0, 3.0, 5.0]])
        agg = aggregate([raw], [1], normalize=True)
        assert np.allclose(agg.values, min_max_rows(raw.values))

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("n_selected", [1, 2, 7])
    def test_bitwise_equal_to_the_stacked_mean(self, n_selected, normalize):
        """Added in place in mask order, then divided: bitwise ``np.mean``
        over the stacked (normalized) matrices, and a new array even when
        one raw matrix is selected."""
        rng = np.random.default_rng(n_selected)
        mats = [_matrix(rng.normal(size=(9, 31)) * 10.0 ** rng.integers(-3, 4), f"m{i}")
                for i in range(n_selected + 2)]
        mask = [1] * n_selected + [0, 0]
        selected = [min_max_rows(m.values) if normalize else m.values
                    for m in mats[:n_selected]]
        expected = np.mean(np.stack(selected), axis=0)
        agg = aggregate(mats, mask, normalize=normalize)
        assert agg.values.tobytes() == expected.tobytes()
        assert not any(np.shares_memory(agg.values, m.values) for m in mats)

    def test_mean_of_two(self):
        a = _matrix([[0.0, 1.0]], "a")
        b = _matrix([[1.0, 0.0]], "b")
        agg = aggregate([a, b], [1, 1], normalize=SETTINGS.normalize_scores)
        assert np.allclose(agg.values, [[0.5, 0.5]])

    def test_mask_selects_positions_one_and_four(self, rng):
        mats = [_matrix(rng.random((3, 4)), f"m{i}") for i in range(8)]
        mask = [1, 0, 0, 1, 0, 0, 0, 0]
        agg = aggregate(mats, mask, normalize=SETTINGS.normalize_scores)
        expected = aggregate([mats[0], mats[3]], [1, 1], normalize=SETTINGS.normalize_scores)
        assert np.allclose(agg.values, expected.values)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no matrices"):
            aggregate([_matrix([[1.0, 2.0]])], [0], normalize=SETTINGS.normalize_scores)

    def test_permutation_invariance(self, rng):
        mats = [_matrix(rng.random((2, 5)), f"m{i}") for i in range(3)]
        agg1 = aggregate(mats, [1, 1, 1], normalize=SETTINGS.normalize_scores)
        agg2 = aggregate(mats[::-1], [1, 1, 1], normalize=SETTINGS.normalize_scores)
        assert np.allclose(agg1.values, agg2.values)

    def test_values_in_unit_interval(self, rng):
        mats = [_matrix(rng.normal(size=(4, 6)) * 50, f"m{i}") for i in range(4)]
        agg = aggregate(mats, [1, 0, 1, 1], normalize=True)
        assert agg.values.min() >= 0.0 and agg.values.max() <= 1.0

    def test_raw_mode_skips_normalization(self):
        a = _matrix([[0.0, 10.0]], "a")
        b = _matrix([[2.0, 0.0]], "b")
        agg = aggregate([a, b], [1, 1], normalize=False)
        assert np.allclose(agg.values, [[1.0, 5.0]])

    def test_dimension_mismatch_rejected(self):
        a = _matrix([[1.0, 2.0]], "a")
        b = _matrix([[1.0, 2.0, 3.0]], "b")
        with pytest.raises(ValueError, match="mismatched"):
            aggregate([a, b], [1, 1], normalize=SETTINGS.normalize_scores)


def positives(matrix, ranked, k):
    """Each query id's pseudo positives as candidate ids, best first."""
    return {qid: tuple(matrix.candidate_ids[j] for j in ranked[qi, :k])
            for qi, qid in enumerate(matrix.query_ids)}


class TestTopK:
    def test_argmax(self):
        m = _matrix([[0.9, 0.5, 0.1]])
        assert positives(m, top_k_labels(m, 1), 1)["q0"] == ("c0",)

    def test_tie_breaks_by_id(self):
        m = _matrix([[0.5, 0.5]])
        assert positives(m, top_k_labels(m, 1), 1)["q0"] == ("c0",)
        # by id, not by column: the column order runs against the ids here
        flipped = ScoreMatrix("m", ("q0",), ("c1", "c0"), np.array([[0.5, 0.5]]))
        assert top_k_labels(flipped, 1).tolist() == [[1, 0]]

    def test_k_equals_n_minus_one(self):
        m = _matrix(np.arange(12.0).reshape(3, 4))
        ranked = top_k_labels(m, 3)
        assert ranked.shape == (3, 4) and ranked.dtype == np.int64
        assert ranked[:, 3:].tolist() == [[0], [0], [0]]  # one negative: the lowest

    def test_k_out_of_range(self):
        m = _matrix([[1.0, 2.0]])
        for bad_k in (0, 2, 5):
            with pytest.raises(ValueError, match="out of range"):
                top_k_labels(m, bad_k)

    def test_matches_full_sort_oracle_with_ties(self, rng):
        for trial in range(30):
            # coarse quantization forces plenty of ties
            values = np.round(rng.random((4, 9)) * 4) / 4
            m = _matrix(values)
            k = int(rng.integers(1, 9))
            ranked = top_k_labels(m, k)
            oracle = brute_force_top_k(m, k)
            assert positives(m, ranked, k) == oracle
            for row in ranked:
                assert sorted(row.tolist()) == list(range(9))

    def test_positives_sorted_by_score_descending(self, rng):
        m = _matrix(rng.random((3, 8)))
        ranked = top_k_labels(m, 4)
        for qi in range(3):
            scores = m.values[qi, ranked[qi, :4]].tolist()
            assert scores == sorted(scores, reverse=True)


def _reference_pairs(matrix, k, n_neg_per_pos, seed):
    """The string-id path: per query, positive and negative id tuples from a
    full sort, one ``rng.integers`` call per positive, id triples out."""
    rng = np.random.default_rng(seed)
    triples = []
    for qi, qid in enumerate(matrix.query_ids):
        ranked = [c for c, _ in sorted(zip(matrix.candidate_ids, matrix.values[qi]),
                                       key=lambda t: (-t[1], t[0]))]
        pool = tuple(ranked[k:])
        for pos in ranked[:k]:
            for d in rng.integers(len(pool), size=n_neg_per_pos):
                triples.append((qid, pos, pool[int(d)]))
    return triples


class TestSampleTrainingPairs:
    def _labels(self, n_queries=10, n_cands=8, k=2):
        rng = np.random.default_rng(0)
        m = _matrix(rng.random((n_queries, n_cands)))
        return top_k_labels(m, k)

    def test_triple_count(self):
        triples = sample_training_pairs(self._labels(10, 8, 2), 2, n_neg_per_pos=4, seed=0)
        assert triples.shape == (10 * 2 * 4, 3) and triples.dtype == np.int64

    def test_forced_draw_with_pool_of_one(self):
        ranked = self._labels(3, 4, 3)  # negative pool has exactly 1 entry
        triples = sample_training_pairs(ranked, 3, n_neg_per_pos=5, seed=1)
        for q, _, neg in triples:
            assert neg == ranked[q, 3]

    def test_deterministic(self):
        ranked = self._labels()
        t1 = sample_training_pairs(ranked, 2, 3, seed=42)
        t2 = sample_training_pairs(ranked, 2, 3, seed=42)
        assert np.array_equal(t1, t2)

    def test_negatives_come_from_pool(self):
        ranked = self._labels()
        for q, pos, neg in sample_training_pairs(ranked, 2, 3, seed=7):
            assert pos in ranked[q, :2]
            assert neg in ranked[q, 2:]

    def test_empty_pool_rejected(self):
        ranked = self._labels(2, 3, 1)
        for bad_k in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                sample_training_pairs(ranked, bad_k, 1, seed=0)

    @pytest.mark.parametrize("n_neg_per_pos", [1, 2])
    def test_equal_to_string_id_reference(self, rng, n_neg_per_pos):
        for trial in range(10):
            n_q, n_c = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            values = np.round(rng.random((n_q, n_c)) * 4) / 4  # ties
            cids = tuple(f"c{j:02d}" for j in rng.permutation(n_c))  # columns not id-sorted
            m = ScoreMatrix("m", tuple(f"q{i}" for i in range(n_q)), cids, values)
            for k in sorted({1, n_c - 1, int(rng.integers(1, n_c))}):
                triples = sample_training_pairs(top_k_labels(m, k), k, n_neg_per_pos, seed=trial)
                as_ids = [(m.query_ids[q], cids[p], cids[n]) for q, p, n in triples.tolist()]
                assert as_ids == _reference_pairs(m, k, n_neg_per_pos, seed=trial)
