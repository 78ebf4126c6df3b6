import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakrank.pseudo_labels import (
    PseudoLabelSet,
    aggregate,
    normalize_per_query,
    sample_training_pairs,
    top_k_labels,
)
from weakrank.scores import ScoreMatrix


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
    def test_min_max(self):
        m = normalize_per_query(_matrix([[2.0, 4.0, 6.0]]))
        assert np.allclose(m.values, [[0.0, 0.5, 1.0]])

    def test_constant_row(self):
        m = normalize_per_query(_matrix([[7.0, 7.0]]))
        assert np.allclose(m.values, [[0.5, 0.5]])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    def test_preserves_ranking(self, row):
        # monotone map: pairwise orderings never flip (equalities may appear
        # only through floating-point underflow of tiny gaps)
        row = np.asarray(row)
        norm = normalize_per_query(_matrix([row])).values[0]
        for i in range(len(row)):
            for j in range(len(row)):
                if row[i] < row[j]:
                    assert norm[i] <= norm[j]
                elif row[i] == row[j]:
                    assert norm[i] == norm[j]

    def test_output_in_unit_interval(self, rng):
        m = normalize_per_query(_matrix(rng.normal(size=(5, 7)) * 100))
        assert m.values.min() >= 0.0 and m.values.max() <= 1.0


class TestAggregate:
    def test_single_matrix_is_normalized_self(self):
        raw = _matrix([[1.0, 3.0, 5.0]])
        agg = aggregate([raw], [1])
        assert np.allclose(agg.values, normalize_per_query(raw).values)

    def test_mean_of_two(self):
        a = _matrix([[0.0, 1.0]], "a")
        b = _matrix([[1.0, 0.0]], "b")
        agg = aggregate([a, b], [1, 1])
        assert np.allclose(agg.values, [[0.5, 0.5]])

    def test_mask_selects_positions_one_and_four(self, rng):
        mats = [_matrix(rng.random((3, 4)), f"m{i}") for i in range(8)]
        mask = [1, 0, 0, 1, 0, 0, 0, 0]
        agg = aggregate(mats, mask)
        expected = aggregate([mats[0], mats[3]], [1, 1])
        assert np.allclose(agg.values, expected.values)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no matrices"):
            aggregate([_matrix([[1.0, 2.0]])], [0])

    def test_permutation_invariance(self, rng):
        mats = [_matrix(rng.random((2, 5)), f"m{i}") for i in range(3)]
        agg1 = aggregate(mats, [1, 1, 1])
        agg2 = aggregate(mats[::-1], [1, 1, 1])
        assert np.allclose(agg1.values, agg2.values)

    def test_values_in_unit_interval(self, rng):
        mats = [_matrix(rng.normal(size=(4, 6)) * 50, f"m{i}") for i in range(4)]
        agg = aggregate(mats, [1, 0, 1, 1])
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
            aggregate([a, b], [1, 1])


class TestTopK:
    def test_argmax(self):
        m = _matrix([[0.9, 0.5, 0.1]])
        labels = top_k_labels(m, 1)
        assert labels.positives["q0"] == ("c0",)

    def test_tie_breaks_by_id(self):
        m = _matrix([[0.5, 0.5]])
        labels = top_k_labels(m, 1)
        assert labels.positives["q0"] == ("c0",)

    def test_k_equals_n_minus_one(self):
        m = _matrix(np.arange(12.0).reshape(3, 4))
        labels = top_k_labels(m, 3)
        for qid in m.query_ids:
            assert len(labels.negatives[qid]) == 1

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
            labels = top_k_labels(m, k)
            oracle = brute_force_top_k(m, k)
            for qid in m.query_ids:
                assert labels.positives[qid] == oracle[qid]
                ids = labels.positives[qid] + labels.negatives[qid]
                assert sorted(ids) == sorted(m.candidate_ids)
                assert all(type(c) is str for c in ids)

    def test_positives_sorted_by_score_descending(self, rng):
        m = _matrix(rng.random((3, 8)))
        labels = top_k_labels(m, 4)
        for qid in m.query_ids:
            scores = [m.score(qid, c) for c in labels.positives[qid]]
            assert scores == sorted(scores, reverse=True)

    def test_jsonl_export(self, tmp_path, rng):
        m = _matrix(rng.random((2, 5)))
        labels = top_k_labels(m, 2)
        path = tmp_path / "labels.jsonl"
        labels.save_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert '"k":2' in lines[0]


class TestSampleTrainingPairs:
    def _labels(self, n_queries=10, n_cands=8, k=2):
        rng = np.random.default_rng(0)
        m = _matrix(rng.random((n_queries, n_cands)))
        return top_k_labels(m, k)

    def test_triple_count(self):
        triples = sample_training_pairs(self._labels(10, 8, 2), n_neg_per_pos=4, seed=0)
        assert len(triples) == 10 * 2 * 4

    def test_forced_draw_with_pool_of_one(self):
        labels = self._labels(3, 4, 3)  # negative pool has exactly 1 entry
        triples = sample_training_pairs(labels, n_neg_per_pos=5, seed=1)
        for qid, _, neg in triples:
            assert neg == labels.negatives[qid][0]

    def test_deterministic(self):
        labels = self._labels()
        t1 = sample_training_pairs(labels, 3, seed=42)
        t2 = sample_training_pairs(labels, 3, seed=42)
        assert t1 == t2

    def test_negatives_come_from_pool(self):
        labels = self._labels()
        for qid, pos, neg in sample_training_pairs(labels, 3, seed=7):
            assert pos in labels.positives[qid]
            assert neg in labels.negatives[qid]

    def test_empty_pool_rejected(self):
        labels = PseudoLabelSet(
            1, ("q0",), {"q0": ("c0",)}, {"q0": ()}
        )
        with pytest.raises(ValueError, match="empty negative pool"):
            sample_training_pairs(labels, 1, seed=0)
