"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-6 are self-contained property checks against independent oracles.
Criteria 7-9 exercise the end-to-end pipeline (criterion 7 is the slow one;
it owns most of this module's runtime budget). Run with ``pytest -v`` to see
one line per criterion, or ``-s`` for the printed summaries.
"""

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from defaults import LIMITS, SETTINGS
from oracles import (
    enumerate_policy,
    finite_difference_check,
    kernel_pool_backward,
    sup_mask_distribution,
)
from weakrank.bm25 import bm25_matrix
from weakrank.controller import (
    BaselineState,
    ControllerParams,
    reinforce_update,
    sample_configuration,
)
from weakrank.corpus import build_corpus, split_annotations
from weakrank.metrics import EvalLists, all_metrics, ranks_of_positives
from weakrank.nncore import (
    LstmParams,
    ParamGroup,
    ParamTensor,
    cosine_rows_backward,
    cosine_rows_forward,
    dense_backward,
    dense_forward,
    init_param,
    kernel_pool_forward,
    lstm_backward,
    lstm_forward,
    zero_grads,
)
from weakrank.pseudo_labels import top_k_labels
from weakrank.sageops import (
    MIN_ROWS,
    NeighborSample,
    create_layers,
    sage_backward,
    sage_forward,
    sage_input,
)
from weakrank.scores import ScoreMatrix
from weakrank.sup_rankers import _pairwise_loss_grads
from weakrank.synthetic import generate_synthetic


def _announce(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# criterion 1: metric oracle equivalence


def test_criterion_1_metric_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(101)

    def oracle_metrics(id_lists, scores, k=5):
        hr = ndcg = rr = 0.0
        for ids, s in zip(id_lists, scores):
            order = sorted(range(len(ids)), key=lambda i: (-s[i], ids[i]))
            rank = order.index(0) + 1
            hr += rank <= k
            ndcg += 1.0 / np.log2(rank + 1) if rank <= k else 0.0
            rr += 1.0 / rank
        n = len(id_lists)
        return {"hr@5": hr / n, "ndcg@5": ndcg / n, "mrr": rr / n, "n_lists": n}

    # a universe whose column order runs against id order, so the tie-break
    # must read ids; each list draws its positive and 99 negatives from it
    universe = tuple(f"c{j:03d}" for j in range(150))[::-1]
    cols, scores = [], []
    for i in range(100):
        cols.append(rng.permutation(150)[:100])
        # quantized scores force tie handling through the oracle too
        scores.append(np.round(rng.random(100) * 20) / 20)
    lists = EvalLists(np.zeros(100, dtype=np.int64), np.array(cols), ("q",), universe)
    ours = all_metrics(ranks_of_positives(lists, scores))
    oracle = oracle_metrics([[universe[j] for j in c] for c in cols], scores)
    assert ours["hr@5"] == oracle["hr@5"]
    assert ours["ndcg@5"] == pytest.approx(oracle["ndcg@5"], abs=1e-12)
    assert ours["mrr"] == pytest.approx(oracle["mrr"], abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _announce("1 metric-oracle-equivalence", f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: gradient suite


def test_criterion_2_gradient_suite():
    started = time.monotonic()
    worst = {}
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)

        # dense layer, all activations, on a one-row (batch, d) input
        for act in ("identity", "tanh", "relu"):
            W = init_param("W", (4, 3), rng)
            b = init_param("b", (4,), rng)
            x = ParamTensor("x", rng.normal(size=(1, 3)))
            probe = rng.normal(size=(1, 4))
            group = ParamGroup([W, b, x])

            def fb_dense():
                zero_grads(group)
                y, cache = dense_forward(x.value, W, b, act)
                x.grad += dense_backward(probe, cache)
                return float((probe * y).sum())

            err = finite_difference_check(fb_dense, group)
            worst[f"dense-{act}"] = max(worst.get(f"dense-{act}", 0.0), err)

        # row cosine, the op the cosine rankers train through
        U = ParamTensor("U", rng.normal(size=(3, 5)))
        V = ParamTensor("V", rng.normal(size=(3, 5)))
        cprobe = rng.normal(size=3)
        cos_group = ParamGroup([U, V])

        def fb_cos():
            zero_grads(cos_group)
            c, cache = cosine_rows_forward(U.value, V.value)
            dU, dV = cosine_rows_backward(cprobe, cache)
            U.grad += dU
            V.grad += dV
            return float(cprobe @ c)

        worst["cosine"] = max(worst.get("cosine", 0.0), finite_difference_check(fb_cos, cos_group))

        # kernel pooling, the forward phi_features runs, against the test-side
        # backward: a block of word cosines against integer word counts (some
        # repeated, some absent), both signs
        mus = np.array([0.9, 0.5, -0.3])
        S = ParamTensor("S", rng.uniform(-1, 1, size=(4, 5)))
        q_counts = rng.integers(0, 3, size=(2, 4)).astype(np.float64)
        c_counts = rng.integers(0, 3, size=(3, 5)).astype(np.float64)
        kprobe = rng.normal(size=(3, 2, 3))
        kernel_group = ParamGroup([S])
        for negative_exponent, sigmas in ((True, np.array([0.1, 0.2, 0.3])),
                                          (False, np.array([0.5, 0.6, 0.7]))):

            def fb_kernel():
                zero_grads(kernel_group)
                pooled = kernel_pool_forward(S.value, q_counts, c_counts, mus, sigmas,
                                             negative_exponent)
                S.grad += kernel_pool_backward(kprobe, S.value, q_counts, c_counts, mus, sigmas,
                                               negative_exponent)
                return float((kprobe * pooled).sum())

            worst["kernel"] = max(worst.get("kernel", 0.0), finite_difference_check(fb_kernel, kernel_group))

        # GraphSAGE stack through a padded neighbor sample: 1-3 neighbors in
        # 3 slots. The last layer at a proper subset of the nodes is the op
        # the graph ranker's training steps run; the full graph, the op the
        # aggregation scorer trains through.
        n_nodes = MIN_ROWS + 8
        index = np.repeat(np.arange(n_nodes)[:, None], 3, axis=1)
        weight = np.zeros((n_nodes, 3))
        for v in range(n_nodes):
            k = rng.integers(1, 4)
            index[v, :k] = np.sort(rng.choice(np.delete(np.arange(n_nodes), v), size=k,
                                              replace=False))
            weight[v, :k] = 1 / k
        sample = NeighborSample(index, weight)
        layers = create_layers("sage", [3, 4, 4], rng, scale=0.5)

        def clear_of_kinks(H):
            # central differences at h = 1e-5 need every ReLU input away from 0
            for W in layers:
                pre = sage_input(H, sample) @ W.value.T
                if np.abs(pre).min() < 1e-3:
                    return False
                H = np.maximum(pre, 0.0)
            return True

        H0 = rng.normal(size=(n_nodes, 3))
        while not clear_of_kinks(H0):
            H0 = rng.normal(size=(n_nodes, 3))
        rows = np.sort(rng.choice(n_nodes, size=MIN_ROWS + 2, replace=False))
        for name, at in (("sage-rows", rows), ("sage-full", None)):
            sprobe = rng.normal(size=(n_nodes if at is None else len(at), 4))

            def fb_sage():
                zero_grads(layers)
                Z, caches = sage_forward(H0, sample, layers, sage_input(H0, sample), rows=at)
                sage_backward(sprobe, sample, caches)
                return float((sprobe * Z).sum())

            worst[name] = max(worst.get(name, 0.0),
                              finite_difference_check(fb_sage, list(layers)))

        # 3-step LSTM unroll
        params = LstmParams.create("lstm", 3, 4, rng)
        xs = [ParamTensor(f"x{t}", rng.normal(size=3)) for t in range(3)]
        hprobe = rng.normal(size=4)
        tensors = ParamGroup(params.tensors() + xs)

        def fb_lstm():
            zero_grads(tensors)
            h = np.zeros(4)
            c = np.zeros(4)
            caches = []
            for x_t in xs:
                h, c, cache = lstm_forward(x_t.value, h, c, params)
                caches.append(cache)
            dh, dc = hprobe.copy(), np.zeros(4)
            for t in reversed(range(3)):
                dx, dh, dc = lstm_backward(dh, dc, caches[t])
                xs[t].grad += dx
            return float(hprobe @ h)

        worst["lstm-3step"] = max(worst.get("lstm-3step", 0.0),
                                  finite_difference_check(fb_lstm, tensors))

        # supervised pairwise loss w.r.t. the scores
        r_pos = ParamTensor("r_pos", rng.normal(size=4))
        r_neg = ParamTensor("r_neg", rng.normal(size=4))
        loss_group = ParamGroup([r_pos, r_neg])

        def fb_loss():
            zero_grads(loss_group)
            loss, d_pos, d_neg = _pairwise_loss_grads(r_pos.value, r_neg.value)
            r_pos.grad += d_pos
            r_neg.grad += d_neg
            return loss

        worst["sup-loss"] = max(worst.get("sup-loss", 0.0),
                                finite_difference_check(fb_loss, loss_group))

    elapsed = time.monotonic() - started
    for name, err in worst.items():
        assert err < 1e-3, f"{name}: {err}"
    assert elapsed < 60.0
    _announce("2 gradient-suite",
              f"(max rel err {max(worst.values()):.2e}, {elapsed:.1f}s, 20 seeds)")


# ---------------------------------------------------------------------------
# criterion 3: BM25 hand-computed table


def test_criterion_3_bm25_hand_table():
    docs = [
        {"id": "q1", "role": "query", "text": "python machine learning python"},
        {"id": "q2", "role": "query", "text": "pasta"},
        {"id": "c1", "role": "candidate", "text": "python data science handbook"},
        {"id": "c2", "role": "candidate", "text": "machine learning with python python python"},
        {"id": "c3", "role": "candidate", "text": "cooking recipes pasta"},
    ]
    corpus = build_corpus(docs, **LIMITS)
    matrix = bm25_matrix(corpus, k1=1.2, b=0.75)
    hand_table = {
        ("q1", "c1"): 0.9705490105724217,
        ("q1", "c2"): 3.0596483610460075,
        ("q1", "c3"): 0.0,
        ("q2", "c1"): 0.0,
        ("q2", "c2"): 0.0,
        ("q2", "c3"): 1.1220686654454148,
    }
    for (qid, cid), expected in hand_table.items():
        value = matrix.values[corpus.query_row[qid], corpus.candidate_column[cid]]
        assert abs(value - expected) < 1e-9
    _announce("3 bm25-hand-table", "(6 cells within 1e-9)")


# ---------------------------------------------------------------------------
# criterion 4: pseudo-label full-sort oracle


def test_criterion_4_pseudo_label_oracle():
    rng = np.random.default_rng(404)
    for trial in range(200):
        n_q = int(rng.integers(1, 6))
        n_c = int(rng.integers(3, 12))
        # quantization forces tie cases
        values = np.round(rng.random((n_q, n_c)) * 5) / 5
        qids = tuple(f"q{i}" for i in range(n_q))
        cids = tuple(f"c{j:02d}" for j in range(n_c))
        matrix = ScoreMatrix("m", qids, cids, values)
        k = int(rng.integers(1, n_c))
        labels = top_k_labels(matrix, k)
        for qi in range(n_q):
            ranked = sorted(zip(cids, values[qi]), key=lambda t: (-t[1], t[0]))
            assert tuple(cids[j] for j in labels[qi, :k]) == tuple(c for c, _ in ranked[:k])
            assert {cids[j] for j in labels[qi, k:]} == {c for c, _ in ranked[k:]}
    _announce("4 pseudo-label-oracle", "(200 matrices incl. ties, set and order)")


# ---------------------------------------------------------------------------
# criterion 5: controller convergence on the rigged toy


def test_criterion_5_controller_convergence():
    started = time.monotonic()
    finals = []
    for seed in range(5):
        params = ControllerParams(n_unsup=1, n_k=1, n_sup=2, hidden=16, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        baseline = BaselineState(SETTINGS.baseline_decay)
        for _ in range(200):
            cfg, _ = sample_configuration(params, rng, (10,))
            reward = 1.0 if cfg.sup_mask == (1, 0) else 0.0
            reinforce_update(params, cfg, reward, baseline, lr=0.5,
                             use_baseline=SETTINGS.use_baseline,
                             entropy_coef=SETTINGS.entropy_coef)
        dist = sup_mask_distribution(params, (1,), 0)
        finals.append(dist.get((1, 0), 0.0))
    elapsed = time.monotonic() - started
    assert all(p > 0.9 for p in finals), finals
    assert elapsed < 30.0
    _announce("5 controller-convergence",
              f"(P(optimal) per seed: {[round(p, 3) for p in finals]}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 6: policy / sampling frequency consistency


def test_criterion_6_policy_frequency_consistency():
    params = ControllerParams(n_unsup=4, n_k=3, n_sup=3, hidden=12, seed=606)
    marginals = enumerate_policy(params)
    n = 10_000
    rng = np.random.default_rng(607)
    f_unsup = np.zeros(4)
    f_k = np.zeros(3)
    f_sup = np.zeros(3)
    for _ in range(n):
        cfg, _ = sample_configuration(params, rng, (1, 2, 3))
        f_unsup += cfg.unsup_mask
        f_k[cfg.k_index] += 1
        f_sup += cfg.sup_mask
    worst = 0.0
    for emp, ana in ((f_unsup / n, marginals["unsup"]), (f_sup / n, marginals["sup"])):
        worst = max(worst, float(np.max(np.abs(emp - ana))))  # Bernoulli TV = |p - q|
    tv_k = 0.5 * float(np.abs(f_k / n - marginals["k"]).sum())
    worst = max(worst, tv_k)
    assert worst < 0.02
    _announce("6 policy-frequency-consistency", f"(max TV {worst:.4f} over 10^4 draws)")


# ---------------------------------------------------------------------------
# criteria 8 and 9 share a small CLI sandbox


def _make_cli_sandbox(root: Path, empty_test_file: bool) -> Path:
    """Corpus + pre-split annotations + external matrices + config, all with
    paths relative to the sandbox so two sandboxes produce identical bytes."""
    root.mkdir(parents=True, exist_ok=True)
    corpus, ann = generate_synthetic(
        n_queries=16, n_candidates=140, n_topics=4, vocab_per_topic=8,
        doc_len=18, noise_rate=0.1, seed=51,
    )
    corpus.save(root / "corpus.json")
    val, test = split_annotations(ann, seed=1)
    from weakrank.corpus import save_annotations_tsv

    save_annotations_tsv(root / "val.tsv", val)
    if empty_test_file:
        (root / "test.tsv").write_text("")
    else:
        save_annotations_tsv(root / "test.tsv", test)

    positives = {(q, c) for q, c, y in ann.pairs if y == 1}
    jitter = np.random.default_rng(8)
    base = np.zeros((len(corpus.queries), len(corpus.candidates)))
    for i, q in enumerate(corpus.query_ids):
        for j, c in enumerate(corpus.candidate_ids):
            if (q, c) in positives:
                base[i, j] = 1.0
    good = np.where(base == 1.0, 1.0 - 0.25 * jitter.random(base.shape),
                    0.65 * jitter.random(base.shape))
    ScoreMatrix("good", tuple(corpus.query_ids), tuple(corpus.candidate_ids),
                good).save_csv(root / "good.csv")
    noise = np.random.default_rng(7).random(base.shape)
    ScoreMatrix("noise", tuple(corpus.query_ids), tuple(corpus.candidate_ids),
                noise).save_csv(root / "noise.csv")

    (root / "exp.cfg").write_text(
        "corpus=corpus.json\n"
        "val_annotations=val.tsv\n"
        "test_annotations=test.tsv\n"
        "output_dir=run\n"
        "unsup_models=\n"
        "external_scores=good=good.csv,noise=noise.csv\n"
        "sup_models=interaction\n"
        "k_values=5,10\n"
        "episodes=6\n"
        "episode_sup_epochs=3\n"
        "final_sup_epochs=4\n"
        "backbone_epochs=2\n"
        "backbone_dim=8\n"
        "seed=3\n"
    )
    return root


def _run_cli_search(sandbox: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "weakrank.cli", "search", "--config", "exp.cfg"],
        cwd=sandbox, capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert proc.returncode == 0, proc.stderr


def _hash_tree(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_8_bit_identical_reproducibility(tmp_path):
    a = _make_cli_sandbox(tmp_path / "a", empty_test_file=False)
    b = _make_cli_sandbox(tmp_path / "b", empty_test_file=False)
    _run_cli_search(a)
    _run_cli_search(b)
    report_a = (a / "run" / "report.json").read_bytes()
    report_b = (b / "run" / "report.json").read_bytes()
    assert report_a == report_b
    # the whole run directory reproduces, not just the report
    assert _hash_tree(a / "run") == _hash_tree(b / "run")
    _announce("8 reproducibility", "(report.json and full run dir bit-identical)")


def test_criterion_9_reward_bounds_and_leakage(tmp_path):
    full = _make_cli_sandbox(tmp_path / "full", empty_test_file=False)
    bare = _make_cli_sandbox(tmp_path / "bare", empty_test_file=True)
    _run_cli_search(full)
    _run_cli_search(bare)

    rewards = []
    for line in (full / "run" / "episodes.jsonl").read_text().strip().splitlines():
        entry = json.loads(line)
        rewards.append(entry["R"])
        assert 0.0 <= entry["R"] <= 2.0
        assert 0.0 <= entry["Ru"] <= 1.0
        assert 0.0 <= entry["Rs"] <= 1.0

    hashes_full = _hash_tree(full / "run")
    hashes_bare = _hash_tree(bare / "run")
    assert set(hashes_full) == set(hashes_bare)
    differing = [k for k in hashes_full if hashes_full[k] != hashes_bare[k]]
    assert differing == ["report.json"], differing
    report_bare = json.loads((bare / "run" / "report.json").read_text())
    assert report_bare["test"] is None
    _announce("9 reward-bounds-and-leakage",
              f"({len(rewards)} episodes in [0,2]; only report.json differs)")
