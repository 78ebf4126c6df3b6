import itertools

import numpy as np
import pytest

from defaults import SETTINGS
from oracles import (
    _nonzero_mask_distribution,
    enumerate_policy,
    finite_difference_check,
    sup_mask_distribution,
)
from weakrank.controller import (
    BaselineState,
    Clamp,
    Configuration,
    ControllerParams,
    EpisodeLog,
    _traverse,
    action_log_prob,
    greedy_decode,
    reinforce_update,
    sample_configuration,
)
from weakrank.nncore import OptimizerState, optimizer_step, zero_grads

K_VALUES = (10, 20, 30, 40, 50)
DECAY = SETTINGS.baseline_decay


class TestConfiguration:
    def test_masks_must_be_nonempty(self):
        with pytest.raises(ValueError, match="at least one"):
            Configuration((0, 0), 0, (1,), 10)

    def test_masks_must_be_binary(self):
        with pytest.raises(ValueError, match="binary"):
            Configuration((2, 0), 0, (1,), 10)

    def test_figure_style_outcome_is_valid(self):
        cfg = Configuration((1, 0, 0, 1, 0, 0, 0, 0), 1, (0, 0, 0, 1, 0), 20)
        assert cfg.k_value == 20
        assert Configuration.from_dict(cfg.to_dict()) == cfg


class TestSampling:
    def test_sampled_configs_satisfy_invariants(self):
        params = ControllerParams(8, 5, 5, hidden=16, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(200):
            cfg, logp = sample_configuration(params, rng, K_VALUES)
            assert sum(cfg.unsup_mask) >= 1
            assert sum(cfg.sup_mask) >= 1
            assert cfg.k_value == K_VALUES[cfg.k_index]
            assert logp <= 0.0

    def test_reproducible_for_fixed_seed(self):
        params = ControllerParams(4, 3, 3, hidden=8, seed=5)
        c1, l1 = sample_configuration(params, np.random.default_rng(77), (1, 2, 3))
        c2, l2 = sample_configuration(params, np.random.default_rng(77), (1, 2, 3))
        assert c1 == c2 and l1 == l2

    def test_forced_logits_make_sampling_deterministic_with_zero_log_prob(self):
        params = ControllerParams(3, 1, 2, hidden=8, seed=2)
        # drive every head to certainty: select for masks, category 0 for k
        params.f_W.value[:] = 0.0
        params.f_b.value[:] = (-1000.0, 1000.0)
        params.q_W.value[:] = 0.0
        params.q_b.value[:] = (-1000.0, 1000.0)
        cfg, logp = sample_configuration(params, np.random.default_rng(0), (25,))
        assert cfg.unsup_mask == (1, 1, 1)
        assert cfg.sup_mask == (1, 1)
        assert logp == 0.0

    def test_head_probabilities_normalized(self):
        params = ControllerParams(4, 3, 2, hidden=8, seed=3)
        cfg, _ = sample_configuration(params, np.random.default_rng(0), (1, 2, 3))
        state_probs = enumerate_policy(params)
        assert np.all(state_probs["unsup"] >= 0) and np.all(state_probs["unsup"] <= 1)
        assert state_probs["k"].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["unsup_mask", "k_index", "sup_mask"])
    def test_clamped_step_held_constant(self, field):
        params = ControllerParams(4, 3, 3, hidden=8, seed=9)
        value = {"unsup_mask": (0, 1, 0, 1), "k_index": 2, "sup_mask": (0, 1, 1)}[field]
        clamp = Clamp(**{field: value})
        assert getattr(greedy_decode(params, (1, 2, 3)), field) != value
        assert getattr(greedy_decode(params, (1, 2, 3), clamp=clamp), field) == value
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg, logp = sample_configuration(params, rng, (1, 2, 3), clamp=clamp)
            assert getattr(cfg, field) == value
            assert logp == action_log_prob(params, cfg, clamp=clamp)[0]


class TestActionLogProb:
    def test_replay_matches_sampling(self):
        params = ControllerParams(5, 4, 3, hidden=12, seed=11)
        rng = np.random.default_rng(4)
        for _ in range(20):
            cfg, sampled = sample_configuration(params, rng, (1, 2, 3, 4))
            replayed, _ = action_log_prob(params, cfg)
            assert replayed == pytest.approx(sampled, abs=1e-12)

    def test_gradient_vs_finite_differences(self):
        params = ControllerParams(3, 2, 2, hidden=6, seed=1)
        cfg, _ = sample_configuration(params, np.random.default_rng(8), (5, 9))
        tensors = params.tensors()

        def fb():
            zero_grads(tensors)
            lp, _ = action_log_prob(params, cfg, grad_scale=1.0)
            return lp

        assert finite_difference_check(fb, tensors) < 1e-3

    def test_entropy_gradient_vs_finite_differences(self):
        params = ControllerParams(2, 2, 2, hidden=5, seed=7)
        cfg, _ = sample_configuration(params, np.random.default_rng(3), (1, 2))
        tensors = params.tensors()

        def fb():
            zero_grads(tensors)
            _, ent = action_log_prob(params, cfg, entropy_scale=1.0)
            return ent

        assert finite_difference_check(fb, tensors) < 1e-3

    def test_shape_mismatch_rejected(self):
        params = ControllerParams(3, 2, 2, hidden=6, seed=1)
        bad = Configuration((1, 0), 0, (1, 1), 5)
        with pytest.raises(ValueError, match="registry sizes"):
            action_log_prob(params, bad)

    def test_clamped_step_contributes_no_gradient(self):
        params = ControllerParams(3, 2, 2, hidden=6, seed=2)
        cfg, _ = sample_configuration(params, np.random.default_rng(5), (1, 2))
        tensors = params.tensors()
        zero_grads(tensors)
        action_log_prob(
            params, cfg, grad_scale=1.0,
            clamp=Clamp(unsup_mask=cfg.unsup_mask, k_index=cfg.k_index,
                        sup_mask=cfg.sup_mask),
        )
        for p in tensors:
            assert np.all(p.grad == 0.0)


class TestReinforce:
    def test_positive_advantage_raises_action_probability(self):
        params = ControllerParams(4, 3, 3, hidden=8, seed=6)
        cfg, before = sample_configuration(params, np.random.default_rng(1), (1, 2, 3))
        baseline = BaselineState(DECAY, value=0.2)
        reinforce_update(params, cfg, reward=1.0, baseline=baseline, lr=0.1, use_baseline=True,
                         entropy_coef=0.0)
        after, _ = action_log_prob(params, cfg)
        assert after > before

    def test_zero_advantage_leaves_parameters_unchanged(self):
        params = ControllerParams(4, 3, 3, hidden=8, seed=6)
        cfg, _ = sample_configuration(params, np.random.default_rng(1), (1, 2, 3))
        snapshot = [p.value.copy() for p in params.tensors()]
        baseline = BaselineState(DECAY, value=0.7)
        reinforce_update(params, cfg, reward=0.7, baseline=baseline, lr=0.1, use_baseline=True,
                         entropy_coef=0.0)
        for p, s in zip(params.tensors(), snapshot):
            assert np.array_equal(p.value, s)

    def test_first_reward_initializes_baseline(self):
        params = ControllerParams(2, 2, 2, hidden=6, seed=0)
        cfg, _ = sample_configuration(params, np.random.default_rng(2), (1, 2))
        baseline = BaselineState(DECAY)
        used = reinforce_update(params, cfg, reward=0.8, baseline=baseline, lr=0.1,
                                use_baseline=True, entropy_coef=0.0)
        assert used == 0.8 and baseline.value == 0.8

    def test_policy_step_is_an_exact_ascent_step(self):
        # joint_train's step: SGD on the gradient accumulated at negated scales
        # moves each value by exactly +lr * G, G accumulated at positive ones
        params = ControllerParams(5, 4, 3, hidden=17, seed=3)
        rng = np.random.default_rng(2)
        configs = [sample_configuration(params, rng, (1, 2, 3, 4))[0] for _ in range(2)]
        rewards, b, lr, coef, n = (0.9, 0.4), 0.55, 0.1, 0.01, 2
        group = params.tensors()
        zero_grads(group)
        for cfg, r in zip(configs, rewards):
            action_log_prob(params, cfg, grad_scale=(r - b) / n, entropy_scale=coef / n)
        expected = [p.value + lr * p.grad for p in group]
        zero_grads(group)
        for cfg, r in zip(configs, rewards):
            action_log_prob(params, cfg, grad_scale=-(r - b) / n, entropy_scale=-coef / n)
        optimizer_step(group, OptimizerState("sgd", lr=lr))
        for p, v in zip(group, expected):
            assert np.array_equal(p.value, v), p.name

    def test_baseline_ema_update_order(self):
        baseline = BaselineState(value=1.0, decay=0.9)
        baseline.update(0.0)
        assert baseline.value == pytest.approx(0.9)

    def test_rigged_toy_converges(self):
        # reward 1 iff exactly ranker A is selected; 200 updates, lr 0.5
        for seed in range(2):
            params = ControllerParams(n_unsup=1, n_k=1, n_sup=2, hidden=16, seed=seed)
            rng = np.random.default_rng(seed + 1000)
            baseline = BaselineState(DECAY)
            for _ in range(200):
                cfg, _ = sample_configuration(params, rng, (10,))
                reward = 1.0 if cfg.sup_mask == (1, 0) else 0.0
                reinforce_update(params, cfg, reward, baseline, lr=0.5,
                                 use_baseline=SETTINGS.use_baseline,
                                 entropy_coef=SETTINGS.entropy_coef)
            dist = sup_mask_distribution(params, (1,), 0)
            assert dist[(1, 0)] > 0.9

    def test_update_direction_aligns_with_enumerated_gradient(self):
        # seed-averaged REINFORCE step vs exact expected-reward gradient
        def reward_of(mask):
            return 1.0 if mask == (1, 0) else 0.0

        params = ControllerParams(1, 1, 2, hidden=8, seed=4)
        tensors = params.tensors()

        exact = [np.zeros_like(p.value) for p in tensors]
        for bits in range(4):
            mask = (bits & 1, (bits >> 1) & 1)
            if sum(mask) == 0:
                continue  # the empty mask is never drawn
            cfg = Configuration((1,), 0, mask, 10)
            zero_grads(tensors)
            lp, _ = action_log_prob(params, cfg, grad_scale=1.0)
            pi = float(np.exp(lp))
            for e, p in zip(exact, tensors):
                e += reward_of(mask) * pi * p.grad

        est = [np.zeros_like(p.value) for p in tensors]
        rng = np.random.default_rng(0)
        n_draws = 400
        for _ in range(n_draws):
            cfg, _ = sample_configuration(params, rng, (10,))
            zero_grads(tensors)
            action_log_prob(params, cfg, grad_scale=reward_of(cfg.sup_mask))
            for e, p in zip(est, tensors):
                e += p.grad / n_draws

        inner = sum(float((a * b).sum()) for a, b in zip(exact, est))
        assert inner > 0.0


def _every_configuration(params, k_values):
    """Every configuration the policy can draw: each non-empty mask per mask
    head, each k."""
    def masks(n):
        return [m for m in itertools.product((0, 1), repeat=n) if any(m)]

    return [Configuration(u, t, s, k_values[t])
            for u in masks(params.n_unsup) for t in range(params.n_k)
            for s in masks(params.n_sup)]


class TestExactLaw:
    """On a menu small enough to enumerate, log pi is the log of a
    probability law over every configuration, and its REINFORCE estimator
    is the gradient of the expected reward."""

    K = (5, 9)

    def test_probabilities_sum_to_one(self):
        params = ControllerParams(3, 2, 2, hidden=6, seed=4)
        total = sum(np.exp(action_log_prob(params, cfg)[0])
                    for cfg in _every_configuration(params, self.K))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_score_function_has_mean_zero_and_gives_the_reward_gradient(self):
        params = ControllerParams(2, 2, 2, hidden=2, seed=5)
        tensors = params.tensors()
        configs = _every_configuration(params, self.K)
        rewards = np.random.default_rng(0).random(len(configs))

        zero_grads(tensors)
        for cfg in configs:
            pi = np.exp(action_log_prob(params, cfg)[0])
            action_log_prob(params, cfg, grad_scale=pi)
        assert np.abs(tensors.grads).max() < 1e-12  # sum of pi * grad log pi

        def expected_reward():
            """sum of pi * R, leaving sum of pi * R * grad log pi in the grads."""
            zero_grads(tensors)
            total = 0.0
            for cfg, r in zip(configs, rewards):
                pi = np.exp(action_log_prob(params, cfg)[0])
                action_log_prob(params, cfg, grad_scale=pi * r)
                total += pi * r
            return total

        assert finite_difference_check(expected_reward, tensors) < 1e-4


class TestFrequencyConsistency:
    def test_empirical_frequencies_match_enumerated_marginals(self):
        params = ControllerParams(4, 3, 3, hidden=12, seed=13)
        marginals = enumerate_policy(params)
        rng = np.random.default_rng(99)
        n = 10_000
        f_unsup = np.zeros(4)
        f_k = np.zeros(3)
        f_sup = np.zeros(3)
        for _ in range(n):
            cfg, _ = sample_configuration(params, rng, (1, 2, 3))
            f_unsup += cfg.unsup_mask
            f_k[cfg.k_index] += 1
            f_sup += cfg.sup_mask
        for emp, ana in ((f_unsup / n, marginals["unsup"]), (f_sup / n, marginals["sup"])):
            for e, a in zip(emp, ana):
                tv = abs(e - a)  # TV distance of a Bernoulli is |p - q|
                assert tv < 0.02
        tv_k = 0.5 * np.abs(f_k / n - marginals["k"]).sum()
        assert tv_k < 0.02

    @pytest.mark.parametrize("head", [0, 2], ids=["unsupervised", "supervised"])
    def test_masks_follow_the_nonempty_law_when_empty_is_likely(self, head):
        """Each choice selected with p of 0.001-0.004, so P(empty) >= 0.99: 3,000
        draws of one mask head, binned as each one-choice mask and every
        larger mask pooled, against the enumerated law (chi-squared with 3
        degrees of freedom below its 0.999 quantile, 16.27)."""
        params = ControllerParams(3, 2, 3, hidden=8, seed=3)
        for W, b in ((params.f_W, params.f_b), (params.q_W, params.q_b)):
            W.value *= 1000.0
            b.value[:] = (3.0, -3.0)
        field = "unsup_mask" if head == 0 else "sup_mask"
        clamp = Clamp(sup_mask=(1, 1, 1)) if head == 0 else Clamp((1, 0, 1), 1)
        probs = _traverse(params, Clamp((1, 0, 1), 1, (1, 1, 1)), None, None)["probs"][head]
        assert np.prod(probs[:, 0]) >= 0.99
        law = _nonzero_mask_distribution(probs)

        def bin_of(mask):
            return mask.index(1) if sum(mask) == 1 else 3

        expected = np.zeros(4)
        for mask, p in law.items():
            expected[bin_of(mask)] += p
        n = 3000
        expected *= n
        assert expected.min() >= 5
        observed = np.zeros(4)
        rng = np.random.default_rng(17)
        for _ in range(n):
            cfg, _ = sample_configuration(params, rng, (1, 2), clamp=clamp)
            observed[bin_of(getattr(cfg, field))] += 1
        assert ((observed - expected) ** 2 / expected).sum() < 16.27


def test_episode_log_serialization():
    cfg = Configuration((1, 0), 1, (0, 1), 20)
    entry = EpisodeLog(3, cfg, -1.5, 0.4, 0.6, 1.0, 0.55)
    data = entry.to_dict()
    assert data == {
        "episode": 3, "I1": [1, 0], "k": 20, "I3": [0, 1],
        "Ru": 0.4, "Rs": 0.6, "R": 1.0, "baseline": 0.55, "log_prob": -1.5,
    }
