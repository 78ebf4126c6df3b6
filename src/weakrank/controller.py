"""Three-step recurrent policy over pipeline configurations.

Step 1 samples a mask over unsupervised scorers (one two-way softmax head
applied to the elementwise product of the hidden state with each scorer's
embedding), step 2 samples the k category from a softmax head on the hidden
state, step 3 samples a mask over supervised rankers like step 1. A mask is
drawn from its per-choice Bernoulli product conditioned on being non-empty,
and log pi is taken under that same law. The summed representation of each
step's selection feeds the next LSTM input. The policy step is REINFORCE
with an optional moving-average baseline b: SGD through
``nncore.optimizer_step`` on -(R - b) * log pi - entropy_coef * H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nncore import (
    LstmParams,
    OptimizerState,
    ParamGroup,
    ParamTensor,
    init_param,
    lstm_backward,
    lstm_forward,
    optimizer_step,
    zero_grads,
)


@dataclass(frozen=True)
class Configuration:
    """One sampled weak-supervision pipeline: scorer mask, k, ranker mask."""

    unsup_mask: tuple[int, ...]
    k_index: int
    sup_mask: tuple[int, ...]
    k_value: int

    def __post_init__(self):
        if sum(self.unsup_mask) < 1 or sum(self.sup_mask) < 1:
            raise ValueError("masks must select at least one model")
        if any(v not in (0, 1) for v in self.unsup_mask + self.sup_mask):
            raise ValueError("masks must be binary")

    def to_dict(self) -> dict:
        return {
            "I1": list(self.unsup_mask),
            "k_index": self.k_index,
            "k": self.k_value,
            "I3": list(self.sup_mask),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Configuration":
        return cls(tuple(data["I1"]), data["k_index"], tuple(data["I3"]), data["k"])


@dataclass(frozen=True)
class Clamp:
    """Fixes one or more steps for ablation runs; fixed steps are not sampled
    and contribute neither log-probability nor gradient."""

    unsup_mask: tuple[int, ...] | None = None
    k_index: int | None = None
    sup_mask: tuple[int, ...] | None = None


@dataclass
class BaselineState:
    """Exponential moving average of observed rewards."""

    decay: float
    value: float | None = None

    def update(self, reward: float) -> None:
        if self.value is None:
            self.value = reward
        else:
            self.value = self.decay * self.value + (1.0 - self.decay) * reward


@dataclass
class EpisodeLog:
    episode: int
    config: Configuration
    log_prob: float
    reward_unsup: float
    reward_sup: float
    reward: float
    baseline: float

    def to_dict(self) -> dict:
        return {
            "episode": self.episode,
            "I1": list(self.config.unsup_mask),
            "k": self.config.k_value,
            "I3": list(self.config.sup_mask),
            "Ru": self.reward_unsup,
            "Rs": self.reward_sup,
            "R": self.reward,
            "baseline": self.baseline,
            "log_prob": self.log_prob,
        }


class ControllerParams:
    """LSTM weights plus per-choice embeddings and the three sampling heads."""

    def __init__(self, n_unsup: int, n_k: int, n_sup: int, hidden: int, seed: int):
        self.n_unsup, self.n_k, self.n_sup = n_unsup, n_k, n_sup
        self.hidden = hidden
        rng = np.random.default_rng(seed)
        d = hidden
        self.lstm = LstmParams.create("ctrl.lstm", d, d, rng)
        self.x1 = init_param("ctrl.x1", (d,), rng)
        self.w_unsup = init_param("ctrl.w_unsup", (n_unsup, d), rng)
        self.z_k = init_param("ctrl.z_k", (n_k, d), rng)
        self.u_sup = init_param("ctrl.u_sup", (n_sup, d), rng)
        self.f_W = init_param("ctrl.f_W", (2, d), rng)
        self.f_b = init_param("ctrl.f_b", (2,), rng)
        self.g_W = init_param("ctrl.g_W", (n_k, d), rng)
        self.g_b = init_param("ctrl.g_b", (n_k,), rng)
        self.q_W = init_param("ctrl.q_W", (2, d), rng)
        self.q_b = init_param("ctrl.q_b", (2,), rng)
        self._group = ParamGroup(self.lstm.tensors() + [
            self.x1, self.w_unsup, self.z_k, self.u_sup,
            self.f_W, self.f_b, self.g_W, self.g_b, self.q_W, self.q_b,
        ])

    def tensors(self) -> ParamGroup:
        return self._group


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _mask_head_probs(h: np.ndarray, emb: ParamTensor, W: ParamTensor, b: ParamTensor):
    """Per-choice two-way probabilities; column 1 is "select"."""
    prods = h[None, :] * emb.value  # (N, d)
    logits = prods @ W.value.T + b.value  # (N, 2)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite controller logits")
    return prods, _row_softmax(logits)


def _k_head_probs(h: np.ndarray, W: ParamTensor, b: ParamTensor) -> np.ndarray:
    logits = W.value @ h + b.value
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite controller logits")
    return _row_softmax(logits)


def _traverse(params: ControllerParams, clamp: Clamp, decide_mask, decide_k):
    """Run the three LSTM steps; returns everything the backward pass needs.
    A step that ``clamp`` fixes takes its value, any other the choice of
    ``decide_mask(probs)`` or ``decide_k(probs)``."""
    d = params.hidden
    h0 = np.zeros(d)
    e0 = np.zeros(d)
    h1, e1, cache1 = lstm_forward(params.x1.value, h0, e0, params.lstm)
    prods1, probs1 = _mask_head_probs(h1, params.w_unsup, params.f_W, params.f_b)
    unsup_mask = np.asarray(decide_mask(probs1) if clamp.unsup_mask is None
                            else clamp.unsup_mask, dtype=np.int64)

    x2 = unsup_mask.astype(np.float64) @ params.w_unsup.value
    h2, e2, cache2 = lstm_forward(x2, h1, e1, params.lstm)
    probs2 = _k_head_probs(h2, params.g_W, params.g_b)
    k_index = int(decide_k(probs2) if clamp.k_index is None else clamp.k_index)

    x3 = params.z_k.value[k_index]
    h3, e3, cache3 = lstm_forward(x3, h2, e2, params.lstm)
    prods3, probs3 = _mask_head_probs(h3, params.u_sup, params.q_W, params.q_b)
    sup_mask = np.asarray(decide_mask(probs3) if clamp.sup_mask is None
                          else clamp.sup_mask, dtype=np.int64)

    return {
        "unsup_mask": unsup_mask, "k_index": k_index, "sup_mask": sup_mask,
        "caches": (cache1, cache2, cache3),
        "h": (h1, h2, h3),
        "prods": (prods1, prods3),
        "probs": (probs1, probs2, probs3),
    }


def _configuration(state, k_values) -> Configuration:
    return Configuration(
        tuple(int(v) for v in state["unsup_mask"]),
        state["k_index"],
        tuple(int(v) for v in state["sup_mask"]),
        int(k_values[state["k_index"]]),
    )


def _heads(state, clamp: Clamp):
    """(probabilities, chosen column per row, clamped, P0) for each step's
    head: P0 is a mask head's P(empty mask), 0 for the one-row k head."""
    probs1, probs2, probs3 = state["probs"]
    return (
        (probs1, state["unsup_mask"], clamp.unsup_mask is not None, float(np.prod(probs1[:, 0]))),
        (probs2[None, :], [state["k_index"]], clamp.k_index is not None, 0.0),
        (probs3, state["sup_mask"], clamp.sup_mask is not None, float(np.prod(probs3[:, 0]))),
    )


def _row_entropy(probs: np.ndarray) -> np.ndarray:
    """Entropy of each row of a head's (rows, choices) probabilities, (rows, 1)."""
    return -(probs * np.log(probs + 1e-300)).sum(axis=1, keepdims=True)


def _log_prob_of(heads) -> float:
    """Summed log-probability of the chosen columns over the unclamped heads,
    each mask conditioned on being non-empty: - log(1 - P0) per mask head."""
    total = 0.0
    for probs, chosen, clamped, p_empty in heads:
        if not clamped:
            picked = probs[np.arange(len(chosen)), chosen]
            total += float(np.log(picked).sum() - np.log1p(-p_empty))
    return total


def _sample_mask(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw of the Bernoulli product over ``probs[:, 1]`` conditioned on
    a non-empty mask, from n + 1 uniforms: the first selected choice i has
    P(first = i) proportional to p_i * prod_{j<i} (1 - p_j), and every later
    choice is selected with its own p."""
    u = rng.random(len(probs) + 1)
    cum = np.cumsum(probs[:, 1] * np.cumprod(np.concatenate([[1.0], probs[:-1, 0]])))
    first = int(np.searchsorted(cum, u[0] * cum[-1], side="right"))
    mask = (u[1:] < probs[:, 1]).astype(np.int64)
    mask[:first] = 0
    mask[first] = 1
    return mask


def sample_configuration(
    params: ControllerParams,
    rng: np.random.Generator,
    k_values,
    clamp: Clamp = Clamp(),
) -> tuple[Configuration, float]:
    """Sample one pipeline configuration; returns it with its log-probability.

    Clamped steps are taken as given and excluded from the log-probability.
    """
    if len(k_values) != params.n_k:
        raise ValueError(f"expected {params.n_k} k values, got {len(k_values)}")

    state = _traverse(
        params, clamp,
        lambda probs: _sample_mask(probs, rng),
        lambda probs: int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")),
    )
    return _configuration(state, k_values), _log_prob_of(_heads(state, clamp))


def action_log_prob(
    params: ControllerParams,
    config: Configuration,
    clamp: Clamp = Clamp(),
    grad_scale: float = 0.0,
    entropy_scale: float = 0.0,
) -> tuple[float, float]:
    """Replay the forward pass for a fixed configuration.

    Returns (log-probability, policy entropy at the visited states). When
    either scale is non-zero, accumulates the gradient of
    grad_scale * log pi + entropy_scale * entropy into the parameters.
    """
    if len(config.unsup_mask) != params.n_unsup or len(config.sup_mask) != params.n_sup:
        raise ValueError("configuration masks do not match registry sizes")
    if not 0 <= config.k_index < params.n_k:
        raise ValueError(f"k index {config.k_index} out of range")

    replay = Clamp(config.unsup_mask, config.k_index, config.sup_mask)
    state = _traverse(params, replay, None, None)
    heads = _heads(state, clamp)
    log_prob = _log_prob_of(heads)
    row_entropies = [None if clamped else _row_entropy(probs) for probs, _, clamped, _ in heads]
    entropy = 0.0
    for H in row_entropies:
        if H is not None:
            entropy += sum(H[:, 0].tolist())

    if grad_scale == 0.0 and entropy_scale == 0.0:
        return log_prob, entropy

    # --- backward ---------------------------------------------------------
    cache1, cache2, cache3 = state["caches"]
    h1, h2, h3 = state["h"]
    prods1, prods3 = state["prods"]

    def dlogits(probs, chosen, p_empty, H):
        """d(grad_scale * log pi + entropy_scale * entropy) / d logits, per row."""
        d = np.zeros_like(probs)
        if H is not None:  # the head is not clamped
            if grad_scale != 0.0:
                # onehot - probs + P0 / (1 - P0) * (e0 - probs)
                target = np.zeros_like(probs)
                target[np.arange(len(chosen)), chosen] = 1.0
                target[:, 0] += p_empty / (1.0 - p_empty)
                d += grad_scale * (target - probs / (1.0 - p_empty))
            if entropy_scale != 0.0:
                d += entropy_scale * (-probs * (np.log(probs + 1e-300) + H))
        return d

    d1, d2, d3 = (dlogits(probs, chosen, p_empty, H)
                  for (probs, chosen, _, p_empty), H in zip(heads, row_entropies))

    # step 3 head
    params.q_W.grad += d3.T @ prods3
    params.q_b.grad += d3.sum(axis=0)
    dprods3 = d3 @ params.q_W.value  # (N_s, d)
    dh3 = (dprods3 * params.u_sup.value).sum(axis=0)
    params.u_sup.grad += dprods3 * h3[None, :]

    # step 2 head
    d2 = d2[0]
    params.g_W.grad += np.outer(d2, h2)
    params.g_b.grad += d2
    dh2 = params.g_W.value.T @ d2

    # step 1 head
    params.f_W.grad += d1.T @ prods1
    params.f_b.grad += d1.sum(axis=0)
    dprods1 = d1 @ params.f_W.value
    dh1 = (dprods1 * params.w_unsup.value).sum(axis=0)
    params.w_unsup.grad += dprods1 * h1[None, :]

    # backprop through time
    dx3, dh2_rec, de2 = lstm_backward(dh3, np.zeros(params.hidden), cache3)
    params.z_k.grad[config.k_index] += dx3
    dx2, dh1_rec, de1 = lstm_backward(dh2 + dh2_rec, de2, cache2)
    sel = np.asarray(config.unsup_mask, dtype=np.float64)
    params.w_unsup.grad += sel[:, None] * dx2[None, :]
    dx1, _, _ = lstm_backward(dh1 + dh1_rec, de1, cache1)
    params.x1.grad += dx1

    return log_prob, entropy


def reinforce_update(
    params: ControllerParams,
    config: Configuration,
    reward: float,
    baseline: BaselineState,
    lr: float,
    use_baseline: bool,
    entropy_coef: float,
    clamp: Clamp = Clamp(),
) -> float:
    """One gradient-ascent step along (reward - baseline) * grad log pi.

    Returns the baseline value used for the advantage; the baseline state is
    updated with the reward after the step.
    """
    if not np.isfinite(reward):
        raise ValueError(f"non-finite reward {reward!r}")
    if use_baseline:
        if baseline.value is None:
            baseline.value = reward
        b = baseline.value
    else:
        b = 0.0
    advantage = reward - b
    if advantage != 0.0 or entropy_coef != 0.0:
        zero_grads(params.tensors())
        action_log_prob(params, config, clamp=clamp,
                        grad_scale=-advantage, entropy_scale=-entropy_coef)
        optimizer_step(params.tensors(), OptimizerState("sgd", lr=lr))
    if use_baseline:
        baseline.update(reward)
    return b


def _greedy_mask(probs: np.ndarray) -> np.ndarray:
    mask = (probs[:, 1] >= 0.5).astype(np.int64)
    if not mask.any():
        mask[int(np.argmax(probs[:, 1]))] = 1
    return mask


def greedy_decode(params: ControllerParams, k_values, clamp: Clamp = Clamp()) -> Configuration:
    """Most-likely configuration step by step: select every choice with
    select-probability >= 0.5 (falling back to the single best choice for an
    empty mask) and the argmax k category."""
    state = _traverse(params, clamp, _greedy_mask, lambda probs: int(np.argmax(probs)))
    return _configuration(state, k_values)
