"""Minimal differentiable numerics: explicit forward/backward pairs.

No autodiff graph. Every trained op returns (output, cache); the matching
backward consumes the cache, returns input gradients, and accumulates
parameter gradients in place. Kernel pooling runs only on frozen word
cosines, so it is forward-only. All values are float64, and the dense and
cosine ops take their arrays as given, converting nothing. ``dense_backward(...,
input_grad=False)`` is for a frozen input: it skips the input gradient and
returns None. The row cosine masks only when some row has a zero norm;
without one it computes directly, with bitwise the masked formula's values.

Every model trained through these ops, the search controller included,
keeps its parameters in a ``ParamGroup``: each tensor's value and gradient
are views into one flat value buffer and one flat gradient buffer. Zeroing
the gradients is then one fill, and an optimizer step is a few vector
operations over the whole model, elementwise identical to updating tensor
by tensor. Finiteness is checked once per step: on the flat gradient before
the update and on the flat values after it. Only a failing check looks for
the offending tensor, and its error names it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "tanh", "relu")
OPTIMIZERS = ("adam", "sgd")


def _ensure_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite values in {name}")
    return arr


class ParamTensor:
    """A named parameter with a gradient accumulator of the same shape."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        _ensure_finite(name, self.value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"ParamTensor({self.name!r}, shape={self.value.shape})"


class ParamGroup(tuple):
    """An ordered, fixed set of tensors backed by two flat buffers.

    Creating the group copies every value and gradient into ``values`` and
    ``grads`` and rebinds each tensor's ``value`` and ``grad`` to a view of
    its slice, so writes through either side are seen by the other.
    """

    def __new__(cls, tensors):
        self = super().__new__(cls, tensors)
        sizes = [p.value.size for p in self]
        self.bounds = np.cumsum([0] + sizes)
        self.values = np.zeros(self.bounds[-1])
        self.grads = np.zeros(self.bounds[-1])
        for p, lo, hi in zip(self, self.bounds[:-1], self.bounds[1:]):
            shape = p.value.shape
            self.values[lo:hi] = p.value.ravel()
            self.grads[lo:hi] = p.grad.ravel()
            p.value = self.values[lo:hi].reshape(shape)
            p.grad = self.grads[lo:hi].reshape(shape)
        return self

    def first_nonfinite(self, flat: np.ndarray) -> str:
        """Name of the first tensor whose slice of ``flat`` is not finite."""
        bad = int(np.flatnonzero(~np.isfinite(flat))[0])
        return self[int(np.searchsorted(self.bounds, bad, side="right")) - 1].name


def init_param(name: str, shape, rng: np.random.Generator, scale: float = 0.1) -> ParamTensor:
    """Default initialization: uniform(-scale, scale), seeded."""
    return ParamTensor(name, rng.uniform(-scale, scale, size=shape))


def zero_grads(group: ParamGroup) -> None:
    group.grads.fill(0.0)


# ---------------------------------------------------------------------------
# elementwise ops shared by every trainer


def sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """Overflow-safe logistic function. Both branches share one exp(-|x|),
    so each value is bitwise the textbook 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below. A caller that has computed exp(-|x|) already
    passes it as ``e``."""
    if e is None:
        e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def scatter_add_rows(table: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(table, idx, rows)`` for a C-contiguous 2-D table.

    The update runs as a 1-D ``np.add.at`` on the table's flat buffer: the
    same additions in the same order (a repeated row index accumulates in
    index order), so the result is bitwise equal, but NumPy's 1-D fast path
    makes it several times faster on small updates. ``idx`` is an integer
    array of any shape; ``rows`` holds one row per index, in its C order.
    """
    if not table.flags.c_contiguous:
        # reshape(-1) would return a copy, and the update would be lost
        raise ValueError("scatter_add_rows needs a C-contiguous table")
    d = table.shape[1]
    flat_idx = (idx.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    np.add.at(table.reshape(-1), flat_idx, rows.reshape(-1))


# ---------------------------------------------------------------------------
# dense layer


def dense_forward(x: np.ndarray, W: ParamTensor, b: ParamTensor | None, act: str = "identity"):
    """y = act(x W^T + b) for a (batch, d_in) float64 matrix x. The bias and
    the activation apply in place on the product's buffer."""
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    if x.ndim != 2 or x.shape[1] != W.value.shape[1]:
        raise ValueError(
            f"dense {W.name}: input shape {x.shape} is not (batch, weight dim {W.value.shape[1]})"
        )
    y = x @ W.value.T
    if b is not None:
        y += b.value
    if act == "tanh":
        np.tanh(y, out=y)
    elif act == "relu":
        np.maximum(y, 0.0, out=y)
    _ensure_finite(f"dense({W.name}) output", y)
    return y, (x, y, W, b, act)


def dense_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Accumulates into W.grad / b.grad; returns dx, shaped like x.

    ``input_grad=False`` is for a frozen input: it skips ``dpre @ W`` and
    returns None. The parameter gradients are the same either way. A ReLU's
    output is positive exactly where its input is, so the output alone
    serves every activation's derivative.
    """
    x, y, W, b, act = cache
    if act == "tanh":
        dpre = dy * (1.0 - y * y)
    elif act == "relu":
        dpre = dy * (y > 0.0)
    else:
        dpre = dy
    W.grad += dpre.T @ x
    if b is not None:
        b.grad += dpre.sum(axis=0)
    return dpre @ W.value if input_grad else None


# ---------------------------------------------------------------------------
# cosine similarity


def cosine_rows_forward(U: np.ndarray, V: np.ndarray):
    """Row-wise cosine for (n, d) float64 stacks. Zero-norm rows score 0 and receive
    zero gradient, which is the convention ranking models here rely on."""
    nu = np.sqrt((U * U).sum(axis=1))  # bitwise np.linalg.norm(U, axis=1)
    nv = np.sqrt((V * V).sum(axis=1))
    denom = nu * nv
    ok = denom > 0.0
    if ok.all():
        c = np.einsum("ij,ij->i", U, V) / denom
        return c, (U, V, nu, nv, c, None)
    c = np.zeros(U.shape[0])
    c[ok] = np.einsum("ij,ij->i", U[ok], V[ok]) / denom[ok]
    return c, (U, V, nu, nv, c, ok)


def cosine_rows_backward(dc: np.ndarray, cache):
    U, V, nu, nv, c, ok = cache
    if ok is None:  # every row has a non-zero norm
        a = (dc * (1.0 / (nu * nv)))[:, None]
        dcc = dc * c
        return (a * V - (dcc / (nu * nu))[:, None] * U,
                a * U - (dcc / (nv * nv))[:, None] * V)
    dU = np.zeros_like(U)
    dV = np.zeros_like(V)
    s = np.where(ok, dc, 0.0)
    nu_s = np.where(ok, nu, 1.0)
    nv_s = np.where(ok, nv, 1.0)
    inv = 1.0 / (nu_s * nv_s)
    dU[:] = (s * inv)[:, None] * V - (s * c / (nu_s * nu_s))[:, None] * U
    dV[:] = (s * inv)[:, None] * U - (s * c / (nv_s * nv_s))[:, None] * V
    dU[~ok] = 0.0
    dV[~ok] = 0.0
    return dU, dV


# ---------------------------------------------------------------------------
# RBF kernel pooling

_EPS_LOG = 1e-10  # guard inside the log of pooled kernel values


def default_kernel_bank() -> tuple[np.ndarray, np.ndarray]:
    """Eleven kernels: an exact-match spike at 1.0 plus ten soft bins."""
    mus = np.array([1.0, 0.9, 0.7, 0.5, 0.3, 0.1, -0.1, -0.3, -0.5, -0.7, -0.9])
    sigmas = np.array([1e-3] + [0.1] * 10)
    return mus, sigmas


def kernel_pool_forward(S: np.ndarray, q_counts: np.ndarray, c_counts: np.ndarray,
                        mus, sigmas, negative_exponent: bool):
    """RBF kernel pooling of a block of word cosines into (query, candidate)
    features, K-NRM style: ``pooled[h] = q_counts @ log(g_h(S) @ c_counts.T
    + eps)`` with ``g_h = exp(-(S - mu_h)^2 / (2 sigma_h^2))``.

    ``S`` is (query words, candidate words); ``q_counts`` is (queries, query
    words) and ``c_counts`` (candidates, candidate words), each document's
    count of each word. ``negative_exponent=False`` flips the exponent sign;
    that variant grows without bound as |s - mu| does and exists only for
    comparison runs. Returns the (H, queries, candidates) pooled array.
    """
    mus = np.asarray(mus, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if mus.shape != sigmas.shape or mus.ndim != 1 or len(mus) < 1:
        raise ValueError("mus and sigmas must be equal-length 1-D arrays")
    if np.any(sigmas <= 0):
        raise ValueError("kernel sigmas must be positive")
    sign = -1.0 if negative_exponent else 1.0
    pooled = np.empty((len(mus), q_counts.shape[0], c_counts.shape[0]))
    for h in range(len(mus)):
        g = np.exp(sign * (S - mus[h]) ** 2 / (2.0 * sigmas[h] ** 2))
        pooled[h] = q_counts @ np.log(g @ c_counts.T + _EPS_LOG)
    return pooled


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LstmParams:
    """Stacked gate parameters: rows ordered input, forget, output, candidate."""

    W: ParamTensor  # (4H, D + H)
    b: ParamTensor  # (4H,)
    hidden: int

    @classmethod
    def create(cls, name: str, input_dim: int, hidden: int, rng: np.random.Generator,
               scale: float = 0.1) -> "LstmParams":
        W = init_param(f"{name}.W", (4 * hidden, input_dim + hidden), rng, scale)
        b = init_param(f"{name}.b", (4 * hidden,), rng, scale)
        return cls(W, b, hidden)

    def tensors(self) -> list[ParamTensor]:
        return [self.W, self.b]


def lstm_forward(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, params: LstmParams):
    """Standard gated recurrence; returns (h, c, cache)."""
    H = params.hidden
    x = np.asarray(x, dtype=np.float64)
    if h_prev.shape != (H,) or c_prev.shape != (H,):
        raise ValueError(f"lstm state must have shape ({H},)")
    xc = np.concatenate([x, h_prev])
    z = params.W.value @ xc + params.b.value
    i = sigmoid(z[:H])
    f = sigmoid(z[H:2 * H])
    o = sigmoid(z[2 * H:3 * H])
    g = np.tanh(z[3 * H:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    _ensure_finite("lstm output", h)
    cache = (xc, c_prev, i, f, o, g, tc, params, x.shape[0])
    return h, c, cache


def lstm_backward(dh: np.ndarray, dc: np.ndarray, cache):
    """Returns (dx, dh_prev, dc_prev); accumulates into the gate parameters."""
    xc, c_prev, i, f, o, g, tc, params, D = cache
    dh = np.asarray(dh, dtype=np.float64)
    dc_total = np.asarray(dc, dtype=np.float64) + dh * o * (1.0 - tc * tc)
    do = dh * tc
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    dz = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        do * o * (1.0 - o),
        dg * (1.0 - g * g),
    ])
    params.W.grad += np.outer(dz, xc)
    params.b.grad += dz
    dxc = params.W.value.T @ dz
    return dxc[:D], dxc[D:], dc_prev


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    """Optimizer hyperparameters, Adam's step count ``t`` and its running
    averages ``m`` and ``v``: flat arrays laid out like the group's values,
    None until the first Adam step allocates them. A state drives one group.
    """

    algorithm: str  # one of OPTIMIZERS
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = field(default=None, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.algorithm!r}")


def optimizer_step(group: ParamGroup, state: OptimizerState) -> None:
    """Apply one update from the accumulated gradients, on the group's flat
    buffers."""
    g = group.grads
    if not np.isfinite(g).all():
        raise ValueError(f"non-finite gradient for parameter {group.first_nonfinite(g)!r}")
    if state.algorithm == "sgd":
        group.values -= state.lr * g
    else:
        state.t += 1
        bc1 = 1.0 - state.beta1 ** state.t
        bc2 = 1.0 - state.beta2 ** state.t
        if state.m is None:
            state.m = np.zeros_like(group.values)
            state.v = np.zeros_like(group.values)
        m, v = state.m, state.v
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        group.values -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    if not np.isfinite(group.values).all():
        raise ValueError(
            f"non-finite values in parameter {group.first_nonfinite(group.values)!r} after update"
        )
