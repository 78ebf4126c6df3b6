"""Minimal differentiable numerics: explicit forward/backward pairs.

No autodiff graph. Every op returns (output, cache); the matching backward
consumes the cache, returns input gradients, and accumulates parameter
gradients in place. All values are float64. ``dense_backward(...,
input_grad=False)`` is for a frozen input: it skips the input gradient and
returns None. The row cosine masks only when some row has a zero norm;
without one it computes directly, with bitwise the masked formula's values.

A model's parameters form a ``ParamGroup``: each tensor's value and gradient
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
        self.layout = tuple((p.name, p.value.shape) for p in self)
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


def zero_grads(params) -> None:
    if isinstance(params, ParamGroup):
        params.grads.fill(0.0)
    else:
        for p in params:
            p.grad.fill(0.0)


# ---------------------------------------------------------------------------
# elementwise ops shared by every trainer


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function. Both branches share one exp(-|x|),
    so each value is bitwise the textbook 1/(1+exp(-x)) for x >= 0 and
    exp(x)/(1+exp(x)) below."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log sigmoid(x) = -softplus(-x), overflow-safe."""
    lp = np.log1p(np.exp(-np.abs(x)))
    return np.where(x >= 0, -lp, x - lp)


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
    """y = act(W x + b). Accepts a single vector or a (batch, d_in) matrix."""
    if act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {act!r}")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.shape[1] != W.value.shape[1]:
        raise ValueError(
            f"dense {W.name}: input dim {x2.shape[1]} != weight dim {W.value.shape[1]}"
        )
    pre = x2 @ W.value.T
    if b is not None:
        pre = pre + b.value
    if act == "tanh":
        y = np.tanh(pre)
    elif act == "relu":
        y = np.maximum(pre, 0.0)
    else:
        y = pre
    _ensure_finite(f"dense({W.name}) output", y)
    cache = (x2, pre, y, W, b, act, single)
    return (y[0] if single else y), cache


def dense_backward(dy: np.ndarray, cache, input_grad: bool = True):
    """Accumulates into W.grad / b.grad; returns dx matching x's shape.

    ``input_grad=False`` is for a frozen input: it skips ``dpre @ W`` and
    returns None. The parameter gradients are the same either way.
    """
    x2, pre, y, W, b, act, single = cache
    dy2 = np.asarray(dy, dtype=np.float64)
    if single:
        dy2 = dy2[None, :]
    if act == "tanh":
        dpre = dy2 * (1.0 - y * y)
    elif act == "relu":
        dpre = dy2 * (pre > 0.0)
    else:
        dpre = dy2
    W.grad += dpre.T @ x2
    if b is not None:
        b.grad += dpre.sum(axis=0)
    if not input_grad:
        return None
    dx = dpre @ W.value
    return dx[0] if single else dx


# ---------------------------------------------------------------------------
# cosine similarity


def cosine_forward(u: np.ndarray, v: np.ndarray):
    """Scalar cosine with exact gradients; rejects zero-norm inputs."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine of a zero-norm vector is undefined")
    c = float(u @ v / (nu * nv))
    return c, (u, v, nu, nv, c)


def cosine_backward(dc: float, cache):
    u, v, nu, nv, c = cache
    du = dc * (v / (nu * nv) - c * u / (nu * nu))
    dv = dc * (u / (nu * nv) - c * v / (nv * nv))
    return du, dv


def cosine_rows_forward(U: np.ndarray, V: np.ndarray):
    """Row-wise cosine for (n, d) stacks. Zero-norm rows score 0 and receive
    zero gradient, which is the convention ranking models here rely on."""
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    nu = np.linalg.norm(U, axis=1)
    nv = np.linalg.norm(V, axis=1)
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


def default_kernel_bank() -> tuple[np.ndarray, np.ndarray]:
    """Eleven kernels: an exact-match spike at 1.0 plus ten soft bins."""
    mus = np.array([1.0, 0.9, 0.7, 0.5, 0.3, 0.1, -0.1, -0.3, -0.5, -0.7, -0.9])
    sigmas = np.array([1e-3] + [0.1] * 10)
    return mus, sigmas


def kernel_pool_forward(s_row: np.ndarray, mus: np.ndarray, sigmas: np.ndarray,
                        negative_exponent: bool = True):
    """K_h = sum_k exp(-(s_k - mu_h)^2 / (2 sigma_h^2)) over the row.

    ``negative_exponent=False`` flips the exponent sign; that variant grows
    without bound as |s - mu| does and exists only for comparison runs.
    """
    s_row = np.asarray(s_row, dtype=np.float64)
    mus = np.asarray(mus, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if mus.shape != sigmas.shape or mus.ndim != 1 or len(mus) < 1:
        raise ValueError("mus and sigmas must be equal-length 1-D arrays")
    if np.any(sigmas <= 0):
        raise ValueError("kernel sigmas must be positive")
    sign = -1.0 if negative_exponent else 1.0
    diff = s_row[None, :] - mus[:, None]  # (H, M)
    expo = sign * diff * diff / (2.0 * sigmas[:, None] ** 2)
    g = np.exp(expo)
    K = g.sum(axis=1)
    _ensure_finite("kernel_pool output", K)
    return K, (diff, g, sigmas, sign)


def kernel_pool_backward(dK: np.ndarray, cache):
    diff, g, sigmas, sign = cache
    # dK_h/ds_k = g_hk * sign * (s_k - mu_h) / sigma_h^2
    grad = g * (sign * diff) / (sigmas[:, None] ** 2)
    return np.asarray(dK, dtype=np.float64) @ grad


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
    """Optimizer hyperparameters and Adam's step count and moments.

    ``moments`` maps each tensor name to its (m, v) pair. Once a step has run
    they are views into two flat buffers laid out like the group's values.
    """

    algorithm: str  # "sgd" | "adam"
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    moments: dict = field(default_factory=dict)
    _flat: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.algorithm!r}")

    def flat_moments(self, group: ParamGroup) -> tuple[np.ndarray, np.ndarray]:
        """Flat (m, v) laid out like ``group``; built, from ``moments`` where
        a tensor has them and zeros elsewhere, when the layout changes."""
        if self._flat is None or self._flat[0] != group.layout:
            m = np.zeros_like(group.values)
            v = np.zeros_like(group.values)
            for p, lo, hi in zip(group, group.bounds[:-1], group.bounds[1:]):
                if p.name in self.moments:
                    old_m, old_v = self.moments[p.name]
                    m[lo:hi] = np.ravel(old_m)
                    v[lo:hi] = np.ravel(old_v)
                self.moments[p.name] = (m[lo:hi].reshape(p.shape), v[lo:hi].reshape(p.shape))
            self._flat = (group.layout, m, v)
        return self._flat[1], self._flat[2]


def optimizer_step(params, state: OptimizerState) -> None:
    """Apply one update from the accumulated gradients.

    The update runs on the group's flat buffers. A plain sequence of tensors
    is first packed into a new ``ParamGroup``, which rebinds their values and
    gradients to views of its buffers.
    """
    group = params if isinstance(params, ParamGroup) else ParamGroup(params)
    g = group.grads
    if not np.isfinite(g).all():
        raise ValueError(f"non-finite gradient for parameter {group.first_nonfinite(g)!r}")
    if state.algorithm == "sgd":
        group.values -= state.lr * g
    else:
        state.t += 1
        bc1 = 1.0 - state.beta1 ** state.t
        bc2 = 1.0 - state.beta2 ** state.t
        m, v = state.flat_moments(group)
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        group.values -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    if not np.isfinite(group.values).all():
        raise ValueError(
            f"non-finite values in parameter {group.first_nonfinite(group.values)!r} after update"
        )


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def finite_difference_check(forward_backward, tensors, h: float = 1e-5,
                            denom_floor: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward_backward()`` must return the scalar loss and leave gradients in
    ``tensors`` (it is responsible for zeroing them first). Every coordinate
    of every tensor is perturbed.
    """
    tensors = list(tensors)
    loss0 = forward_backward()
    analytic = [t.grad.copy() for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.value.reshape(-1)
        aflat = a.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = forward_backward()
            flat[idx] = orig - h
            lm = forward_backward()
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * h)
            denom = max(abs(aflat[idx]), abs(numeric), denom_floor)
            worst = max(worst, abs(aflat[idx] - numeric) / denom)
    # restore the analytic gradients for the caller
    forward_backward()
    for t, a in zip(tensors, analytic):
        np.copyto(t.grad, a)
    del loss0
    return worst
