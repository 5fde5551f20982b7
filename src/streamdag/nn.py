"""Minimal reverse-mode autodiff substrate on numpy.

Implements exactly what the agents need: a taped Tensor with a handful of
ops, dense/LSTM/GCN layers, a diagonal-Gaussian policy head, and Adam.
Every array is float64 and every leading dimension may be a stack axis, so
the same code runs one policy or a stack of factored sub-policies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast up from `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad=None):
        """Reverse-accumulate gradients from this (scalar) tensor to all leaves."""
        if grad is None:
            if self.data.size != 1:
                raise DimensionMismatchError("backward() on a non-scalar needs a seed grad")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accum(np.asarray(grad, dtype=float))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, parents=(self, other))

        def bw(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(g, other.data.shape))

        out._backward = bw if out.requires_grad else None
        return out

    def __sub__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data - other.data, parents=(self, other))

        def bw(g):
            self._accum(_unbroadcast(g, self.data.shape))
            other._accum(_unbroadcast(-g, other.data.shape))

        out._backward = bw if out.requires_grad else None
        return out

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def bw(g):
            self._accum(_unbroadcast(g * other.data, self.data.shape))
            other._accum(_unbroadcast(g * self.data, other.data.shape))

        out._backward = bw if out.requires_grad else None
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __neg__(self):
        return self * (-1.0)

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(np.matmul(self.data, other.data), parents=(self, other))

        def bw(g):
            self._accum(_unbroadcast(np.matmul(g, np.swapaxes(other.data, -1, -2)),
                                     self.data.shape))
            other._accum(_unbroadcast(np.matmul(np.swapaxes(self.data, -1, -2), g),
                                      other.data.shape))

        out._backward = bw if out.requires_grad else None
        return out

    # -- nonlinearities and reductions --------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, parents=(self,))
        out._backward = (lambda g: self._accum(g * (1.0 - y * y))) if out.requires_grad else None
        return out

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(y, parents=(self,))
        out._backward = (lambda g: self._accum(g * y * (1.0 - y))) if out.requires_grad else None
        return out

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, parents=(self,))
        out._backward = (lambda g: self._accum(g * y)) if out.requires_grad else None
        return out

    def square(self):
        out = Tensor(self.data * self.data, parents=(self,))
        out._backward = (lambda g: self._accum(2.0 * g * self.data)) if out.requires_grad else None
        return out

    def clip(self, lo: float, hi: float):
        """Clamp values; gradient is zero outside [lo, hi]."""
        inside = (self.data >= lo) & (self.data <= hi)
        out = Tensor(np.clip(self.data, lo, hi), parents=(self,))
        out._backward = (lambda g: self._accum(g * inside)) if out.requires_grad else None
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,))

        def bw(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape).copy())

        out._backward = bw if out.requires_grad else None
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), parents=(self,))
        out._backward = (lambda g: self._accum(g.reshape(self.data.shape))) if out.requires_grad else None
        return out

    def narrow(self, axis: int, start: int, length: int):
        """Contiguous slice along one axis."""
        idx = [slice(None)] * self.data.ndim
        idx[axis] = slice(start, start + length)
        idx = tuple(idx)
        out = Tensor(self.data[idx], parents=(self,))

        def bw(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            self._accum(full)

        out._backward = bw if out.requires_grad else None
        return out

    def broadcast_to(self, shape):
        out = Tensor(np.broadcast_to(self.data, shape).copy(), parents=(self,))
        out._backward = (lambda g: self._accum(_unbroadcast(g, self.data.shape))) if out.requires_grad else None
        return out

    def detach(self):
        return Tensor(self.data.copy())


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    datas = [t.data for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis), parents=tuple(tensors))
    sizes = [d.shape[axis] for d in datas]

    def bw(g):
        start = 0
        for t, size in zip(tensors, sizes):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + size)
            t._accum(g[tuple(idx)])
            start += size

    out._backward = bw if out.requires_grad else None
    return out


# ---------------------------------------------------------------------------
# Parameter storage and Adam
# ---------------------------------------------------------------------------


class ParamStore:
    """Named parameter tensors with paired Adam moments and a step counter."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        t = Tensor(np.asarray(data, dtype=float), requires_grad=True)
        self.params[name] = t
        self.m[name] = np.zeros_like(t.data)
        self.v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


def adam_step(store: ParamStore, lr: float):
    """One bias-corrected Adam update over every parameter with a gradient."""
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - _ADAM_BETA1 ** t
    c2 = 1.0 - _ADAM_BETA2 ** t
    for name, p in store.params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise DimensionMismatchError(f"gradient shape mismatch for {name}")
        m = store.m[name]
        v = store.v[name]
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + _ADAM_EPS)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = shape[-2], shape[-1]
    s = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


class Linear:
    """Affine map on the last axis; weights carry any leading stack axes."""

    def __init__(self, store: ParamStore, name: str, stack: tuple[int, ...],
                 n_in: int, n_out: int, rng: np.random.Generator, gain: float = 1.0):
        self.w = store.add(f"{name}.w", _glorot(rng, stack + (n_in, n_out), gain))
        self.b = store.add(f"{name}.b", np.zeros(stack + (1, n_out)))

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.w + self.b


class LSTMCell:
    """Single LSTM cell; gate order in the packed weight is (i, f, g, o)."""

    def __init__(self, store: ParamStore, name: str, stack: tuple[int, ...],
                 n_in: int, n_hidden: int, rng: np.random.Generator):
        self.n_hidden = n_hidden
        self.wx = store.add(f"{name}.wx", _glorot(rng, stack + (n_in, 4 * n_hidden)))
        self.wh = store.add(f"{name}.wh", _glorot(rng, stack + (n_hidden, 4 * n_hidden)))
        self.b = store.add(f"{name}.b", np.zeros(stack + (1, 4 * n_hidden)))

    def __call__(self, x: Tensor, hidden: tuple[Tensor, Tensor]) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        h_prev, c_prev = hidden
        z = x @ self.wx + h_prev @ self.wh + self.b
        nh = self.n_hidden
        i = z.narrow(-1, 0, nh).sigmoid()
        f = z.narrow(-1, nh, nh).sigmoid()
        g = z.narrow(-1, 2 * nh, nh).tanh()
        o = z.narrow(-1, 3 * nh, nh).sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, (h, c)


def gcn_normalize(adj: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of A+I: D^{-1/2} (A+I) D^{-1/2}."""
    a = np.asarray(adj, dtype=float)
    a_hat = a + np.eye(a.shape[0])
    deg = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


class GCNLayer:
    """One graph convolution: tanh(norm(A+I) @ feats @ W + b)."""

    def __init__(self, store: ParamStore, name: str, stack: tuple[int, ...],
                 n_in: int, n_out: int, rng: np.random.Generator):
        self.lin = Linear(store, name, stack, n_in, n_out, rng)

    def __call__(self, feats: Tensor, adj_norm: np.ndarray) -> Tensor:
        return self.lin(Tensor(adj_norm) @ feats).tanh()


# ---------------------------------------------------------------------------
# Gaussian policy
# ---------------------------------------------------------------------------


class GaussianPolicy:
    """Diagonal Gaussian over a real action; log_std is pre-clamped."""

    def __init__(self, mean: Tensor, log_std: Tensor):
        self.mean = mean
        self.log_std = log_std.clip(LOG_STD_MIN, LOG_STD_MAX)

    def log_prob(self, action: np.ndarray, valid_mask: np.ndarray | None = None,
                 axis=None) -> Tensor:
        """Diagonal-Gaussian log density; mask selects which dims count."""
        z = (Tensor(action) - self.mean) * (-self.log_std).exp()
        per_dim = self.log_std + z.square() * 0.5 + 0.5 * LOG_2PI
        if valid_mask is not None:
            per_dim = per_dim * Tensor(valid_mask)
        return -per_dim.sum(axis=axis, keepdims=False) if axis is not None else -per_dim.sum()
