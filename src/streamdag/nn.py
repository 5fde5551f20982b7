"""Minimal reverse-mode autodiff substrate on numpy.

Implements exactly what the agents need: a taped Tensor with a handful of
ops, dense/LSTM/GCN layers, a diagonal-Gaussian policy head, and Adam.
Every array is float64 and every leading dimension may be a stack axis, so
the same code runs one policy or a stack of factored sub-policies.

A ParamStore keeps its parameters as views into one contiguous buffer, with
buffers of the same layout for their gradients and Adam's two moments.
Backward writes a parameter's gradient straight into its view of the
gradient buffer, and Adam runs its elementwise update over each contiguous
run of parameters that have a gradient, block by block, not array by array.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionMismatchError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Adam walks a run of parameters in blocks of this many values, so that its
# scratch is two blocks, not two copies of the store.
_ADAM_BLOCK = 32768


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_view")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None
        self._grad_view = None      # a packed parameter's view of its store's gradient buffer

    def _accum(self, g: np.ndarray):
        """Add g to this tensor's gradient.

        The first g is written, never aliased (the same array may also go
        to another tensor), into fresh memory or into a packed parameter's
        view of its store's gradient buffer.  It is written as g + 0.0, the
        value a zero-filled gradient would hold: a -0.0 turns into 0.0.
        """
        if self.grad is None:
            self.grad = np.empty_like(self.data) if self._grad_view is None else self._grad_view
            np.add(g, 0.0, out=self.grad)
        else:
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
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        out._backward = bw if out.requires_grad else None
        return out

    def __sub__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data - other.data, parents=(self, other))

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(-g, other.data.shape))

        out._backward = bw if out.requires_grad else None
        return out

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, parents=(self, other))

        def bw(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
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
            if self.requires_grad:
                self._accum(_unbroadcast(np.matmul(g, np.swapaxes(other.data, -1, -2)),
                                         self.data.shape))
            if other.requires_grad:
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
            self._accum(np.broadcast_to(g, self.data.shape))

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
            if t.requires_grad:
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
    """Named parameter tensors in one flat buffer, with Adam's moments and step count.

    `add` registers a parameter; `pack` copies the registered parameters,
    in the order they were added, into `data`, one contiguous float64
    buffer, and rebinds each tensor's data to its view of it.  `grad`, `m`
    and `v` share that layout: backward writes a parameter's gradient into
    its view of `grad`, and `m`, `v` are Adam's first and second moments.
    A parameter's values stay in the buffer only while they are written in
    place.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.step_count = 0
        self.data: np.ndarray | None = None
        self.grad: np.ndarray | None = None
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if self.data is not None:
            raise ConfigError(f"cannot add {name!r} to a packed ParamStore")
        t = Tensor(np.asarray(data, dtype=float), requires_grad=True)
        self.params[name] = t
        return t

    def pack(self, reuse: ParamStore | None = None):
        """Move the parameters into the flat buffers (once; later calls do nothing).

        `reuse` is a packed store of the same size that nobody will use
        again: this store takes over its buffers, zeroes the moments and
        leaves it empty.  An agent re-initialised at every state transition
        then keeps one set of buffers.  Fresh buffers at each transition
        raised the peak memory of a d=6 stream with a transition every third
        batch by about 3 MB: once such a block is freed, the C allocator
        serves later blocks of its size from the heap, which fragments.
        """
        if self.data is not None:
            return
        size = sum(t.data.size for t in self.params.values())
        if reuse is None:
            self.data = np.empty(size)
            self.grad = np.zeros(size)
            self.m = np.zeros(size)
            self.v = np.zeros(size)
            self._scratch = np.empty((2, min(size, _ADAM_BLOCK)))
        else:
            if reuse.data is None or reuse.data.size != size:
                raise DimensionMismatchError(f"cannot reuse a store's buffers for {size} parameters")
            self.data, self.grad, self.m, self.v = reuse.data, reuse.grad, reuse.m, reuse.v
            self._scratch = reuse._scratch
            self.m.fill(0.0)
            self.v.fill(0.0)
            reuse.__init__()                   # its tensors no longer own their values
        start = 0
        for t in self.params.values():
            stop = start + t.data.size
            shape = t.data.shape
            self.data[start:stop] = t.data.ravel()
            t.data = self.data[start:stop].reshape(shape)
            t._grad_view = self.grad[start:stop].reshape(shape)
            start = stop

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def _grad_runs(self) -> list[tuple[int, int]]:
        """[start, stop) of each maximal run of adjacent parameters that have a gradient.

        A gradient assigned to `.grad` directly is first copied into `grad`.
        """
        runs: list[tuple[int, int]] = []
        stop = 0
        for name, t in self.params.items():
            start, stop = stop, stop + t.data.size
            if t.grad is None:
                continue
            if t.grad is not t._grad_view:
                if t.grad.shape != t.data.shape:
                    raise DimensionMismatchError(f"gradient shape mismatch for {name}")
                t._grad_view[...] = t.grad
                t.grad = t._grad_view
            if runs and runs[-1][1] == start:
                start = runs.pop()[0]
            runs.append((start, stop))
        return runs


def adam_step(store: ParamStore, lr: float):
    """One bias-corrected Adam update over every parameter with a gradient.

    The update packs the store if nobody has, then runs over its flat
    buffers, one block of each run of parameters with a gradient at a time,
    and writes its temporaries into the store's scratch.  Its operations and
    their order are those of the textbook per-array update, so the result
    is the same to the bit.
    """
    store.pack()
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - _ADAM_BETA1 ** t
    c2 = 1.0 - _ADAM_BETA2 ** t
    for run_start, run_stop in store._grad_runs():
        for lo in range(run_start, run_stop, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, run_stop)
            p, g, m, v = (buf[lo:hi] for buf in (store.data, store.grad, store.m, store.v))
            num, den = store._scratch[:, : hi - lo]
            m *= _ADAM_BETA1
            np.multiply(g, 1.0 - _ADAM_BETA1, out=num)
            m += num
            v *= _ADAM_BETA2
            np.multiply(g, g, out=num)
            num *= 1.0 - _ADAM_BETA2
            v += num
            np.divide(m, c1, out=num)
            num *= lr
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += _ADAM_EPS
            num /= den
            p -= num


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
