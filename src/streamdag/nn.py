"""Minimal reverse-mode autodiff substrate on numpy.

Implements exactly what the agents need: a taped Tensor with a handful of
ops, dense/LSTM/GCN layers, a diagonal-Gaussian policy head, and Adam.
Every array is float64 and every leading dimension may be a stack axis, so
the same code runs one policy or a stack of factored sub-policies.  Each op
records one local derivative per parent, and `Tensor.backward` routes them.

A ParamStore keeps its parameters as views into one contiguous buffer, with
buffers of the same layout for their gradients and Adam's two moments.
Backward writes a parameter's gradient straight into its view of the
gradient buffer, and Adam runs its elementwise update over the whole packed
buffer, block by block, not array by array.
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
# Adam walks the packed buffer in blocks of this many values, so that its
# scratch is two blocks, not two copies of the store.
_ADAM_BLOCK = 32768


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast up from `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array, the tensors it was computed from, and one local derivative each.

    grads[i] maps the output's gradient to parents[i]'s, which backward sums
    back to the parent's shape where the op broadcast it; both tuples are
    dropped when no parent needs a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads", "_grad_view")

    def __init__(self, data, requires_grad=False, parents=(), grads=()):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._grads = grads if self.requires_grad else ()
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
        """Reverse-accumulate gradients from this (scalar) tensor to all leaves.

        Its last loop routes every gradient: parents that need none are
        skipped, broadcast axes summed out, parents taken in tuple order.
        """
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
            for parent, local in zip(node._parents, node._grads):
                if parent.requires_grad:
                    g, shape = local(node.grad), parent.data.shape
                    parent._accum(g if g.shape == shape else _unbroadcast(g, shape))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        return Tensor(self.data + other.data, parents=(self, other), grads=(_same, _same))

    def __sub__(self, other):
        other = as_tensor(other)
        return Tensor(self.data - other.data, parents=(self, other), grads=(_same, np.negative))

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(self.data * other.data, parents=(self, other),
                      grads=(lambda g: g * other.data, lambda g: g * self.data))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __matmul__(self, other):
        other = as_tensor(other)
        return Tensor(np.matmul(self.data, other.data), parents=(self, other),
                      grads=(lambda g: np.matmul(g, np.swapaxes(other.data, -1, -2)),
                             lambda g: np.matmul(np.swapaxes(self.data, -1, -2), g)))

    # -- nonlinearities and reductions --------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        return Tensor(y, parents=(self,), grads=(lambda g: g * (1.0 - y * y),))

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor(y, parents=(self,), grads=(lambda g: g * y * (1.0 - y),))

    def exp(self):
        y = np.exp(self.data)
        return Tensor(y, parents=(self,), grads=(lambda g: g * y,))

    def square(self):
        return Tensor(self.data * self.data, parents=(self,),
                      grads=(lambda g: 2.0 * g * self.data,))

    def clip(self, lo: float, hi: float):
        """Clamp values; gradient is zero outside [lo, hi]."""
        inside = (self.data >= lo) & (self.data <= hi)
        return Tensor(np.clip(self.data, lo, hi), parents=(self,), grads=(lambda g: g * inside,))

    def sum(self, axis=None, keepdims=False):
        def local(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), parents=(self,), grads=(local,))

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), parents=(self,),
                      grads=(lambda g: g.reshape(self.data.shape),))

    def narrow(self, axis: int, start: int, length: int):
        """Contiguous slice along one axis."""
        idx = (slice(None),) * (axis % self.data.ndim) + (slice(start, start + length),)

        def local(g):
            full = np.zeros_like(self.data)
            full[idx] = g
            return full

        return Tensor(self.data[idx], parents=(self,), grads=(local,))

    def broadcast_to(self, shape):
        return Tensor(np.broadcast_to(self.data, shape).copy(), parents=(self,), grads=(_same,))

    def detach(self):
        return Tensor(self.data.copy())


def _same(g: np.ndarray) -> np.ndarray:
    """The local derivative of an operand that passes through unchanged."""
    return g


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    lead = (slice(None),) * (axis % out.ndim)
    stops = np.cumsum([d.shape[axis] for d in datas])
    idxs = [lead + (slice(stop - d.shape[axis], stop),) for d, stop in zip(datas, stops)]
    return Tensor(out, parents=tuple(tensors), grads=tuple(lambda g, i=i: g[i] for i in idxs))


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
        """Move the parameters into the flat buffers; call it once, after the last `add`.

        `reuse` is a packed store of the same size that nobody will use
        again: this store takes over its buffers, zeroes the moments and
        leaves it empty.  An agent re-initialised at every state transition
        then keeps one set of buffers.  Fresh buffers at each transition
        raised the peak memory of a d=6 stream with a transition every third
        batch by about 3 MB: once such a block is freed, the C allocator
        serves later blocks of its size from the heap, which fragments.
        """
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


def adam_step(store: ParamStore, lr: float):
    """One bias-corrected Adam update over every parameter of the store.

    The store must be packed, and every parameter must have a gradient from
    backward, which writes it into the parameter's view of `store.grad`; a
    parameter without one raises before anything changes.  The update runs
    over the flat buffers one block at a time and writes its temporaries
    into the store's scratch.  Its operations and their order are those of
    the textbook per-array update, so the result is the same to the bit.
    """
    if store.data is None:
        raise ConfigError("adam_step needs a packed ParamStore")
    missing = [name for name, t in store.params.items() if t.grad is None]
    if missing:
        raise ConfigError(f"adam_step: no gradient for parameters {missing}")
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - _ADAM_BETA1 ** t
    c2 = 1.0 - _ADAM_BETA2 ** t
    for lo in range(0, store.data.size, _ADAM_BLOCK):
        hi = min(lo + _ADAM_BLOCK, store.data.size)
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
