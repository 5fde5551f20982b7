"""Autodiff tape, layers, policy head, and Adam against finite differences."""

import math
import operator

import numpy as np
import pytest

from streamdag import nn
from streamdag.errors import ConfigError
from streamdag.nn import (
    GaussianPolicy,
    GCNLayer,
    LSTMCell,
    Linear,
    ParamStore,
    Tensor,
    adam_step,
    concat,
    gcn_normalize,
)

from oracles import finite_diff_grad

RTOL = 1e-5
ATOL = 1e-8
STEP = 1e-4


def _grad_check(build_loss, arr: np.ndarray):
    """Compare tape gradient of build_loss(Tensor) with central differences."""
    leaf = Tensor(arr.copy(), requires_grad=True)
    build_loss(leaf).backward()
    fd = finite_diff_grad(lambda a: float(build_loss(Tensor(a)).data), arr.copy(), STEP)
    np.testing.assert_allclose(leaf.grad, fd, rtol=RTOL, atol=ATOL)


def test_elementwise_grads():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    _grad_check(lambda t: (t.tanh() * t.sigmoid() + t.square()).sum(), x)
    _grad_check(lambda t: ((t * 0.3).exp() - t).square().mean(), x)


def test_matmul_broadcast_grads():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 4, 3))
    x_fixed = np.random.default_rng(2).standard_normal((2, 5, 4))
    _grad_check(lambda t: (Tensor(x_fixed) @ t).square().sum(), w)
    # gradient w.r.t. the left operand as well
    _grad_check(lambda t: (t @ Tensor(w)).square().sum(), x_fixed)
    # a shared (d, d) matrix broadcast against a stacked right operand
    shared = np.random.default_rng(3).standard_normal((5, 5))
    stacked = np.random.default_rng(4).standard_normal((3, 5, 2))
    _grad_check(lambda t: (Tensor(shared) @ t).square().sum(), stacked)


def test_sum_mean_narrow_concat_grads():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6))
    _grad_check(lambda t: t.sum(axis=0).square().sum(), x)
    _grad_check(lambda t: t.mean(axis=1).square().sum(), x)
    _grad_check(lambda t: t.narrow(1, 2, 3).square().sum(), x)
    _grad_check(lambda t: concat([t.narrow(1, 0, 2), t.narrow(1, 2, 4)], axis=1).square().sum(), x)


def test_narrow_concat_grads_on_the_last_axis():
    """axis=-1, as the agents slice their gates and join their features."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 6))
    const = rng.standard_normal((2, 3, 2))
    _grad_check(lambda t: t.narrow(-1, 2, 3).square().sum(), x)
    _grad_check(lambda t: concat([t.narrow(-1, 3, 3), Tensor(const), t.narrow(-1, 0, 3)],
                                 axis=-1).square().sum(), x)


def test_clip_grad_zero_outside_range():
    x = np.array([-3.0, -1.0, 0.5, 4.0])
    leaf = Tensor(x, requires_grad=True)
    leaf.clip(-2.0, 2.0).sum().backward()
    assert leaf.grad.tolist() == [0.0, 1.0, 1.0, 0.0]


def test_broadcast_add_grads():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((1, 5))
    x = rng.standard_normal((7, 5))
    _grad_check(lambda t: (Tensor(x) + t).square().sum(), b)


@pytest.mark.parametrize("op", [operator.sub, operator.mul])
def test_broadcast_sub_mul_grads_on_either_side(op):
    """A (1, 5) operand against a (7, 5) one, as the left or the right operand."""
    rng = np.random.default_rng(6)
    b = rng.standard_normal((1, 5))
    x = rng.standard_normal((7, 5))
    _grad_check(lambda t: op(Tensor(x), t).square().sum(), b)
    _grad_check(lambda t: op(t, Tensor(x)).square().sum(), b)
    _grad_check(lambda t: op(t, Tensor(b)).square().sum(), x)
    _grad_check(lambda t: op(Tensor(b), t).square().sum(), x)
    # both operands need a gradient, and one of them is broadcast
    _grad_check(lambda t: op(t, t.sum(axis=0, keepdims=True)).square().sum(), x)
    _grad_check(lambda t: op(t.mean(axis=0, keepdims=True), t).square().sum(), x)


def test_diamond_graph_accumulates_once():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * 3.0
    z = y + y
    z.sum().backward()
    assert x.grad.tolist() == [6.0]


def test_lstm_zero_weights_unit_case():
    store = ParamStore()
    rng = np.random.default_rng(0)
    cell = LSTMCell(store, "lstm", (), 3, 2, rng)
    cell.wx.data[:] = 0.0
    cell.wh.data[:] = 0.0
    cell.b.data[:] = 0.0
    c0 = np.array([[0.4, -0.8]])
    h0 = np.zeros((1, 2))
    h, (hh, cc) = cell(Tensor(np.ones((1, 3))), (Tensor(h0), Tensor(c0)))
    # all gates are sigmoid(0)=0.5 and the candidate is tanh(0)=0
    np.testing.assert_allclose(cc.data, 0.5 * c0)
    np.testing.assert_allclose(h.data, 0.5 * np.tanh(0.5 * c0))


def test_lstm_grad_check_all_weights():
    """Two chained LSTM steps, gradient of each packed weight vs FD."""
    for which in ("wx", "wh", "b"):

        def loss(t, which=which):
            store = ParamStore()
            cell = LSTMCell(store, "lstm", (), 4, 4, np.random.default_rng(6))
            setattr(cell, which, t)
            x = Tensor(np.linspace(-1, 1, 8).reshape(2, 4))
            h = Tensor(np.zeros((2, 4)))
            c = Tensor(np.full((2, 4), 0.3))
            out, (h2, c2) = cell(x, (h, c))
            out2, _ = cell(out, (h2, c2))
            return (out2.square() + c2.square()).sum()

        shape = {"wx": (4, 16), "wh": (4, 16), "b": (1, 16)}[which]
        arr = np.random.default_rng(7).standard_normal(shape) * 0.5
        _grad_check(loss, arr)


def test_gcn_identity_pass_through():
    store = ParamStore()
    rng = np.random.default_rng(8)
    layer = GCNLayer(store, "gcn", (), 4, 4, rng)
    layer.lin.w.data = np.eye(4)
    layer.lin.b.data[:] = 0.0
    feats = np.arange(12.0).reshape(3, 4) / 12.0
    adj = np.zeros((3, 3))
    out = layer(Tensor(feats), gcn_normalize(adj))
    np.testing.assert_allclose(out.data, np.tanh(feats))


def test_gcn_normalization_values():
    # chain 0 -> 1: A+I = [[1,1],[0,1]], row degrees (2, 1)
    adj = np.array([[0.0, 1.0], [0.0, 0.0]])
    norm = gcn_normalize(adj)
    want = np.array([[0.5, 1.0 / math.sqrt(2.0)], [0.0, 1.0]])
    np.testing.assert_allclose(norm, want)


def test_gcn_grad_check():
    adj = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
    feats = np.linspace(-1, 1, 12).reshape(3, 4)
    rng = np.random.default_rng(9)
    w0 = rng.standard_normal((4, 5)) * 0.4

    def loss(t):
        store = ParamStore()
        layer = GCNLayer(store, "g", (), 4, 5, np.random.default_rng(9))
        layer.lin.w = t
        layer.lin.b = Tensor(np.zeros((1, 5)))
        return layer(Tensor(feats), gcn_normalize(adj)).square().sum()

    _grad_check(loss, w0)


def test_policy_log_prob_matches_closed_form():
    mean = np.array([0.3, -0.7, 1.1])
    log_std = np.array([-0.2, 0.0, 0.4])
    action = np.array([0.5, -0.5, 0.9])
    pol = GaussianPolicy(Tensor(mean), Tensor(log_std))
    got = float(pol.log_prob(action).data)
    var = np.exp(2 * log_std)
    want = float(np.sum(-0.5 * np.log(2 * math.pi * var) - (action - mean) ** 2 / (2 * var)))
    assert got == pytest.approx(want, rel=1e-12)


def test_policy_log_prob_grad_check():
    action = np.array([0.5, -0.5, 0.9, 0.0])

    def loss_mean(t):
        pol = GaussianPolicy(t, Tensor(np.array([-0.3, 0.1, 0.0, 0.2])))
        return -pol.log_prob(action)

    def loss_log_std(t):
        pol = GaussianPolicy(Tensor(np.array([0.1, 0.2, -0.1, 0.3])), t)
        return -pol.log_prob(action)

    _grad_check(loss_mean, np.array([0.1, 0.2, -0.1, 0.3]))
    _grad_check(loss_log_std, np.array([-0.3, 0.1, 0.0, 0.2]))


def test_policy_log_std_clamped():
    pol = GaussianPolicy(Tensor(np.zeros(2)), Tensor(np.array([-9.0, 9.0])))
    assert pol.log_std.data.tolist() == [-5.0, 2.0]


def test_critic_mlp_grad_check():
    """Two-layer MLP value head: tanh hidden, scalar output."""
    x = np.linspace(-1, 1, 8).reshape(2, 4)
    rng = np.random.default_rng(10)
    w1 = rng.standard_normal((4, 6)) * 0.5
    w2 = rng.standard_normal((6, 1)) * 0.5

    def loss_w1(t):
        h = (Tensor(x) @ t).tanh()
        v = h @ Tensor(w2)
        return (v - 1.5).square().sum()

    def loss_w2(t):
        h = (Tensor(x) @ Tensor(w1)).tanh()
        v = h @ t
        return (v - 1.5).square().sum()

    _grad_check(loss_w1, w1)
    _grad_check(loss_w2, w2)


def test_adam_first_step_is_signed_lr():
    store = ParamStore()
    p = store.add("p", np.array([1.0, -2.0, 3.0]))
    store.pack()
    (p * Tensor(np.array([0.5, -0.1, 0.0]))).sum().backward()     # the gradient is that array
    adam_step(store, lr=0.01)
    np.testing.assert_allclose(p.data, np.array([1.0 - 0.01, -2.0 + 0.01, 3.0]), atol=1e-6)


def test_adam_needs_a_packed_store():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    with pytest.raises(ConfigError):
        adam_step(store, lr=0.1)
    assert store.step_count == 0


def test_adam_rejects_params_without_grad():
    """A parameter with no gradient raises, and leaves every buffer as it was."""
    store = ParamStore()
    p = store.add("p", np.array([1.0]))
    q = store.add("q", np.array([2.0]))
    store.pack()
    (p + q).sum().backward()
    adam_step(store, lr=0.1)                        # one full step, so the moments are not 0
    store.zero_grad()
    p.sum().backward()
    before = [buf.copy() for buf in (store.data, store.m, store.v)]
    with pytest.raises(ConfigError, match=r"no gradient for parameters \['q'\]"):
        adam_step(store, lr=0.1)
    assert all(np.array_equal(a, b) for a, b in zip(before, (store.data, store.m, store.v)))
    assert store.step_count == 1


def _per_array_adam(params, grads, m, v, step, lr):
    """The per-array Adam loop that the packed store replaced, kept as the reference."""
    c1 = 1.0 - nn._ADAM_BETA1 ** step
    c2 = 1.0 - nn._ADAM_BETA2 ** step
    for name, g in grads.items():
        m[name] *= nn._ADAM_BETA1
        m[name] += (1.0 - nn._ADAM_BETA1) * g
        v[name] *= nn._ADAM_BETA2
        v[name] += (1.0 - nn._ADAM_BETA2) * (g * g)
        params[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + nn._ADAM_EPS)


@pytest.mark.parametrize("block", [7, nn._ADAM_BLOCK])
def test_packed_adam_matches_per_array_loop(monkeypatch, block):
    """Bit-for-bit equal to the per-array loop; a block of 7 values splits
    the buffer inside and across arrays."""
    monkeypatch.setattr(nn, "_ADAM_BLOCK", block)
    shapes = {"stack.w": (3, 4, 5), "stack.b": (3, 1, 5), "w": (6, 2), "b": (1, 2)}
    rng = np.random.default_rng(30)
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.standard_normal(shape))
    store.pack()
    ref = {name: store.params[name].data.copy() for name in shapes}
    ref_m = {name: np.zeros(shape) for name, shape in shapes.items()}
    ref_v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for step in range(1, 5):
        grads = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 3)
                 for name, shape in shapes.items()}
        store.zero_grad()
        loss = sum((store.params[name] * Tensor(g)).sum() for name, g in grads.items())
        loss.backward()                          # each gradient is g itself
        adam_step(store, lr=0.01)
        _per_array_adam(ref, grads, ref_m, ref_v, step, lr=0.01)
        for name, g in grads.items():
            assert store.params[name].grad.tobytes() == g.tobytes()
        for name in shapes:
            assert store.params[name].data.tobytes() == ref[name].tobytes()
        assert store.m.tobytes() == np.concatenate([a.ravel() for a in ref_m.values()]).tobytes()
        assert store.v.tobytes() == np.concatenate([a.ravel() for a in ref_v.values()]).tobytes()


@pytest.mark.parametrize("packed", [False, True])
def test_fanned_out_gradient_is_not_aliased(packed):
    """a + b hands one upstream array to both leaves; more gradient into a leaves b's alone."""
    store = ParamStore()
    a = store.add("a", np.array([1.0, 2.0]))
    b = store.add("b", np.array([3.0, 4.0]))
    if packed:
        store.pack()
    (a + b).backward(np.array([1.0, 1.0]))
    (a * 3.0).sum().backward()
    assert a.grad.tolist() == [4.0, 4.0]
    assert b.grad.tolist() == [1.0, 1.0]


def test_constants_get_no_gradient():
    """Backward skips every operand that does not require a gradient."""
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    consts = [Tensor(np.array([[3.0, 4.0]])) for _ in range(4)] + [Tensor(np.ones((2, 1)))]
    y = concat([(x + consts[0]) - consts[1], consts[2]], axis=0) * consts[3]
    (y @ consts[4]).sum().backward()
    assert x.grad.tolist() == [[3.0, 4.0]]
    assert all(c.grad is None for c in consts)


def test_linear_stacked_matches_per_slice():
    """A stacked (w, in, out) linear equals running each slice separately."""
    rng = np.random.default_rng(12)
    store = ParamStore()
    lin = Linear(store, "l", (3,), 4, 2, rng)
    x = rng.standard_normal((3, 5, 4))
    out = lin(Tensor(x)).data
    for k in range(3):
        single = x[k] @ lin.w.data[k] + lin.b.data[k]
        np.testing.assert_allclose(out[k], single)
