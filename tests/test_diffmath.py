"""Substrate tests: op gradients against central differences, masked softmax
contracts, the fused attention and linear nodes against the per-op chains
they replace, graph release, transformer layers, checkpoint round-trips."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsrl import diffmath as dm


def rng(seed=0):
    return np.random.default_rng(seed)


def f64(a):
    return np.asarray(a, dtype=np.float64)


# -- masked softmax ---------------------------------------------------------------
#
# The softmax lives inside the attention node. With one head, keys and values
# the first rows of an identity and d = 16 (so the 1/sqrt(d) query scale is a
# power of two and exact), the attention weights and the first nk output
# columns are softmax(scores, mask) for queries holding the scores, and the
# query gradient is the scores gradient times 1/4.

SOFTMAX_D = 16


def softmax_via_attention(scores, mask=None):
    """(weights, output, query tensor) of attention whose scores are ``scores``."""
    scores = scores.data if isinstance(scores, dm.Tensor) else np.asarray(scores)
    rows = scores.reshape(-1, scores.shape[-1])
    nq, nk = rows.shape
    q = np.zeros((nq, SOFTMAX_D), dtype=scores.dtype)
    q[:, :nk] = rows * math.sqrt(SOFTMAX_D)
    q = dm.Tensor(q, requires_grad=True)
    kv = dm.Tensor(np.eye(nk, SOFTMAX_D, dtype=scores.dtype))
    out, w = dm.multi_head_attention(q, kv, kv, 1, mask)
    return w.data.reshape(scores.shape), out, q


def test_softmax_uniform_on_equal_scores():
    w, _, _ = softmax_via_attention(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(w, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)


def test_softmax_single_survivor_is_exactly_one():
    w, _, _ = softmax_via_attention(np.array([[5.0, -2.0]]), np.array([[True, False]]))
    assert w[0, 0] == 1.0
    assert w[0, 1] == 0.0  # bit-exact zero, not merely small


def test_softmax_matches_direct_exponent_oracle():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()  # independent direct computation
    np.testing.assert_allclose(expected, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)
    w, _, _ = softmax_via_attention(x)
    np.testing.assert_allclose(w, expected, atol=1e-5)


def test_softmax_fully_masked_row_error_names_row():
    with pytest.raises(ValueError, match=r"\[1"):
        softmax_via_attention(np.zeros((3, 2)),
                              np.array([[True, True], [False, False], [True, False]]))


def test_softmax_mask_shape_mismatch():
    with pytest.raises(ValueError, match="mask shape"):
        softmax_via_attention(np.zeros((2, 3)), np.ones((2, 4), dtype=bool))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10_000))
def test_softmax_rows_are_simplex_with_exact_zeros(q, k, seed):
    g = rng(seed)
    scores = g.normal(size=(q, k)) * 5
    mask = g.random((q, k)) > 0.4
    mask[np.arange(q), g.integers(0, k, q)] = True  # keep every row alive
    out, _, _ = softmax_via_attention(scores, mask)
    assert np.all(out[~mask] == 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(out >= 0)


def test_softmax_zero_gradient_through_masked_entries():
    mask = np.array([[True, False, True, True], [True, True, False, True]])
    _, out, q = softmax_via_attention(f64(rng(1).normal(size=(2, 4))), mask)
    loss = dm.tensor_sum(dm.mul(out, f64(rng(2).normal(size=(2, SOFTMAX_D)))))
    loss.backward()
    assert q.grad[0, 1] == 0.0 and q.grad[1, 2] == 0.0
    assert np.all(q.grad[:, :4][mask] != 0.0)


# -- per-op gradients against central differences ------------------------------


def check_unary(make_loss, shape=(3, 4), seed=0, positive=False):
    g = rng(seed)
    data = g.normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    x = dm.Tensor(f64(data), requires_grad=True)
    err = dm.gradient_check(lambda: make_loss(x), [x], eps=1e-5, samples=x.data.size)
    assert err < 1e-6, f"gradient error {err}"


def weighted_sum(t, seed=7):
    w = rng(seed).normal(size=t.data.shape)
    return dm.tensor_sum(dm.mul(t, w))


def test_grad_add_broadcast_bias():
    g = rng(3)
    x = dm.Tensor(f64(g.normal(size=(3, 4))), requires_grad=True)
    b = dm.Tensor(f64(g.normal(size=4)), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.add(x, b)), [x, b], eps=1e-5, samples=16)
    assert err < 1e-6


def test_grad_mul_matmul():
    g = rng(4)
    a = dm.Tensor(f64(g.normal(size=(3, 4))), requires_grad=True)
    b = dm.Tensor(f64(g.normal(size=(4, 2))), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.matmul(a, b)), [a, b], eps=1e-5, samples=20)
    assert err < 1e-6
    c = dm.Tensor(f64(g.normal(size=(3, 4))), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.mul(a, c)), [a, c], eps=1e-5, samples=20)
    assert err < 1e-6


def test_grad_batched_matmul():
    g = rng(5)
    a = dm.Tensor(f64(g.normal(size=(2, 3, 4))), requires_grad=True)
    b = dm.Tensor(f64(g.normal(size=(2, 4, 5))), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.matmul(a, b)), [a, b], eps=1e-5, samples=30)
    assert err < 1e-6


@pytest.mark.parametrize("op,positive", [
    (dm.relu, False), (dm.sigmoid, False), (dm.exp, False), (dm.log, True),
    (lambda t: dm.power(t, 2.5), True),
    (lambda t: dm.tensor_sum(t, axis=1), False),
    (lambda t: dm.tensor_mean(t, axis=0), False),
    (lambda t: dm.reshape(t, (4, 3)), False),
    # the head split/merge transposes, which run inside the attention node
    (lambda t: dm.multi_head_attention(t, t, t, 2)[0], False),
    (lambda t: dm.narrow(t, 0, 1, 2), False),
    (dm.log_softmax, False),
])
def test_grad_unary_ops(op, positive):
    check_unary(lambda x: weighted_sum(op(x)), positive=positive)


def test_grad_concat_and_gather():
    g = rng(6)
    a = dm.Tensor(f64(g.normal(size=(2, 3))), requires_grad=True)
    b = dm.Tensor(f64(g.normal(size=(4, 3))), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.concat([a, b], axis=0)),
                            [a, b], eps=1e-5, samples=18)
    assert err < 1e-6
    idx = np.array([0, 3, 3, 1])
    err = dm.gradient_check(lambda: weighted_sum(dm.gather_rows(b, idx), seed=9),
                            [b], eps=1e-5, samples=12)
    assert err < 1e-6


def test_grad_layer_norm():
    # the oracle that the fused residual + layer norm node is held to
    g = rng(8)
    x = dm.Tensor(f64(g.normal(size=(3, 6))), requires_grad=True)
    gain = dm.Tensor(f64(g.normal(size=6)), requires_grad=True)
    bias = dm.Tensor(f64(g.normal(size=6)), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(oracle_layer_norm(x, gain, bias)),
                            [x, gain, bias], eps=1e-5, samples=30)
    assert err < 1e-6


def test_grad_bce_with_logits():
    g = rng(9)
    x = dm.Tensor(f64(g.normal(size=(4, 5))), requires_grad=True)
    t = (g.random((4, 5)) > 0.5).astype(np.float64)
    err = dm.gradient_check(lambda: dm.tensor_mean(dm.bce_with_logits(x, t)),
                            [x], eps=1e-5, samples=20)
    assert err < 1e-6


def test_grad_masked_softmax_attention_path():
    g = rng(10)
    q = dm.Tensor(f64(g.normal(size=(2, 3, 4))), requires_grad=True)
    k = dm.Tensor(f64(g.normal(size=(2, 5, 4))), requires_grad=True)
    v = dm.Tensor(f64(g.normal(size=(2, 5, 4))), requires_grad=True)
    mask = g.random((3, 5)) > 0.3
    mask[:, 0] = True
    err = dm.gradient_check(
        lambda: weighted_sum(dm.multi_head_attention(q, k, v, 1, mask)[0]),
        [q, k, v], eps=1e-5, samples=30)
    assert err < 1e-6


# -- gradient_check worked examples ---------------------------------------------


def test_gradient_check_square_function():
    x = dm.Tensor(f64([3.0]), requires_grad=True)
    err = dm.gradient_check(lambda: dm.tensor_sum(dm.mul(x, x)), [x], eps=1e-3, samples=1)
    # analytic 6 vs central difference 6 (x**2 has no third derivative term)
    assert err < 1e-8


def test_gradient_check_softmax_dot_constant():
    c = np.zeros(SOFTMAX_D)
    c[:4] = [0.3, -1.2, 2.0, 0.5]
    _, _, x = softmax_via_attention(np.array([[0.1, 0.9, -0.4, 0.2]], dtype=np.float32))
    kv = dm.Tensor(np.eye(4, SOFTMAX_D, dtype=np.float32))
    err = dm.gradient_check(
        lambda: dm.tensor_sum(dm.mul(dm.multi_head_attention(x, kv, kv, 1)[0], c)),
        [x], eps=1e-3, samples=4, float64=True)
    assert err < 1e-5


def test_gradient_check_rejects_nonscalar_and_nonfinite():
    x = dm.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        dm.gradient_check(lambda: x, [x], samples=1)
    with pytest.raises(ValueError, match="non-finite"):
        dm.gradient_check(lambda: dm.tensor_sum(dm.log(dm.mul(x, 0.0))), [x], samples=1)


# -- multi-head attention ---------------------------------------------------------


def test_attention_single_key_returns_value_row():
    g = rng(11)
    q = dm.Tensor(g.normal(size=(3, 8)).astype(np.float32))
    k = dm.Tensor(g.normal(size=(1, 8)).astype(np.float32))
    v = dm.Tensor(g.normal(size=(1, 8)).astype(np.float32))
    out, w = dm.multi_head_attention(q, k, v, n_heads=2)
    np.testing.assert_allclose(out.data, np.repeat(v.data, 3, axis=0), atol=1e-6)
    np.testing.assert_allclose(w.data, 1.0, atol=1e-7)


def test_attention_identical_keys_uniform_weights():
    g = rng(12)
    q = dm.Tensor(g.normal(size=(2, 4)).astype(np.float32))
    k = dm.Tensor(np.tile(g.normal(size=(1, 4)).astype(np.float32), (5, 1)))
    v = dm.Tensor(g.normal(size=(5, 4)).astype(np.float32))
    _, w = dm.multi_head_attention(q, k, v, n_heads=2)
    np.testing.assert_allclose(w.data, 0.2, atol=1e-6)


def test_attention_matches_dense_matrix_oracle():
    g = rng(13)
    d = 6
    q = g.normal(size=(2, d))
    k = g.normal(size=(3, d))
    v = g.normal(size=(3, d))
    out, w = dm.multi_head_attention(dm.Tensor(q), dm.Tensor(k), dm.Tensor(v), n_heads=1)
    scores = q @ k.T / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out.data, weights @ v, atol=1e-6)
    np.testing.assert_allclose(w.data, weights, atol=1e-6)


def test_attention_permutation_of_keys_values_mask():
    g = rng(14)
    q = dm.Tensor(g.normal(size=(3, 8)).astype(np.float32))
    k = g.normal(size=(5, 8)).astype(np.float32)
    v = g.normal(size=(5, 8)).astype(np.float32)
    mask = g.random((3, 5)) > 0.3
    mask[:, 2] = True
    out1, w1 = dm.multi_head_attention(q, dm.Tensor(k), dm.Tensor(v), 2, mask)
    perm = g.permutation(5)
    out2, w2 = dm.multi_head_attention(q, dm.Tensor(k[perm]), dm.Tensor(v[perm]), 2, mask[:, perm])
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-6)
    np.testing.assert_allclose(w1.data[:, perm], w2.data, atol=1e-6)


def test_attention_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        dm.multi_head_attention(dm.Tensor(np.zeros((2, 4))), dm.Tensor(np.zeros((3, 6))),
                                dm.Tensor(np.zeros((3, 6))), 2)


def test_batched_attention_equals_each_sequence_alone_and_gradients_check():
    g = rng(33)
    q = dm.Tensor(f64(g.normal(size=(2, 3, 8))), requires_grad=True)
    k = dm.Tensor(f64(g.normal(size=(2, 5, 8))), requires_grad=True)
    v = dm.Tensor(f64(g.normal(size=(2, 5, 8))), requires_grad=True)
    mask = g.random((3, 5)) > 0.3
    mask[:, 0] = True
    out, w = dm.multi_head_attention(q, k, v, 2, mask)
    assert out.shape == (2, 3, 8) and w.shape == (2, 3, 5)
    for b in range(2):
        out_b, w_b = dm.multi_head_attention(dm.Tensor(q.data[b]), dm.Tensor(k.data[b]),
                                             dm.Tensor(v.data[b]), 2, mask)
        np.testing.assert_allclose(out.data[b], out_b.data, atol=1e-12)
        np.testing.assert_allclose(w.data[b], w_b.data, atol=1e-12)
    err = dm.gradient_check(
        lambda: weighted_sum(dm.multi_head_attention(q, k, v, 2, mask)[0]),
        [q, k, v], eps=1e-5, samples=60, float64=True)
    assert err < 1e-6


def test_linear_maps_last_axis_of_nd_input_as_flattened_rows():
    g = rng(34)
    lin = dm.Linear(4, 3, g)
    x = dm.Tensor(g.normal(size=(2, 5, 4)), requires_grad=True)
    y = lin(x)
    assert y.shape == (2, 5, 3)
    np.testing.assert_array_equal(y.data.reshape(10, 3),
                                  lin(dm.Tensor(x.data.reshape(10, 4))).data)
    err = dm.gradient_check(lambda: weighted_sum(lin(x)), [x, lin.w, lin.b],
                            eps=1e-5, samples=40, float64=True)
    assert err < 1e-6


def test_feature_behind_masked_edge_has_exactly_zero_gradient():
    # a key/value token visible only through masked attention edges gets no gradient
    g = rng(15)
    q = dm.Tensor(g.normal(size=(2, 4)).astype(np.float32), requires_grad=True)
    kv = dm.Tensor(g.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    mask = np.array([[True, True, False], [True, True, False]])
    out, _ = dm.multi_head_attention(q, kv, kv, 2, mask)
    dm.tensor_sum(dm.mul(out, g.normal(size=(2, 4)))).backward()
    assert np.all(kv.grad[2] == 0.0)
    assert np.any(kv.grad[:2] != 0.0)


# -- fused nodes against the per-op chains they replace ------------------------------
#
# ``unfused_attention``, ``unfused_linear``, ``unfused_residual_layer_norm``
# and ``unfused_ffn`` are the per-op graphs that ``multi_head_attention``,
# ``Linear``, ``residual_layer_norm`` and ``ffn`` built before each became one
# node, kept here as oracles together with the ops only they used.


def oracle_transpose(x, axes):
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bw(out):
        dm._accumulate(x, out.grad.transpose(inverse))

    return dm._node(data, (x,), bw)


def oracle_masked_softmax(scores, mask=None):
    x = scores.data if mask is None else np.where(mask, scores.data, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)

    def bw(out):
        g = out.grad
        inner = (g * out.data).sum(axis=-1, keepdims=True)
        dm._accumulate(scores, out.data * (g - inner), own=True)

    return dm._node(data, (scores,), bw)


def unfused_attention(q, k, v, n_heads, mask=None):
    *lead, nq, d = q.data.shape
    nk = k.data.shape[-2]
    dh = d // n_heads
    b = len(lead)
    split = tuple(range(b)) + (b + 1, b, b + 2)
    qh = oracle_transpose(dm.reshape(dm.mul(q, 1.0 / math.sqrt(dh)), (*lead, nq, n_heads, dh)), split)
    kh = oracle_transpose(dm.reshape(k, (*lead, nk, n_heads, dh)), split)
    vh = oracle_transpose(dm.reshape(v, (*lead, nk, n_heads, dh)), split)
    scores = dm.matmul(qh, oracle_transpose(kh, tuple(range(b + 1)) + (b + 2, b + 1)))
    weights = oracle_masked_softmax(scores, mask)
    out = dm.matmul(weights, vh)
    out = dm.reshape(oracle_transpose(out, split), (*lead, nq, d))
    return out, dm.tensor_mean(weights, axis=b)


def oracle_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def bw(out):
        g = out.grad
        if gain.requires_grad:
            dm._accumulate(gain, (g * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            dm._accumulate(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dm._accumulate(x, inv * (dxhat - m1 - xhat * m2), own=True)

    return dm._node(data, (x, gain, bias), bw)


def unfused_residual_layer_norm(x, a, gain, bias):
    return oracle_layer_norm(dm.add(x, a), gain, bias)


def unfused_ffn(x, ffn_in, ffn_out):
    return ffn_out(dm.relu(ffn_in(x)))


def unfused_linear(lin, x):
    if x.data.ndim <= 2:
        return dm.add(dm.matmul(x, lin.w), lin.b)
    y = dm.add(dm.matmul(dm.reshape(x, (-1, x.shape[-1])), lin.w), lin.b)
    return dm.reshape(y, (*x.shape[:-1], y.shape[-1]))


def run_attention(fn, inputs, shared, mask, upstream):
    """Output, weights and input gradients of ``fn`` on fresh leaves."""
    leaves = [dm.Tensor(a.copy(), requires_grad=True) for a in inputs]
    q, k, v = (leaves[0],) * 3 if shared else leaves
    out, w = fn(q, k, v, 4, mask)
    dm.tensor_sum(dm.mul(out, upstream)).backward()
    return [out.data, w.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("shared", [False, True], ids=["qkv", "one-tensor"])
@pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
def test_fused_attention_equals_unfused_chain(lead, masked, shared):
    g = rng(50)
    nq, nk, d = (6, 6, 16) if shared else (5, 7, 16)
    shapes = [(*lead, nq, d)] if shared else [(*lead, nq, d), (*lead, nk, d), (*lead, nk, d)]
    inputs = [g.normal(size=s).astype(np.float32) for s in shapes]
    mask = None
    if masked:
        mask = g.random((nq, nk)) > 0.4
        mask[:, 0] = True
    upstream = g.normal(size=(*lead, nq, d)).astype(np.float32)
    fused = run_attention(dm.multi_head_attention, inputs, shared, mask, upstream)
    oracle = run_attention(unfused_attention, inputs, shared, mask, upstream)
    for a, b in zip(fused, oracle):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shared", [False, True], ids=["qkv", "one-tensor"])
@pytest.mark.parametrize("masked", [False, True], ids=["nomask", "mask"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
def test_attention_on_spare_buffers_equals_unfused_chain(lead, masked, shared, monkeypatch):
    # every score-sized array comes from the free list, here primed with NaN
    # garbage: the in-place softmax and gradient must overwrite all of it
    monkeypatch.setattr(dm, "_SPARE_MIN_SIZE", 0)
    monkeypatch.setattr(dm, "_spare", [np.full(4096, np.nan, np.float32) for _ in range(4)])
    g = rng(59)
    nq, nk, d = (7, 7, 16) if shared else (7, 9, 16)
    shapes = [(*lead, nq, d)] if shared else [(*lead, nq, d), (*lead, nk, d), (*lead, nk, d)]
    inputs = [g.normal(size=s).astype(np.float32) for s in shapes]
    mask = None
    if masked:
        mask = g.random((nq, nk)) > 0.4
        mask[np.arange(nq), g.integers(0, nk, nq)] = True
    upstream = g.normal(size=(*lead, nq, d)).astype(np.float32)
    recycled = run_attention(dm.multi_head_attention, inputs, shared, mask, upstream)
    oracle = run_attention(unfused_attention, inputs, shared, mask, upstream)
    for a, b in zip(recycled, oracle):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_recycled_score_buffers_leave_interleaved_graphs_intact(monkeypatch):
    # score-sized arrays come from the free list and go back to it; graphs
    # alive at the same time must never share one
    monkeypatch.setattr(dm, "_SPARE_MIN_SIZE", 64)
    monkeypatch.setattr(dm, "_spare", [])
    g = rng(68)
    inputs = [[g.normal(size=(2, 9, 8)).astype(np.float32) for _ in range(3)] for _ in range(3)]
    upstream = g.normal(size=(2, 9, 8)).astype(np.float32)
    expected = [run_attention(unfused_attention, arrays, False, None, upstream)
                for arrays in inputs]

    def build(arrays):
        leaves = [dm.Tensor(a.copy(), requires_grad=True) for a in arrays]
        out, w = dm.multi_head_attention(*leaves, 4)
        with dm.no_grad():  # takes a buffer and gives it straight back
            dm.multi_head_attention(*[dm.Tensor(a) for a in inputs[0]], 4)
        return leaves, out, w

    for _ in range(2):  # the second round runs on given-back buffers
        graphs = [build(arrays) for arrays in inputs]
        for leaves, out, w in reversed(graphs):
            dm.tensor_sum(dm.mul(out, upstream)).backward()
        for (leaves, out, w), want in zip(graphs, expected):
            for a, b in zip([out.data, w.data] + [t.grad for t in leaves], want):
                np.testing.assert_array_equal(a, b)
    assert 0 < len(dm._spare) <= dm._MAX_SPARE


def test_fully_masked_row_of_batched_attention_is_named_by_its_row():
    mask = np.ones((7, 4), dtype=bool)
    mask[5] = False
    q = dm.Tensor(rng(60).normal(size=(2, 7, 8)).astype(np.float32))
    kv = dm.Tensor(rng(61).normal(size=(2, 4, 8)).astype(np.float32))
    with pytest.raises(ValueError, match=r"fully masked softmax row\(s\): \[\[5\]\]$"):
        dm.multi_head_attention(q, kv, kv, 2, mask)


@pytest.mark.parametrize("shape", [(7, 12), (3, 5, 12), (2, 3, 4, 12)])
def test_fused_linear_equals_unfused_chain(shape):
    g = rng(51)
    lin = dm.Linear(12, 6, g)
    data = g.normal(size=shape).astype(np.float32)
    upstream = g.normal(size=(*shape[:-1], 6)).astype(np.float32)
    results = []
    for fn in (lambda x: lin(x), lambda x: unfused_linear(lin, x)):
        lin.w.grad = lin.b.grad = None
        x = dm.Tensor(data.copy(), requires_grad=True)
        y = fn(x)
        dm.tensor_sum(dm.mul(y, upstream)).backward()
        results.append([y.data, x.grad, lin.w.grad, lin.b.grad])
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def unfused_block(block, q_in, kv_in, mask=None):
    out, w = unfused_attention(unfused_linear(block.wq, q_in), unfused_linear(block.wk, kv_in),
                               unfused_linear(block.wv, kv_in), block.n_heads, mask)
    return unfused_linear(block.wo, out), w


@pytest.mark.parametrize("lead", [(), (3,)], ids=["2d", "batched"])
def test_fused_attention_block_gradients_equal_unfused_chain(lead):
    # the projections' backward reads the attention node's input gradients,
    # so this also pins their memory layout to the chain's
    g = rng(58)
    block = dm.AttentionBlock(64, 8, g)
    params = [p for _, p in block.named_parameters("a")]
    x = g.normal(size=(*lead, 20, 64)).astype(np.float32)
    mem = g.normal(size=(*lead, 30, 64)).astype(np.float32)
    mask = g.random((20, 30)) > 0.5
    mask[:, 0] = True
    upstream = g.normal(size=(*lead, 20, 64)).astype(np.float32)
    results = []
    for fn in (block, lambda *a: unfused_block(block, *a)):
        for p in params:
            p.grad = None
        xt, mt = dm.Tensor(x.copy(), requires_grad=True), dm.Tensor(mem.copy(), requires_grad=True)
        out, w = fn(xt, mt, mask)
        dm.tensor_sum(dm.mul(out, upstream)).backward()
        results.append([out.data, w.data, xt.grad, mt.grad] + [p.grad for p in params])
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def leaves_of(*arrays):
    return [dm.Tensor(a.copy(), requires_grad=True) for a in arrays]


# (x shape, residual shape): rows, batched rows, and the captioner's cross
# term shared by every position of a sequence
RESIDUAL_SHAPES = {"2d": ((7, 16), (7, 16)), "3d": ((3, 5, 16), (3, 5, 16)),
                   "broadcast": ((3, 5, 16), (3, 1, 16))}


@pytest.mark.parametrize("dropout_p", [0.0, 0.3], ids=["nodrop", "dropout"])
@pytest.mark.parametrize("shapes", RESIDUAL_SHAPES)
def test_fused_residual_layer_norm_equals_unfused_chain(shapes, dropout_p):
    g = rng(62)
    x_shape, a_shape = RESIDUAL_SHAPES[shapes]
    arrays = [g.normal(size=x_shape), g.normal(size=a_shape), 1 + 0.1 * g.normal(size=16),
              0.1 * g.normal(size=16)]
    arrays = [a.astype(np.float32) for a in arrays]
    upstream = g.normal(size=x_shape).astype(np.float32)
    results = []
    for fn in (dm.residual_layer_norm, unfused_residual_layer_norm):
        x, a, gain, bias = leaves = leaves_of(*arrays)
        out = fn(x, dm.dropout(a, dropout_p, rng(63), x_shape), gain, bias)
        dm.tensor_sum(dm.mul(out, upstream)).backward()
        results.append([out.data] + [t.grad for t in leaves])
    for a, b in zip(*results):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("shape, d_hidden, d_out", [((7, 16), 64, 16), ((3, 5, 16), 64, 16),
                                                   ((5, 16), 32, 6)],
                         ids=["2d", "3d", "head"])
def test_fused_ffn_equals_unfused_chain(shape, d_hidden, d_out):
    # "head": the shape of the encoder's verb head, whose output is narrower
    g = rng(64)
    ffn_in, ffn_out = dm.Linear(16, d_hidden, g), dm.Linear(d_hidden, d_out, g)
    params = [ffn_in.w, ffn_in.b, ffn_out.w, ffn_out.b]
    data = g.normal(size=shape).astype(np.float32)
    upstream = g.normal(size=(*shape[:-1], d_out)).astype(np.float32)
    results = []
    for fn in (dm.ffn, unfused_ffn):
        for p in params:
            p.grad = None
        x = dm.Tensor(data.copy(), requires_grad=True)
        out = fn(x, ffn_in, ffn_out)
        dm.tensor_sum(dm.mul(out, upstream)).backward()
        results.append([out.data, x.grad] + [p.grad for p in params])
    assert np.any(results[0][1] != 0) and np.any(results[0][0] != 0)
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def unfused_sublayers(layer, x, a, drop, memory=None, cross_mask=None, cross_out=None):
    """``TransformerLayer._sublayers`` as the per-op chain."""
    x = unfused_residual_layer_norm(x, drop(a), layer.ln1.gain, layer.ln1.bias)
    if memory is not None:
        cross_out, _ = layer.cross_attn(x, memory, cross_mask)
    if cross_out is not None:
        x = unfused_residual_layer_norm(x, drop(cross_out), layer.ln_cross.gain,
                                        layer.ln_cross.bias)
    f = unfused_ffn(x, layer.ffn_in, layer.ffn_out)
    return unfused_residual_layer_norm(x, drop(f), layer.ln2.gain, layer.ln2.bias), None


@pytest.mark.parametrize("dropout_p", [0.0, 0.2], ids=["nodrop", "dropout"])
@pytest.mark.parametrize("kind", ["encoder", "cross", "cross-out"])
def test_fused_layer_gradients_equal_unfused_chain(kind, dropout_p, monkeypatch):
    # the role decoder's layer (cross) and the captioner's (cross-out, whose
    # (n, 1, d) cross term broadcasts over every position), with dropout on
    g = rng(65)
    layer = dm.TransformerLayer(16, 4, g, cross=kind != "encoder")
    params = [p for _, p in layer.named_parameters("l")]
    x = g.normal(size=(3, 5, 16) if kind == "cross-out" else (6, 16)).astype(np.float32)
    mem = g.normal(size=(9, 16)).astype(np.float32)
    cross_mask = g.random((6, 9)) > 0.5
    cross_mask[:, 0] = True
    z = g.normal(size=(3, 1, 16)).astype(np.float32)
    upstream = g.normal(size=x.shape).astype(np.float32)
    results = []
    for sublayers in (dm.TransformerLayer._sublayers, unfused_sublayers):
        monkeypatch.setattr(dm.TransformerLayer, "_sublayers", sublayers)
        for p in params:
            p.grad = None
        xt, mt, zt = leaves_of(x, mem, z)
        kwargs = {"cross": dict(memory=mt, cross_mask=cross_mask),
                  "cross-out": dict(cross_out=zt)}.get(kind, {})
        out, _ = layer(xt, dropout_p=dropout_p, rng=rng(66), **kwargs)
        dm.tensor_sum(dm.mul(out, upstream)).backward()
        results.append([out.data, xt.grad, mt.grad, zt.grad] + [p.grad for p in params])
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_grad_fused_residual_layer_norm_and_ffn_float64():
    g = rng(67)
    x = dm.Tensor(g.normal(size=(2, 3, 6)), requires_grad=True)
    a = dm.Tensor(g.normal(size=(2, 1, 6)), requires_grad=True)
    gain = dm.Tensor(1 + 0.5 * g.normal(size=6), requires_grad=True)
    bias = dm.Tensor(g.normal(size=6), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.residual_layer_norm(x, a, gain, bias)),
                            [x, a, gain, bias], eps=1e-5, samples=40, float64=True)
    assert err < 1e-6
    ffn_in, ffn_out = dm.Linear(6, 12, g), dm.Linear(12, 6, g)
    err = dm.gradient_check(lambda: weighted_sum(dm.ffn(x, ffn_in, ffn_out)),
                            [x, ffn_in.w, ffn_in.b, ffn_out.w, ffn_out.b],
                            eps=1e-5, samples=60, float64=True)
    assert err < 1e-6


@pytest.mark.parametrize("shared", [False, True], ids=["qkv", "one-tensor"])
def test_grad_fused_attention_float64(shared):
    g = rng(52)
    q = dm.Tensor(g.normal(size=(4, 8)).astype(np.float32), requires_grad=True)
    k, v = (q, q) if shared else (dm.Tensor(g.normal(size=(4, 8)).astype(np.float32),
                                            requires_grad=True) for _ in range(2))
    mask = np.tril(np.ones((4, 4), dtype=bool))
    params = [q] if shared else [q, k, v]
    err = dm.gradient_check(lambda: weighted_sum(dm.multi_head_attention(q, k, v, 2, mask)[0]),
                            params, eps=1e-5, samples=48, float64=True)
    assert err < 1e-6


def test_attention_masked_positions_get_exactly_zero_weight_and_gradient():
    g = rng(54)
    q, k, v = (dm.Tensor(g.normal(size=(2, 4, 8)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    mask = g.random((4, 4)) > 0.5
    mask[:, 0] = True
    mask[:, 3] = False  # key 3 is visible to no query
    out, w = dm.multi_head_attention(q, k, v, 2, mask)
    assert np.all(w.data[:, ~mask] == 0.0)
    weighted_sum(out).backward()
    assert np.all(k.grad[:, 3] == 0.0) and np.all(v.grad[:, 3] == 0.0)
    assert np.all(k.grad[:, 0] != 0.0) and np.all(v.grad[:, 0] != 0.0)


def test_attention_weights_are_outside_the_graph():
    x = dm.Tensor(rng(55).normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    out, w = dm.multi_head_attention(x, x, x, 2)
    assert out.requires_grad and not w.requires_grad and w._parents == ()
    _, none = dm.multi_head_attention(x, x, x, 2, need_weights=False)
    assert none is None


# -- graph release ----------------------------------------------------------------


def test_backward_releases_the_graph():
    layer = dm.TransformerLayer(8, 2, rng(56))
    x = dm.Tensor(rng(57).normal(size=(3, 8)).astype(np.float32), requires_grad=True)
    loss = weighted_sum(layer(x)[0])
    loss.backward()
    assert loss._parents == ()
    assert x.grad is not None and all(p.grad is not None for _, p in layer.named_parameters("l"))


def test_backward_from_a_leaf_root():
    w = dm.Tensor(np.arange(3, dtype=np.float32), requires_grad=True)
    w.backward()
    np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])
    w.backward(np.array([2.0, 0.0, -1.0], dtype=np.float32))  # leaves stay usable
    np.testing.assert_array_equal(w.grad, [3.0, 1.0, 0.0])


def test_second_backward_raises():
    w = dm.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    hidden = dm.mul(w, 2.0)
    loss = dm.tensor_sum(hidden)
    loss.backward()
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])
    with pytest.raises(dm.GraphReleasedError, match="released"):
        loss.backward()
    with pytest.raises(dm.GraphReleasedError):  # a new graph through a released node
        dm.tensor_sum(dm.mul(hidden, 3.0)).backward()
    np.testing.assert_array_equal(w.grad, [2.0, 2.0, 2.0])
    dm.tensor_sum(dm.mul(w, 3.0)).backward()  # leaves stay usable
    np.testing.assert_array_equal(w.grad, [5.0, 5.0, 5.0])


def test_graph_dropped_without_backward_leaves_no_cyclic_garbage():
    # Linear, attention, residual_layer_norm and ffn nodes, never backpropagated
    # (a finite-difference forward, or one that raises): reference counting
    # alone must free them
    layer = dm.TransformerLayer(8, 2, rng(45))
    x = dm.Tensor(rng(46).normal(size=(5, 8)).astype(np.float32), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        out, _ = layer(x)
        loss = dm.tensor_sum(dm.mul(out, out))
        assert loss.requires_grad and out._backward is not None
        del out, loss
        collected = gc.collect()
    finally:
        gc.enable()
    assert collected == 0


# -- parameter walk -----------------------------------------------------------------


class _Toy(dm.Module):
    def __init__(self, g):
        self.scale = dm.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        self.const = dm.Tensor(np.zeros(3, dtype=np.float32))
        self.n = 4
        self.proj = dm.Linear(3, 2, g)
        self.heads = [dm.Linear(2, 2, g), dm.Linear(2, 1, g)]


def test_module_walks_grad_tensors_in_assignment_order_with_indexed_list_paths():
    toy = _Toy(rng(90))
    named = list(toy.named_parameters("toy"))
    assert [name for name, _ in named] == [
        "toy.scale", "toy.proj.w", "toy.proj.b",
        "toy.heads.0.w", "toy.heads.0.b", "toy.heads.1.w", "toy.heads.1.b"]
    expected = [toy.scale, toy.proj.w, toy.proj.b,
                toy.heads[0].w, toy.heads[0].b, toy.heads[1].w, toy.heads[1].b]
    assert all(p is q for (_, p), q in zip(named, expected))
    assert all(p is q for p, q in zip(toy.parameters(), expected))
    assert [name for name, _ in toy.named_parameters()][:2] == ["scale", "proj.w"]


# -- transformer layers -------------------------------------------------------------


def test_encoder_layer_preserves_token_count():
    layer = dm.TransformerLayer(8, 2, rng(16))
    x = dm.Tensor(rng(17).normal(size=(5, 8)).astype(np.float32))
    out, _ = layer(x)
    assert out.shape == (5, 8)


def test_post_norm_layer_matches_straight_line_oracle():
    layer = dm.TransformerLayer(8, 2, rng(20))
    x = dm.Tensor(rng(21).normal(size=(2, 8)).astype(np.float32))
    out, _ = layer(x)
    # same computation composed by hand from the primitives
    a, _ = layer.self_attn(x, x, None)
    h = oracle_layer_norm(dm.add(x, a), layer.ln1.gain, layer.ln1.bias)
    f = layer.ffn_out(dm.relu(layer.ffn_in(h)))
    expected = oracle_layer_norm(dm.add(h, f), layer.ln2.gain, layer.ln2.bias)
    np.testing.assert_array_equal(out.data, expected.data)


def test_decoder_layer_requires_cross_mask():
    layer = dm.TransformerLayer(8, 2, rng(22), cross=True)
    x = dm.Tensor(np.zeros((2, 8), dtype=np.float32))
    mem = dm.Tensor(np.zeros((3, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="cross mask"):
        layer(x, memory=mem)
    out, w = layer(x, memory=mem, cross_mask=np.ones((2, 3), dtype=bool))
    assert out.shape == (2, 8) and w.shape == (2, 3)


def test_memory_to_encoder_layer_is_error():
    layer = dm.TransformerLayer(8, 2, rng(23))
    with pytest.raises(ValueError, match="without cross-attention"):
        layer(dm.Tensor(np.zeros((2, 8))), memory=dm.Tensor(np.zeros((2, 8))))


def test_layer_forward_is_deterministic():
    layer = dm.TransformerLayer(8, 2, rng(24))
    x = dm.Tensor(rng(25).normal(size=(6, 8)).astype(np.float32))
    a, _ = layer(x)
    b, _ = layer(x)
    np.testing.assert_array_equal(a.data, b.data)


def test_layer_gradients_flow_end_to_end():
    layer = dm.TransformerLayer(6, 2, rng(26))
    params = [p for _, p in layer.named_parameters("l")]
    for p in params:
        p.data = p.data.astype(np.float64)
    x = dm.Tensor(f64(rng(27).normal(size=(3, 6))))
    err = dm.gradient_check(lambda: weighted_sum(layer(x)[0]), params, eps=1e-5, samples=60)
    assert err < 1e-6


def test_attention_step_matches_causal_attention_over_the_prefix():
    block = dm.AttentionBlock(8, 2, rng(28))
    x = rng(29).normal(size=(3, 5, 8)).astype(np.float32)  # 3 sequences of 5
    causal = np.tril(np.ones((5, 5), dtype=bool))
    cache = None
    for t in range(5):
        out, cache = block.step(dm.Tensor(x[:, t]), cache)
        assert cache[0].shape == cache[1].shape == (3, t + 1, 8)
        for r in range(3):
            full, _ = block(dm.Tensor(x[r]), dm.Tensor(x[r]), causal)
            np.testing.assert_allclose(out.data[r], full.data[t], atol=1e-6)


def test_layer_step_matches_full_layer_with_one_memory_row_per_sequence():
    layer = dm.TransformerLayer(8, 2, rng(30), cross=True)
    x = rng(31).normal(size=(2, 4, 8)).astype(np.float32)
    z = dm.Tensor(rng(32).normal(size=(2, 8)).astype(np.float32))
    cross = layer.cross_attn.wo(layer.cross_attn.wv(z))
    causal = np.tril(np.ones((4, 4), dtype=bool))
    # teacher-forced: both sequences at once on a leading axis, one causal mask
    forced, _ = layer(dm.Tensor(x), self_mask=causal, cross_out=dm.reshape(cross, (2, 1, 8)))
    assert forced.shape == (2, 4, 8)
    cache = None
    for t in range(4):
        out, cache = layer.step(dm.Tensor(x[:, t]), cache, cross)
        np.testing.assert_allclose(out.data, forced.data[:, t], atol=1e-5)
        for r in range(2):
            full, _ = layer(dm.Tensor(x[r]), memory=dm.Tensor(z.data[r:r + 1]),
                            self_mask=causal, cross_mask=np.ones((4, 1), dtype=bool))
            np.testing.assert_allclose(out.data[r], full.data[t], atol=1e-5)


def test_dropout_zero_is_identity_and_seeded():
    x = dm.Tensor(np.ones((4, 4), dtype=np.float32))
    assert dm.dropout(x, 0.0, rng(0)) is x
    a = dm.dropout(x, 0.5, rng(42)).data
    b = dm.dropout(x, 0.5, rng(42)).data
    np.testing.assert_array_equal(a, b)


# -- no-grad mode -----------------------------------------------------------------


def test_no_grad_nodes_are_plain_leaves():
    w = dm.Tensor(rng(40).normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    x = dm.Tensor(rng(41).normal(size=(2, 3)).astype(np.float32))
    with dm.no_grad():
        lin = dm.Linear(4, 4, rng(44))
        for out in (dm.matmul(x, w), dm.relu(w), dm.add(w, w), dm.residual_layer_norm(
                w, w, dm.Tensor(np.ones(4), requires_grad=True), dm.Tensor(np.zeros(4))),
                lin(w), dm.ffn(w, lin, lin), dm.multi_head_attention(w, w, w, 2)[0]):
            assert out.requires_grad is False
            assert out._parents == () and out._backward is None
    assert dm.matmul(x, w).requires_grad


def test_no_grad_restores_mode_after_exception_and_nesting():
    w = dm.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with dm.no_grad():
            raise RuntimeError("inside")
    assert dm.add(w, w).requires_grad
    with dm.no_grad():
        with dm.no_grad():
            pass
        assert not dm.add(w, w).requires_grad  # the inner exit keeps the outer mode
    assert dm.add(w, w).requires_grad


def test_graph_after_no_grad_backpropagates_as_before():
    layer = dm.TransformerLayer(8, 2, rng(42))
    params = [p for _, p in layer.named_parameters("l")]
    x = dm.Tensor(rng(43).normal(size=(3, 8)).astype(np.float32))

    def grads():
        for p in params:
            p.grad = None
        weighted_sum(layer(x)[0]).backward()
        return [p.grad.copy() for p in params]

    before = grads()
    for p in params:
        p.grad = None
    with dm.no_grad():
        layer(x)
    assert all(p.grad is None for p in params)
    after = grads()
    for a, b in zip(before, after):
        np.testing.assert_array_equal(a, b)


# -- checkpoint archive ---------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    g = rng(28)
    arrays = {
        "enc.w": g.normal(size=(3, 4)).astype(np.float32),
        "enc.b": g.normal(size=4).astype(np.float32),
        "deep.table": g.normal(size=(7, 2)).astype(np.float64),
    }
    path = tmp_path / "params.bin"
    dm.save_tensors(path, arrays, meta={"d": 4})
    loaded, meta = dm.load_tensors(path)
    assert meta == {"d": 4}
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        np.testing.assert_array_equal(loaded[name], arrays[name])


def test_checkpoint_truncated_payload(tmp_path):
    path = tmp_path / "params.bin"
    dm.save_tensors(path, {"w": np.ones((2, 2), dtype=np.float32)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        dm.load_tensors(path)


def test_checkpoint_trailing_payload(tmp_path):
    path = tmp_path / "params.bin"
    dm.save_tensors(path, {"w": np.ones((2, 2), dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"\0" * 7)
    with pytest.raises(dm.CheckpointError, match="7 trailing payload bytes"):
        dm.load_tensors(path)


def test_checkpoint_header_not_json(tmp_path):
    path = tmp_path / "params.bin"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(dm.CheckpointError, match="not a JSON manifest"):
        dm.load_tensors(path)


@pytest.mark.parametrize("header", [b'{"foo": 1}', b"[1, 2]", b'{"params": 3}',
                                    b'{"params": [], "meta": [1]}', b'{"params": [{"name": "w"}]}',
                                    b'{"params": [7]}'])
def test_checkpoint_json_header_that_is_not_a_manifest(tmp_path, header):
    path = tmp_path / "params.bin"
    path.write_bytes(header + b"\n")
    with pytest.raises(dm.CheckpointError, match="manifest"):
        dm.load_tensors(path)


def test_checkpoint_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "params.bin"
    dm.save_tensors(path, {"w": np.ones((2, 2), dtype=np.float32)}, meta={"epoch": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):  # the manifest cannot be serialised
        dm.save_tensors(path, {"w": np.zeros((2, 2), dtype=np.float32)}, meta={"epoch": {1}})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["params.bin"]


def test_tensor_rejects_rank_5():
    with pytest.raises(ValueError, match="4 dims"):
        dm.Tensor(np.zeros((1, 1, 1, 1, 1)))
