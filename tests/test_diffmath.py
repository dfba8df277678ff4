"""Substrate tests: op gradients against central differences, masked softmax
contracts, attention primitives, transformer layers, checkpoint round-trips."""

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


# -- masked softmax -----------------------------------------------------------


def test_softmax_uniform_on_equal_scores():
    out = dm.masked_softmax(dm.Tensor([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)


def test_softmax_single_survivor_is_exactly_one():
    out = dm.masked_softmax(dm.Tensor([[5.0, -2.0]]), np.array([[True, False]]))
    assert out.data[0, 0] == 1.0
    assert out.data[0, 1] == 0.0  # bit-exact zero, not merely small


def test_softmax_matches_direct_exponent_oracle():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()  # independent direct computation
    np.testing.assert_allclose(expected, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)
    out = dm.masked_softmax(dm.Tensor(x))
    np.testing.assert_allclose(out.data, expected, atol=1e-5)


def test_softmax_fully_masked_row_error_names_row():
    with pytest.raises(ValueError, match=r"\[1"):
        dm.masked_softmax(dm.Tensor(np.zeros((3, 2))),
                          np.array([[True, True], [False, False], [True, False]]))


def test_softmax_mask_shape_mismatch():
    with pytest.raises(ValueError, match="mask shape"):
        dm.masked_softmax(dm.Tensor(np.zeros((2, 3))), np.ones((2, 4), dtype=bool))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10_000))
def test_softmax_rows_are_simplex_with_exact_zeros(q, k, seed):
    g = rng(seed)
    scores = g.normal(size=(q, k)) * 5
    mask = g.random((q, k)) > 0.4
    mask[np.arange(q), g.integers(0, k, q)] = True  # keep every row alive
    out = dm.masked_softmax(dm.Tensor(scores), mask).data
    assert np.all(out[~mask] == 0.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(out >= 0)


def test_softmax_zero_gradient_through_masked_entries():
    scores = dm.Tensor(f64(rng(1).normal(size=(2, 4))), requires_grad=True)
    mask = np.array([[True, False, True, True], [True, True, False, True]])
    out = dm.masked_softmax(scores, mask)
    loss = dm.tensor_sum(dm.mul(out, f64(rng(2).normal(size=(2, 4)))))
    loss.backward()
    assert scores.grad[0, 1] == 0.0 and scores.grad[1, 2] == 0.0


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
    (lambda t: dm.transpose(t, (1, 0)), False),
    (lambda t: dm.narrow(t, 0, 1, 2), False),
    (dm.log_softmax, False),
    (dm.masked_softmax, False),
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
    g = rng(8)
    x = dm.Tensor(f64(g.normal(size=(3, 6))), requires_grad=True)
    gain = dm.Tensor(f64(g.normal(size=6)), requires_grad=True)
    bias = dm.Tensor(f64(g.normal(size=6)), requires_grad=True)
    err = dm.gradient_check(lambda: weighted_sum(dm.layer_norm(x, gain, bias)),
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
    scores = dm.Tensor(f64(g.normal(size=(2, 3, 5))), requires_grad=True)
    mask = g.random((3, 5)) > 0.3
    mask[:, 0] = True
    v = g.normal(size=(2, 5, 4))
    err = dm.gradient_check(
        lambda: weighted_sum(dm.matmul(dm.masked_softmax(scores, mask), dm.Tensor(f64(v)))),
        [scores], eps=1e-5, samples=30)
    assert err < 1e-6


# -- gradient_check worked examples ---------------------------------------------


def test_gradient_check_square_function():
    x = dm.Tensor(f64([3.0]), requires_grad=True)
    err = dm.gradient_check(lambda: dm.tensor_sum(dm.mul(x, x)), [x], eps=1e-3, samples=1)
    # analytic 6 vs central difference 6 (x**2 has no third derivative term)
    assert err < 1e-8


def test_gradient_check_softmax_dot_constant():
    c = f64([0.3, -1.2, 2.0, 0.5])
    x = dm.Tensor(f64([0.1, 0.9, -0.4, 0.2]), requires_grad=True)
    err = dm.gradient_check(lambda: dm.tensor_sum(dm.mul(dm.masked_softmax(x), c)),
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
    h = layer.ln1(dm.add(x, a))
    f = layer.ffn_out(dm.relu(layer.ffn_in(h)))
    expected = layer.ln2(dm.add(h, f))
    np.testing.assert_allclose(out.data, expected.data, atol=1e-6)


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
        assert cache[0].shape == cache[1].shape == (3, 2, t + 1, 4)
        for r in range(3):
            full, _ = block(dm.Tensor(x[r]), dm.Tensor(x[r]), causal)
            np.testing.assert_allclose(out.data[r], full.data[t], atol=1e-6)


def test_layer_step_matches_full_layer_with_one_memory_row_per_sequence():
    layer = dm.TransformerLayer(8, 2, rng(30), cross=True)
    x = rng(31).normal(size=(2, 4, 8)).astype(np.float32)
    z = dm.Tensor(rng(32).normal(size=(2, 8)).astype(np.float32))
    cross = layer.cross_attn.wo(layer.cross_attn.wv(z))
    causal = np.tril(np.ones((4, 4), dtype=bool))
    cache = None
    for t in range(4):
        out, cache = layer.step(dm.Tensor(x[:, t]), cache, cross)
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
        for out in (dm.matmul(x, w), dm.relu(w), dm.add(w, w), dm.layer_norm(
                w, dm.Tensor(np.ones(4), requires_grad=True), dm.Tensor(np.zeros(4)))):
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
