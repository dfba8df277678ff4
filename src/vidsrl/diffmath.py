"""Dense tensors with reverse-mode autodiff and the attention primitives
shared by all three transformer stages.

Everything is numpy-backed. float32 is the default storage dtype; float64
arrays are kept as-is so the gradient checker can re-run a graph at higher
precision. Forward and backward passes are single-threaded and fully
deterministic: parent lists are ordered and gradient accumulation happens
in a fixed order.

Inference runs under :func:`no_grad`, where every op returns a plain leaf
tensor and no graph is recorded.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)
_grad_enabled = True


@contextmanager
def no_grad():
    """Record no graph inside the block: ops return leaf tensors with
    ``requires_grad=False``, no parents and no backward closure. The
    previous mode is restored on exit, also after an exception."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A dense array node in a reverse-mode autodiff graph (at most 4 dims)."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ValueError(f"tensors support at most 4 dims, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad=None):
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, grad)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward()

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division unsupported; multiply by a reciprocal")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g, own: bool = False):
    """Add ``g`` into ``t.grad``. ``own=True`` promises g is a freshly
    allocated array the caller will not reuse, so the first contribution can
    be adopted without a defensive copy."""
    if t.grad is None:
        if own and g.shape == t.data.shape and g.dtype == t.data.dtype:
            t.grad = g
        elif isinstance(g, np.ndarray) and g.shape == t.data.shape:
            t.grad = g.astype(t.data.dtype, copy=True)
        else:
            t.grad = np.zeros_like(t.data)
            t.grad += g
    else:
        t.grad += g


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _node(data, parents, backward) -> Tensor:
    if not _grad_enabled:
        return Tensor(data)
    grad_parents = tuple(p for p in parents if p.requires_grad)
    out = Tensor(data, requires_grad=bool(grad_parents))
    if grad_parents:
        out._parents = grad_parents
        out._backward = backward(out)
    return out


# -- elementwise and linear ops ----------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def make(out):
        def bw():
            if a.requires_grad:
                _accumulate(a, _unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(out.grad, b.data.shape))

        return bw

    return _node(data, (a, b), make)


def mul(a, b) -> Tensor:
    if not isinstance(b, Tensor) and not isinstance(a, Tensor):
        raise TypeError("mul needs at least one Tensor")
    if not isinstance(b, Tensor):  # tensor * scalar/array constant
        c = b
        a = _as_tensor(a)
        data = a.data * c

        def make_const(out):
            def bw():
                _accumulate(a, _unbroadcast(out.grad * c, a.data.shape))

            return bw

        return _node(data, (a,), make_const)
    if not isinstance(a, Tensor):
        return mul(b, a)
    data = a.data * b.data

    def make(out):
        def bw():
            if a.requires_grad:
                _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

        return bw

    return _node(data, (a, b), make)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != b.data.ndim:
        raise ValueError(f"matmul rank mismatch: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def make(out):
        def bw():
            if a.requires_grad:
                _accumulate(a, np.matmul(out.grad, b.data.swapaxes(-1, -2)), own=True)
            if b.requires_grad:
                _accumulate(b, np.matmul(a.data.swapaxes(-1, -2), out.grad), own=True)

        return bw

    return _node(data, (a, b), make)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0)

    def make(out):
        def bw():
            _accumulate(x, out.grad * (x.data > 0), own=True)

        return bw

    return _node(data, (x,), make)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = 1.0 / (1.0 + np.exp(-x.data))

    def make(out):
        def bw():
            _accumulate(x, out.grad * out.data * (1.0 - out.data), own=True)

        return bw

    return _node(data, (x,), make)


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.exp(x.data)

    def make(out):
        def bw():
            _accumulate(x, out.grad * out.data, own=True)

        return bw

    return _node(data, (x,), make)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.log(x.data)

    def make(out):
        def bw():
            _accumulate(x, out.grad / x.data)

        return bw

    return _node(data, (x,), make)


def power(x: Tensor, p: float) -> Tensor:
    """x**p for a float exponent; gradient at x == 0 is defined as 0."""
    x = _as_tensor(x)
    data = np.power(x.data, p)

    def make(out):
        def bw():
            base = np.where(x.data == 0, 0.0, np.power(np.where(x.data == 0, 1.0, x.data), p - 1.0))
            _accumulate(x, out.grad * p * base)

        return bw

    return _node(data, (x,), make)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def make(out):
        def bw():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

        return bw

    return _node(data, (x,), make)


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is None:
        n = x.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([x.data.shape[a] for a in axis]))
    else:
        n = x.data.shape[axis]
    return tensor_sum(x, axis=axis, keepdims=keepdims) / n


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    data = x.data.reshape(shape)

    def make(out):
        def bw():
            _accumulate(x, out.grad.reshape(x.data.shape))

        return bw

    return _node(data, (x,), make)


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    data = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def make(out):
        def bw():
            _accumulate(x, out.grad.transpose(inverse))

        return bw

    return _node(data, (x,), make)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def make(out):
        def bw():
            offset = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    sl = [slice(None)] * out.grad.ndim
                    sl[axis] = slice(offset, offset + size)
                    _accumulate(t, out.grad[tuple(sl)])
                offset += size

        return bw

    return _node(data, tuple(tensors), make)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = _as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = x.data[sl]

    def make(out):
        def bw():
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[sl] += out.grad

        return bw

    return _node(data, (x,), make)


def gather_rows(table: Tensor, idx) -> Tensor:
    """Rows of ``table`` selected by an integer index array (embedding lookup)."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    data = table.data[idx]

    def make(out):
        def bw():
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, out.grad)

        return bw

    return _node(data, (table,), make)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalization over the last axis with learned gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def make(out):
        def bw():
            g = out.grad
            if gain.requires_grad:
                _accumulate(gain, (g * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0))
            if bias.requires_grad:
                _accumulate(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
            if x.requires_grad:
                dxhat = g * gain.data
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                _accumulate(x, inv * (dxhat - m1 - xhat * m2), own=True)

        return bw

    return _node(data, (x, gain, bias), make)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0. Consumes rng deterministically."""
    if p <= 0.0:
        return x
    x = _as_tensor(x)
    keep = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, keep)


# -- softmax family ------------------------------------------------------


def masked_softmax(scores: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis; positions where ``mask`` is False get
    probability exactly 0 (bit-exact) and zero gradient.

    ``mask`` is a boolean array matching the last two axes of ``scores``
    (broadcast over any leading head axis). A row with no allowed key is an
    error naming the row.
    """
    scores = _as_tensor(scores)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != scores.data.shape[-mask.ndim:]:
            raise ValueError(
                f"mask shape {mask.shape} does not match scores {scores.data.shape}"
            )
        dead = ~mask.any(axis=-1)
        if dead.any():
            rows = np.argwhere(dead).reshape(-1, dead.ndim).tolist()
            raise ValueError(f"fully masked softmax row(s): {rows}")
        x = np.where(mask, scores.data, -np.inf)
    else:
        x = scores.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)  # exp(-inf) underflows to exactly 0
    data = e / e.sum(axis=-1, keepdims=True)

    def make(out):
        def bw():
            g = out.grad
            inner = (g * out.data).sum(axis=-1, keepdims=True)
            _accumulate(scores, out.data * (g - inner), own=True)

        return bw

    return _node(data, (scores,), make)


def log_softmax(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse

    def make(out):
        def bw():
            g = out.grad
            _accumulate(x, g - np.exp(out.data) * g.sum(axis=-1, keepdims=True), own=True)

        return bw

    return _node(data, (x,), make)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross-entropy from logits, numerically stable."""
    logits = _as_tensor(logits)
    t = np.asarray(targets, dtype=logits.data.dtype)
    x = logits.data
    data = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def make(out):
        def bw():
            s = 1.0 / (1.0 + np.exp(-x))
            _accumulate(logits, out.grad * (s - t), own=True)

        return bw

    return _node(data, (logits,), make)


# -- attention primitives ------------------------------------------------


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask=None,
                         need_weights: bool = True):
    """Scaled dot-product attention over ``n_heads`` heads with a shared mask.

    q is (nq, d); k and v are (nk, d). Returns the merged (nq, d) output and
    the head-averaged attention weights (nq, nk) for inspection (None when
    need_weights is False, which skips the reduction).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    nq, d = q.data.shape
    nk, dk = k.data.shape
    if dk != d or v.data.shape != (nk, d):
        raise ValueError(f"attention dim mismatch: q{q.data.shape} k{k.data.shape} v{v.data.shape}")
    if d % n_heads != 0:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    # scale the queries rather than the (much larger) score matrix
    qh = transpose(reshape(mul(q, 1.0 / math.sqrt(dh)), (nq, n_heads, dh)), (1, 0, 2))
    kh = transpose(reshape(k, (nk, n_heads, dh)), (1, 0, 2))
    vh = transpose(reshape(v, (nk, n_heads, dh)), (1, 0, 2))
    scores = matmul(qh, transpose(kh, (0, 2, 1)))
    weights = masked_softmax(scores, mask)  # (h, nq, nk)
    out = matmul(weights, vh)
    out = reshape(transpose(out, (1, 0, 2)), (nq, d))
    avg = tensor_mean(weights, axis=0) if need_weights else None
    return out, avg


# -- parameter blocks ----------------------------------------------------


class Linear:
    """y = x @ W + b with fan-in uniform init."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(d_in)
        self.w = Tensor(rng.uniform(-bound, bound, (d_in, d_out)).astype(np.float32),
                        requires_grad=True)
        self.b = Tensor(rng.uniform(-bound, bound, d_out).astype(np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b


class Embedding:
    """Learned lookup table, normal(0, 0.02) init."""

    def __init__(self, n: int, d: int, rng: np.random.Generator):
        self.table = Tensor((rng.standard_normal((n, d)) * 0.02).astype(np.float32),
                            requires_grad=True)

    def __call__(self, idx) -> Tensor:
        return gather_rows(self.table, idx)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.table", self.table


class LayerNorm:
    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)

    def named_parameters(self, prefix: str):
        yield f"{prefix}.gain", self.gain
        yield f"{prefix}.bias", self.bias


class AttentionBlock:
    """Multi-head attention with learned Q/K/V/output projections."""

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator):
        if d % n_heads != 0:
            raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, d, rng)
        self.wv = Linear(d, d, rng)
        self.wo = Linear(d, d, rng)

    def __call__(self, q_in: Tensor, kv_in: Tensor, mask=None, need_weights: bool = True):
        out, weights = multi_head_attention(
            self.wq(q_in), self.wk(kv_in), self.wv(kv_in), self.n_heads, mask,
            need_weights=need_weights,
        )
        return self.wo(out), weights

    def step(self, x: Tensor, cache=None):
        """Causal self-attention for the newest position of n sequences.

        ``x`` is (n, d); ``cache`` is None at the first position, else the
        keys and values of the earlier positions, each (n, heads, t, dh).
        The new key and value are appended and the query attends to every
        cached position, which is causal by construction, so no mask is
        needed (incremental decoding, Shazeer 2019, arXiv:1911.02150).
        Returns the (n, d) output and the grown cache.
        """
        n, d = x.shape
        dh = d // self.n_heads
        shape = (n, self.n_heads, 1, dh)
        q = reshape(mul(self.wq(x), 1.0 / math.sqrt(dh)), shape)
        k = reshape(self.wk(x), shape)
        v = reshape(self.wv(x), shape)
        if cache is not None:
            k = concat([cache[0], k], axis=2)
            v = concat([cache[1], v], axis=2)
        weights = masked_softmax(matmul(q, transpose(k, (0, 1, 3, 2))))  # (n, h, 1, t)
        out = reshape(matmul(weights, v), (n, d))
        return self.wo(out), (k, v)

    def named_parameters(self, prefix: str):
        for name, block in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            yield from block.named_parameters(f"{prefix}.{name}")


class TransformerLayer:
    """One encoder or decoder layer (post-norm): self-attention, optional
    cross-attention, position-wise FFN of width 4d, each with a residual and
    a layer norm."""

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator, cross: bool = False):
        self.cross = cross
        self.self_attn = AttentionBlock(d, n_heads, rng)
        self.ln1 = LayerNorm(d)
        if cross:
            self.cross_attn = AttentionBlock(d, n_heads, rng)
            self.ln_cross = LayerNorm(d)
        self.ffn_in = Linear(d, 4 * d, rng)
        self.ffn_out = Linear(4 * d, d, rng)
        self.ln2 = LayerNorm(d)

    def __call__(self, x: Tensor, memory: Tensor | None = None, self_mask=None,
                 cross_mask=None, dropout_p: float = 0.0, rng=None):
        cross_weights = None
        if memory is not None and not self.cross:
            raise ValueError("memory passed to a layer built without cross-attention")
        if self.cross and memory is not None and cross_mask is None:
            raise ValueError("cross-attention memory supplied without a cross mask")

        def drop(t):
            return dropout(t, dropout_p, rng) if dropout_p > 0 else t

        a, _ = self.self_attn(x, x, self_mask, need_weights=False)
        x = self.ln1(add(x, drop(a)))
        if self.cross and memory is not None:
            c, cross_weights = self.cross_attn(x, memory, cross_mask)
            x = self.ln_cross(add(x, drop(c)))
        f = self.ffn_out(relu(self.ffn_in(x)))
        x = self.ln2(add(x, drop(f)))
        return x, cross_weights

    def step(self, x: Tensor, cache, cross_out: Tensor):
        """One incremental decoding position per sequence, for inference.

        ``x`` is (n, d), the newest position of n sequences. Self-attention
        runs against ``cache`` (see ``AttentionBlock.step``). ``cross_out``
        (n, d) is added in place of the cross-attention sublayer's output,
        which is constant when each sequence attends to a single memory row.
        Returns the (n, d) output and the grown cache.
        """
        a, cache = self.self_attn.step(x, cache)
        x = self.ln1(add(x, a))
        x = self.ln_cross(add(x, cross_out))
        x = self.ln2(add(x, self.ffn_out(relu(self.ffn_in(x)))))
        return x, cache

    def named_parameters(self, prefix: str):
        yield from self.self_attn.named_parameters(f"{prefix}.self_attn")
        yield from self.ln1.named_parameters(f"{prefix}.ln1")
        if self.cross:
            yield from self.cross_attn.named_parameters(f"{prefix}.cross_attn")
            yield from self.ln_cross.named_parameters(f"{prefix}.ln_cross")
        yield from self.ffn_in.named_parameters(f"{prefix}.ffn_in")
        yield from self.ffn_out.named_parameters(f"{prefix}.ffn_out")
        yield from self.ln2.named_parameters(f"{prefix}.ln2")


# -- gradient checking ----------------------------------------------------


def gradient_check(loss_fn, params, eps: float = 1e-3, samples: int = 50,
                   rng: np.random.Generator | None = None, float64: bool = False,
                   kink_tol: float = 2e-4) -> float:
    """Compare reverse-mode gradients against central differences.

    Samples random parameter coordinates, perturbs them by +-eps and returns
    the maximum error relative to the largest gradient magnitude seen (the
    infinity norm of the analytic gradient), which keeps the measure
    meaningful for coordinates whose gradient is near zero.

    A difference quotient does not estimate the derivative when the interval
    straddles a non-smooth point (a relu kink), so each coordinate is probed
    at steps eps and eps/2: if the two quotients disagree by more than
    kink_tol relative to the gradient scale the coordinate is discarded and
    another drawn. A wrong analytic gradient is still caught, because there
    the quotients agree with each other while disagreeing with the gradient.

    With float64=True the parameters are temporarily cast to float64 so the
    whole graph (forward, backward and differences) runs at high precision.
    """
    rng = rng or np.random.default_rng(0)
    params = list(params)
    saved = None
    if float64:
        saved = [p.data for p in params]
        for p in params:
            p.data = p.data.astype(np.float64)
    try:
        for p in params:
            p.grad = None
        loss = loss_fn()
        if loss.data.size != 1:
            raise ValueError("loss_fn must return a scalar")
        if not np.isfinite(loss.data):
            raise ValueError(f"non-finite loss {loss.data}")
        loss.backward()
        analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
        for p in params:
            p.grad = None

        scale = max(max((np.abs(a).max() for a in analytic), default=0.0), 1e-12)
        sizes = [p.data.size for p in params]
        total = sum(sizes)
        bounds = np.cumsum(sizes)

        def loss_at(p, flat, value) -> float:
            orig = p.data.flat[flat]
            p.data.flat[flat] = value
            out = float(loss_fn().data)
            p.data.flat[flat] = orig
            if not np.isfinite(out):
                raise ValueError("non-finite loss during finite differencing")
            return out

        max_rel = 0.0
        accepted = 0
        for c in rng.permutation(total):
            if accepted >= samples:
                break
            pi = int(np.searchsorted(bounds, c, side="right"))
            flat = int(c - (bounds[pi - 1] if pi > 0 else 0))
            p = params[pi]
            orig = float(p.data.flat[flat])
            fd = (loss_at(p, flat, orig + eps) - loss_at(p, flat, orig - eps)) / (2 * eps)
            fd_half = (loss_at(p, flat, orig + eps / 2) - loss_at(p, flat, orig - eps / 2)) / eps
            if abs(fd - fd_half) > kink_tol * scale:
                continue  # interval straddles a kink; quotient is not a derivative
            accepted += 1
            rel = abs(float(analytic[pi].flat[flat]) - fd) / scale
            max_rel = max(max_rel, rel)
        return max_rel
    finally:
        if saved is not None:
            for p, d in zip(params, saved):
                p.data = d


# -- checkpoint archive ----------------------------------------------------

_DTYPE_TAGS = {"f32le": np.dtype("<f4"), "f64le": np.dtype("<f8")}


class CheckpointError(ValueError):
    """A checkpoint file that is damaged or does not fit the model or data."""


def save_tensors(path, named_arrays: dict, meta: dict | None = None):
    """Write named arrays as a JSON manifest line followed by a raw
    little-endian payload. Round-trips bit-exactly.

    The file is written beside ``path`` and renamed over it, so a write that
    fails or is interrupted leaves any earlier file at ``path`` intact.
    """
    entries = []
    blobs = []
    offset = 0
    for name, arr in named_arrays.items():
        arr = np.ascontiguousarray(arr)
        tag = "f64le" if arr.dtype == np.float64 else "f32le"
        raw = arr.astype(_DTYPE_TAGS[tag], copy=False).tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": tag, "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    manifest = {"params": entries, "meta": meta or {}}
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
            f.write(b"\n")
            for raw in blobs:
                f.write(raw)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_tensors(path):
    """Inverse of :func:`save_tensors`; returns (name -> array, meta)."""
    with open(path, "rb") as f:
        header = f.readline()
        payload = f.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except ValueError as e:  # also covers bytes that are not UTF-8
        raise CheckpointError(f"checkpoint header is not a JSON manifest: {e}") from e
    out = {}
    used = 0
    for entry in manifest["params"]:
        dt = _DTYPE_TAGS[entry.get("dtype", "f32le")]
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        start = entry["offset"]
        end = start + count * dt.itemsize
        if end > len(payload):
            raise CheckpointError(f"checkpoint payload truncated for {entry['name']!r}")
        arr = np.frombuffer(payload[start:end], dtype=dt).reshape(entry["shape"])
        out[entry["name"]] = arr.astype(dt.base)
        used = max(used, end)
    if len(payload) > used:
        raise CheckpointError(f"checkpoint has {len(payload) - used} trailing payload bytes")
    return out, manifest.get("meta", {})
