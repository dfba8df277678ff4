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
    ``requires_grad=False``, no parents and no backward function. The
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
        """Accumulate d(self)/d(leaf) into every leaf's ``grad``.

        Each node drops its backward function and parents once it has run,
        which frees the graph as the pass goes. A later backward() through a
        released node raises GraphReleasedError.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
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
            if node._backward is _released:
                _released(node)
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                # leaves (parameters, inputs) have nothing to run
                if p._backward is not None and id(p) not in visited:
                    stack.append((p, False))
        _accumulate(self, np.ones_like(self.data) if grad is None else grad)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)
                node._backward = _released
                node._parents = ()

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


class GraphReleasedError(RuntimeError):
    """backward() through a graph that an earlier backward() already released."""


def _released(out):
    raise GraphReleasedError("backward() through a graph an earlier backward() released; "
                             "run the forward pass again to build a new one")


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
    """The output of an op on ``parents``. ``backward(out)`` adds out.grad
    into the parents; it is handed its output rather than holding it, so a
    graph has no reference cycle."""
    if not _grad_enabled:
        return Tensor(data)
    grad_parents = tuple(p for p in parents if p.requires_grad)
    out = Tensor(data, requires_grad=bool(grad_parents))
    if grad_parents:
        out._parents = grad_parents
        out._backward = backward
    return out


# -- elementwise and linear ops ----------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad, b.data.shape))

    return _node(data, (a, b), bw)


def mul(a, b) -> Tensor:
    if not isinstance(b, Tensor) and not isinstance(a, Tensor):
        raise TypeError("mul needs at least one Tensor")
    if not isinstance(b, Tensor):  # tensor * scalar/array constant
        c = b
        a = _as_tensor(a)
        data = a.data * c

        def bw(out):
            _accumulate(a, _unbroadcast(out.grad * c, a.data.shape))

        return _node(data, (a,), bw)
    if not isinstance(a, Tensor):
        return mul(b, a)
    data = a.data * b.data

    def bw(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _node(data, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != b.data.ndim:
        raise ValueError(f"matmul rank mismatch: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def bw(out):
        if a.requires_grad:
            _accumulate(a, np.matmul(out.grad, b.data.swapaxes(-1, -2)), own=True)
        if b.requires_grad:
            _accumulate(b, np.matmul(a.data.swapaxes(-1, -2), out.grad), own=True)

    return _node(data, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0)

    def bw(out):
        _accumulate(x, out.grad * (x.data > 0), own=True)

    return _node(data, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = 1.0 / (1.0 + np.exp(-x.data))

    def bw(out):
        _accumulate(x, out.grad * out.data * (1.0 - out.data), own=True)

    return _node(data, (x,), bw)


def exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.exp(x.data)

    def bw(out):
        _accumulate(x, out.grad * out.data, own=True)

    return _node(data, (x,), bw)


def log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    data = np.log(x.data)

    def bw(out):
        _accumulate(x, out.grad / x.data)

    return _node(data, (x,), bw)


def power(x: Tensor, p: float) -> Tensor:
    """x**p for a float exponent; gradient at x == 0 is defined as 0."""
    x = _as_tensor(x)
    data = np.power(x.data, p)

    def bw(out):
        base = np.where(x.data == 0, 0.0, np.power(np.where(x.data == 0, 1.0, x.data), p - 1.0))
        _accumulate(x, out.grad * p * base)

    return _node(data, (x,), bw)


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.data.shape).copy())

    return _node(data, (x,), bw)


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

    def bw(out):
        _accumulate(x, out.grad.reshape(x.data.shape))

    return _node(data, (x,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(out):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * out.grad.ndim
                sl[axis] = slice(offset, offset + size)
                _accumulate(t, out.grad[tuple(sl)])
            offset += size

    return _node(data, tuple(tensors), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis."""
    x = _as_tensor(x)
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = x.data[sl]

    def bw(out):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[sl] += out.grad

    return _node(data, (x,), bw)


def gather_rows(table: Tensor, idx) -> Tensor:
    """Rows of ``table`` selected by an integer index array (embedding lookup)."""
    table = _as_tensor(table)
    idx = np.asarray(idx)
    data = table.data[idx]

    def bw(out):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, out.grad)

    return _node(data, (table,), bw)


def residual_layer_norm(x: Tensor, a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalization of the residual sum ``x + a`` over the last axis, with
    learned gain and bias: the post-norm sublayer's ``layer_norm(add(x, a))``
    as one graph node. ``a`` may broadcast against ``x``."""
    x, a, gain, bias = _as_tensor(x), _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    s = x.data + a.data
    n = s.shape[-1]
    # the arithmetic of np.mean and np.var, with x - mu computed once
    centred = s - np.add.reduce(s, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / n + 1e-5)
    xhat = centred * inv
    data = xhat * gain.data + bias.data

    def bw(out):
        g = out.grad
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, n).sum(axis=0))
        if x.requires_grad or a.requires_grad:
            dxhat = g * gain.data
            m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
            gs = inv * (dxhat - m1 - xhat * m2)
            # in add's order, x then a; x adopts gs, which a reads before
            # anything else adds into x.grad
            if x.requires_grad:
                _accumulate(x, _unbroadcast(gs, x.data.shape), own=True)
            if a.requires_grad:
                _accumulate(a, _unbroadcast(gs, a.data.shape))

    return _node(data, (x, a, gain, bias), bw)


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a 2-D array of its last axis' rows."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


def _affine(rows: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """``rows @ w + b`` as one 2-D product: the forward of :class:`Linear`."""
    return np.matmul(rows, w.data) + b.data


def _affine_backward(g: np.ndarray, rows: np.ndarray, w: Tensor, b: Tensor, need_rows=True):
    """Backward of :func:`_affine` for the (2-D) output gradient ``g``:
    accumulates into b, then w, and returns the rows' gradient (None unless
    ``need_rows``)."""
    if b.requires_grad:
        _accumulate(b, g.sum(axis=0), own=True)
    g_rows = np.matmul(g, w.data.swapaxes(-1, -2)) if need_rows else None
    if w.requires_grad:
        _accumulate(w, np.matmul(rows.swapaxes(-1, -2), g), own=True)
    return g_rows


def ffn(x: Tensor, ffn_in: "Linear", ffn_out: "Linear") -> Tensor:
    """The position-wise feed-forward ``ffn_out(relu(ffn_in(x)))`` as one
    graph node, over the flattened rows of x's last axis. Its products are
    the chain's, in the chain's order."""
    x = _as_tensor(x)
    rows = _rows(x.data)
    hidden = _affine(rows, ffn_in.w, ffn_in.b)
    np.maximum(hidden, 0, out=hidden)
    data = _affine(hidden, ffn_out.w, ffn_out.b)
    if x.data.ndim != 2:
        data = data.reshape(*x.data.shape[:-1], data.shape[-1])

    def bw(out):
        gh = _affine_backward(_rows(out.grad), hidden, ffn_out.w, ffn_out.b)
        gh *= hidden > 0
        gx = _affine_backward(gh, rows, ffn_in.w, ffn_in.b, x.requires_grad)
        if gx is not None:
            _accumulate(x, gx.reshape(x.data.shape), own=True)

    return _node(data, (x, ffn_in.w, ffn_in.b, ffn_out.w, ffn_out.b), bw)


def dropout(x: Tensor, p: float, rng: np.random.Generator, shape=None) -> Tensor:
    """Inverted dropout; identity when p == 0. Consumes rng deterministically.
    Draws one keep decision per element of ``shape`` (default: x's own), to
    which x is broadcast."""
    if p <= 0.0:
        return x
    x = _as_tensor(x)
    keep = (rng.random(shape or x.data.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return mul(x, keep)


# -- softmax family ------------------------------------------------------


# Score tensors and their gradients are the largest arrays here (925 KB per
# encoder layer on the acceptance suite). glibc hands freed memory of that
# size back to the OS, and the next such array then faults every page in
# afresh, so attention nodes take arrays of more than _SPARE_MIN_SIZE
# elements from this free list and give them back once done with them.
_SPARE_MIN_SIZE = 1 << 16
_spare = []
_MAX_SPARE = 4


def _take(shape, dtype) -> np.ndarray:
    """An uninitialised C-contiguous array, from the free list when it has
    more than ``_SPARE_MIN_SIZE`` elements and a spare buffer is large
    enough."""
    n = math.prod(shape)
    if n > _SPARE_MIN_SIZE:
        for i, buf in enumerate(_spare):
            if buf.dtype == dtype and buf.size >= n:
                return _spare.pop(i)[:n].reshape(shape)
    return np.empty(shape, dtype)


def _give(arr: np.ndarray):
    """Hand back a buffer from :func:`_take`. Nothing may use it afterwards.
    The list keeps the most recently given buffers."""
    base = arr if arr.base is None else arr.base
    if base.size > _SPARE_MIN_SIZE:
        _spare.append(base.reshape(-1))
        del _spare[:-_MAX_SPARE]


def _check_mask(mask, scores_shape):
    """The boolean (nq, nk) mask, after checking its shape against the
    scores' last two axes and that every row allows a key; a fully masked
    row is an error naming the row."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores_shape[-2:]:
        raise ValueError(f"mask shape {mask.shape} does not match scores {scores_shape}")
    dead = ~mask.any(axis=-1)
    if dead.any():
        rows = np.argwhere(dead).reshape(-1, dead.ndim).tolist()
        raise ValueError(f"fully masked softmax row(s): {rows}")
    return mask


def _softmax_in_place(scores: np.ndarray, hide=None):
    """Softmax over the last axis of ``scores``, in place. Positions where
    ``hide`` (broadcast against scores) is True get probability exactly 0
    (bit-exact), and so zero gradient."""
    if hide is not None:
        np.copyto(scores, -np.inf, where=hide)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)  # exp(-inf) underflows to exactly 0
    scores /= scores.sum(axis=-1, keepdims=True)


def log_softmax(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse

    def bw(out):
        g = out.grad
        _accumulate(x, g - np.exp(out.data) * g.sum(axis=-1, keepdims=True), own=True)

    return _node(data, (x,), bw)


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Elementwise binary cross-entropy from logits, numerically stable."""
    logits = _as_tensor(logits)
    t = np.asarray(targets, dtype=logits.data.dtype)
    x = logits.data
    data = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))

    def bw(out):
        s = 1.0 / (1.0 + np.exp(-x))
        _accumulate(logits, out.grad * (s - t), own=True)

    return _node(data, (logits,), bw)


# -- attention primitives ------------------------------------------------


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, mask=None,
                         need_weights: bool = True):
    """Scaled dot-product attention over ``n_heads`` heads with a shared mask,
    as one graph node with a hand-written backward.

    q is (..., nq, d); k and v are (..., nk, d) with the same leading axes,
    which batch independent sequences; ``mask`` (nq, nk) is shared by all of
    them. Returns the merged (..., nq, d) output and the head-averaged
    attention weights (..., nq, nk), a tensor outside the graph, for
    inspection (None when need_weights is False, which skips the reduction).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    *lead, nq, d = q.data.shape
    nk = k.data.shape[-2]
    if k.data.shape != (*lead, nk, d) or v.data.shape != k.data.shape:
        raise ValueError(f"attention dim mismatch: q{q.data.shape} k{k.data.shape} v{v.data.shape}")
    if d % n_heads != 0:
        raise ValueError(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    b = len(lead)
    split = tuple(range(b)) + (b + 1, b, b + 2)  # (..., n, h, dh) <-> (..., h, n, dh)
    scale = 1.0 / math.sqrt(dh)
    # scale the queries rather than the (much larger) score matrix
    qh = (q.data * scale).reshape(*lead, nq, n_heads, dh).transpose(split)
    kh = k.data.reshape(*lead, nk, n_heads, dh).transpose(split)
    vh = v.data.reshape(*lead, nk, n_heads, dh).transpose(split)
    hide = None if mask is None else ~_check_mask(mask, (*lead, n_heads, nq, nk))
    # (..., h, nq, nk) scores, then weights
    weights = np.matmul(qh, kh.swapaxes(-1, -2),
                        out=_take((*lead, n_heads, nq, nk), np.result_type(qh, kh)))
    _softmax_in_place(weights, hide)
    data = np.matmul(weights, vh).transpose(split).reshape(*lead, nq, d)
    avg = Tensor(weights.sum(axis=b) * (1.0 / n_heads)) if need_weights else None

    def bw(out):
        # Every product keeps the operand order and memory layout of the
        # per-op chain (scale, split, scores, softmax, weights @ V, merge)
        # the tests hold as an oracle, so the gradients are bit-equal to
        # the chain's. So dk is (qh^T @ gs)^T, not gs^T @ qh: the key
        # projection's backward multiplies by it in that layout.
        g = out.grad.reshape(*lead, nq, n_heads, dh).transpose(split)
        if q.requires_grad or k.requires_grad:
            # gs = w * (gw - rowsum(gw * w)), in place on gw
            gs = np.matmul(g, vh.swapaxes(-1, -2),
                           out=_take(weights.shape, np.result_type(g, vh)))
            gw_w = np.multiply(gs, weights, out=_take(gs.shape, gs.dtype))
            gs -= gw_w.sum(axis=-1, keepdims=True)
            _give(gw_w)
            gs *= weights
            if q.requires_grad:
                gq = np.matmul(gs, kh).transpose(split).reshape(q.data.shape) * scale
                _accumulate(q, gq, own=True)
            if k.requires_grad:
                gk = np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(-1, -2)
                _accumulate(k, gk.transpose(split).reshape(k.data.shape), own=True)
            _give(gs)
        if v.requires_grad:
            gv = np.matmul(weights.swapaxes(-1, -2), g).transpose(split)
            _accumulate(v, gv.reshape(v.data.shape), own=True)
        _give(weights)

    out = _node(data, (q, k, v), bw)
    if out._backward is None:  # no graph holds the weights
        _give(weights)
    return out, avg


# -- parameter blocks ----------------------------------------------------


class Module:
    """A parameter block: its attributes that are tensors requiring grad, modules or lists of
    modules, walked in the order ``__init__`` set them: the init draws' and checkpoint's order."""

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            path = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Tensor) and value.requires_grad:
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(path)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{i}")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]


class Linear(Module):
    """y = x @ W + b with fan-in uniform init."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        bound = 1.0 / math.sqrt(d_in)
        self.w = Tensor(rng.uniform(-bound, bound, (d_in, d_out)).astype(np.float32),
                        requires_grad=True)
        self.b = Tensor(rng.uniform(-bound, bound, d_out).astype(np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        """Maps the last axis as one 2-D product over the flattened rows, as
        one graph node."""
        x = _as_tensor(x)
        rows = _rows(x.data)
        data = _affine(rows, self.w, self.b)
        if x.data.ndim != 2:
            data = data.reshape(*x.data.shape[:-1], data.shape[-1])

        def bw(out):
            gx = _affine_backward(_rows(out.grad), rows, self.w, self.b, x.requires_grad)
            if gx is not None:
                _accumulate(x, gx.reshape(x.data.shape), own=True)

        return _node(data, (x, self.w, self.b), bw)



class Embedding(Module):
    """Learned lookup table, normal(0, 0.02) init."""

    def __init__(self, n: int, d: int, rng: np.random.Generator):
        self.table = Tensor((rng.standard_normal((n, d)) * 0.02).astype(np.float32),
                            requires_grad=True)

    def __call__(self, idx) -> Tensor:
        return gather_rows(self.table, idx)



class LayerNorm(Module):
    """The gain and bias of one layer norm (see :func:`residual_layer_norm`)."""

    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)



class AttentionBlock(Module):
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
        keys and values of the earlier positions, each (n, t, d). The new key
        and value are appended and the query attends to every cached
        position, which is causal by construction, so no mask is needed
        (incremental decoding, Shazeer 2019, arXiv:1911.02150).
        Returns the (n, d) output and the grown cache.
        """
        n, d = x.shape
        q, k, v = (reshape(proj(x), (n, 1, d)) for proj in (self.wq, self.wk, self.wv))
        if cache is not None:
            k = concat([cache[0], k], axis=1)
            v = concat([cache[1], v], axis=1)
        out, _ = multi_head_attention(q, k, v, self.n_heads, need_weights=False)
        return self.wo(reshape(out, (n, d))), (k, v)



class TransformerLayer(Module):
    """One encoder or decoder layer (post-norm): self-attention, an optional
    cross sublayer, position-wise FFN of width 4d, each with a residual and
    a layer norm.

    ``cross`` is False for none, True for multi-head attention over a memory
    (``cross_attn``), or ``"linear"`` for one d x d ``Linear`` of a
    conditioning vector per sequence (``cross_proj``), whose output the
    caller passes as ``cross_out``."""

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator,
                 cross: bool | str = False):
        self.cross = cross
        self.self_attn = AttentionBlock(d, n_heads, rng)
        self.ln1 = LayerNorm(d)
        if cross:
            if cross == "linear":
                self.cross_proj = Linear(d, d, rng)
            else:
                self.cross_attn = AttentionBlock(d, n_heads, rng)
            self.ln_cross = LayerNorm(d)
        self.ffn_in = Linear(d, 4 * d, rng)
        self.ffn_out = Linear(4 * d, d, rng)
        self.ln2 = LayerNorm(d)

    def __call__(self, x: Tensor, memory: Tensor | None = None, self_mask=None,
                 cross_mask=None, cross_out: Tensor | None = None,
                 dropout_p: float = 0.0, rng=None):
        """The layer over ``x`` (..., n, d). The cross sublayer attends
        ``memory`` under ``cross_mask``, or adds ``cross_out`` (..., 1, d) at
        every position, such as ``cross_proj`` of each sequence's vector.
        Returns the output and the cross-attention weights (None without
        ``memory``)."""
        if (memory is not None or cross_out is not None) and not self.cross:
            raise ValueError("memory passed to a layer built without cross-attention")
        if memory is not None and cross_mask is None:
            raise ValueError("cross-attention memory supplied without a cross mask")

        def drop(t):  # per element of x, also for a term shared by the positions
            return dropout(t, dropout_p, rng, x.shape) if dropout_p > 0 else t

        a, _ = self.self_attn(x, x, self_mask, need_weights=False)
        return self._sublayers(x, a, drop, memory, cross_mask, cross_out)

    def step(self, x: Tensor, cache, cross_out: Tensor):
        """One incremental decoding position per sequence, for inference.

        ``x`` is (n, d), the newest position of n sequences. Self-attention
        runs against ``cache`` (see ``AttentionBlock.step``); ``cross_out``
        (n, d) is the cross sublayer's output for each sequence, as in
        ``__call__``. Returns the (n, d) output and the grown cache.
        """
        a, cache = self.self_attn.step(x, cache)
        return self._sublayers(x, a, lambda t: t, cross_out=cross_out)[0], cache

    def _sublayers(self, x, a, drop, memory=None, cross_mask=None, cross_out=None):
        """Everything after self-attention (output ``a``): residuals, norms,
        the cross sublayer and the FFN."""
        x = residual_layer_norm(x, drop(a), self.ln1.gain, self.ln1.bias)
        cross_weights = None
        if memory is not None:
            cross_out, cross_weights = self.cross_attn(x, memory, cross_mask)
        if cross_out is not None:
            x = residual_layer_norm(x, drop(cross_out), self.ln_cross.gain, self.ln_cross.bias)
        f = ffn(x, self.ffn_in, self.ffn_out)
        return residual_layer_norm(x, drop(f), self.ln2.gain, self.ln2.bias), cross_weights



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
    The error is taken against the eps/2 quotient: when only the wider
    interval straddles a kink, the two disagree by less than kink_tol, and
    the eps quotient alone would report that disagreement as the error.
    The guard misses a kink that both intervals straddle: the two quotients
    can then agree with each other, the coordinate is kept, and the kink
    shows in the error as if the gradient were wrong. A quotient over a much
    smaller interval, in float64, tells the two cases apart.

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
            rel = abs(float(analytic[pi].flat[flat]) - fd_half) / scale
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
    if not (isinstance(manifest, dict) and isinstance(manifest.get("params"), list)
            and isinstance(manifest.get("meta", {}), dict)):
        raise CheckpointError("checkpoint header is JSON but not a manifest: expected "
                              "an object with a 'params' list and a 'meta' object")
    out = {}
    used = 0
    for entry in manifest["params"]:
        try:
            name, shape, start = entry["name"], entry["shape"], entry["offset"]
            dt = _DTYPE_TAGS[entry.get("dtype", "f32le")]
        except (AttributeError, KeyError, TypeError) as e:
            raise CheckpointError(f"checkpoint manifest entry {entry!r} is malformed") from e
        count = int(np.prod(shape)) if shape else 1
        end = start + count * dt.itemsize
        if end > len(payload):
            raise CheckpointError(f"checkpoint payload truncated for {name!r}")
        out[name] = np.frombuffer(payload[start:end], dtype=dt).reshape(shape).astype(dt.base)
        used = max(used, end)
    if len(payload) > used:
        raise CheckpointError(f"checkpoint has {len(payload) - used} trailing payload bytes")
    return out, manifest.get("meta", {})
