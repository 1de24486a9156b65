"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the tape in reverse topological order and accumulates gradients into every
tensor that requires them. Only the primitives the sequence model needs are
implemented, each with a hand-derived adjoint: broadcasting add/mul, (batched)
matmul, swapaxes, a full sum, embedding gather, layer norm, exact GELU, and two
fused ops: multi-head attention (head split, scaled scores, bias, softmax,
context and head merge) and the weighted negative log-likelihood of target
tokens. Only `attention` knows the per-head layout.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape construction (decoding and other read-only passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        # leaves keep their flag regardless of grad mode; only op results
        # consult the mode (see _make)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse accumulation from a scalar root."""
        if self.data.ndim != 0:
            raise ValueError("backward() requires a scalar root")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    return Tensor(arr)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, getattr(a, "dtype", None))
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b, getattr(a, "dtype", None))
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _make(out, (a, b), backward)


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = a.data.swapaxes(ax1, ax2)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.swapaxes(ax1, ax2))

    return _make(out, (a,), backward)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    out = a.data.sum()

    def backward(g):
        if a.requires_grad:
            a.accumulate(np.broadcast_to(g, a.data.shape).astype(a.data.dtype))

    return _make(out, (a,), backward)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: out[..., :] = table[ids[...], :]."""
    ids = np.asarray(ids)
    out = table.data[ids]

    def backward(g):
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
            table.accumulate(gt)

    return _make(out, (table,), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray | None,
              n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of q (B, Tq, d) over keys and
    values (B, Tk, d), split into `n_heads` heads of d / n_heads dims. `bias`
    is None or an additive score bias that broadcasts to (B, n_heads, Tq, Tk).
    Returns the heads' contexts merged back to (B, Tq, d)."""
    B, d = q.shape[0], q.shape[-1]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)  # a Python float keeps float32 scores float32

    def split(x):  # (B, T, d) -> (B, H, T, dh)
        return x.reshape(B, -1, n_heads, dh).swapaxes(1, 2)

    def merge(x):  # (B, H, T, dh) -> (B, T, d)
        return x.swapaxes(1, 2).reshape(B, -1, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    if bias is not None:
        p += bias.astype(p.dtype, copy=False)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(p @ vh)

    def backward(g):
        gh = split(g)
        gp = gh @ vh.swapaxes(-1, -2)
        gs = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * scale
        if q.requires_grad:
            q.accumulate(merge(gs @ kh))
        if k.requires_grad:
            k.accumulate(merge(gs.swapaxes(-1, -2) @ qh))
        if v.requires_grad:
            v.accumulate(merge(p.swapaxes(-1, -2) @ gh))

    return _make(out, (q, k, v), backward)


def nll(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted negative log-likelihood of target ids under a softmax over the
    last axis, as a scalar: -sum(weights * log_softmax(logits)[..., targets])."""
    targets = np.asarray(targets, dtype=np.intp)[..., None]
    w = np.asarray(weights, dtype=logits.dtype)  # float64 weights would widen float32 grads
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    picked = (np.take_along_axis(shifted, targets, axis=-1) - np.log(z))[..., 0]
    out = -(picked * w).sum()

    def backward(g):
        if logits.requires_grad:
            onehot = np.arange(logits.shape[-1]) == targets
            logits.accumulate((e / z - onehot) * (w * g)[..., None])

    return _make(out, (logits,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = gain.data * xhat + bias.data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, x.data.shape[-1]).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, x.data.shape[-1]).sum(axis=0))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate(inv * (dxhat - m1 - xhat * m2))

    return _make(out, (x, gain, bias), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU: x * Phi(x)."""
    x = _as_tensor(x)
    # Python-float constants keep a float32 input in float32
    cdf = 0.5 * (1.0 + erf(x.data * (1.0 / math.sqrt(2.0))))
    out = x.data * cdf

    def backward(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / math.sqrt(2.0 * math.pi))
            x.accumulate(g * (cdf + x.data * pdf))

    return _make(out, (x,), backward)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
