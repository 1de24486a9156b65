"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the tape in reverse topological order and accumulates gradients into every
tensor that requires them. Only the primitives the sequence model needs are
implemented, each with a hand-derived adjoint: broadcasting add/mul, (batched)
matmul, reshape/swapaxes, reductions, embedding gather, index gathers for
likelihood terms, softmax / log-softmax, layer norm, and exact GELU.
"""

from __future__ import annotations

import contextlib
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


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return _make(out, (a,), backward)


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


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows along the first axis (masked-position logits)."""
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            a.accumulate(ga)

    return _make(out, (a,), backward)


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[...] = a[..., idx[...]] along the last axis (per-position NLL terms)."""
    idx = np.asarray(idx, dtype=np.intp)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            grids = np.indices(idx.shape)
            np.add.at(ga, (*grids, idx), g)
            a.accumulate(ga)

    return _make(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            a.accumulate((g - (g * s).sum(axis=axis, keepdims=True)) * s)

    return _make(s, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(g):
        if a.requires_grad:
            a.accumulate(g - np.exp(ls) * g.sum(axis=axis, keepdims=True))

    return _make(ls, (a,), backward)


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
    cdf = 0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
    out = x.data * cdf

    def backward(g):
        if x.requires_grad:
            pdf = np.exp(-0.5 * x.data * x.data) / np.sqrt(2.0 * np.pi)
            x.accumulate((g * (cdf + x.data * pdf)).astype(x.data.dtype))

    return _make(out.astype(x.data.dtype), (x,), backward)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
