import numpy as np
import pytest

from crossgen import autodiff as ad
from crossgen.autodiff import Tensor


def param(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_grads(loss_fn, tensors, rng, h=1e-6, tol=1e-6):
    """Central finite differences over every coordinate of small tensors."""
    ad.zero_grads(tensors)
    loss_fn().backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
             for t in tensors]
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn().item()
            flat[i] = orig - h
            fm = loss_fn().item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gflat[i]) <= tol * max(1.0, abs(fd)), \
                f"coord {i}: analytic {gflat[i]} vs fd {fd}"


def test_add_mul_broadcast_grads(rng):
    a = param(rng, 3, 4)
    b = param(rng, 4)        # broadcast over rows
    c = param(rng, 3, 1)     # broadcast over cols
    weight = rng.standard_normal((3, 4))

    def loss():
        return ad.tsum(ad.mul(ad.add(ad.mul(a, b), c), weight))

    check_grads(loss, [a, b, c], rng)


def test_matmul_grads_2d_and_batched(rng):
    a = param(rng, 3, 4)
    b = param(rng, 4, 2)
    w = rng.standard_normal((3, 2))
    check_grads(lambda: ad.tsum(ad.mul(ad.matmul(a, b), w)), [a, b], rng)

    # stacked batch with a broadcast right operand
    x = param(rng, 2, 3, 4)
    y = param(rng, 4, 5)
    w2 = rng.standard_normal((2, 3, 5))
    check_grads(lambda: ad.tsum(ad.mul(ad.matmul(x, y), w2)), [x, y], rng)

    # fully batched both sides
    p = param(rng, 2, 3, 4)
    q = param(rng, 2, 4, 2)
    w3 = rng.standard_normal((2, 3, 2))
    check_grads(lambda: ad.tsum(ad.mul(ad.matmul(p, q), w3)), [p, q], rng)


def test_swapaxes_grads(rng):
    a = param(rng, 2, 3, 4)
    w = rng.standard_normal((4, 3, 2))
    check_grads(lambda: ad.tsum(ad.mul(ad.swapaxes(a, 0, 2), w)), [a], rng)


def pad_bias(pad):
    """(B, Tk) pad mask -> additive (B, 1, 1, Tk) score bias."""
    return np.where(pad, -1e9, 0.0)[:, None, None, :]


def causal_bias(t):
    return np.where(np.triu(np.ones((t, t), dtype=bool), k=1), -1e9, 0.0)


def reference_attention(q, k, v, bias, n_heads):
    """Head by head and row by row, in plain numpy."""
    B, Tq, d = q.shape
    dh = d // n_heads
    bias = np.broadcast_to(0.0 if bias is None else bias, (B, n_heads, Tq, k.shape[1]))
    out = np.zeros_like(q)
    for b in range(B):
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = q[b, :, cols] @ k[b, :, cols].T / np.sqrt(dh) + bias[b, h]
            p = np.exp(scores - scores.max(axis=1, keepdims=True))
            out[b, :, cols] = (p / p.sum(axis=1, keepdims=True)) @ v[b, :, cols]
    return out


def test_softmax_rows_sum_to_one(rng):
    # values of ones: each head's output is the sum of its softmax row
    q = Tensor(rng.standard_normal((2, 3, 6)) * 10)
    k = Tensor(rng.standard_normal((2, 5, 6)) * 10)
    ones = Tensor(np.ones((2, 5, 6)))
    pad = np.array([[False] * 5, [False, False, False, True, True]])
    for bias in (None, pad_bias(pad)):
        out = ad.attention(q, k, ones, bias, n_heads=3)
        np.testing.assert_allclose(out.data, np.ones((2, 3, 6)), atol=1e-9)


def test_attention_matches_numpy_reference(rng):
    q, k, v = (rng.standard_normal((2, t, 8)) for t in (3, 4, 4))
    pad = np.array([[False, False, True, True], [False] * 4])
    for bias in (None, pad_bias(pad)):
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), bias, n_heads=2)
        np.testing.assert_allclose(out.data, reference_attention(q, k, v, bias, 2),
                                   rtol=1e-12, atol=1e-12)
    qc = rng.standard_normal((2, 4, 8))
    out = ad.attention(Tensor(qc), Tensor(k), Tensor(v), causal_bias(4), n_heads=4)
    np.testing.assert_allclose(out.data, reference_attention(qc, k, v, causal_bias(4), 4),
                               rtol=1e-12, atol=1e-12)


def test_attention_grads_with_pad_and_causal_bias(rng):
    q, k, v = param(rng, 2, 3, 4), param(rng, 2, 4, 4), param(rng, 2, 4, 4)
    w = rng.standard_normal((2, 3, 4))
    bias = pad_bias(np.array([[False, False, False, True], [False, True, False, False]]))
    check_grads(lambda: ad.tsum(ad.mul(ad.attention(q, k, v, bias, 2), w)), [q, k, v], rng)

    x, y = param(rng, 2, 4, 4), param(rng, 2, 4, 4)
    w2 = rng.standard_normal((2, 4, 4))
    # q, k and v from one tensor, as in self-attention
    check_grads(lambda: ad.tsum(ad.mul(ad.attention(x, x, y, causal_bias(4), 2), w2)),
                [x, y], rng)


def test_attention_ignores_values_at_masked_keys(rng):
    q, k, v = (rng.standard_normal((2, t, 4)) for t in (3, 5, 5))
    pad = np.array([[False, False, False, True, True], [False] * 4 + [True]])
    before = ad.attention(Tensor(q), Tensor(k), Tensor(v), pad_bias(pad), 2).data
    v[pad] = rng.standard_normal((3, 4)) * 100
    after = ad.attention(Tensor(q), Tensor(k), Tensor(v), pad_bias(pad), 2).data
    np.testing.assert_array_equal(after, before)


def test_layer_norm_grads(rng):
    x = param(rng, 4, 6)
    g = param(rng, 6)
    b = param(rng, 6)
    w = rng.standard_normal((4, 6))
    check_grads(lambda: ad.tsum(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b], rng,
                tol=5e-5)


def test_gelu_exact_values_and_grads(rng):
    # x * Phi(x): Phi(0) = 0.5, large negative saturates to 0
    x = Tensor(np.array([0.0, 10.0, -10.0]))
    out = ad.gelu(x)
    np.testing.assert_allclose(out.data, [0.0, 10.0, 0.0], atol=1e-6)
    a = param(rng, 7)
    w = rng.standard_normal(7)
    check_grads(lambda: ad.tsum(ad.mul(ad.gelu(a), w)), [a], rng)


def test_gather_rows_grads(rng):
    table = param(rng, 6, 3)
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    w = rng.standard_normal((2, 3, 3))
    check_grads(lambda: ad.tsum(ad.mul(ad.gather_rows(table, ids), w)), [table], rng)
    # repeated ids accumulate
    ad.zero_grads([table])
    ad.tsum(ad.gather_rows(table, np.array([1, 1, 1]))).backward()
    np.testing.assert_allclose(table.grad[1], np.full(3, 3.0))


def test_nll_grads_and_1d_gather_rows(rng):
    x = param(rng, 2, 3, 4)
    targets = np.array([[0, 3, 3], [2, 2, 0]])      # repeated targets
    weights = np.array([[1.0, 0.0, 2.5], [0.0, 1.0, 0.5]])
    check_grads(lambda: ad.nll(x, targets, weights), [x], rng)
    # zero-weight positions get no gradient
    ad.zero_grads([x])
    ad.nll(x, targets, weights).backward()
    assert not x.grad[weights == 0.0].any()

    # 1-D ids (positions) through gather_rows
    table = param(rng, 5, 4)
    w = rng.standard_normal((3, 4))
    check_grads(lambda: ad.tsum(ad.mul(ad.gather_rows(table, np.array([4, 0, 4])), w)),
                [table], rng)


def test_nll_values(rng):
    logits = rng.standard_normal((2, 3, 4)) * 5
    targets = np.array([[0, 1, 2], [3, 0, 1]])
    weights = rng.uniform(0.0, 2.0, (2, 3))
    logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    out = ad.nll(Tensor(logits), targets, weights)
    assert out.shape == ()
    np.testing.assert_allclose(out.item(), -(weights * picked).sum(), rtol=1e-12)
    # float64 weights leave float32 logits and their gradient in float32
    x = Tensor(logits.astype(np.float32), requires_grad=True)
    loss = ad.nll(x, targets, weights)
    loss.backward()
    assert loss.dtype == np.float32 and x.grad.dtype == np.float32


def test_grad_accumulates_across_multiple_uses(rng):
    a = param(rng, 3)
    loss = ad.add(ad.tsum(ad.mul(a, a)), ad.tsum(a))
    loss.backward()
    np.testing.assert_allclose(a.grad, 2 * a.data + 1)


def test_no_grad_builds_no_tape(rng):
    a = param(rng, 3)
    with ad.no_grad():
        out = ad.tsum(ad.mul(a, a))
    assert out._parents == ()
    assert not out.requires_grad
    assert a.requires_grad  # leaf flag untouched


def test_backward_requires_scalar(rng):
    a = param(rng, 3)
    with pytest.raises(ValueError, match="scalar"):
        ad.mul(a, 2.0).backward()
