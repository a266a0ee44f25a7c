"""Transformer encoder forward pass and exact analytic gradients.

Post-norm BERT-style blocks: self-attention with padding-masked softmax,
residual + layer norm, GELU feed-forward, residual + layer norm.  The
backward pass is hand-derived and verified against central finite
differences in the test suite; no autodiff framework is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from ..errors import ConfigInvalid, LengthExceeded
from ..masking import IGNORE_LABEL
from .params import ModelParams

LN_EPS = 1e-12
# Plain Python floats: numpy scalar constants would promote float32 activations.
_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass
class ForwardTrace:
    """Observable outputs of one forward pass (always batched).

    attentions has shape (num_layers, batch, num_heads, len, len); each row
    is a probability distribution over unpadded key positions, with exact
    zeros on padded keys.
    """

    logits: np.ndarray
    attentions: np.ndarray
    hidden: np.ndarray
    padding_mask: np.ndarray


@dataclass
class Batch:
    """Model inputs; exactly one of labels / class_labels selects the loss."""

    ids: np.ndarray
    padding_mask: np.ndarray
    labels: np.ndarray | None = None
    class_labels: np.ndarray | None = None


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(-1, keepdims=True)
    xhat = x - mu
    inv = 1.0 / np.sqrt((xhat * xhat).mean(-1, keepdims=True) + LN_EPS)
    xhat *= inv
    y = g * xhat
    y += b
    return y, (xhat, inv)


def _layer_norm_backward(dy: np.ndarray, g: np.ndarray, cache):
    xhat, inv = cache
    dxhat = dy * g
    m1 = dxhat.mean(-1, keepdims=True)
    m2 = (dxhat * xhat).mean(-1, keepdims=True)
    dg = (dy * xhat).sum((0, 1))
    db = dy.sum((0, 1))
    dx = dxhat  # reuse; dy and xhat stay intact for dg/db above
    dx -= m1
    m2 *= -1.0
    dx += xhat * m2
    dx *= inv
    return dx, dg, db


# Longest shared axis that _contract hands to BLAS in one product.
_BLOCK = 448


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D arrays, summed over the shared axis in a fixed order.

    BLAS splits a long shared axis into blocks, and where it splits depends
    on how many threads it runs, so a plain ``a @ b`` can change in the last
    bits with the thread count.  Here an axis longer than ``_BLOCK`` is cut
    into blocks of ``_BLOCK``, a tail longer than one block is halved (first
    half rounded up), and the block products are added in order; the result
    is the same for every BLAS thread count.  448 and the halving are
    OpenBLAS's float32 rule on two threads on AVX-512 machines, where the
    values therefore equal a plain two-thread product.
    """
    k = a.shape[1]
    bounds = [0]
    while k - bounds[-1] > _BLOCK:
        rest = k - bounds[-1]
        bounds.append(bounds[-1] + (_BLOCK if rest >= 2 * _BLOCK else (rest + 1) // 2))
    bounds.append(k)
    out = a[:, : bounds[1]] @ b[: bounds[1]]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        out += a[:, lo:hi] @ b[lo:hi]
    return out


def _weight_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of ``x @ w`` with respect to w: x^T dy over batch and positions."""
    return _contract(x.reshape(-1, x.shape[-1]).T, dy.reshape(-1, dy.shape[-1]))


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for x of shape (..., d), as one 2-D product.

    numpy computes a stacked matmul against a transposed weight
    (``x @ w.T``) an order of magnitude slower than the same product on the
    flattened leading axes.
    """
    return _contract(x.reshape(-1, x.shape[-1]), w).reshape(x.shape[:-1] + (w.shape[-1],))


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _exact_widths(length: int) -> list[int]:
    """Widths, ascending, to which a batch of width ``length`` can be cut,
    keeping every real position, with the softmax's sums unchanged to the bit.

    A cut drops only trailing padded keys, whose softmax weights are exact
    zeros, from the softmax's ``attn.sum(-1)`` in ``_encode``.  numpy sums a
    row pairwise: up to 128 elements go to 8 interleaved accumulators, and
    the ``n % 8`` tail is added one by one after they are combined; a longer
    row is split at ``n // 2 - (n // 2) % 8`` and both parts are summed that
    way.  So trailing zeros leave the sum's bits alone when the cut falls on a
    multiple of 8 within one 128-element block, or on a split point.  Any
    other cut moves real elements between accumulators and can change the
    last bits.  This is numpy's reduction layout, not a property of the
    machine.
    """
    if length <= 128:
        return list(range(8, length, 8)) + [length]
    half = length // 2
    return _exact_widths(half - half % 8) + [length]


# Query rows of the last layer when only the [CLS] vector is read.  One
# row would take BLAS's matrix-vector path, which adds in another order.
_CLS_QUERIES = 8

# (head layout, dtype, batch width) -> the widths of _cut_widths, each with its
# last layer's query rows, found once per process.
_CUT_WIDTHS: dict[tuple, dict[int, int]] = {}


def _cut_widths(params: ModelParams, length: int) -> dict[int, int]:
    """The ``_exact_widths(length)``, ascending, at which this process's numpy and BLAS
    give a batch cut to that width the padded batch's bits, each mapped to
    the query rows its last layer may compute with [CLS]'s bits unchanged.

    BLAS picks a kernel for each product by its shape, and some kernels add
    in another order than others: with OpenBLAS 0.3.31 on AVX-512, cutting a
    batch changed the attention products' last bits for head widths 2, 4, 8,
    24 and 32, though never for 16.  So each width is tried once per
    process, head layout and batch width: the attention products and the
    softmax sum are computed padded and cut, in ``_encode``'s shapes and
    strides, on values spread over many binades so that any change of
    summation order shows, and the width is kept only if every real entry
    has the same bits.  A kept width runs its last layer on the first
    ``_CLS_QUERIES`` positions if the attention products of that query block
    and a position-wise product (``_mm``) on that many rows also keep their
    bits, and on every position otherwise.  The other position-wise products
    are not checked: their rows kept their bits at every row count tried.
    """
    cfg = params.config
    key = (cfg.hidden_dim, cfg.num_heads, cfg.dtype, length)
    if key not in _CUT_WIDTHS:
        rng = np.random.default_rng(length)
        binades = np.exp2(np.arange(-12, 12)).astype(cfg.dtype)

        def draw(*shape):
            x = rng.random(shape, dtype=cfg.dtype)
            x -= 0.5
            x *= binades[rng.integers(0, binades.size, size=shape, dtype=np.uint8)]
            return x

        def heads(x):
            return _split_heads(np.ascontiguousarray(x), cfg.num_heads)

        xq, xk, xv = (draw(1, length, cfg.hidden_dim) for _ in range(3))
        scores = heads(xq) @ heads(xk).swapaxes(-1, -2)
        weights = np.abs(draw(1, cfg.num_heads, length, length))
        q = min(_CLS_QUERIES, length)
        w_pos = draw(cfg.hidden_dim, cfg.hidden_dim)
        block_mm = _mm(xq[:, :q], w_pos).tobytes() == _mm(xq, w_pos)[:, :q].tobytes()
        rows = {}
        for w in reversed(_exact_widths(length)):
            weights[..., w:] = 0.0  # widest first, so each width zeroes a longer tail
            context = weights @ heads(xv)
            cut = np.ascontiguousarray(weights[..., :w, :w])
            qc, kc, vc = (heads(x[:, :w]) for x in (xq, xk, xv))
            if (
                scores[..., :w, :w].tobytes() == (qc @ kc.swapaxes(-1, -2)).tobytes()
                and weights[..., :w, :].sum(-1).tobytes() == cut.sum(-1).tobytes()
                and context[..., :w, :].tobytes() == (cut @ vc).tobytes()
            ):
                block = (
                    block_mm
                    and scores[..., :q, :w].tobytes()
                    == (heads(xq[:, :q]) @ kc.swapaxes(-1, -2)).tobytes()
                    and context[..., :q, :].tobytes()
                    == (np.ascontiguousarray(cut[..., :q, :]) @ vc).tobytes()
                )
                rows[w] = min(q, w) if block else w
        _CUT_WIDTHS[key] = dict(sorted(rows.items()))
    return _CUT_WIDTHS[key]


def _as_batch(ids: np.ndarray, padding_mask: np.ndarray):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ConfigInvalid(f"ids must be 2-D (batch, len), got shape {ids.shape}")
    real = np.asarray(padding_mask, dtype=bool)
    if real.shape != ids.shape:
        raise ConfigInvalid(f"padding_mask shape {real.shape} != ids shape {ids.shape}")
    if not real.any(axis=1).all():
        raise ConfigInvalid("every sequence needs at least one real position")
    return ids, real


def _check_ids(cfg, ids: np.ndarray) -> None:
    """Refuse a batch wider than ``max_len`` or with an id outside the vocabulary."""
    if ids.shape[1] > cfg.max_len:
        raise LengthExceeded(f"sequence length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ConfigInvalid("token id outside the vocabulary")


def _encode(params: ModelParams, ids: np.ndarray, real: np.ndarray,
            _last_queries: int | None = None):
    """Run the encoder stack, returning final hidden states and a cache.

    With ``_last_queries`` the last layer computes only that many leading
    positions, attending over every key; the hidden states then have that
    length.
    """
    cfg = params.config
    _check_ids(cfg, ids)
    l = ids.shape[1]

    x = params["tok_emb"][ids]
    x += params["pos_emb"][:l]
    pad_keys = ~real[:, None, None, :]
    any_padding = bool(pad_keys.any())
    scale = 1.0 / math.sqrt(cfg.head_dim)

    layers = []
    for i in range(cfg.num_layers):
        p = f"layer{i}."
        xin = x
        if i == cfg.num_layers - 1 and _last_queries is not None:
            x = xin[:, :_last_queries]
        qh = _split_heads(_mm(x, params[p + "wq"]), cfg.num_heads)
        kh = _split_heads(_mm(xin, params[p + "wk"]), cfg.num_heads)
        vh = _split_heads(_mm(xin, params[p + "wv"]), cfg.num_heads)
        attn = qh @ kh.swapaxes(-1, -2)
        attn *= scale
        if any_padding:
            np.copyto(attn, -np.inf, where=pad_keys)
        attn -= attn.max(-1, keepdims=True)
        np.exp(attn, out=attn)  # exp(-inf) == 0 exactly on padded keys
        attn /= attn.sum(-1, keepdims=True)
        ctx = _merge_heads(attn @ vh)
        r1 = _mm(ctx, params[p + "wo"])
        r1 += x
        x1, ln1_cache = _layer_norm(r1, params[p + "ln1_g"], params[p + "ln1_b"])
        z1 = _mm(x1, params[p + "w1"])
        z1 += params[p + "b1"]
        e1 = z1 * _SQRT1_2
        erf(e1, out=e1)  # cached so backward skips a second erf
        a1 = e1 + 1.0
        a1 *= z1
        a1 *= 0.5
        r2 = _mm(a1, params[p + "w2"])
        r2 += params[p + "b2"]
        r2 += x1
        x, ln2_cache = _layer_norm(r2, params[p + "ln2_g"], params[p + "ln2_b"])
        layers.append(
            {"xin": xin, "qh": qh, "kh": kh, "vh": vh, "attn": attn, "ctx": ctx,
             "ln1": ln1_cache, "x1": x1, "z1": z1, "e1": e1, "a1": a1, "ln2": ln2_cache}
        )
    return x, layers


def _encode_backward(params: ModelParams, layers, dhidden: np.ndarray, ids: np.ndarray,
                     grads: dict[str, np.ndarray]) -> None:
    """Backpropagate dhidden through the encoder stack into ``grads``."""
    cfg = params.config
    scale = 1.0 / math.sqrt(cfg.head_dim)
    dx = dhidden
    for i in reversed(range(cfg.num_layers)):
        p = f"layer{i}."
        c = layers[i]
        dr2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_backward(
            dx, params[p + "ln2_g"], c["ln2"]
        )
        # r2 = x1 + gelu(x1 w1 + b1) w2 + b2
        da1 = _mm(dr2, params[p + "w2"].T)
        grads[p + "w2"] = _weight_grad(c["a1"], dr2)
        grads[p + "b2"] = dr2.sum((0, 1))
        z1 = c["z1"]
        dgelu = z1 * z1
        dgelu *= -0.5
        np.exp(dgelu, out=dgelu)
        dgelu *= _INV_SQRT_2PI
        dgelu *= z1
        half_one_plus_e1 = c["e1"] + 1.0
        half_one_plus_e1 *= 0.5
        dgelu += half_one_plus_e1
        dz1 = da1 * dgelu
        grads[p + "w1"] = _weight_grad(c["x1"], dz1)
        grads[p + "b1"] = dz1.sum((0, 1))
        dx1 = _mm(dz1, params[p + "w1"].T)
        dx1 += dr2
        dr1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_backward(
            dx1, params[p + "ln1_g"], c["ln1"]
        )
        # r1 = xin + merge(attn @ vh) wo
        dctx = _mm(dr1, params[p + "wo"].T)
        grads[p + "wo"] = _weight_grad(c["ctx"], dr1)
        dctxh = _split_heads(dctx, cfg.num_heads)
        dattn = dctxh @ c["vh"].swapaxes(-1, -2)
        dvh = c["attn"].swapaxes(-1, -2) @ dctxh
        attn = c["attn"]
        dscores = (dattn * attn).sum(-1, keepdims=True)
        np.subtract(dattn, dscores, out=dattn)
        dattn *= attn
        dscores = dattn
        dqh = (dscores @ c["kh"]) * scale
        dkh = (dscores.swapaxes(-1, -2) @ c["qh"]) * scale
        dq, dk, dv = (_merge_heads(a) for a in (dqh, dkh, dvh))
        xin = c["xin"]
        grads[p + "wq"] = _weight_grad(xin, dq)
        grads[p + "wk"] = _weight_grad(xin, dk)
        grads[p + "wv"] = _weight_grad(xin, dv)
        dx = _mm(dq, params[p + "wq"].T)
        dx += _mm(dk, params[p + "wk"].T)
        dx += _mm(dv, params[p + "wv"].T)
        dx += dr1
    # embeddings
    l = ids.shape[1]
    dtok = np.zeros_like(params["tok_emb"])
    np.add.at(dtok, ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    if "tok_emb" in grads:  # tied MLM head already contributed
        grads["tok_emb"] += dtok
    else:
        grads["tok_emb"] = dtok
    dpos = np.zeros_like(params["pos_emb"])
    dpos[:l] = dx.sum(0)
    grads["pos_emb"] = dpos


def forward(
    params: ModelParams, ids: np.ndarray, padding_mask: np.ndarray
) -> ForwardTrace:
    """Full forward pass of a (batch, len) batch: attention maps and dense logits."""
    ids, real = _as_batch(ids, padding_mask)
    hidden, layers = _encode(params, ids, real)
    logits = _mm(hidden, params.output_weight())
    logits += params["mlm_b"]
    attentions = np.stack([c["attn"] for c in layers])
    return ForwardTrace(
        logits=logits,
        attentions=attentions,
        hidden=hidden,
        padding_mask=real,
    )


def _mlm_head_backward(params: ModelParams, hidden: np.ndarray, labels: np.ndarray,
                       grads: dict[str, np.ndarray]):
    """Sparse MLM head: logits only at labeled positions.

    Returns (loss, dhidden).  Mathematically identical to scoring every
    position; skipping unlabeled positions just avoids their zero gradient.
    """
    keep = labels != IGNORE_LABEL
    n = int(keep.sum())
    w = params.output_weight()
    if n == 0:
        for name in ("mlm_b",) + (() if params.config.tie_embeddings else ("mlm_w",)):
            grads[name] = np.zeros_like(params[name])
        if params.config.tie_embeddings:
            grads["tok_emb"] = np.zeros_like(params["tok_emb"])
        return 0.0, np.zeros_like(hidden)
    rows = hidden[keep]
    targets = np.asarray(labels[keep], dtype=np.int64)
    logits = _contract(rows, w)
    logits += params["mlm_b"]
    logits -= logits.max(-1, keepdims=True)
    picked = logits[np.arange(n), targets].copy()
    np.exp(logits, out=logits)
    z = logits.sum(-1, keepdims=True)
    loss = float((np.log(z).sum() - picked.sum()) / n)
    dlogits = logits
    dlogits /= z
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    grads["mlm_b"] = dlogits.sum(0)
    if params.config.tie_embeddings:
        grads["tok_emb"] = _contract(dlogits.T, rows)
    else:
        grads["mlm_w"] = _contract(rows.T, dlogits)
    dhidden = np.zeros_like(hidden)
    dhidden[keep] = _contract(dlogits, w.T)
    return loss, dhidden


def _classifier_backward(params: ModelParams, hidden: np.ndarray, y: np.ndarray,
                         grads: dict[str, np.ndarray]):
    """Cross-entropy on the position-0 ([CLS]) vector; returns (loss, dhidden)."""
    pooled = hidden[:, 0, :]
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (hidden.shape[0],):
        raise ConfigInvalid(f"class_labels shape {y.shape} != batch ({hidden.shape[0]},)")
    if y.min() < 0 or y.max() >= params.config.num_classes:
        raise ConfigInvalid("class label outside [0, num_classes)")
    logits = pooled @ params["cls_w"] + params["cls_b"]
    shifted = logits - logits.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    n = y.shape[0]
    loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grads["cls_w"] = _contract(pooled.T, dlogits)
    grads["cls_b"] = dlogits.sum(0)
    dhidden = np.zeros_like(hidden)
    dhidden[:, 0, :] = dlogits @ params["cls_w"].T
    return loss, dhidden


def backward(params: ModelParams, batch: Batch) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients w.r.t. every parameter for one batch.

    MLM loss when ``batch.labels`` is set, classification loss on the [CLS]
    vector when ``batch.class_labels`` is set.  Parameters that do not feed
    the selected loss get explicit zero gradients.
    """
    if (batch.labels is None) == (batch.class_labels is None):
        raise ConfigInvalid("set exactly one of batch.labels / batch.class_labels")
    ids, real = _as_batch(batch.ids, batch.padding_mask)
    hidden, layers = _encode(params, ids, real)
    grads: dict[str, np.ndarray] = {}
    if batch.labels is not None:
        labels = np.asarray(batch.labels)
        if labels.shape != ids.shape:
            raise ConfigInvalid(f"labels shape {labels.shape} != ids shape {ids.shape}")
        loss, dhidden = _mlm_head_backward(params, hidden, labels, grads)
    else:
        loss, dhidden = _classifier_backward(params, hidden, batch.class_labels, grads)
    _encode_backward(params, layers, dhidden, ids, grads)
    for name, arr in params.arrays.items():
        if name not in grads:
            grads[name] = np.zeros_like(arr)
    return loss, grads
