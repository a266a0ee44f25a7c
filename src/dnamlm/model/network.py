"""Transformer encoder forward pass and exact analytic gradients.

Post-norm BERT-style blocks: self-attention with padding-masked softmax,
residual + layer norm, GELU feed-forward, residual + layer norm.  The
backward pass is hand-derived and verified against central finite
differences in the test suite; no autodiff framework is involved.

A loss that reads only some positions lets the last layer compute only
those query rows, attending over every key: the masked positions for the
MLM loss (``backward``), the [CLS] block for classification.  Each cut
shape is checked once per process against the running BLAS, and runs only
where every product it changes keeps the full pass's bits; so losses,
gradients and logits equal the full pass's to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigInvalid, LengthExceeded
from ..masking import IGNORE_LABEL
from .params import ModelParams

LN_EPS = 1e-12
# Plain Python floats: numpy scalar constants would promote float32 activations.
_SQRT1_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# Cephes ndtr.c (S. L. Moshier): erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and
# 1 - exp(-x^2) P(|x|) / Q(|x|) above; U and Q have a leading 1 not listed.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERF_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERF_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)
# Elements per float64 pass of _erf: its 128 KB temporaries stay in cache.
_ERF_CHUNK = 16384


def _erf_tail(x: np.ndarray) -> np.ndarray:
    """erf of float64 ``x`` with every |x| > 1 or NaN, as Cephes computes it.

    |x| is clipped at 8, where erf is 1.0 in float64 either way; a NaN gives
    the canonical NaN, as Cephes returns.
    """
    a = np.minimum(np.abs(x), 8.0)
    p = a * _ERF_P[0]
    p += _ERF_P[1]
    q = a + _ERF_Q[0]
    for pc, qc in zip(_ERF_P[2:], _ERF_Q[1:]):
        p *= a
        p += pc
        q *= a
        q += qc
    e = a * a
    np.negative(e, out=e)
    np.exp(e, out=e)
    e *= p
    e /= q
    np.subtract(1.0, e, out=e)
    np.copysign(e, x, out=e)
    e[np.isnan(x)] = np.nan
    return e


def _erf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write erf(x) into ``out``, which may be ``x`` itself, and return it.

    Each value is Cephes's double-precision erf (the one scipy ships),
    evaluated in float64 in the same operation order and rounded once to
    ``out``'s dtype; for float32 that is scipy's result to the bit.  Work
    goes in ``_ERF_CHUNK``-element passes, and only the indices with
    ``x * x > 1`` (exact in float64 for a float32 x) take the exp branch.
    A float64 |x| above about 1e154 squares to inf, which numpy reports as
    an overflow; its value is still right.
    """
    if not out.flags.c_contiguous:
        out[...] = _erf(x, np.empty(out.shape, out.dtype))
        return out
    src, dst = x.reshape(-1), out.reshape(-1)
    for lo in range(0, src.size, _ERF_CHUNK):
        xd = src[lo:lo + _ERF_CHUNK].astype(np.float64)  # a copy, so out may be x
        z = xd * xd
        tail = None
        if not z.max() <= 1.0:  # also true for a NaN
            big = np.flatnonzero(~(z <= 1.0))
            tail = _erf_tail(xd[big])
            xd[big] = z[big] = 0.0  # keep the main pass finite; overwritten below
        t = z * _ERF_T[0]
        t += _ERF_T[1]
        u = z + _ERF_U[0]
        u *= z
        u += _ERF_U[1]
        for tc, uc in zip(_ERF_T[2:], _ERF_U[2:]):
            t *= z
            t += tc
            u *= z
            u += uc
        t *= xd
        d = dst[lo:lo + _ERF_CHUNK]
        np.divide(t, u, out=d)
        if tail is not None:
            d[big] = tail
    return out


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


def _block_bounds(k: int) -> list[int]:
    """Block edges of a shared axis of length ``k`` in ``_contract``."""
    bounds = [0]
    while k - bounds[-1] > _BLOCK:
        rest = k - bounds[-1]
        bounds.append(bounds[-1] + (_BLOCK if rest >= 2 * _BLOCK else (rest + 1) // 2))
    bounds.append(k)
    return bounds


def _contract(a: np.ndarray, b: np.ndarray, bounds: list[int] | None = None) -> np.ndarray:
    """``a @ b`` for 2-D arrays, summed over the shared axis in a fixed order.

    BLAS splits a long shared axis into blocks, and where it splits depends
    on how many threads it runs, so a plain ``a @ b`` can change in the last
    bits with the thread count.  Here an axis longer than ``_BLOCK`` is cut
    into blocks of ``_BLOCK``, a tail longer than one block is halved (first
    half rounded up), and the block products are added in order; the result
    is the same for every BLAS thread count.  448 and the halving are
    OpenBLAS's float32 rule on two threads on AVX-512 machines, where the
    values therefore equal a plain two-thread product.  ``bounds`` replaces
    the block edges: a last layer cut to some rows passes the full axis's
    edges mapped onto those rows, so each block adds the same nonzero terms.
    """
    if bounds is None:
        bounds = _block_bounds(a.shape[1])
    out = a[:, : bounds[1]] @ b[: bounds[1]]
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        out += a[:, lo:hi] @ b[lo:hi]
    return out


def _weight_grad(x: np.ndarray, dy: np.ndarray, bounds: list[int] | None = None) -> np.ndarray:
    """Gradient of ``x @ w`` with respect to w: x^T dy over batch and positions."""
    return _contract(x.reshape(-1, x.shape[-1]).T, dy.reshape(-1, dy.shape[-1]), bounds)


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


# Query rows of a cut last layer come in blocks of this many: classification
# runs the first block ([CLS]), the MLM step as many as its most-masked
# sequence needs.  One row would take BLAS's matrix-vector path, which adds
# in another order.
_QUERY_BLOCK = 8

# (head layout, dtype, batch width) -> the widths of _cut_widths, each with its
# last layer's query rows, found once per process.
_CUT_WIDTHS: dict[tuple, dict[int, int]] = {}

# (head layout, ff width, dtype, batch, width, query rows) -> whether the MLM
# step's last layer may run that many query rows, found once per process.
_CUT_ROWS: dict[tuple, bool] = {}


def _pick(x: np.ndarray, rows: np.ndarray, axis: int = 1) -> np.ndarray:
    """The positions ``rows`` of each sequence along ``axis`` of ``x``.

    ``rows`` is (batch, n) and ``x`` has its batch axis first.
    """
    lead = tuple(np.arange(k).reshape((-1,) + (1,) * (axis - i))
                 for i, k in enumerate(x.shape[:axis]))
    return x[lead + (rows.reshape(rows.shape[:1] + (1,) * (axis - 1) + rows.shape[1:]),)]


def _row_blocks(rows: np.ndarray, length: int) -> tuple[np.ndarray, list[int]]:
    """The picked ``rows`` of sequences of width ``length`` as indices into
    their flattened (batch * length) row axis, ascending, and ``_contract``'s
    block edges of that axis mapped onto those indices."""
    flat = (rows + length * np.arange(rows.shape[0])[:, None]).ravel()
    return flat, np.searchsorted(flat, _block_bounds(rows.shape[0] * length)).tolist()


def _binade_draw(seed, dtype):
    """A function drawing arrays of ``dtype`` whose values span many binades,
    so that any change of summation order changes some last bit."""
    rng = np.random.default_rng(seed)
    binades = np.exp2(np.arange(-12, 12)).astype(dtype)

    def draw(*shape):
        x = rng.random(shape, dtype=dtype)
        x -= 0.5
        x *= binades[rng.integers(0, binades.size, size=shape, dtype=np.uint8)]
        return x

    return draw


def _mm_rows_exact(x: np.ndarray, w: np.ndarray, rows: np.ndarray) -> bool:
    """Whether ``_mm`` of the positions ``rows`` of ``x`` gives their bits in ``_mm(x, w)``."""
    return _pick(_mm(x, w), rows).tobytes() == _mm(_pick(x, rows), w).tobytes()


def _attention_rows_exact(xq, xk, xv, weights, rows, num_heads) -> bool:
    """Whether attention run on the query positions ``rows`` alone gives
    those positions' bits of the full pass, in its scores and its context.

    ``xq``, ``xk`` and ``xv`` are (batch, len, hidden) layer inputs and
    ``weights`` (batch, heads, len, len) attention weights; each product is
    computed full and on the picked rows, in ``_encode``'s shapes and
    strides.  The products are one BLAS call per sequence and head, so one
    sequence tells for any batch.  The same two products serve backward:
    ``dctx @ vh^T`` has the scores' form, ``dscores @ kh`` the context's.
    """
    def heads(x):
        return _split_heads(np.ascontiguousarray(x), num_heads)

    kt, vh = heads(xk).swapaxes(-1, -2), heads(xv)
    return (
        _pick(heads(xq) @ kt, rows, 2).tobytes() == (heads(_pick(xq, rows)) @ kt).tobytes()
        and _pick(weights @ vh, rows, 2).tobytes() == (_pick(weights, rows, 2) @ vh).tobytes()
    )


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
    ``_QUERY_BLOCK`` positions where that block keeps its bits in the
    attention products (``_attention_rows_exact``) and a position-wise
    product (``_mm_rows_exact``), and on every position otherwise.  The other position-wise products are
    not checked: their rows kept their bits at every row count tried.
    """
    cfg = params.config
    key = (cfg.hidden_dim, cfg.num_heads, cfg.dtype, length)
    if key not in _CUT_WIDTHS:
        draw = _binade_draw(length, cfg.dtype)

        def heads(x):
            return _split_heads(np.ascontiguousarray(x), cfg.num_heads)

        xq, xk, xv = (draw(1, length, cfg.hidden_dim) for _ in range(3))
        scores = heads(xq) @ heads(xk).swapaxes(-1, -2)
        weights = np.abs(draw(1, cfg.num_heads, length, length))
        w_pos = draw(cfg.hidden_dim, cfg.hidden_dim)
        block = np.arange(min(_QUERY_BLOCK, length))[None, :]
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
                cut_block = (
                    block.size < w
                    and _attention_rows_exact(xq[:, :w], xk[:, :w], xv[:, :w], cut, block,
                                              cfg.num_heads)
                    and _mm_rows_exact(xq[:, :w], w_pos, block)
                )
                rows[w] = block.size if cut_block else w
        _CUT_WIDTHS[key] = dict(sorted(rows.items()))
    return _CUT_WIDTHS[key]


def _cut_rows_exact(cfg, batch: int, length: int, n: int) -> bool:
    """Whether this process's numpy and BLAS give the MLM step's last layer,
    run on ``n`` query rows of each of ``batch`` sequences of width
    ``length``, the full pass's bits in its loss and every gradient.

    The cut changes the shapes of: the query side's position-wise products
    (``_mm``, forward and with transposed weights in backward); the
    attention products of the query rows; the key and value gradients,
    which sum over query rows; and the weight gradients' blocks, which sum
    the kept rows of each of ``_contract``'s blocks.  Each is computed full
    and cut, in the step's shapes and strides, on values spread over many
    binades, with zeros in the rows that backward leaves zero; the key is
    kept only if every kept entry has the same bits.  With OpenBLAS 0.3.31
    on AVX-512, a transposed-weight ``_mm`` changed bits at 2 to 18 rows,
    any position-wise product at 1 row, and an attention product at 1 query
    row; nothing changed at larger row counts.  A weight-gradient block
    keeps as many rows as the masked positions put in it, so the blocks are
    compared at the counts of one drawn selection; a sweep of every count
    from 0 to 448, at one and two BLAS threads, kept every bit.  The bias
    and layer-norm gradients are numpy sums over the rows in order, to
    which the left-out rows add only zeros.
    """
    d, f, h = cfg.hidden_dim, cfg.ff_dim, cfg.num_heads
    key = (d, h, f, cfg.dtype, batch, length, n)
    if key not in _CUT_ROWS:
        draw = _binade_draw(key[4:], cfg.dtype)
        rows = np.sort(draw(batch, length).argsort(axis=1)[:, :n], axis=1)
        left_out = np.ones((batch, length), dtype=bool)
        np.put_along_axis(left_out, rows, False, axis=1)
        xd, dy, xf = draw(batch, length, d), draw(batch, length, d), draw(batch, length, f)
        wdd, wdf, wfd = draw(d, d), draw(d, f), draw(f, d)
        xk, xv = draw(1, length, d), draw(1, length, d)
        weights = np.abs(draw(1, h, length, length))

        def zeroed(x):
            x = x.copy()
            x[left_out] = 0.0
            return x

        # dvh = attn^T dctx and dkh = dscores^T qh, summed over the query rows
        dkv_full = weights.swapaxes(-1, -2) @ _split_heads(zeroed(dy)[:1], h)
        dkv_cut = _pick(weights, rows[:1], 2).swapaxes(-1, -2) @ _split_heads(
            _pick(dy[:1], rows[:1]), h)
        _flat, bounds = _row_blocks(rows, length)
        _CUT_ROWS[key] = (
            _attention_rows_exact(xd[:1], xk, xv, weights, rows[:1], h)
            and dkv_full.tobytes() == dkv_cut.tobytes()
            and all(_mm_rows_exact(x, w, rows) for x, w in (
                (xd, wdd), (xd, wdd.T), (xd, wdf), (xd, wfd.T), (xf, wfd), (xf, wdf.T)))
            and all(
                _weight_grad(x, zeroed(y)).tobytes()
                == _weight_grad(_pick(x, rows), _pick(y, rows), bounds).tobytes()
                for x, y in ((xd, dy), (xd, xf), (xf, dy))
            )
        )
    return _CUT_ROWS[key]


def _mlm_rows(cfg, keep: np.ndarray) -> np.ndarray | None:
    """The last layer's query positions for an MLM batch whose labelled
    positions are ``keep``, or None where the full pass must run.

    Each sequence gets its labelled positions, padded with its earliest
    unlabelled ones to a shared count: the most any sequence has, rounded up
    to a multiple of ``_QUERY_BLOCK``; each row is in ascending order.
    """
    b, l = keep.shape
    n = -(-max(int(keep.sum(1).max(initial=0)), 1) // _QUERY_BLOCK) * _QUERY_BLOCK
    if n >= l or not _cut_rows_exact(cfg, b, l, n):
        return None
    return np.sort(np.argsort(~keep, axis=1, kind="stable")[:, :n], axis=1)


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
            rows: np.ndarray | int | None = None):
    """Run the encoder stack, returning final hidden states and a cache.

    ``rows`` picks the last layer's query positions: a (batch, n) array of
    each sequence's positions in ascending order, or an int n for the first
    n of every sequence.  That layer then computes only those positions,
    attending over every key, and the hidden states hold them in that order.
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
        cut = rows if i == cfg.num_layers - 1 else None
        xq = xin if cut is None else xin[:, :cut] if isinstance(cut, int) else _pick(xin, cut)
        qh = _split_heads(_mm(xq, params[p + "wq"]), cfg.num_heads)
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
        r1 += xq
        x1, ln1_cache = _layer_norm(r1, params[p + "ln1_g"], params[p + "ln1_b"])
        z1 = _mm(x1, params[p + "w1"])
        z1 += params[p + "b1"]
        e1 = z1 * _SQRT1_2
        _erf(e1, out=e1)  # cached so backward skips a second erf
        a1 = e1 + 1.0
        a1 *= z1
        a1 *= 0.5
        r2 = _mm(a1, params[p + "w2"])
        r2 += params[p + "b2"]
        r2 += x1
        x, ln2_cache = _layer_norm(r2, params[p + "ln2_g"], params[p + "ln2_b"])
        layers.append(
            {"rows": cut, "xin": xin, "xq": xq, "qh": qh, "kh": kh, "vh": vh, "attn": attn,
             "ctx": ctx, "ln1": ln1_cache, "x1": x1, "z1": z1, "e1": e1, "a1": a1, "ln2": ln2_cache}
        )
    return x, layers


def _scatter(part: np.ndarray, flat: np.ndarray, b: int, l: int) -> np.ndarray:
    """A (b, l, d) array of zeros holding ``part``'s rows at the flat row indices ``flat``."""
    full = np.zeros((b * l, part.shape[-1]), dtype=part.dtype)
    full[flat] = part.reshape(-1, part.shape[-1])
    return full.reshape(b, l, -1)


def _encode_backward(params: ModelParams, layers, dhidden: np.ndarray, ids: np.ndarray,
                     grads: dict[str, np.ndarray]) -> None:
    """Backpropagate dhidden through the encoder stack into ``grads``.

    A layer that ran on picked query rows takes its backward on those rows:
    its query-side weight gradients sum them within ``_contract``'s blocks of
    the full row axis, and the key and value gradients sum over them.  Only
    the query and residual gradients are scattered back to every position.
    """
    cfg = params.config
    scale = 1.0 / math.sqrt(cfg.head_dim)
    b, l = ids.shape
    dx = dhidden
    for i in reversed(range(cfg.num_layers)):
        p = f"layer{i}."
        c = layers[i]
        bounds = None
        if c["rows"] is not None:
            flat, bounds = _row_blocks(c["rows"], l)
        dr2, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_backward(
            dx, params[p + "ln2_g"], c["ln2"]
        )
        # r2 = x1 + gelu(x1 w1 + b1) w2 + b2
        da1 = _mm(dr2, params[p + "w2"].T)
        grads[p + "w2"] = _weight_grad(c["a1"], dr2, bounds)
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
        grads[p + "w1"] = _weight_grad(c["x1"], dz1, bounds)
        grads[p + "b1"] = dz1.sum((0, 1))
        dx1 = _mm(dz1, params[p + "w1"].T)
        dx1 += dr2
        dr1, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_backward(
            dx1, params[p + "ln1_g"], c["ln1"]
        )
        # r1 = xin + merge(attn @ vh) wo
        dctx = _mm(dr1, params[p + "wo"].T)
        grads[p + "wo"] = _weight_grad(c["ctx"], dr1, bounds)
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
        grads[p + "wq"] = _weight_grad(c["xq"], dq, bounds)
        grads[p + "wk"] = _weight_grad(c["xin"], dk)
        grads[p + "wv"] = _weight_grad(c["xin"], dv)
        if c["rows"] is not None:
            dq, dr1 = (_scatter(a, flat, b, l) for a in (dq, dr1))
        dx = _mm(dq, params[p + "wq"].T)
        dx += _mm(dk, params[p + "wk"].T)
        dx += _mm(dv, params[p + "wv"].T)
        dx += dr1
    # embeddings
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


def attention_maps(
    params: ModelParams, ids: np.ndarray, padding_mask: np.ndarray
) -> np.ndarray:
    """``forward(...).attentions`` without the MLM logits: the encoder only."""
    ids, real = _as_batch(ids, padding_mask)
    _hidden, layers = _encode(params, ids, real)
    return np.stack([c["attn"] for c in layers])


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

    The MLM loss reads only the labelled positions, so the last layer runs
    its query side (query projection, attention rows, ``wo``, both layer
    norms and the feed-forward) on the rows ``_mlm_rows`` picks, forward
    and backward, with keys and values over every position.  It does so
    only where ``_cut_rows_exact`` finds that this BLAS keeps every bit at
    that shape, and otherwise runs every position; the loss and gradients
    are the full pass's either way, to the bit.
    """
    if (batch.labels is None) == (batch.class_labels is None):
        raise ConfigInvalid("set exactly one of batch.labels / batch.class_labels")
    ids, real = _as_batch(batch.ids, batch.padding_mask)
    _check_ids(params.config, ids)  # before the row cut's check sizes arrays by the batch
    rows = None
    if batch.labels is not None:
        labels = np.asarray(batch.labels)
        if labels.shape != ids.shape:
            raise ConfigInvalid(f"labels shape {labels.shape} != ids shape {ids.shape}")
        rows = _mlm_rows(params.config, labels != IGNORE_LABEL)
    hidden, layers = _encode(params, ids, real, rows)
    grads: dict[str, np.ndarray] = {}
    if batch.labels is not None:
        if rows is not None:
            labels = _pick(labels, rows)
        loss, dhidden = _mlm_head_backward(params, hidden, labels, grads)
    else:
        loss, dhidden = _classifier_backward(params, hidden, batch.class_labels, grads)
    _encode_backward(params, layers, dhidden, ids, grads)
    for name, arr in params.arrays.items():
        if name not in grads:
            grads[name] = np.zeros_like(arr)
    return loss, grads
