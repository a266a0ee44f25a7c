"""Independent float64 references for the benchmark's correctness checks.

Nothing here imports the program's model, tokenizer or analysis code.  The
encoder forward pass, the MLM and classifier losses, k-mer ids, framing and
Matthews correlation are recomputed from their definitions, so a fault in
the program cannot hide inside a helper the check shares with it.  Only the
parameter arrays themselves (``ModelParams.arrays``) are read.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

PAD, UNK, CLS, SEP, MASK = range(5)
FIRST_KMER = 5
IGNORE = -100
LN_EPS = 1e-12

# A=0 C=1 G=2 T=3; N (and anything else) flagged with 4.
_BASE_CODE = np.full(256, 4, dtype=np.int64)
for _i, _b in enumerate("ACGT"):
    _BASE_CODE[ord(_b)] = _i


def kmer_ids(bases: str, k: int) -> np.ndarray:
    """Overlapping k-mer ids of ``bases``: 5 + base-4 value, [UNK] if N inside."""
    codes = _BASE_CODE[np.frombuffer(bases.encode("ascii"), dtype=np.uint8)]
    if codes.size < k:
        return np.empty(0, dtype=np.int64)
    win = np.lib.stride_tricks.sliding_window_view(codes, k)
    value = (win * (4 ** np.arange(k - 1, -1, -1))).sum(axis=1)
    return np.where((win == 4).any(axis=1), UNK, FIRST_KMER + value)


def frame(token_ids: np.ndarray, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """[CLS] ids [SEP] padded with [PAD] to ``max_len``; truncates the body."""
    body = np.asarray(token_ids, dtype=np.int64)[: max_len - 2]
    ids = np.full(max_len, PAD, dtype=np.int64)
    ids[0] = CLS
    ids[1 : 1 + body.size] = body
    ids[1 + body.size] = SEP
    real = np.zeros(max_len, dtype=bool)
    real[: body.size + 2] = True
    return ids, real


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * g + b


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def encoder_hidden(arrays: dict, num_layers: int, num_heads: int,
                   ids: np.ndarray, real: np.ndarray, cls_only: bool = False) -> np.ndarray:
    """Final hidden states of the post-norm encoder, in float64.

    Padded keys get zero attention weight; each block is
    LN(x + attn(x) Wo) followed by LN(x1 + GELU(x1 W1 + b1) W2 + b2).
    With ``cls_only`` the last block computes position 0 alone, which is all
    a classifier reads; the result then has length 1.
    """
    w = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    ids = np.asarray(ids, dtype=np.int64)
    real = np.asarray(real, dtype=bool)
    b, length = ids.shape
    x = w["tok_emb"][ids] + w["pos_emb"][:length]
    d = x.shape[-1]
    dh = d // num_heads
    key_bias = np.where(real, 0.0, -np.inf)[:, None, None, :]
    for i in range(num_layers):
        p = f"layer{i}."
        xq = x[:, :1] if cls_only and i == num_layers - 1 else x

        def heads(t):
            return t.reshape(b, t.shape[1], num_heads, dh).transpose(0, 2, 1, 3)

        q = heads(xq @ w[p + "wq"])
        k, v = (heads(x @ w[p + n]) for n in ("wk", "wv"))
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh) + key_bias
        scores = np.exp(scores - scores.max(-1, keepdims=True))
        attn = scores / scores.sum(-1, keepdims=True)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, xq.shape[1], d)
        x1 = _layer_norm(xq + ctx @ w[p + "wo"], w[p + "ln1_g"], w[p + "ln1_b"])
        ff = _gelu(x1 @ w[p + "w1"] + w[p + "b1"]) @ w[p + "w2"] + w[p + "b2"]
        x = _layer_norm(x1 + ff, w[p + "ln2_g"], w[p + "ln2_b"])
    return x


def mlm_loss(arrays: dict, hidden: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of the MLM head over positions whose label is set."""
    keep = labels != IGNORE
    out_w = arrays["mlm_w"] if "mlm_w" in arrays else np.asarray(arrays["tok_emb"]).T
    logits = hidden[keep] @ np.asarray(out_w, dtype=np.float64)
    logits += np.asarray(arrays["mlm_b"], dtype=np.float64)
    top = logits.max(-1, keepdims=True)
    log_z = top[:, 0] + np.log(np.exp(logits - top).sum(-1))
    picked = logits[np.arange(logits.shape[0]), labels[keep]]
    return float((log_z - picked).mean())


def class_logits(arrays: dict, hidden: np.ndarray) -> np.ndarray:
    """Classifier logits on the position-0 ([CLS]) vector."""
    return hidden[:, 0, :] @ np.asarray(arrays["cls_w"], dtype=np.float64) + np.asarray(
        arrays["cls_b"], dtype=np.float64
    )


def mcc(labels, preds) -> float:
    """Multiclass Matthews correlation from the confusion matrix; 0 if undefined."""
    y = np.asarray(labels, dtype=np.int64)
    p = np.asarray(preds, dtype=np.int64)
    n = int(max(y.max(initial=0), p.max(initial=0))) + 1
    conf = np.zeros((n, n), dtype=np.float64)
    np.add.at(conf, (y, p), 1.0)
    s = conf.sum()
    c = np.trace(conf)
    t = conf.sum(axis=1)
    q = conf.sum(axis=0)
    den = math.sqrt((s * s - q @ q) * (s * s - t @ t))
    return 0.0 if den == 0 else float((c * s - q @ t) / den)
