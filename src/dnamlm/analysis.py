"""Evaluation metric and pre-training diagnostics.

Matthews correlation for classification quality, attention concentration
on [CLS] and attention entropy as under-training probes, a silhouette
score quantifying how strongly k-mer embeddings organize by their central
dinucleotide, and a detector for loss jumps at curriculum stage boundaries.
The dinucleotide groups are read off the 6-mer ids' base-4 digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .atomic import write_then_replace
from .errors import (
    ConfigInvalid,
    InsufficientHistory,
    KNotSix,
    LengthMismatch,
    NoMaskedPositions,
)
from .masking import MaskSchedule

_ENTROPY_SLACK = 1e-6


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix counts."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ConfigInvalid("confusion counts must be non-negative")


def mcc(counts: ConfusionCounts) -> float:
    """(TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN)), in [-1, 1].

    Returns 0.0 when any denominator factor is zero (the usual convention,
    which keeps single-class runs well-defined).
    """
    tp, tn, fp, fn = counts.tp, counts.tn, counts.fp, counts.fn
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(den)


def multiclass_mcc(labels: Sequence[int], preds: Sequence[int]) -> float:
    """Generalized (R_k) Matthews correlation from label/prediction lists.

    With c = correct predictions, s = total, t_k / p_k the per-class true
    and predicted counts:

        (c*s - sum_k p_k t_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2))

    Reduces exactly to the binary formula for two classes; returns 0.0 on a
    zero denominator.
    """
    if len(labels) != len(preds):
        raise LengthMismatch(f"{len(labels)} labels vs {len(preds)} predictions")
    if not labels:
        return 0.0
    s = len(labels)
    c = sum(1 for y, p in zip(labels, preds) if y == p)
    classes = sorted(set(labels) | set(preds))
    t = {k: 0 for k in classes}
    p = {k: 0 for k in classes}
    for y in labels:
        t[y] += 1
    for q in preds:
        p[q] += 1
    cov = c * s - sum(p[k] * t[k] for k in classes)
    den = (s * s - sum(v * v for v in p.values())) * (s * s - sum(v * v for v in t.values()))
    if den == 0:
        return 0.0
    return cov / math.sqrt(den)


def _masked_query_rows(attentions: np.ndarray, padding_mask: np.ndarray,
                       masked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Select attention rows of masked, real query positions.

    ``masked`` has the padding mask's (batch, len) shape.  Returns (rows,
    key_mask) with rows shaped (layers, heads, n_queries, len) and key_mask
    (n_queries, len).
    """
    attn = np.asarray(attentions)
    real = np.asarray(padding_mask, dtype=bool)
    masked = np.asarray(masked, dtype=bool)
    if masked.shape != real.shape:
        raise ConfigInvalid(f"masked shape {masked.shape} != padding mask {real.shape}")
    query = masked & real
    if not query.any():
        raise NoMaskedPositions("no masked query positions in this trace")
    b_idx, q_idx = np.nonzero(query)
    rows = attn[:, b_idx, :, q_idx, :]          # (n, layers, heads, len)
    rows = rows.transpose(1, 2, 0, 3)           # (layers, heads, n, len)
    return rows, real[b_idx]


def attention_cls_mass(attentions: np.ndarray, padding_mask: np.ndarray,
                       masked: np.ndarray) -> np.ndarray:
    """Per-layer mean attention that masked tokens assign to position 0.

    ``attentions`` is shaped (layers, batch, heads, len, len), as
    ``attention_maps`` returns it.  Averages over heads and masked query
    positions; the result lies in [0, 1] per layer.
    """
    rows, _ = _masked_query_rows(attentions, padding_mask, masked)
    out = rows[..., 0].mean(axis=(1, 2))
    if (out < -1e-9).any() or (out > 1 + 1e-9).any():
        raise ConfigInvalid("attention mass outside [0, 1]; attention rows are invalid")
    return np.clip(out, 0.0, 1.0)


def attention_entropy(attentions: np.ndarray, padding_mask: np.ndarray,
                      masked: np.ndarray) -> np.ndarray:
    """Per-layer mean Shannon entropy (nats) of masked tokens' attention rows.

    Computed over unpadded keys; every row obeys 0 <= H <= ln(#real keys).
    """
    rows, key_real = _masked_query_rows(attentions, padding_mask, masked)
    probs = np.where(key_real[None, None, :, :], rows, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    ent = -plogp.sum(-1)                        # (layers, heads, n)
    bound = np.log(key_real.sum(-1))            # (n,)
    if (ent < -_ENTROPY_SLACK).any() or (ent > bound[None, None, :] + _ENTROPY_SLACK).any():
        raise ConfigInvalid("attention entropy outside [0, ln n]; rows are invalid")
    return ent.mean(axis=(1, 2))


NUM_DINUCLEOTIDE_GROUPS = 16
_SIX_MER_COUNT = 4 ** 6
# Distance rows per block in `embedding_silhouette`: the working set is one
# 256 x 4096 float64 block (8 MB), not the 128 MB full matrix.
_SILHOUETTE_ROWS = 256


def dinucleotide_groups() -> np.ndarray:
    """Group index (0..15) of every 6-mer id offset, in vocabulary order.

    An offset's bits 4-7 are its central dinucleotide's lexicographic rank.
    """
    return (np.arange(_SIX_MER_COUNT, dtype=np.int64) >> 4) & 15


def embedding_silhouette(embeddings: np.ndarray) -> float:
    """Mean silhouette of 6-mer embeddings grouped by central dinucleotide.

    Uses cosine distance over the 4,096 k-mer embedding rows (special-token
    rows excluded by the caller).  Organization of the embedding space by
    the central two nucleotides pushes this toward 1; a disorganized space
    sits near 0.  Points with a zero silhouette denominator contribute 0.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != _SIX_MER_COUNT:
        raise KNotSix(
            f"expected ({_SIX_MER_COUNT}, dim) k-mer embeddings, got {emb.shape}"
        )
    groups = dinucleotide_groups()
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    unit = np.divide(emb, norms, out=np.zeros_like(emb), where=norms > 0)

    onehot = np.zeros((_SIX_MER_COUNT, NUM_DINUCLEOTIDE_GROUPS))
    onehot[np.arange(_SIX_MER_COUNT), groups] = 1.0
    counts = onehot.sum(0)                       # 256 per group
    sums = np.empty((_SIX_MER_COUNT, NUM_DINUCLEOTIDE_GROUPS))
    self_dist = np.empty(_SIX_MER_COUNT)
    for lo in range(0, _SIX_MER_COUNT, _SILHOUETTE_ROWS):
        hi = lo + _SILHOUETTE_ROWS
        block = np.clip(1.0 - unit[lo:hi] @ unit.T, 0.0, 2.0)
        sums[lo:hi] = block @ onehot             # (rows, groups)
        self_dist[lo:hi] = block[np.arange(hi - lo), np.arange(lo, hi)]
    own = groups
    # self-distance is excluded from the own-cluster mean
    a = (sums[np.arange(_SIX_MER_COUNT), own] - self_dist) / (counts[own] - 1.0)
    mean_other = sums / counts
    mean_other[np.arange(_SIX_MER_COUNT), own] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    s = np.divide(b - a, denom, out=np.zeros_like(a), where=denom > 0)
    value = float(s.mean())
    if not -1.0 <= value <= 1.0:
        raise ConfigInvalid(f"silhouette {value} outside [-1, 1]")
    return value


@dataclass(frozen=True)
class BoundaryJump:
    """Mean loss in the windows before/after one stage boundary."""

    boundary: int
    pre_mean: float
    post_mean: float

    @property
    def jump(self) -> float:
        return self.post_mean - self.pre_mean


def stage_jump_detector(
    steps: Sequence[int],
    losses: Sequence[float],
    schedule: MaskSchedule,
    window: int = 100,
) -> list[BoundaryJump]:
    """Loss change across each stage boundary the run fully covers.

    For a boundary b, compares the mean loss over steps (b-window, b] with
    (b, b+window].  Boundaries without a full window on both sides are
    skipped; if none qualifies the history is insufficient.
    """
    if window < 1:
        raise ConfigInvalid(f"window must be >= 1, got {window}")
    by_step = {int(s): float(v) for s, v in zip(steps, losses)}
    out = []
    for boundary in schedule.boundaries()[:-1]:
        pre = [by_step.get(s) for s in range(boundary - window + 1, boundary + 1)]
        post = [by_step.get(s) for s in range(boundary + 1, boundary + window + 1)]
        if any(v is None for v in pre) or any(v is None for v in post):
            continue
        out.append(
            BoundaryJump(
                boundary=boundary,
                pre_mean=float(np.mean(pre)),
                post_mean=float(np.mean(post)),
            )
        )
    if not out:
        raise InsufficientHistory(
            "no stage boundary is covered by a full pre/post loss window"
        )
    return out


# --- run report -------------------------------------------------------------

REPORT_SCHEMA_VERSION = 1
REPORT_JSON = "report.json"
LOSS_CSV = "loss.csv"
LOSS_CSV_HEADER = ("step", "loss", "stage", "width_max")


@dataclass
class StepRecord:
    """One training step: stage index, allowed widths, and loss."""

    step: int
    stage: int
    widths: list[int]
    loss: float


@dataclass
class RunReport:
    """Serialized observables of one experiment."""

    config: dict
    seeds: dict
    stage_boundaries: list[int]
    records: list[StepRecord] = field(default_factory=list)
    attention: dict | None = None
    silhouette: float | None = None
    schema_version: int = REPORT_SCHEMA_VERSION

    def __post_init__(self) -> None:
        steps = [r.step for r in self.records]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ConfigInvalid("report steps must be strictly increasing")
        for r in self.records:
            if not math.isfinite(r.loss):
                raise ConfigInvalid(f"non-finite loss at step {r.step}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def loss_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(LOSS_CSV_HEADER)
        for r in self.records:
            writer.writerow([r.step, repr(r.loss), r.stage, max(r.widths)])
        return buf.getvalue()


def emit_report(report: RunReport, directory: str) -> tuple[str, str]:
    """Write ``report.json`` and ``loss.csv``, each whole or not at all; returns the two paths."""
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, REPORT_JSON)
    csv_path = os.path.join(directory, LOSS_CSV)
    write_then_replace(json_path, [report.to_json().encode("utf-8")])
    write_then_replace(csv_path, [report.loss_csv().encode("utf-8")])
    return json_path, csv_path
