"""Optimization steps and classifier fine-tuning."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..analysis import multiclass_mcc
from ..corpus import LabeledExample
from ..errors import ConfigInvalid, EmptyDataset, NonFiniteLoss
from ..rng import STREAM_INIT, STREAM_SHUFFLE, split
from ..tokenizer import Strategy, Vocabulary, prepare_frames
from .network import Batch, _as_batch, _check_ids, _cut_widths, _encode, backward
from .optimizer import OptimizerState, adamw_step, check_hyperparameters, init_optimizer
from .params import ModelParams, truncated_normal

CLASSIFIER_PARAMS = {"cls_w", "cls_b"}


def train_step(
    params: ModelParams,
    opt_state: OptimizerState,
    batch: Batch,
    only: set[str] | None = None,
) -> float:
    """One gradient step; updates params and optimizer state in place.

    Raises:
        NonFiniteLoss: the loss went NaN/inf; params are left un-updated
            so the failure can be inspected.
    """
    loss, grads = backward(params, batch)
    if not math.isfinite(loss):
        raise NonFiniteLoss(
            f"loss {loss} at optimizer step {opt_state.step + 1} (lr={opt_state.lr})"
        )
    adamw_step(params, grads, opt_state, only=only)
    for name, arr in params.arrays.items():
        if not np.all(np.isfinite(arr)):
            raise NonFiniteLoss(
                f"parameter {name} went non-finite at optimizer step {opt_state.step}"
            )
    return loss


@dataclass(frozen=True, kw_only=True)
class FinetuneSettings:
    """The run config's ``finetune`` section: AdamW, batch 32, lr 3e-5, no decay."""

    epochs: int = 5
    lr: float = 3e-5
    batch_size: int = 32
    weight_decay: float = 0.0
    freeze_backbone: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigInvalid("epochs and batch_size must be >= 1")


@dataclass(frozen=True, kw_only=True)
class FinetuneConfig(FinetuneSettings):
    """Fine-tune settings plus the AdamW betas and the run's seed."""

    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0


def _resize_classifier_head(params: ModelParams, num_classes: int, seed: int) -> None:
    """Replace the classifier head when the dataset's class count differs."""
    cfg = params.config
    params.config = replace(cfg, num_classes=num_classes)
    rng = split(seed, STREAM_INIT, 1)
    params["cls_w"] = truncated_normal(
        rng, (cfg.hidden_dim, num_classes), 0.02, np.dtype(cfg.dtype)
    )
    params["cls_b"] = np.zeros(num_classes, dtype=np.dtype(cfg.dtype))


def _class_logits(
    params: ModelParams, ids: np.ndarray, real: np.ndarray, batch_size: int
) -> np.ndarray:
    """Classifier logits on the [CLS] vector, one row per input row, in input order.

    Runs the encoder only: no MLM logits or stacked attention maps.  Each row
    runs cut to the narrowest of ``_cut_widths`` that holds its last real
    position, with the rows of one width encoded together, ``batch_size`` at
    a time, and the last layer computing the query rows ``_cut_widths``
    allows at that width; so the logits are those of the padded batch, to
    the bit.  Every input check runs on the whole batch before it is cut.
    """
    if batch_size < 1:
        raise ConfigInvalid(f"batch_size must be >= 1, got {batch_size}")
    ids, real = _as_batch(ids, real)
    _check_ids(params.config, ids)
    n, length = ids.shape
    pooled = np.empty((n, params.config.hidden_dim), dtype=params["cls_w"].dtype)
    if n:
        queries = _cut_widths(params, length)
        widths = np.asarray(list(queries))
        last = length - real[:, ::-1].argmax(axis=1)  # one past the row's last real position
        row_width = widths[np.searchsorted(widths, last)]
        for width in np.unique(row_width).tolist():
            rows = np.flatnonzero(row_width == width)
            for start in range(0, rows.size, batch_size):
                sel = rows[start : start + batch_size]
                hidden, _layers = _encode(params, ids[sel, :width], real[sel, :width],
                                          queries[width])
                pooled[sel] = hidden[:, 0, :]
    return pooled @ params["cls_w"] + params["cls_b"]


def predict_classes(
    params: ModelParams, ids: np.ndarray, real: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Argmax class predictions over the [CLS] vector, in input order."""
    return _class_logits(params, ids, real, batch_size).argmax(-1)


def finetune_classify(
    params: ModelParams,
    examples: list[LabeledExample],
    num_classes: int,
    vocab: Vocabulary,
    config: FinetuneConfig = FinetuneConfig(),
    strategy: Strategy = Strategy.OVERLAPPING,
) -> tuple[ModelParams, list[dict]]:
    """Train the classifier head (plus backbone unless frozen) on [CLS].

    Cross-entropy on the pooled [CLS] vector with AdamW; examples are
    reshuffled every epoch from the fine-tune seed.  Per-epoch metrics
    report mean training loss and the Matthews correlation of end-of-epoch
    predictions on the training set.

    Returns:
        The updated params and one ``{"epoch", "loss", "mcc"}`` dict per epoch.
    """
    if not examples:
        raise EmptyDataset("no fine-tuning examples")
    if num_classes < 1:
        raise ConfigInvalid(f"num_classes must be >= 1, got {num_classes}")
    # Everything that can reject the call runs before the head is replaced.
    check_hyperparameters(config.lr, config.beta1, config.beta2, config.weight_decay)
    ids, real = prepare_frames(
        [ex.sequence for ex in examples], vocab, strategy, params.config.max_len
    )
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    if num_classes != params.config.num_classes:
        _resize_classifier_head(params, num_classes, config.seed)

    opt = init_optimizer(
        params,
        lr=config.lr,
        beta1=config.beta1,
        beta2=config.beta2,
        weight_decay=config.weight_decay,
    )
    only = CLASSIFIER_PARAMS if config.freeze_backbone else None

    metrics: list[dict] = []
    n = ids.shape[0]
    for epoch in range(1, config.epochs + 1):
        perm = split(config.seed, STREAM_SHUFFLE, epoch).permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            sel = perm[start : start + config.batch_size]
            batch = Batch(ids=ids[sel], padding_mask=real[sel], class_labels=labels[sel])
            losses.append(train_step(params, opt, batch, only=only))
        preds = predict_classes(params, ids, real)
        metrics.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)),
                "mcc": multiclass_mcc(labels.tolist(), preds.tolist()),
            }
        )
    return params, metrics
