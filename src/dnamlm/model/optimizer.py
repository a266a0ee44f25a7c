"""AdamW with bias correction and decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigInvalid
from .params import ModelParams


@dataclass
class OptimizerState:
    """First/second moment estimates plus the update hyperparameters, checked on construction."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_hyperparameters(self.lr, self.beta1, self.beta2, self.weight_decay)
        if self.step < 0:
            raise ConfigInvalid(f"optimizer step must be >= 0, got {self.step}")


def check_hyperparameters(
    lr: float, beta1: float = 0.9, beta2: float = 0.999, weight_decay: float = 0.0
) -> None:
    """Reject a negative learning rate or weight decay, or a beta outside [0, 1)."""
    if lr < 0:
        raise ConfigInvalid(f"learning rate must be >= 0, got {lr}")
    if weight_decay < 0:
        raise ConfigInvalid(f"weight decay must be >= 0, got {weight_decay}")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ConfigInvalid(f"betas must lie in [0, 1), got {beta1}, {beta2}")


def init_optimizer(params: ModelParams, lr: float, **settings: float) -> OptimizerState:
    """Zero moments; ``settings`` are any of beta1, beta2, weight_decay and eps."""
    return OptimizerState(
        lr=lr,
        **settings,
        m={k: np.zeros_like(a) for k, a in params.arrays.items()},
        v={k: np.zeros_like(a) for k, a in params.arrays.items()},
    )


def adamw_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    only: set[str] | None = None,
) -> None:
    """Apply one AdamW update in place.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2; with bias correction
    mhat = m / (1 - b1^t), vhat = v / (1 - b2^t) the update is
    theta <- theta - lr (mhat / (sqrt(vhat) + eps) + wd * theta),
    i.e. weight decay is decoupled from the adaptive term.

    Args:
        only: restrict the update to these parameter names (frozen-backbone
            fine-tuning); moments of other parameters are left untouched.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, theta in params.arrays.items():
        if only is not None and name not in only:
            continue
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * theta
        theta -= (state.lr * update).astype(theta.dtype, copy=False)
