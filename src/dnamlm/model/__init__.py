"""Desk-scale transformer-encoder MLM with analytic gradients."""

from .config import ModelConfig, param_shapes
from .params import ModelParams, init_model
from .network import Batch, ForwardTrace, backward, forward, mlm_loss
from .optimizer import OptimizerState, adamw_step, init_optimizer
from .training import FinetuneConfig, finetune_classify, train_step
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__all__ = [
    "ModelConfig",
    "ModelParams",
    "Batch",
    "ForwardTrace",
    "OptimizerState",
    "FinetuneConfig",
    "Checkpoint",
    "param_shapes",
    "init_model",
    "forward",
    "backward",
    "mlm_loss",
    "init_optimizer",
    "adamw_step",
    "train_step",
    "finetune_classify",
    "save_checkpoint",
    "load_checkpoint",
]
