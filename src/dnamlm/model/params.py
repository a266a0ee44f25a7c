"""Parameter container and deterministic initialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigInvalid
from ..rng import STREAM_INIT, split
from .config import ModelConfig, param_shapes

#: Standard deviation of the truncated-normal weight initialization.
INIT_STD = 0.02


@dataclass
class ModelParams:
    """Named dense parameter arrays plus the config that fixes their shapes."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.arrays[name] = value

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.arrays.items()})

    def check_finite(self) -> None:
        for name, arr in self.arrays.items():
            if not np.all(np.isfinite(arr)):
                raise ConfigInvalid(f"parameter {name} contains non-finite values")

    def output_weight(self) -> np.ndarray:
        """(hidden, vocab) MLM projection; the embedding transpose when tied."""
        if self.config.tie_embeddings:
            return self.arrays["tok_emb"].T
        return self.arrays["mlm_w"]


def truncated_normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float, dtype: np.dtype
) -> np.ndarray:
    """Normal(0, std) samples with |z| > 2 redrawn, in float64 then cast."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * std).astype(dtype)


def init_model(config: ModelConfig) -> ModelParams:
    """Initialize parameters deterministically from ``config.seed``.

    Weight matrices and embeddings use a truncated normal of std
    ``INIT_STD``; biases and layer-norm shifts start at 0, layer-norm scales
    at 1.  The same seed always yields bit-identical arrays.
    """
    rng = split(config.seed, STREAM_INIT)
    dtype = np.dtype(config.dtype)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("ln1_g", "ln2_g"):
            arrays[name] = np.ones(shape, dtype=dtype)
        elif leaf in ("b1", "b2", "ln1_b", "ln2_b", "mlm_b", "cls_b"):
            arrays[name] = np.zeros(shape, dtype=dtype)
        else:
            arrays[name] = truncated_normal(rng, shape, INIT_STD, dtype)
    params = ModelParams(config=config, arrays=arrays)
    params.check_finite()
    return params
