"""Encoder shape and hyperparameter description, and the settings type check.

``ModelSettings`` is the run config's ``model`` section; ``ModelConfig``
adds the vocabulary size, class count and seed, which a run derives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from ..errors import ConfigInvalid

DTYPES = ("float32", "float64")


def _accepts(hint):
    """A test for JSON values of ``hint``: ``bool`` takes only true/false, ``int``
    no bool, ``float`` also an integer but never NaN or +-inf, a tuple a JSON
    list, ``X | None`` also null."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType):
        tests = [_accepts(arm) for arm in args]
        return lambda v: any(t(v) for t in tests)
    if get_origin(hint) is tuple:
        tests = [_accepts(arg) for arg in args if arg is not Ellipsis]
        if args[-1] is Ellipsis:
            return lambda v: isinstance(v, (tuple, list)) and all(map(tests[0], v))
        return lambda v: (isinstance(v, (tuple, list)) and len(v) == len(tests)
                          and all(t(x) for t, x in zip(tests, v)))
    kinds = (int, float) if hint is float else get_origin(hint) or hint
    return lambda v: (isinstance(v, kinds) and (hint is bool or not isinstance(v, bool))
                      and (not isinstance(v, float) or math.isfinite(v)))


def type_checks(cls) -> dict:
    """Key -> (annotation, test) for every field of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return {f.name: (f.type, _accepts(hints[f.name])) for f in fields(cls)}


def check_types(checks: dict, values: dict, path: str) -> None:
    """Raise ConfigInvalid naming the first key of ``values`` that ``checks`` lacks or refuses."""
    for key, value in values.items():
        if key not in checks:
            raise ConfigInvalid(f"unknown key {path}.{key}")
        annotation, test = checks[key]
        if not test(value):
            raise ConfigInvalid(f"{path}.{key} must be {annotation}, got {value!r}")


@dataclass(frozen=True, kw_only=True)
class ModelSettings:
    """Encoder settings a run config names; the trainer runs no dropout."""

    num_layers: int = 2
    num_heads: int = 4
    hidden_dim: int = 64
    ff_dim: int = 256
    max_len: int = 128
    dropout_rate: float = 0.0
    tie_embeddings: bool = False
    dtype: str = "float32"

    def __post_init__(self) -> None:
        for name in ("num_layers", "num_heads", "hidden_dim", "ff_dim"):
            if getattr(self, name) < 1:
                raise ConfigInvalid(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.hidden_dim % self.num_heads:
            raise ConfigInvalid(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.max_len < 3:
            raise ConfigInvalid(f"max_len must be >= 3, got {self.max_len}")
        if self.dropout_rate != 0.0:
            raise ConfigInvalid(f"dropout_rate must be 0.0, got {self.dropout_rate}")
        if self.dtype not in DTYPES:
            raise ConfigInvalid(f"dtype must be one of {DTYPES}, got {self.dtype!r}")


@dataclass(frozen=True)
class ModelConfig(ModelSettings):
    """Shapes and training-relevant constants of the encoder.

    The defaults are the desk-scale configuration (2 layers, 64 hidden,
    4 heads); with the k=6 vocabulary (4,101 tokens) it holds 636,807
    parameters.
    """

    vocab_size: int
    num_classes: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 6:
            raise ConfigInvalid(f"vocab_size must cover specials + >=1 k-mer, got {self.vocab_size}")
        if self.num_classes < 1:
            raise ConfigInvalid(f"num_classes must be >= 1, got {self.num_classes}")
        super().__post_init__()

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every dense parameter array, in a fixed order.

    Per layer: Q/K/V/output projections (no biases), two feed-forward
    matrices with biases, and two layer-norm scale/shift pairs.  The MLM
    output projection is separate unless embeddings are tied, in which case
    only its bias remains and the token embedding matrix is reused.
    """
    d, f, v = config.hidden_dim, config.ff_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, d),
        "pos_emb": (config.max_len, d),
    }
    for i in range(config.num_layers):
        prefix = f"layer{i}."
        shapes[prefix + "wq"] = (d, d)
        shapes[prefix + "wk"] = (d, d)
        shapes[prefix + "wv"] = (d, d)
        shapes[prefix + "wo"] = (d, d)
        shapes[prefix + "w1"] = (d, f)
        shapes[prefix + "b1"] = (f,)
        shapes[prefix + "w2"] = (f, d)
        shapes[prefix + "b2"] = (d,)
        shapes[prefix + "ln1_g"] = (d,)
        shapes[prefix + "ln1_b"] = (d,)
        shapes[prefix + "ln2_g"] = (d,)
        shapes[prefix + "ln2_b"] = (d,)
    if not config.tie_embeddings:
        shapes["mlm_w"] = (d, v)
    shapes["mlm_b"] = (v,)
    shapes["cls_w"] = (d, config.num_classes)
    shapes["cls_b"] = (config.num_classes,)
    return shapes
