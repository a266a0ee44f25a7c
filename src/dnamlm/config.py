"""Run configuration: JSON-file sections, strict validation, flag overrides.

A run config has six sections (corpus, tokenizer, masking, model, training,
finetune), each with documented defaults.  Unknown keys are rejected, CLI
flags override file values, and the merged effective config is echoed into
every report and checkpoint for provenance.  Each key's type is declared
once, by its field's annotation, and checked by ``model.config.check_types``.

The ``corpus``, ``model`` and ``finetune`` sections are the corpus and
model layers' own ``CorpusSettings``, ``ModelSettings`` and
``FinetuneSettings``, as ``masking.policy`` is a ``CorruptionPolicy``, so
each key has one default and one check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, get_type_hints

from .corpus import CorpusSettings
from .errors import ConfigInvalid
from .masking import DEFAULT_STAGE_FRACTIONS, CorruptionPolicy, MaskSchedule
from .model.config import ModelSettings, check_types, type_checks
from .model.optimizer import check_hyperparameters
from .model.training import FinetuneSettings
from .rng import PATH_LIMIT
from .tokenizer import Strategy, check_k

@dataclass(frozen=True)
class TokenizerSection:
    k: int = 6
    strategy: str = "overlapping"        # overlapping | nonoverlapping | samelength

    def __post_init__(self) -> None:
        check_k(self.k)
        Strategy(self.strategy)     # ValueError for an unknown strategy


@dataclass(frozen=True)
class MaskingSection:
    p: float = 0.025
    mode: str = "randommask"             # randommask | baseline
    stage_fractions: tuple[float, ...] = DEFAULT_STAGE_FRACTIONS
    base_width: int = 6
    width_increment: int = 2
    policy: CorruptionPolicy = field(default_factory=CorruptionPolicy)

    def __post_init__(self) -> None:
        if self.mode not in ("randommask", "baseline"):
            raise ConfigInvalid(f"masking.mode must be 'randommask' or 'baseline', got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigInvalid(f"masking.p must be in [0, 1], got {self.p}")
        object.__setattr__(self, "stage_fractions", tuple(float(f) for f in self.stage_fractions))

    def staged_schedule(self, total_steps: int) -> MaskSchedule:
        """RandomMask's stage table as a schedule over ``total_steps``."""
        return MaskSchedule(total_steps, self.stage_fractions, self.base_width, self.width_increment)


@dataclass(frozen=True)
class TrainingSection:
    total_steps: int = 1000
    batch_size: int = 16
    lr: float = 1e-3
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_steps < 1 or self.batch_size < 1:
            raise ConfigInvalid("training.total_steps and batch_size must be >= 1")
        if self.total_steps >= PATH_LIMIT:  # a step keys its rng streams
            raise ConfigInvalid(f"training.total_steps must be < 2**32, got {self.total_steps}")
        if self.seed < 0:
            raise ConfigInvalid(f"training.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusSettings = field(default_factory=CorpusSettings)
    tokenizer: TokenizerSection = field(default_factory=TokenizerSection)
    masking: MaskingSection = field(default_factory=MaskingSection)
    model: ModelSettings = field(default_factory=ModelSettings)
    training: TrainingSection = field(default_factory=TrainingSection)
    finetune: FinetuneSettings = field(default_factory=FinetuneSettings)

    def __post_init__(self) -> None:
        if self.corpus.window_length < self.tokenizer.k:
            raise ConfigInvalid(
                f"corpus.window_length {self.corpus.window_length} shorter than "
                f"tokenizer.k {self.tokenizer.k}"
            )
        # The stage table is checked in both modes; the baseline's one width is k.
        try:
            self.masking.staged_schedule(self.training.total_steps)
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"masking: {exc}") from None
        if self.masking.mode == "baseline" and self.tokenizer.k % 2:
            raise ConfigInvalid(
                f"masking.mode 'baseline' masks spans of width tokenizer.k, which must be "
                f"even; got tokenizer.k {self.tokenizer.k}"
            )
        # Optimizers are built long after load (pretrain after the corpus,
        # finetune after the data and checkpoint), so check their settings now.
        for name in ("training", "finetune"):
            section = getattr(self, name)
            try:
                check_hyperparameters(section.lr, weight_decay=section.weight_decay)
            except ConfigInvalid as exc:
                raise ConfigInvalid(f"{name}: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)


#: Section name -> section class, from RunConfig's own fields.
_SECTIONS = get_type_hints(RunConfig)
_CHECKS = {cls: type_checks(cls) for cls in (*_SECTIONS.values(), CorruptionPolicy)}


def _build_section(cls, obj: Any, path: str):
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{path} must be an object, got {type(obj).__name__}")
    if "policy" in obj:
        obj = {**obj, "policy": _build_section(CorruptionPolicy, obj["policy"], f"{path}.policy")}
    # The section's own checks run first, then each value meets its annotation;
    # a value its annotation refuses is named as such, whichever check failed.
    try:
        section = cls(**obj)
    except ConfigInvalid:
        check_types(_CHECKS[cls], obj, path)
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        check_types(_CHECKS[cls], obj, path)
        raise ConfigInvalid(f"bad value in {path}: {exc}") from None
    check_types(_CHECKS[cls], obj, path)
    return section


def run_config_from_dict(obj: dict) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig, rejecting unknown keys.

    The one exception is the training section's retired thread-count key,
    which is accepted and dropped whatever its value, so configs, reports
    and checkpoints written before its removal still load.
    """
    if not isinstance(obj, dict):
        raise ConfigInvalid("run config must be a JSON object")
    unknown = set(obj) - set(_SECTIONS)
    if unknown:
        raise ConfigInvalid(f"unknown config section(s) {sorted(unknown)}")
    training = obj.get("training")
    if isinstance(training, dict):
        obj = {**obj, "training": {k: v for k, v in training.items() if k != "workers"}}
    sections = {
        name: _build_section(cls, obj.get(name, {}), name)
        for name, cls in _SECTIONS.items()
    }
    return RunConfig(**sections)
