"""Run configuration: JSON-file sections, strict validation, flag overrides.

A run config has six sections (corpus, tokenizer, masking, model, training,
finetune), each with documented defaults.  Unknown keys are rejected, CLI
flags override file values, and the merged effective config is echoed into
every report and checkpoint for provenance.

The ``model`` and ``finetune`` sections are the model layer's own
``ModelSettings`` and ``FinetuneSettings``, as ``masking.policy`` is a
``CorruptionPolicy``, so each key has one default and one check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from .errors import ConfigInvalid
from .masking import DEFAULT_STAGE_FRACTIONS, CorruptionPolicy
from .model.config import ModelSettings
from .model.training import FinetuneSettings
from .tokenizer import Strategy

DEFAULT_MOTIFS = (("TATAATGCGC", 0.6), ("GGCCAATCAG", 0.6))


@dataclass(frozen=True)
class CorpusSection:
    source: str = "synthetic"            # "synthetic" | "fasta"
    fasta_path: str | None = None
    lenient: bool = False
    num_sequences: int = 256
    sequence_length: int = 512
    motifs: tuple = DEFAULT_MOTIFS
    background: tuple = (0.25, 0.25, 0.25, 0.25)
    window_length: int = 512
    window_stride: int | None = None     # None -> window_length (no overlap)
    max_n_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "fasta"):
            raise ConfigInvalid(f"corpus.source must be 'synthetic' or 'fasta', got {self.source!r}")
        if self.source == "fasta" and not self.fasta_path:
            raise ConfigInvalid("corpus.fasta_path required when source is 'fasta'")
        if self.window_length < 1:
            raise ConfigInvalid("corpus.window_length must be >= 1")
        motifs = tuple((str(p), float(q)) for p, q in self.motifs)
        object.__setattr__(self, "motifs", motifs)
        object.__setattr__(self, "background", tuple(float(x) for x in self.background))


@dataclass(frozen=True)
class TokenizerSection:
    k: int = 6
    strategy: str = "overlapping"        # overlapping | nonoverlapping | samelength

    def __post_init__(self) -> None:
        try:
            Strategy(self.strategy)
        except ValueError:
            raise ConfigInvalid(f"unknown tokenizer.strategy {self.strategy!r}") from None


@dataclass(frozen=True)
class MaskingSection:
    p: float = 0.025
    mode: str = "randommask"             # randommask | baseline
    stage_fractions: tuple = DEFAULT_STAGE_FRACTIONS
    base_width: int = 6
    width_increment: int = 2
    policy: CorruptionPolicy = field(default_factory=CorruptionPolicy)

    def __post_init__(self) -> None:
        if self.mode not in ("randommask", "baseline"):
            raise ConfigInvalid(f"masking.mode must be 'randommask' or 'baseline', got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigInvalid(f"masking.p must be in [0, 1], got {self.p}")
        object.__setattr__(self, "stage_fractions", tuple(float(f) for f in self.stage_fractions))


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


_SECTIONS = {
    "corpus": CorpusSection,
    "tokenizer": TokenizerSection,
    "masking": MaskingSection,
    "model": ModelSettings,
    "training": TrainingSection,
    "finetune": FinetuneSettings,
}


def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    corpus: CorpusSection = field(default_factory=CorpusSection)
    tokenizer: TokenizerSection = field(default_factory=TokenizerSection)
    masking: MaskingSection = field(default_factory=MaskingSection)
    model: ModelSettings = field(default_factory=ModelSettings)
    training: TrainingSection = field(default_factory=TrainingSection)
    finetune: FinetuneSettings = field(default_factory=FinetuneSettings)

    def to_dict(self) -> dict:
        return _jsonify(asdict(self))

    def override(self, section: str, **updates) -> "RunConfig":
        """Return a copy with ``updates`` applied to one section."""
        if section not in _SECTIONS:
            raise ConfigInvalid(f"unknown config section {section!r}")
        return replace(self, **{section: replace(getattr(self, section), **updates)})


def _build_section(cls, obj: Any, path: str):
    if not isinstance(obj, dict):
        raise ConfigInvalid(f"{path} must be an object, got {type(obj).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) {sorted(unknown)} in {path}")
    kwargs = {}
    for name, value in obj.items():
        if name == "policy":
            value = _build_section(CorruptionPolicy, value, f"{path}.policy")
        elif name == "motifs":
            try:
                value = tuple((m["pattern"], m["plant_probability"]) if isinstance(m, dict)
                              else (m[0], m[1]) for m in value)
            except (KeyError, IndexError, TypeError):
                raise ConfigInvalid(
                    f"{path}.motifs entries need pattern and plant_probability"
                ) from None
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigInvalid(f"bad value in {path}: {exc}") from None


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
