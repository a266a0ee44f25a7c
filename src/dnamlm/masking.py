"""Curriculum span masking for MLM pre-training.

Training is divided into stages; each stage widens the set of allowed span
widths by 2 tokens, starting from a single width of 6.  At every step one
width m is drawn uniformly from the current set, each position fires
independently with probability P, and a fired position i masks the span
[i - m/2 + 1, i + m/2] clipped to the sequence; the mask is the union over
fired positions.  The fixed-width baseline is the same planner under a
one-stage schedule whose only width is the tokenizer's k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, IndexOutOfFrame, StepOutOfRange
from .tokenizer import MASK_ID, Vocabulary

#: Loss-label sentinel for positions that are not masked.
IGNORE_LABEL = -100

#: Stage ends as fractions of total steps; equals [30k, 60k, 100k, 150k, 500k]
#: at the 500k-step reference run.
DEFAULT_STAGE_FRACTIONS = (0.06, 0.12, 0.20, 0.30, 1.00)


@dataclass(frozen=True)
class MaskSchedule:
    """Stage table mapping a training step to its allowed span widths.

    Stage boundaries are stored as fractions of ``total_steps`` so scaled
    runs keep the reference proportions.  Stage i (0-based) allows widths
    ``base_width, base_width + increment, ..., base_width + i * increment``.
    """

    total_steps: int
    stage_fractions: tuple[float, ...] = DEFAULT_STAGE_FRACTIONS
    base_width: int = 6
    width_increment: int = 2

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigInvalid(f"total_steps must be >= 1, got {self.total_steps}")
        fr = tuple(float(f) for f in self.stage_fractions)
        if not fr or any(b <= a for a, b in zip(fr, fr[1:])) or fr[0] <= 0.0:
            raise ConfigInvalid("stage fractions must be positive and strictly ascending")
        if fr[-1] != 1.0:
            raise ConfigInvalid("last stage fraction must be 1.0")
        if self.base_width < 2 or self.base_width % 2:
            raise ConfigInvalid("base_width must be an even integer >= 2")
        if self.width_increment < 2 or self.width_increment % 2:
            raise ConfigInvalid("width_increment must be an even integer >= 2")
        object.__setattr__(self, "stage_fractions", fr)
        bounds = self.boundaries()
        if any(b <= a for a, b in zip(bounds, bounds[1:])) or bounds[0] < 1:
            raise ConfigInvalid(
                f"total_steps {self.total_steps} too small for fractions {fr}"
            )

    def boundaries(self) -> list[int]:
        """Absolute last step of each stage."""
        return [round(f * self.total_steps) for f in self.stage_fractions]

    @property
    def num_stages(self) -> int:
        return len(self.stage_fractions)

    def stage_of(self, step: int) -> int:
        """Stage index for a step; steps beyond the end clamp to the last stage."""
        if step < 1:
            raise StepOutOfRange(f"step must be >= 1, got {step}")
        for i, bound in enumerate(self.boundaries()):
            if step <= bound:
                return i
        return self.num_stages - 1

    def widths_for_stage(self, stage: int) -> list[int]:
        return [self.base_width + self.width_increment * i for i in range(stage + 1)]


def allowed_widths(step: int, schedule: MaskSchedule) -> list[int]:
    """Span widths available at ``step``: [6], then [6, 8], ... per stage.

    Monotone: the set at a later step contains the set at any earlier step.
    Steps past ``total_steps`` clamp to the final stage.
    """
    return schedule.widths_for_stage(schedule.stage_of(step))


@dataclass
class MaskPlan:
    """Concrete mask for one sequence at one step.

    ``mask_ids`` holds the masked positions in ascending order; ``width_m``
    is the span width drawn for the step.
    """

    mask_ids: np.ndarray
    width_m: int


def _span_union(
    seq_len: int, centers: np.ndarray, width: int, exclude: np.ndarray | None
) -> np.ndarray:
    half = width // 2
    masked = np.zeros(seq_len, dtype=bool)
    for i in centers:
        masked[max(0, int(i) - half + 1) : min(seq_len, int(i) + half + 1)] = True
    if exclude is not None:
        masked &= ~np.asarray(exclude, dtype=bool)
    return np.flatnonzero(masked)


def plan_mask(
    seq_len: int,
    step: int,
    p: float,
    schedule: MaskSchedule,
    rng: np.random.Generator,
    exclude: np.ndarray | None = None,
) -> MaskPlan:
    """Draw a mask plan for one sequence at one training step.

    One width m is drawn uniformly from ``allowed_widths(step)``, then each
    position i in ascending order draws r ~ U(0,1) and fires when r <= p.
    A fired position masks the clipped span [i - m/2 + 1, i + m/2]; the plan
    is the union of fired spans with ``exclude`` positions (special tokens)
    removed afterwards.

    An empty plan is valid.  p = 0 always yields the empty plan (the uniform
    draw lives on [0, 1), so the r <= p rule is special-cased there).
    """
    if seq_len < 1:
        raise ConfigInvalid(f"seq_len must be >= 1, got {seq_len}")
    if not 0.0 <= p <= 1.0:
        raise ConfigInvalid(f"p must be in [0, 1], got {p}")
    widths = allowed_widths(step, schedule)
    m = int(widths[int(rng.integers(0, len(widths)))])
    r = np.asarray(rng.random(seq_len))
    centers = np.flatnonzero(r <= p) if p > 0.0 else np.empty(0, dtype=np.int64)
    return MaskPlan(mask_ids=_span_union(seq_len, centers, m, exclude), width_m=m)


@dataclass(frozen=True)
class CorruptionPolicy:
    """How masked positions are corrupted: [MASK] / random k-mer / kept."""

    p_mask: float = 0.8
    p_random: float = 0.1
    p_keep: float = 0.1

    def __post_init__(self) -> None:
        probs = (self.p_mask, self.p_random, self.p_keep)
        if any(p < 0 for p in probs):
            raise ConfigInvalid("corruption probabilities must be non-negative")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigInvalid("corruption probabilities must sum to 1 +/- 1e-9")


def apply_corruption(
    ids: np.ndarray,
    plan: MaskPlan,
    policy: CorruptionPolicy,
    vocab: Vocabulary,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Build MLM inputs and targets from a framed id array and a mask plan.

    Labels carry the original id at planned positions and IGNORE_LABEL
    elsewhere.  Planned positions are replaced by [MASK], a random k-mer id
    (never a special id), or kept, per the policy.  Positions are processed
    in ascending order with one branch draw each.

    Raises:
        IndexOutOfFrame: a plan index falls outside ``ids``.
    """
    ids = np.asarray(ids)
    corrupted = ids.copy()
    labels = np.full(ids.shape, IGNORE_LABEL, dtype=np.int64)
    for j in plan.mask_ids:
        j = int(j)
        if j >= ids.shape[-1]:
            raise IndexOutOfFrame(f"mask index {j} outside frame of length {ids.shape[-1]}")
        labels[j] = ids[j]
        u = rng.random()
        if u < policy.p_mask:
            corrupted[j] = MASK_ID
        elif u < policy.p_mask + policy.p_random:
            corrupted[j] = int(rng.integers(vocab.first_kmer_id, vocab.size))
        # else keep the original id; the label still demands a prediction
    return corrupted, labels


@dataclass(frozen=True)
class ExpectedMaskFraction:
    """Closed-form per-token masking probabilities for one width."""

    interior: float
    sequence_average: float


def expected_mask_fraction(p: float, m: int, seq_len: int) -> ExpectedMaskFraction:
    """Exact masking probability per token under width ``m`` and rate ``p``.

    A token t is covered by the m centers i in [t - m/2, t + m/2 - 1], so an
    interior token is masked with probability 1 - (1-p)^m; near the edges
    fewer centers exist and the sequence average sums the exact per-position
    probabilities.
    """
    if m < 2 or m % 2:
        raise ConfigInvalid(f"m must be an even integer >= 2, got {m}")
    if seq_len < m:
        raise ConfigInvalid(f"seq_len must be >= m, got {seq_len} < {m}")
    if not 0.0 <= p <= 1.0:
        raise ConfigInvalid(f"p must be in [0, 1], got {p}")
    half = m // 2
    t = np.arange(seq_len)
    n_centers = np.minimum(seq_len - 1, t + half - 1) - np.maximum(0, t - half) + 1
    per_position = 1.0 - (1.0 - p) ** n_centers
    return ExpectedMaskFraction(
        interior=float(1.0 - (1.0 - p) ** m),
        sequence_average=float(per_position.mean()),
    )


def span_length_histogram(mask_bool: np.ndarray) -> dict[int, int]:
    """Histogram of contiguous masked-run lengths in a boolean mask."""
    counts: dict[int, int] = {}
    run = 0
    for v in np.asarray(mask_bool, dtype=bool):
        if v:
            run += 1
        elif run:
            counts[run] = counts.get(run, 0) + 1
            run = 0
    if run:
        counts[run] = counts.get(run, 0) + 1
    return counts
