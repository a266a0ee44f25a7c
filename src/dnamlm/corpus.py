"""Genomic corpus handling.

FASTA ingest, fixed-length windowing of long sequences, labeled CSV data
for fine-tuning, and synthetic corpora with planted motifs that stand in
for a reference genome at desk scale.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import (
    ConfigInvalid,
    EmptyInput,
    InvalidBase,
    MalformedFasta,
    MissingHeader,
    NonIntegerLabel,
)
from .rng import STREAM_DATA, split

logger = logging.getLogger(__name__)

VALID_BASES = frozenset("ACGTN")
BASE_ORDER = "ACGT"
#: ``str.translate`` table that deletes the valid bases, leaving only bad ones.
_DELETE_VALID = str.maketrans("", "", "ACGTN")

#: Windows with more than this fraction of N are dropped by default.
DEFAULT_MAX_N_FRACTION = 0.1


@dataclass
class DnaSequence:
    """A validated nucleotide sequence over the alphabet {A, C, G, T, N}."""

    id: str
    bases: str

    def __post_init__(self) -> None:
        if self.bases.translate(_DELETE_VALID):
            bad = set(self.bases) - VALID_BASES
            raise InvalidBase(
                f"sequence {self.id!r} contains invalid bases {sorted(bad)}"
            )

    def __len__(self) -> int:
        return len(self.bases)


@dataclass
class LabeledExample:
    """One fine-tuning row: a sequence and its integer class label."""

    sequence: DnaSequence
    label: int


def normalize_bases(raw: str, lenient: bool = False) -> str:
    """Uppercase a raw base string and enforce the {A,C,G,T,N} alphabet.

    In strict mode any other letter raises :class:`InvalidBase`; in lenient
    mode it is mapped to N.
    """
    up = raw.upper()
    if not up.translate(_DELETE_VALID):
        return up
    if not lenient:
        bad = sorted(set(up) - VALID_BASES)
        raise InvalidBase(f"invalid bases {bad} (use lenient mode to map to N)")
    return "".join(c if c in VALID_BASES else "N" for c in up)


def parse_fasta(stream: str | IO[str], lenient: bool = False) -> list[DnaSequence]:
    """Parse FASTA text into a list of sequences, preserving record order.

    Sequence lines belonging to one header are concatenated (wrapped FASTA),
    then uppercased and checked once per record.  Blank lines are ignored.

    Args:
        stream: FASTA text or an open text handle.
        lenient: map letters outside {A,C,G,T,N} to N instead of raising.

    Raises:
        MalformedFasta: sequence data before the first header.
        InvalidBase: invalid letter in strict mode.
        EmptyInput: the stream holds no non-blank lines.
    """
    records: list[DnaSequence] = []
    header: str | None = None
    parts: list[str] = []
    saw_content = False

    def flush() -> None:
        if header is not None:
            bases = "".join("".join(parts).split())
            records.append(DnaSequence(id=header, bases=normalize_bases(bases, lenient)))

    for line in io.StringIO(stream) if isinstance(stream, str) else stream:
        line = line.strip()
        if not line:
            continue
        saw_content = True
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            parts = []
        else:
            if header is None:
                raise MalformedFasta("sequence data before the first '>' header")
            parts.append(line)
    flush()

    if not saw_content:
        raise EmptyInput("no FASTA records in input")
    return records


def sample_windows(
    seq: DnaSequence,
    window_len: int,
    mode: str = "tiled",
    *,
    stride: int | None = None,
    max_n_fraction: float = DEFAULT_MAX_N_FRACTION,
) -> list[DnaSequence]:
    """Tile fixed-length windows over a sequence.

    Windows start at 0, stride, 2*stride, ...; those whose fraction of N
    exceeds ``max_n_fraction`` are dropped.  A window longer than the
    sequence is not an error: it yields an empty list and a logged warning.

    Args:
        seq: source sequence.
        window_len: window size in nucleotides, >= 1.
        mode: must be "tiled", the only windowing mode.
        stride: step between window starts, defaults to ``window_len`` (no overlap).
        max_n_fraction: N-content threshold above which a window is dropped.
    """
    if mode != "tiled":
        raise ConfigInvalid(f"unknown windowing mode {mode!r}")
    if window_len < 1:
        raise ConfigInvalid(f"window_len must be >= 1, got {window_len}")
    if window_len > len(seq):
        logger.warning(
            "window_len %d exceeds sequence %r length %d; no windows",
            window_len, seq.id, len(seq),
        )
        return []

    if stride is None:
        stride = window_len
    if stride < 1:
        raise ConfigInvalid(f"stride must be >= 1, got {stride}")

    windows: list[DnaSequence] = []
    dropped = 0
    for s in range(0, len(seq) - window_len + 1, stride):
        bases = seq.bases[s : s + window_len]
        if bases.count("N") / window_len > max_n_fraction:
            dropped += 1
            continue
        windows.append(DnaSequence(id=f"{seq.id}:{s}-{s + window_len}", bases=bases))
    if dropped:
        logger.debug("dropped %d windows of %r over N threshold", dropped, seq.id)
    return windows


DEFAULT_MOTIFS = (("TATAATGCGC", 0.6), ("GGCCAATCAG", 0.6))


@dataclass(frozen=True, kw_only=True)
class CorpusSettings:
    """Where a run's sequences come from and how they are cut into windows.

    The run config's ``corpus`` section.  With ``source`` "synthetic" it is
    the recipe :func:`generate_synthetic` follows: each sequence is drawn
    i.i.d. from the per-base ``background`` distribution over A,C,G,T, then
    every motif is independently planted with its probability at a uniform
    random offset, overwriting the background.  With "fasta" the sequences
    are read from ``fasta_path``.  Motif patterns are kept as written and
    uppercased when planted.
    """

    source: str = "synthetic"            # "synthetic" | "fasta"
    fasta_path: str | None = None
    lenient: bool = False
    num_sequences: int = 256
    sequence_length: int = 512
    motifs: tuple[tuple[str, float], ...] = DEFAULT_MOTIFS
    background: tuple[float, ...] = (0.25, 0.25, 0.25, 0.25)
    window_length: int = 512
    window_stride: int | None = None     # None -> window_length (no overlap)
    max_n_fraction: float = DEFAULT_MAX_N_FRACTION

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "fasta"):
            raise ConfigInvalid(f"corpus.source must be 'synthetic' or 'fasta', got {self.source!r}")
        if self.source == "fasta" and not self.fasta_path:
            raise ConfigInvalid("corpus.fasta_path required when source is 'fasta'")
        if self.num_sequences < 0:
            raise ConfigInvalid(f"corpus.num_sequences must be >= 0, got {self.num_sequences}")
        if self.sequence_length < 0:
            raise ConfigInvalid(f"corpus.sequence_length must be >= 0, got {self.sequence_length}")
        if self.window_length < 1:
            raise ConfigInvalid(f"corpus.window_length must be >= 1, got {self.window_length}")
        if self.window_stride is not None and self.window_stride < 1:
            raise ConfigInvalid(f"corpus.window_stride must be >= 1, got {self.window_stride}")
        if not 0.0 <= self.max_n_fraction <= 1.0:
            raise ConfigInvalid(f"corpus.max_n_fraction must be in [0, 1], got {self.max_n_fraction}")
        background = tuple(float(x) for x in self.background)
        if len(background) != 4:
            raise ConfigInvalid("corpus.background must have 4 probabilities (A,C,G,T)")
        if any(p < 0 for p in background):
            raise ConfigInvalid("corpus.background probabilities must be non-negative")
        if abs(sum(background) - 1.0) > 1e-9:
            raise ConfigInvalid("corpus.background probabilities must sum to 1 +/- 1e-9")
        motifs = []
        for pattern, prob in self.motifs:
            # The probability first: a motif that is not a [pattern, probability]
            # pair then fails as a type error, not on its "pattern" letters.
            prob = float(prob)
            bad = sorted(set(pattern.upper()) - VALID_BASES)
            if bad:
                raise ConfigInvalid(f"corpus.motifs pattern {pattern!r} has invalid bases {bad}")
            if not pattern:
                raise ConfigInvalid("corpus.motifs has an empty pattern")
            if not 0.0 <= prob <= 1.0:
                raise ConfigInvalid(f"corpus.motifs plant probability {prob} outside [0, 1]")
            if self.source == "synthetic" and len(pattern) > self.sequence_length:
                raise ConfigInvalid(
                    f"corpus.motifs pattern {pattern!r} longer than "
                    f"corpus.sequence_length {self.sequence_length}"
                )
            motifs.append((pattern, prob))
        object.__setattr__(self, "motifs", tuple(motifs))
        object.__setattr__(self, "background", background)


def generate_synthetic(settings: CorpusSettings, seed: int) -> list[DnaSequence]:
    """Generate the synthetic corpus ``settings`` describes.

    Deterministic given the seed: sequence i is produced by an independent
    generator keyed ``(seed, STREAM_DATA, i)``, so the output is identical
    across runs and platforms and independent of generation order.
    """
    base_arr = np.frombuffer(BASE_ORDER.encode(), dtype=np.uint8)
    background = np.asarray(settings.background, dtype=np.float64)
    background = background / background.sum()
    motifs = [(pattern.upper().encode(), prob) for pattern, prob in settings.motifs]
    out: list[DnaSequence] = []
    for i in range(settings.num_sequences):
        rng = split(seed, STREAM_DATA, i)
        codes = rng.choice(4, size=settings.sequence_length, p=background)
        seq = bytearray(base_arr[codes].tobytes())
        for pattern, prob in motifs:
            if rng.random() < prob:
                offset = int(rng.integers(0, settings.sequence_length - len(pattern) + 1))
                seq[offset : offset + len(pattern)] = pattern
        out.append(DnaSequence(id=f"synthetic-{i}", bases=seq.decode()))
    return out


LABELED_HEADER = ("sequence", "label")


def load_labeled(
    source: IO[str], lenient: bool = False
) -> tuple[list[LabeledExample], int]:
    """Load a labeled CSV with header ``sequence,label``.

    Returns the examples in file order and ``num_classes = max(label) + 1``
    (0 for an empty file).  Labels must be non-negative integers.

    Args:
        source: an open text handle.
        lenient: forwarded to base normalization.
    """
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingHeader("empty file; expected 'sequence,label' header") from None
    if tuple(c.strip() for c in header) != LABELED_HEADER:
        raise MissingHeader(f"expected header 'sequence,label', got {header!r}")

    examples: list[LabeledExample] = []
    max_label = -1
    for i, row in enumerate(reader):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise NonIntegerLabel(f"row {i + 2}: expected 2 columns, got {len(row)}")
        raw_seq, raw_label = row[0].strip(), row[1].strip()
        try:
            label = int(raw_label)
        except ValueError:
            raise NonIntegerLabel(f"row {i + 2}: label {raw_label!r} is not an integer") from None
        if label < 0:
            raise NonIntegerLabel(f"row {i + 2}: label {label} is negative")
        seq = DnaSequence(id=f"row{i + 2}", bases=normalize_bases(raw_seq, lenient=lenient))
        examples.append(LabeledExample(sequence=seq, label=label))
        max_label = max(max_label, label)
    return examples, max_label + 1
