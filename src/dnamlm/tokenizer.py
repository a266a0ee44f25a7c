"""k-mer vocabularies and the three tokenization strategies.

A vocabulary is described by k alone: five special tokens, then the 4^k
k-mers in lexicographic order, so a k-mer's id is 5 plus its base-4 value.
Encoding, decoding and ``Vocabulary.token`` all compute ids and spellings
from that layout; no k-mer table is built.

Overlapping tokenization slides a k-wide window at stride 1 (L-k+1 tokens),
non-overlapping uses stride k (floor(L/k) tokens, remainder dropped), and
same-length tiles the non-overlapping tokens cyclically until the output is
exactly as long as the overlapping encoding of the same sequence.  All
three derive from one whole-sequence array of overlapping k-mer ids and
return their ids as 1-D int64 arrays.

``wrap_for_model`` frames one encoding as [CLS] ids [SEP] plus padding, and
``prepare_frames`` tokenizes and frames a list of sequences into the stacked
id / mask arrays that pre-training and fine-tuning both feed the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import BASE_ORDER, DnaSequence
from .errors import (
    ConfigInvalid,
    InconsistentOverlap,
    KOutOfRange,
    SequenceTooShort,
    SpecialTokenPresent,
)

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIAL = len(SPECIAL_TOKENS)

MIN_K, MAX_K = 1, 8


class Strategy(str, Enum):
    OVERLAPPING = "overlapping"
    NONOVERLAPPING = "nonoverlapping"
    SAME_LENGTH = "samelength"


@dataclass(frozen=True)
class Vocabulary:
    """The k-mer vocabulary, computed from k alone.

    Ids 0-4 are [PAD], [UNK], [CLS], [SEP], [MASK]; the 4^k k-mers follow
    from id 5 in lexicographic order over A < C < G < T, so the total size
    is 4^k + 5 (4,101 for k = 6).  A k-mer's id is 5 plus its base-4 value
    with the first base most significant; no token table is built.
    """

    k: int

    def __post_init__(self) -> None:
        check_k(self.k)

    @property
    def size(self) -> int:
        return 4 ** self.k + NUM_SPECIAL

    @property
    def first_kmer_id(self) -> int:
        return NUM_SPECIAL

    def token(self, token_id: int) -> str:
        """The special token or k-mer spelled by ``token_id``."""
        if not 0 <= token_id < self.size:
            raise IndexError(f"token id {token_id} outside [0, {self.size})")
        if token_id < NUM_SPECIAL:
            return SPECIAL_TOKENS[token_id]
        value = int(token_id) - NUM_SPECIAL
        return "".join(BASE_ORDER[(value >> 2 * j) & 3] for j in reversed(range(self.k)))


def check_k(k: int) -> None:
    """Reject a k-mer size that is not an integer in [1, 8]."""
    if isinstance(k, bool) or not isinstance(k, int) or not MIN_K <= k <= MAX_K:
        raise KOutOfRange(f"k must be in [{MIN_K}, {MAX_K}], got {k!r}")


def build_vocab(k: int) -> Vocabulary:
    """The deterministic k-mer vocabulary for 1 <= k <= 8."""
    return Vocabulary(k)


@dataclass
class TokenSequence:
    """Encoded ids (a 1-D int64 array) plus the strategy and k that produced them."""

    ids: np.ndarray
    strategy: Strategy
    k: int

    def __len__(self) -> int:
        return len(self.ids)


#: Maps the bytes of A, C, G, T, N to the digits 0-4.
_DIGITS = bytes.maketrans(b"ACGTN", bytes(range(5)))
_N_DIGIT = 4
#: The letters A, C, G, T as bytes, indexed by digit.
_LETTERS = np.frombuffer(BASE_ORDER.encode("ascii"), dtype=np.uint8)


def _check_length(seq: DnaSequence, k: int) -> None:
    if len(seq) < k:
        raise SequenceTooShort(f"sequence {seq.id!r} has {len(seq)} bases, need >= {k}")


def _kmer_ids(bases: str, k: int) -> np.ndarray:
    """Ids of every stride-1 k-mer of ``bases``; a k-mer holding an N is [UNK].

    A k-mer's id is NUM_SPECIAL plus its base-4 value with the first base
    most significant (A=0 < C < G < T), which is its lexicographic rank.
    """
    digits = np.frombuffer(bases.encode("ascii").translate(_DIGITS), dtype=np.uint8)
    # np.convolve flips the kernel, so place value 4^j meets base k-1-j.
    ids = np.convolve(digits, 4 ** np.arange(k, dtype=np.int64), mode="valid")
    ids += NUM_SPECIAL
    if "N" in bases:
        n_count = np.convolve(digits == _N_DIGIT, np.ones(k, dtype=np.int64), mode="valid")
        ids[n_count > 0] = UNK_ID
    return ids


def _nonoverlapping_ids(seq: DnaSequence, k: int) -> np.ndarray:
    return _kmer_ids(seq.bases[: len(seq) // k * k], k)[::k]


def encode_overlapping(seq: DnaSequence, vocab: Vocabulary) -> TokenSequence:
    """Window size k, stride 1: token t covers bases [t, t+k)."""
    _check_length(seq, vocab.k)
    ids = _kmer_ids(seq.bases, vocab.k)
    return TokenSequence(ids=ids, strategy=Strategy.OVERLAPPING, k=vocab.k)


def encode_nonoverlapping(seq: DnaSequence, vocab: Vocabulary) -> TokenSequence:
    """Window size and stride both k; a trailing remainder < k is dropped."""
    _check_length(seq, vocab.k)
    ids = _nonoverlapping_ids(seq, vocab.k)
    return TokenSequence(ids=ids, strategy=Strategy.NONOVERLAPPING, k=vocab.k)


def encode_same_length(seq: DnaSequence, vocab: Vocabulary) -> TokenSequence:
    """Non-overlapping tokens tiled cyclically to the overlapping length.

    For L = 2k this is the non-overlapping encoding repeated k-1 times; for
    general L the tokens are repeated cyclically and truncated so the output
    always has exactly L - k + 1 tokens.
    """
    _check_length(seq, vocab.k)
    ids = np.resize(_nonoverlapping_ids(seq, vocab.k), len(seq) - vocab.k + 1)
    return TokenSequence(ids=ids, strategy=Strategy.SAME_LENGTH, k=vocab.k)


ENCODERS = {
    Strategy.OVERLAPPING: encode_overlapping,
    Strategy.NONOVERLAPPING: encode_nonoverlapping,
    Strategy.SAME_LENGTH: encode_same_length,
}


def encode(seq: DnaSequence, vocab: Vocabulary, strategy: Strategy) -> TokenSequence:
    return ENCODERS[Strategy(strategy)](seq, vocab)


def decode_overlapping(tokens: TokenSequence, vocab: Vocabulary) -> DnaSequence:
    """Invert an overlapping encoding.

    Requires k-mer ids only and adjacent tokens that overlap consistently
    (the k-1 suffix of token t equals the k-1 prefix of token t+1).  An id
    outside the vocabulary raises ``IndexError``.
    """
    if tokens.strategy is not Strategy.OVERLAPPING:
        raise ConfigInvalid(f"cannot decode strategy {tokens.strategy.value!r} as overlapping")
    ids = np.asarray(tokens.ids, dtype=np.int64)
    if len(ids) == 0:
        raise SequenceTooShort("cannot decode an empty token sequence")
    not_kmer = np.flatnonzero((ids < vocab.first_kmer_id) | (ids >= vocab.size))
    if not_kmer.size:
        tid = int(ids[not_kmer[0]])
        # token() raises IndexError first if tid is outside the vocabulary.
        raise SpecialTokenPresent(f"id {tid} ({vocab.token(tid)}) is not a k-mer")
    values = ids - vocab.first_kmer_id
    broken = np.flatnonzero(values[:-1] % 4 ** (vocab.k - 1) != values[1:] // 4)
    if broken.size:
        prev, cur = (vocab.token(int(ids[i])) for i in (broken[0], broken[0] + 1))
        raise InconsistentOverlap(f"{prev} does not overlap {cur} by k-1 bases")
    # Each k-mer contributes its first base; the last one also its other k-1.
    leading = _LETTERS[values >> 2 * (vocab.k - 1)].tobytes().decode("ascii")
    return DnaSequence(id="decoded", bases=leading + vocab.token(int(ids[-1]))[1:])


def wrap_for_model(
    tokens: TokenSequence | np.ndarray | list[int], vocab: Vocabulary, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frame token ids as [CLS] ids [SEP] and pad to ``max_len``.

    Ids beyond max_len - 2 are truncated.  Returns the framed id array and
    a parallel boolean mask that is True at real (non-PAD) positions.
    """
    if max_len < 3:
        raise ConfigInvalid(f"max_len must be >= 3, got {max_len}")
    ids = tokens.ids if isinstance(tokens, TokenSequence) else tokens
    body = np.asarray(ids, dtype=np.int64)[: max_len - 2]
    framed = np.full(max_len, PAD_ID, dtype=np.int64)
    framed[0] = CLS_ID
    framed[1 : 1 + len(body)] = body
    framed[1 + len(body)] = SEP_ID
    real = np.zeros(max_len, dtype=bool)
    real[: len(body) + 2] = True
    return framed, real


def prepare_frames(
    sequences: list[DnaSequence],
    vocab: Vocabulary,
    strategy: Strategy,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize each sequence once and stack the framed id / mask arrays."""
    ids_rows, real_rows = [], []
    for seq in sequences:
        framed, real = wrap_for_model(encode(seq, vocab, strategy), vocab, max_len)
        ids_rows.append(framed)
        real_rows.append(real)
    return np.stack(ids_rows), np.stack(real_rows)
