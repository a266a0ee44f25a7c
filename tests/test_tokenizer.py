import itertools
from dataclasses import FrozenInstanceError, fields
from functools import lru_cache

import numpy as np
import pytest

from dnamlm.corpus import DnaSequence
from dnamlm.errors import (
    ConfigInvalid,
    InconsistentOverlap,
    KOutOfRange,
    SequenceTooShort,
    SpecialTokenPresent,
)
from dnamlm.tokenizer import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Strategy,
    TokenSequence,
    Vocabulary,
    build_vocab,
    decode_overlapping,
    encode_nonoverlapping,
    encode_overlapping,
    encode_same_length,
    wrap_for_model,
)


def seq(bases: str) -> DnaSequence:
    return DnaSequence("t", bases)


def random_bases(rng, n: int) -> str:
    return "".join(rng.choice(list("ACGT"), size=n))


@lru_cache(maxsize=None)
def reference_table(k: int) -> tuple[str, ...]:
    """The vocabulary written out: five special tokens, then every k-mer in lex order."""
    specials = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
    return specials + tuple("".join(p) for p in itertools.product("ACGT", repeat=k))


@lru_cache(maxsize=None)
def reference_ids(k: int) -> dict[str, int]:
    return {t: i for i, t in enumerate(reference_table(k))}


def kmer_id(v: Vocabulary, kmer: str) -> int:
    return int(encode_overlapping(seq(kmer), v).ids[0])


class TestVocabulary:
    def test_sizes(self):
        assert build_vocab(6).size == 4101
        assert build_vocab(1).size == 9
        assert build_vocab(3).size == 69

    def test_special_ids(self):
        v = build_vocab(2)
        assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)
        assert [v.token(i) for i in range(5)] == list(SPECIAL_TOKENS)

    def test_lexicographic_order(self):
        v = build_vocab(3)
        assert kmer_id(v, "AAA") == 5
        assert kmer_id(v, "AAC") == 6
        assert kmer_id(v, "TTT") == v.size - 1

    def test_bijectivity(self):
        for k in (1, 2, 6):
            v = build_vocab(k)
            for i in range(v.first_kmer_id, v.size):
                assert kmer_id(v, v.token(i)) == i

    @pytest.mark.parametrize("k", range(1, 9))
    def test_token_matches_written_out_table(self, k):
        v = build_vocab(k)
        assert v.size == len(reference_table(k))
        assert [v.token(i) for i in range(v.size)] == list(reference_table(k))

    def test_token_outside_vocabulary_raises(self):
        for k in (1, 3, 8):
            v = build_vocab(k)
            for bad in (-1, v.size, v.size + 7):
                with pytest.raises(IndexError):
                    v.token(bad)

    def test_k_is_the_only_field(self):
        v = build_vocab(6)
        assert [f.name for f in fields(Vocabulary)] == ["k"]
        assert v == Vocabulary(6) and hash(v) == hash(Vocabulary(6))
        with pytest.raises(FrozenInstanceError):
            v.k = 5

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            build_vocab(0)
        with pytest.raises(KOutOfRange, match=r"k must be in \[1, 8\], got 9"):
            build_vocab(9)
        with pytest.raises(KOutOfRange):
            Vocabulary(9)

    @pytest.mark.parametrize("k", [6.5, 6.0, True, "6", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(KOutOfRange):
            build_vocab(k)


class TestEncoders:
    def test_overlapping_reference_example(self):
        v = build_vocab(3)
        tokens = encode_overlapping(seq("ATGACG"), v)
        assert [v.token(i) for i in tokens.ids] == ["ATG", "TGA", "GAC", "ACG"]
        assert tokens.strategy is Strategy.OVERLAPPING

    def test_overlapping_single_window(self):
        v = build_vocab(3)
        assert [v.token(i) for i in encode_overlapping(seq("ATG"), v).ids] == ["ATG"]

    def test_overlapping_n_rule(self):
        v = build_vocab(3)
        ids = encode_overlapping(seq("ATNACG"), v).ids
        assert ids[:3].tolist() == [UNK_ID] * 3
        assert v.token(ids[3]) == "ACG"

    def test_nonoverlapping_reference_example(self):
        v = build_vocab(3)
        tokens = encode_nonoverlapping(seq("ATGACG"), v)
        assert [v.token(i) for i in tokens.ids] == ["ATG", "ACG"]

    def test_nonoverlapping_remainder_dropped(self):
        v = build_vocab(3)
        assert [v.token(i) for i in encode_nonoverlapping(seq("ATGACGT"), v).ids] == ["ATG", "ACG"]

    def test_too_short(self):
        v = build_vocab(3)
        for enc in (encode_overlapping, encode_nonoverlapping, encode_same_length):
            with pytest.raises(SequenceTooShort):
                enc(seq("AT"), v)

    def test_same_length_reference_example(self):
        v = build_vocab(3)
        tokens = encode_same_length(seq("ATGACG"), v)
        assert [v.token(i) for i in tokens.ids] == ["ATG", "ACG", "ATG", "ACG"]

    def test_same_length_cyclic_extension(self):
        v = build_vocab(3)
        tokens = encode_same_length(seq("ATGACGTAC"), v)
        assert [v.token(i) for i in tokens.ids] == [
            "ATG", "ACG", "TAC", "ATG", "ACG", "TAC", "ATG",
        ]

    def test_same_length_single_token(self):
        v = build_vocab(3)
        assert [v.token(i) for i in encode_same_length(seq("ATG"), v).ids] == ["ATG"]

    def test_length_identities_exhaustive(self):
        # |overlap| = L-k+1, |nonoverlap| = floor(L/k), |samelength| = |overlap|
        rng = np.random.default_rng(2)
        for k in range(1, 9):
            v = build_vocab(k)
            for length in range(k, 65):
                s = seq(random_bases(rng, length))
                assert len(encode_overlapping(s, v)) == length - k + 1
                assert len(encode_nonoverlapping(s, v)) == length // k
                assert len(encode_same_length(s, v)) == length - k + 1

    def test_ids_are_int64_arrays(self):
        v = build_vocab(3)
        for enc in (encode_overlapping, encode_nonoverlapping, encode_same_length):
            ids = enc(seq("ATGACGTN"), v).ids
            assert isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1

    def test_adjacent_overlap_property(self):
        rng = np.random.default_rng(3)
        v = build_vocab(6)
        for _ in range(50):
            s = seq(random_bases(rng, int(rng.integers(6, 40))))
            toks = [v.token(i) for i in encode_overlapping(s, v).ids]
            for a, b in zip(toks, toks[1:]):
                assert a[1:] == b[:-1]


def lookup_overlapping(bases: str, v: Vocabulary) -> list[int]:
    """Reference encoder: one written-out-table lookup per stride-1 k-mer."""
    table = reference_ids(v.k)
    return [table.get(bases[i : i + v.k], UNK_ID) for i in range(len(bases) - v.k + 1)]


def lookup_nonoverlapping(bases: str, v: Vocabulary) -> list[int]:
    table = reference_ids(v.k)
    return [table.get(bases[i : i + v.k], UNK_ID) for i in range(0, len(bases) - v.k + 1, v.k)]


def lookup_same_length(bases: str, v: Vocabulary) -> list[int]:
    base = lookup_nonoverlapping(bases, v)
    return [base[i % len(base)] for i in range(len(bases) - v.k + 1)]


class TestEncodersMatchLookup:
    """The array encoders equal a per-k-mer vocabulary lookup, N windows included."""

    CASES = (
        (encode_overlapping, lookup_overlapping),
        (encode_nonoverlapping, lookup_nonoverlapping),
        (encode_same_length, lookup_same_length),
    )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_all_lengths(self, k):
        rng = np.random.default_rng(10 + k)
        v = build_vocab(k)
        for length in [*range(k, 65), 511, 512]:
            for alphabet in ("ACGT", "ACGTN", "ACGTNNNNNN"):
                bases = "".join(rng.choice(list(alphabet), size=length))
                for enc, lookup in self.CASES:
                    assert enc(seq(bases), v).ids.tolist() == lookup(bases, v), (
                        enc.__name__, bases)

    def test_all_n_and_edge_n(self):
        for k in (1, 3, 6, 8):
            v = build_vocab(k)
            for bases in ("N" * k, "N" * (3 * k + 1), "N" + "A" * (2 * k),
                          "T" * (2 * k) + "N", "ACGT" * 4 + "N" + "ACGT" * 4):
                for enc, lookup in self.CASES:
                    assert enc(seq(bases), v).ids.tolist() == lookup(bases, v)


class TestDecode:
    def test_reference_inverse(self):
        v = build_vocab(3)
        tokens = encode_overlapping(seq("ATGACG"), v)
        assert decode_overlapping(tokens, v).bases == "ATGACG"

    def test_single_token(self):
        v = build_vocab(3)
        assert decode_overlapping(encode_overlapping(seq("ATG"), v), v).bases == "ATG"

    def test_inconsistent_overlap(self):
        v = build_vocab(3)
        ids = [kmer_id(v, "AAT"), kmer_id(v, "ATG"), kmer_id(v, "GGG")]
        bad = TokenSequence(ids=ids, strategy=Strategy.OVERLAPPING, k=3)
        with pytest.raises(InconsistentOverlap, match="^ATG does not overlap GGG by k-1 bases$"):
            decode_overlapping(bad, v)

    def test_special_token_rejected(self):
        v = build_vocab(3)
        bad = TokenSequence(ids=[UNK_ID], strategy=Strategy.OVERLAPPING, k=3)
        with pytest.raises(SpecialTokenPresent, match=r"^id 1 \(\[UNK\]\) is not a k-mer$"):
            decode_overlapping(bad, v)

    def test_first_special_token_named_before_overlap(self):
        v = build_vocab(2)
        ids = [kmer_id(v, "AC"), kmer_id(v, "GG"), MASK_ID, PAD_ID]
        bad = TokenSequence(ids=ids, strategy=Strategy.OVERLAPPING, k=2)
        with pytest.raises(SpecialTokenPresent, match=r"^id 4 \(\[MASK\]\) is not a k-mer$"):
            decode_overlapping(bad, v)

    def test_id_outside_vocabulary_raises_index_error(self):
        v = build_vocab(2)
        for bad_id in (-1, v.size):
            bad = TokenSequence(ids=[kmer_id(v, "AC"), bad_id], strategy=Strategy.OVERLAPPING, k=2)
            with pytest.raises(IndexError):
                decode_overlapping(bad, v)

    def test_strategy_precondition(self):
        v = build_vocab(3)
        tokens = encode_nonoverlapping(seq("ATGACG"), v)
        with pytest.raises(ConfigInvalid):
            decode_overlapping(tokens, v)

    def test_round_trip_on_array_ids(self):
        v = build_vocab(4)
        bases = "ACGTTGCAAGGCTTAC"
        ids = np.asarray(lookup_overlapping(bases, v), dtype=np.int64)
        tokens = TokenSequence(ids=ids, strategy=Strategy.OVERLAPPING, k=4)
        assert decode_overlapping(tokens, v).bases == bases

    def test_empty_array_rejected(self):
        v = build_vocab(3)
        empty = TokenSequence(ids=np.empty(0, dtype=np.int64), strategy=Strategy.OVERLAPPING, k=3)
        with pytest.raises(SequenceTooShort):
            decode_overlapping(empty, v)

    def test_round_trip_random_sequences(self):
        rng = np.random.default_rng(4)
        for k in range(1, 9):
            v = build_vocab(k)
            for length in [k, k + 1, *rng.integers(k, 50, size=100), 2000]:
                bases = random_bases(rng, int(length))
                assert decode_overlapping(encode_overlapping(seq(bases), v), v).bases == bases


def k3_tokens(ids) -> TokenSequence:
    return TokenSequence(ids=ids, strategy=Strategy.OVERLAPPING, k=3)


class TestWrapForModel:
    def test_basic_frame(self):
        v = build_vocab(3)
        ids, mask = wrap_for_model(k3_tokens([7, 8]), v, 6)
        assert ids.tolist() == [CLS_ID, 7, 8, SEP_ID, PAD_ID, PAD_ID]
        assert mask.tolist() == [True, True, True, True, False, False]

    def test_truncation(self):
        v = build_vocab(3)
        ids, mask = wrap_for_model(k3_tokens(list(range(10, 20))), v, 6)
        assert ids.tolist() == [CLS_ID, 10, 11, 12, 13, SEP_ID]
        assert mask.all()

    def test_empty_ids(self):
        v = build_vocab(3)
        ids, mask = wrap_for_model(k3_tokens([]), v, 3)
        assert ids.tolist() == [CLS_ID, SEP_ID, PAD_ID]
        assert mask.tolist() == [True, True, False]

    def test_min_length_validated(self):
        v = build_vocab(3)
        with pytest.raises(ConfigInvalid):
            wrap_for_model(k3_tokens([5]), v, 2)

    def test_ids_held_as_list_or_array_frame_alike(self):
        v = build_vocab(3)
        for ids in ([], [7], list(range(5, 12)), list(range(5, 30))):
            for max_len in (3, 8, 16):
                from_list = wrap_for_model(k3_tokens(ids), v, max_len)
                from_array = wrap_for_model(k3_tokens(np.asarray(ids, dtype=np.int64)), v, max_len)
                for a, b in zip(from_list, from_array):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_accepts_token_sequence(self):
        v = build_vocab(3)
        ids, _ = wrap_for_model(encode_overlapping(seq("ATGACG"), v), v, 8)
        assert ids[0] == CLS_ID and ids[5] == SEP_ID

