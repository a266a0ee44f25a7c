import json

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
    Vocabulary,
    build_vocab,
    central_dinucleotide,
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
        assert v.id("AAA") == 5
        assert v.id("AAC") == 6
        assert v.id("TTT") == v.size - 1

    def test_bijectivity(self):
        for k in (1, 2, 6):
            v = build_vocab(k)
            for i in range(v.size):
                assert v.id(v.token(i)) == i

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            build_vocab(0)
        with pytest.raises(KOutOfRange):
            build_vocab(9)

    def test_json_round_trip(self):
        v = build_vocab(4)
        obj = json.loads(v.to_json())
        assert obj == {"k": 4, "special_tokens": list(SPECIAL_TOKENS), "ordering": "lex"}
        w = Vocabulary.from_json(v.to_json())
        assert w.size == v.size and w.token_to_id == v.token_to_id

    def test_json_rejects_foreign_layout(self):
        with pytest.raises(ConfigInvalid):
            Vocabulary.from_json(json.dumps({"k": 3, "special_tokens": [], "ordering": "freq"}))


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
    """Reference encoder: one vocabulary lookup per stride-1 k-mer."""
    return [v.token_to_id.get(bases[i : i + v.k], UNK_ID) for i in range(len(bases) - v.k + 1)]


def lookup_nonoverlapping(bases: str, v: Vocabulary) -> list[int]:
    return [v.token_to_id.get(bases[i : i + v.k], UNK_ID)
            for i in range(0, len(bases) - v.k + 1, v.k)]


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
        from dnamlm.tokenizer import TokenSequence

        v = build_vocab(3)
        bad = TokenSequence(ids=[v.id("ATG"), v.id("GGG")], strategy=Strategy.OVERLAPPING, k=3)
        with pytest.raises(InconsistentOverlap):
            decode_overlapping(bad, v)

    def test_special_token_rejected(self):
        from dnamlm.tokenizer import TokenSequence

        v = build_vocab(3)
        bad = TokenSequence(ids=[UNK_ID], strategy=Strategy.OVERLAPPING, k=3)
        with pytest.raises(SpecialTokenPresent):
            decode_overlapping(bad, v)

    def test_strategy_precondition(self):
        v = build_vocab(3)
        tokens = encode_nonoverlapping(seq("ATGACG"), v)
        with pytest.raises(ConfigInvalid):
            decode_overlapping(tokens, v)

    def test_round_trip_on_array_ids(self):
        from dnamlm.tokenizer import TokenSequence

        v = build_vocab(4)
        bases = "ACGTTGCAAGGCTTAC"
        ids = np.asarray(lookup_overlapping(bases, v), dtype=np.int64)
        tokens = TokenSequence(ids=ids, strategy=Strategy.OVERLAPPING, k=4)
        assert decode_overlapping(tokens, v).bases == bases

    def test_empty_array_rejected(self):
        from dnamlm.tokenizer import TokenSequence

        v = build_vocab(3)
        empty = TokenSequence(ids=np.empty(0, dtype=np.int64), strategy=Strategy.OVERLAPPING, k=3)
        with pytest.raises(SequenceTooShort):
            decode_overlapping(empty, v)

    def test_round_trip_random_sequences(self):
        rng = np.random.default_rng(4)
        for k in (1, 2, 3, 6):
            v = build_vocab(k)
            for _ in range(100):
                bases = random_bases(rng, int(rng.integers(k, 50)))
                assert decode_overlapping(encode_overlapping(seq(bases), v), v).bases == bases


class TestWrapForModel:
    def test_basic_frame(self):
        v = build_vocab(3)
        ids, mask = wrap_for_model([7, 8], v, 6)
        assert ids.tolist() == [CLS_ID, 7, 8, SEP_ID, PAD_ID, PAD_ID]
        assert mask.tolist() == [True, True, True, True, False, False]

    def test_truncation(self):
        v = build_vocab(3)
        ids, mask = wrap_for_model(list(range(10, 20)), v, 6)
        assert ids.tolist() == [CLS_ID, 10, 11, 12, 13, SEP_ID]
        assert mask.all()

    def test_empty_ids(self):
        v = build_vocab(3)
        ids, mask = wrap_for_model([], v, 3)
        assert ids.tolist() == [CLS_ID, SEP_ID, PAD_ID]
        assert mask.tolist() == [True, True, False]

    def test_min_length_validated(self):
        v = build_vocab(3)
        with pytest.raises(ConfigInvalid):
            wrap_for_model([5], v, 2)

    def test_list_and_array_frame_alike(self):
        v = build_vocab(3)
        for ids in ([], [7], list(range(5, 12)), list(range(5, 30))):
            for max_len in (3, 8, 16):
                from_list = wrap_for_model(ids, v, max_len)
                from_array = wrap_for_model(np.asarray(ids, dtype=np.int64), v, max_len)
                for a, b in zip(from_list, from_array):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_accepts_token_sequence(self):
        v = build_vocab(3)
        ids, _ = wrap_for_model(encode_overlapping(seq("ATGACG"), v), v, 8)
        assert ids[0] == CLS_ID and ids[5] == SEP_ID


class TestCentralDinucleotide:
    def test_basic(self):
        assert central_dinucleotide("ATGACG") == "GA"
        assert central_dinucleotide("AC") == "AC"

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigInvalid):
            central_dinucleotide("ACG")

    def test_partition_16_groups_of_256(self):
        v = build_vocab(6)
        groups: dict[str, int] = {}
        for i in range(v.first_kmer_id, v.size):
            groups.setdefault(central_dinucleotide(v.token(i)), 0)
            groups[central_dinucleotide(v.token(i))] += 1
        assert len(groups) == 16
        assert set(groups.values()) == {256}
