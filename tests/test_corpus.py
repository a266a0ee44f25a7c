import io
import math

import numpy as np
import pytest

from dnamlm.corpus import (
    CorpusSettings,
    DnaSequence,
    generate_synthetic,
    load_labeled,
    normalize_bases,
    parse_fasta,
    sample_windows,
)
from dnamlm.errors import (
    ConfigInvalid,
    EmptyInput,
    InvalidBase,
    MalformedFasta,
    MissingHeader,
    NonIntegerLabel,
)


class TestParseFasta:
    def test_wrapped_records(self):
        recs = parse_fasta(">r1\nACGT\nAC\n>r2\nTTTT")
        assert [(r.id, r.bases) for r in recs] == [("r1", "ACGTAC"), ("r2", "TTTT")]

    def test_empty_record(self):
        recs = parse_fasta(">r1\n")
        assert [(r.id, r.bases) for r in recs] == [("r1", "")]

    def test_lenient_maps_to_n(self):
        recs = parse_fasta(">r1\nACXT", lenient=True)
        assert recs[0].bases == "ACNT"

    def test_strict_rejects_invalid(self):
        with pytest.raises(InvalidBase):
            parse_fasta(">r1\nACXT")

    def test_lowercase_uppercased(self):
        assert parse_fasta(">r\nacgtn")[0].bases == "ACGTN"

    def test_data_before_header(self):
        with pytest.raises(MalformedFasta):
            parse_fasta("ACGT\n>r1\nAC")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_fasta("")
        with pytest.raises(EmptyInput):
            parse_fasta("\n  \n")

    def test_text_handle_input(self):
        assert parse_fasta(io.StringIO(">r\nACGT"))[0].bases == "ACGT"

    def test_whitespace_in_sequence_lines_stripped(self):
        recs = parse_fasta(">r\nAC GT\nA  C")
        assert recs[0].bases == "ACGTAC"

    def test_wrapped_record_checked_as_a_whole(self):
        text = ">r1\nacxT\n A Cr\n>r2\nGGNN\n"
        recs = parse_fasta(text, lenient=True)
        assert [(r.id, r.bases) for r in recs] == [("r1", "ACNTACN"), ("r2", "GGNN")]
        with pytest.raises(InvalidBase, match=r"\['R', 'X'\]"):
            parse_fasta(text)

    def test_concatenation_totality(self):
        # concatenated bases per record equal the input sequence lines,
        # whitespace-stripped and uppercased
        rng = np.random.default_rng(0)
        for _ in range(25):
            n_rec = int(rng.integers(1, 5))
            text, expected = [], []
            for i in range(n_rec):
                chunks = [
                    "".join(rng.choice(list("acgtACGTN"), size=rng.integers(0, 20)))
                    for _ in range(rng.integers(1, 4))
                ]
                text.append(f">rec{i}\n" + "\n".join(chunks))
                expected.append(("".join(chunks)).upper())
            recs = parse_fasta("\n".join(text))
            assert [r.bases for r in recs] == expected


class TestSampleWindows:
    def test_tiled_non_overlapping(self):
        seq = DnaSequence("s", "ACGTACGT")
        assert [w.bases for w in sample_windows(seq, 4, stride=4)] == ["ACGT", "ACGT"]

    def test_single_full_window(self):
        seq = DnaSequence("s", "ACGTAC")
        assert [w.bases for w in sample_windows(seq, 6, stride=1)] == ["ACGTAC"]

    def test_tiled_stride_two(self):
        seq = DnaSequence("s", "ACGTACGT")
        assert [w.bases for w in sample_windows(seq, 4, stride=2)] == ["ACGT", "GTAC", "ACGT"]

    def test_window_too_long_yields_empty(self, caplog):
        seq = DnaSequence("s", "ACG")
        with caplog.at_level("WARNING"):
            assert sample_windows(seq, 10) == []
        assert any("window_len" in m for m in caplog.messages)

    def test_empty_sequence_rejected_by_windowing(self):
        assert sample_windows(DnaSequence("s", ""), 1) == []

    def test_n_threshold_drops_windows(self):
        seq = DnaSequence("s", "NNNNACGTACGT")
        wins = sample_windows(seq, 4, stride=4, max_n_fraction=0.1)
        assert [w.bases for w in wins] == ["ACGT", "ACGT"]
        wins = sample_windows(seq, 4, stride=4, max_n_fraction=1.0)
        assert len(wins) == 3

    def test_tiled_default_stride_partitions_prefix(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            length = int(rng.integers(1, 60))
            wl = int(rng.integers(1, 12))
            bases = "".join(rng.choice(list("ACGT"), size=length))
            wins = sample_windows(DnaSequence("s", bases), wl)
            assert "".join(w.bases for w in wins) == bases[: wl * (length // wl)]

    def test_only_tiled_mode_accepted(self):
        seq = DnaSequence("s", "ACGTACGTACGT")
        assert [w.bases for w in sample_windows(seq, 4, "tiled", stride=4)] == ["ACGT"] * 3
        for mode in ("random", "bogus"):
            with pytest.raises(ConfigInvalid, match="windowing mode"):
                sample_windows(seq, 4, mode)


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = CorpusSettings(num_sequences=1, sequence_length=8, motifs=())
        a = generate_synthetic(cfg, 7)
        b = generate_synthetic(cfg, 7)
        assert len(a) == 1 and len(a[0].bases) == 8
        assert set(a[0].bases) <= set("ACGT")
        assert [s.bases for s in a] == [s.bases for s in b]

    def test_different_seeds_differ(self):
        cfg = CorpusSettings(num_sequences=100, sequence_length=32, motifs=())
        a = generate_synthetic(cfg, 1)
        b = generate_synthetic(cfg, 2)
        assert any(x.bases != y.bases for x, y in zip(a, b))

    def test_probability_one_always_plants(self):
        cfg = CorpusSettings(num_sequences=100, sequence_length=32, motifs=[("AAAAAA", 1.0)])
        assert all("AAAAAA" in s.bases for s in generate_synthetic(cfg, 3))

    def test_plant_fraction_binomial_oracle(self):
        # 10-mer motif in 16-base windows: chance occurrence is negligible
        # (< 1e-5), so contains-fraction ~ Binomial(n, 0.5) / n.
        n = 10_000
        cfg = CorpusSettings(num_sequences=n, sequence_length=16, motifs=[("ACGTACGTAC", 0.5)])
        frac = sum("ACGTACGTAC" in s.bases for s in generate_synthetic(cfg, 11)) / n
        sigma = math.sqrt(0.25 / n)
        assert abs(frac - 0.5) <= 3 * sigma

    def test_background_distribution(self):
        cfg = CorpusSettings(num_sequences=200, sequence_length=64, motifs=(),
                             background=(1.0, 0.0, 0.0, 0.0))
        assert all(set(s.bases) == {"A"} for s in generate_synthetic(cfg, 5))

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            CorpusSettings(num_sequences=1, sequence_length=8, motifs=[("ACGT", 1.5)])
        with pytest.raises(ConfigInvalid):
            CorpusSettings(num_sequences=1, sequence_length=2, motifs=[("ACGT", 0.5)])
        with pytest.raises(ConfigInvalid):
            CorpusSettings(num_sequences=1, sequence_length=8, motifs=(),
                           background=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ConfigInvalid, match="corpus.motifs pattern 'AXGT'") as exc:
            CorpusSettings(motifs=[("AXGT", 0.5)])
        assert "lenient" not in str(exc.value)


class TestLoadLabeled:
    def test_basic(self):
        examples, n = load_labeled(io.StringIO("sequence,label\nACGTAC,1\nTTTTTT,0"))
        assert n == 2
        assert [(e.sequence.bases, e.label) for e in examples] == [("ACGTAC", 1), ("TTTTTT", 0)]

    def test_header_only(self):
        examples, n = load_labeled(io.StringIO("sequence,label\n"))
        assert examples == [] and n == 0

    def test_negative_label(self):
        with pytest.raises(NonIntegerLabel):
            load_labeled(io.StringIO("sequence,label\nACGT,-1"))

    def test_non_integer_label(self):
        with pytest.raises(NonIntegerLabel):
            load_labeled(io.StringIO("sequence,label\nACGT,x"))

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            load_labeled(io.StringIO("seq,lab\nACGT,0"))
        with pytest.raises(MissingHeader):
            load_labeled(io.StringIO(""))

    def test_crlf_line_endings(self):
        examples, n = load_labeled(io.StringIO("sequence,label\r\nACGT,0\r\nTTTT,1\r\n"))
        assert n == 2 and len(examples) == 2


def test_normalize_bases_modes():
    assert normalize_bases("acgTN") == "ACGTN"
    assert normalize_bases("RYKM", lenient=True) == "NNNN"
    with pytest.raises(InvalidBase):
        normalize_bases("R")


def test_dna_sequence_invariant():
    with pytest.raises(InvalidBase):
        DnaSequence("x", "ACGU")
    with pytest.raises(InvalidBase) as exc:
        DnaSequence("y", "acgtNU-")
    assert str(exc.value) == "sequence 'y' contains invalid bases ['-', 'U', 'a', 'c', 'g', 't']"
    assert DnaSequence("z", "ACGTN" * 100).bases == "ACGTN" * 100
