import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import types
import typing

import numpy as np
import pytest

from dnamlm.cli import main
from dnamlm.config import RunConfig, run_config_from_dict
from dnamlm.errors import ConfigInvalid, KOutOfRange


class TestRunConfig:
    def test_defaults(self):
        run = RunConfig()
        assert run.tokenizer.k == 6
        assert run.masking.p == 0.025
        assert run.masking.stage_fractions == (0.06, 0.12, 0.20, 0.30, 1.00)
        assert run.finetune.lr == 3e-5
        assert run.finetune.batch_size == 32

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"optimizer": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"training": {"total_steps": 5, "bogus": 1}})
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"masking": {"policy": {"p_masky": 0.8}}})

    def test_partial_sections_merge_with_defaults(self):
        run = run_config_from_dict({"training": {"total_steps": 7}})
        assert run.training.total_steps == 7
        assert run.training.batch_size == 16

    def test_motif_formats(self):
        run = run_config_from_dict({"corpus": {"motifs": [["ACGT", 0.5], ["GGTT", 1]]}})
        assert run.corpus.motifs == (("ACGT", 0.5), ("GGTT", 1.0))
        # motifs are [pattern, probability] pairs only
        with pytest.raises(ConfigInvalid, match="corpus.motifs"):
            run_config_from_dict({"corpus": {"motifs": [
                {"pattern": "GGTT", "plant_probability": 1.0}]}})

    def test_to_dict_round_trips(self):
        run = run_config_from_dict({"training": {"seed": 9}})
        again = run_config_from_dict(json.loads(json.dumps(run.to_dict())))
        assert again == run

    def test_mode_validated(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"masking": {"mode": "sometimes"}})
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"tokenizer": {"strategy": "bpe"}})

    def test_policy_checked_on_load(self):
        with pytest.raises(ConfigInvalid):
            run_config_from_dict(
                {"masking": {"policy": {"p_mask": 0.9, "p_random": 0.2, "p_keep": 0.1}}}
            )
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"masking": {"policy": {"p_mask": "most"}}})

    def test_override(self):
        run = RunConfig().override("training", seed=4, total_steps=55)
        assert run.training.seed == 4 and run.training.total_steps == 55

    def test_retired_workers_key_dropped(self):
        # Every section written out in full, as configs and checkpoint echoes
        # from before the key's removal carry it.
        obj = {
            "corpus": {
                "source": "synthetic", "fasta_path": None, "lenient": False,
                "num_sequences": 128, "sequence_length": 512,
                "motifs": [["TATAATGCGC", 0.6], ["GGCCAATCAG", 0.6]],
                "background": [0.25, 0.25, 0.25, 0.25],
                "window_length": 512, "window_stride": None, "max_n_fraction": 0.1,
            },
            "tokenizer": {"k": 6, "strategy": "overlapping"},
            "masking": {
                "p": 0.025, "mode": "randommask",
                "stage_fractions": [0.06, 0.12, 0.20, 0.30, 1.00],
                "base_width": 6, "width_increment": 2,
                "policy": {"p_mask": 0.8, "p_random": 0.1, "p_keep": 0.1},
            },
            "model": {
                "num_layers": 2, "num_heads": 4, "hidden_dim": 64, "ff_dim": 256,
                "max_len": 128, "dropout_rate": 0.0, "tie_embeddings": False,
                "dtype": "float32",
            },
            "training": {
                "total_steps": 40, "batch_size": 16, "lr": 0.001,
                "weight_decay": 0.01, "seed": 0, "workers": 1,
            },
            "finetune": {
                "epochs": 5, "lr": 3e-5, "batch_size": 32, "weight_decay": 0.0,
                "freeze_backbone": False,
            },
        }
        run = run_config_from_dict(obj)
        assert "workers" not in run.to_dict()["training"]
        assert run.training.total_steps == 40 and run.corpus.num_sequences == 128
        # dropped whatever its value, including ones the old range check refused
        for value in (4, 0, "many"):
            again = run_config_from_dict({"training": {"total_steps": 40, "workers": value}})
            assert again.to_dict()["training"] == run.to_dict()["training"]
        with pytest.raises(ConfigInvalid):
            run_config_from_dict({"model": {"workers": 1}})

    def test_readme_run_config_block_matches_defaults(self):
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Run config\n", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == json.loads(json.dumps(RunConfig().to_dict()))


@pytest.fixture()
def fasta_file(tmp_path):
    p = tmp_path / "in.fa"
    p.write_text(">r1\nATGACG\n>r2\nACGTACGT\n", encoding="utf-8")
    return str(p)


DATA = pathlib.Path(__file__).parent / "data"


class TestCliTokenize:
    # tokenize_input.fa holds lowercase bases, N runs, a blank line and lines
    # wrapped at 50, 60 and 70 columns.  The expected files were written by the
    # earlier encoder, which looked each k-mer up in the vocabulary's dict.
    @pytest.mark.parametrize("strategy", ["overlapping", "nonoverlapping", "samelength"])
    def test_golden_output(self, strategy, tmp_path):
        out = tmp_path / "ids.txt"
        argv = ["tokenize", str(DATA / "tokenize_input.fa"), "--strategy", strategy]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"tokenize_k6_{strategy}.txt").read_bytes()

    def test_overlapping_line_per_record(self, fasta_file, capsys):
        assert main(["tokenize", fasta_file, "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[0].split()) == 4  # ATGACG -> 4 overlapping 3-mers
        assert len(lines[1].split()) == 6

    def test_nonoverlapping_and_samelength(self, fasta_file, capsys):
        assert main(["tokenize", fasta_file, "--k", "3", "--strategy", "nonoverlapping"]) == 0
        first = capsys.readouterr().out.strip().split("\n")[0]
        assert len(first.split()) == 2
        assert main(["tokenize", fasta_file, "--k", "3", "--strategy", "samelength"]) == 0
        first = capsys.readouterr().out.strip().split("\n")[0]
        assert len(first.split()) == 4

    def test_deterministic_output_file(self, fasta_file, tmp_path):
        out1, out2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(["tokenize", fasta_file, "--k", "3", "--out", out1]) == 0
        assert main(["tokenize", fasta_file, "--k", "3", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_missing_input_is_usage_error(self, capsys):
        assert main(["tokenize", "/no/such/file.fa"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"

    def test_strict_invalid_base_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.fa"
        p.write_text(">r\nACXT\n", encoding="utf-8")
        assert main(["tokenize", str(p)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidBase"

    def test_lenient_maps_invalid_base_to_n(self, tmp_path, capsys):
        p = tmp_path / "bad.fa"
        p.write_text(">r\nACXTACGT\n", encoding="utf-8")
        assert main(["tokenize", str(p), "--k", "3", "--lenient"]) == 0
        assert capsys.readouterr().out.split()[:3] == ["1", "1", "1"]

    def test_k_out_of_range_is_usage_error(self, fasta_file, capsys):
        assert main(["tokenize", fasta_file, "--k", "9"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "KOutOfRange" and "got 9" in err["message"]

    @pytest.mark.parametrize("flag,arg,section,key,value", [
        ("--k", "4", "tokenizer", "k", 4),
        ("--strategy", "samelength", "tokenizer", "strategy", "samelength"),
        ("--lenient", None, "corpus", "lenient", True),
    ])
    def test_flags_are_run_config_keys(self, flag, arg, section, key, value):
        from dnamlm import cli

        argv = ["tokenize", "in.fa", flag] + ([arg] if arg else [])
        run = cli._load_run_config(cli.build_parser().parse_args(argv))
        want = RunConfig().to_dict()
        assert want[section][key] != value
        want[section][key] = value
        assert run.to_dict() == want
        declared = {opt for a in _subparser("tokenize")._actions for opt in a.option_strings}
        assert declared == {"-h", "--help", "--k", "--strategy", "--lenient", "--out"}


class TestCliMaskStats:
    def test_stage0_widths_only_six(self, tmp_path):
        out = str(tmp_path / "s.json")
        rc = main(["mask-stats", "--step", "10", "--total-steps", "1000",
                   "--samples", "300", "--seq-len", "64", "--out", out])
        assert rc == 0
        obj = json.loads(open(out).read())
        assert obj["widths"] == [6]
        assert list(obj["width_histogram"]) == ["6"]

    def test_p_zero_empirical_zero(self, tmp_path):
        out = str(tmp_path / "s.json")
        rc = main(["mask-stats", "--p", "0", "--step", "10", "--total-steps", "1000",
                   "--samples", "100", "--seq-len", "32", "--out", out])
        assert rc == 0
        obj = json.loads(open(out).read())
        assert obj["empirical_fraction"] == 0.0
        assert obj["span_length_histogram"] == {}

    def test_final_stage_width_histogram_uniformish(self, tmp_path):
        scipy_stats = pytest.importorskip("scipy.stats")
        out = str(tmp_path / "s.json")
        rc = main(["mask-stats", "--step", "1000", "--total-steps", "1000",
                   "--samples", "10000", "--seq-len", "16", "--seed", "5", "--out", out])
        assert rc == 0
        obj = json.loads(open(out).read())
        assert obj["widths"] == [6, 8, 10, 12, 14]
        counts = [obj["width_histogram"][str(w)] for w in (6, 8, 10, 12, 14)]
        assert sum(counts) == 10000
        assert scipy_stats.chisquare(counts).pvalue > 1e-3

    def test_byte_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["mask-stats", "--step", "50", "--total-steps", "100",
                "--samples", "200", "--seq-len", "32", "--seed", "3"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_baseline_reports_its_own_width(self, tmp_path):
        out = str(tmp_path / "bl.json")
        n = 2000
        rc = main(["mask-stats", "--masking-mode", "baseline", "--step", "1000",
                   "--total-steps", "1000", "--samples", str(n), "--seq-len", "128",
                   "--out", out])
        assert rc == 0
        obj = json.loads(open(out).read())
        assert obj["mode"] == "baseline"
        assert obj["widths"] == [6]
        assert obj["width_histogram"] == {"6": n}
        assert list(obj["expected_interior_by_width"]) == ["6"]
        # a per-sequence fraction in [0, 1] with mean f has variance <= f(1-f)
        f = obj["empirical_fraction"]
        se = math.sqrt(f * (1.0 - f) / n)
        assert abs(obj["expected_fraction"] - f) <= 5 * se

    @pytest.mark.parametrize("flags", [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--step", "0"],
        ["--step", "-2"],
    ])
    def test_bad_flag_is_usage_error(self, flags, capsys):
        rc = main(["mask-stats", "--total-steps", "100", "--seq-len", "32"] + flags)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert flags[0] in err["message"]


SMALL_RUN = {
    "corpus": {"num_sequences": 24, "sequence_length": 32, "window_length": 32},
    "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 29},
    "training": {"total_steps": 18, "batch_size": 4, "seed": 5},
}


@pytest.fixture()
def small_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_RUN), encoding="utf-8")
    return str(p)


@pytest.mark.parametrize("section,key,value", [
    ("model", "num_heads", 3),
    ("model", "dtype", "float16"),
    ("model", "dropout_rate", 0.1),
    ("model", "max_len", 2),
    ("model", "num_layers", 0),
    ("finetune", "epochs", 0),
    ("finetune", "batch_size", 0),
])
def test_model_and_finetune_values_checked_on_load(section, key, value, tmp_path, capsys):
    obj = {**SMALL_RUN, "model": {**SMALL_RUN["model"], "hidden_dim": 64}}
    obj[section] = {**obj.get(section, {}), key: value}
    with pytest.raises(ConfigInvalid, match=key):
        run_config_from_dict(obj)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(obj), encoding="utf-8")
    for argv in (["mask-stats", "--samples", "10", "--seq-len", "16"],
                 ["pretrain", "--out", str(tmp_path / "run")]):
        assert main(argv + ["--config", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and key in err["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("values,error,words", [
    ({"training": {"lr": -1}}, "ConfigInvalid", "training: learning rate"),
    ({"training": {"weight_decay": -1}}, "ConfigInvalid", "training: weight decay"),
    ({"finetune": {"lr": -1}}, "ConfigInvalid", "finetune: learning rate"),
    ({"finetune": {"weight_decay": -1}}, "ConfigInvalid", "finetune: weight decay"),
    ({"training": {"lr": -1, "weight_decay": -1},
      "finetune": {"lr": -1, "weight_decay": -1}}, "ConfigInvalid", "training: learning rate"),
    ({"tokenizer": {"k": 9}}, "KOutOfRange", "k must be in [1, 8], got 9"),
    ({"tokenizer": {"k": 0}}, "KOutOfRange", "k must be in [1, 8], got 0"),
])
def test_optimizer_settings_and_k_checked_on_load(values, error, words, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(values), encoding="utf-8")
    assert main(["mask-stats", "--samples", "10", "--seq-len", "16", "--config", str(p)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and words in err["message"]


@pytest.mark.parametrize("flags,words", [
    (["--lr", "-1"], "learning rate"),
    (["--k", "9"], "got 9"),
])
def test_optimizer_and_k_flags_checked_on_load(flags, words, capsys):
    assert main(["mask-stats", "--samples", "10", "--seq-len", "16", *flags]) == 2
    assert words in json.loads(capsys.readouterr().err)["message"]


# Every int-annotated key of the run config, written out.
INTEGER_KEYS = [
    ("corpus", "num_sequences"), ("corpus", "sequence_length"),
    ("corpus", "window_length"), ("corpus", "window_stride"),
    ("tokenizer", "k"),
    ("masking", "base_width"), ("masking", "width_increment"),
    ("model", "num_layers"), ("model", "num_heads"), ("model", "hidden_dim"),
    ("model", "ff_dim"), ("model", "max_len"),
    ("training", "total_steps"), ("training", "batch_size"), ("training", "seed"),
    ("finetune", "epochs"), ("finetune", "batch_size"),
]


class TestIntegerKeys:
    def test_list_covers_every_int_annotated_key(self):
        found = [
            (section.name, f.name)
            for section in dataclasses.fields(RunConfig)
            for f in dataclasses.fields(section.default_factory)
            if f.type in ("int", "int | None")
        ]
        assert sorted(found) == sorted(INTEGER_KEYS)

    @pytest.mark.parametrize("section,key", INTEGER_KEYS)
    @pytest.mark.parametrize("value", [6.5, 16.0, True])
    def test_non_integer_rejected_on_load_and_override(self, section, key, value, tmp_path,
                                                       capsys):
        with pytest.raises((ConfigInvalid, KOutOfRange), match=key):
            run_config_from_dict({section: {key: value}})
        with pytest.raises((ConfigInvalid, KOutOfRange), match=key):
            RunConfig().override(section, **{key: value})
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        assert main(["mask-stats", "--samples", "10", "--seq-len", "16",
                     "--config", str(p)]) == 2
        assert key in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("values", [
        {"tokenizer": {"k": 6.5}},
        {"tokenizer": {"k": True}},
        {"training": {"batch_size": 2.5}},
        {"model": {"num_layers": 1.5}},
        {"corpus": {"num_sequences": 8.5}},
    ])
    def test_pretrain_exits_2_before_running(self, values, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(values), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(p), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] in ("ConfigInvalid", "KOutOfRange")
        assert not out.exists()

    def test_k_message_kept(self):
        with pytest.raises(KOutOfRange, match=r"^k must be in \[1, 8\], got 6\.5$"):
            run_config_from_dict({"tokenizer": {"k": 6.5}})

    def test_float_keys_accept_integers_and_stride_accepts_null(self):
        run = run_config_from_dict({
            "corpus": {"window_stride": None, "max_n_fraction": 0},
            "masking": {"p": 0},
            "training": {"lr": 1, "weight_decay": 0},
            "finetune": {"lr": 1},
        })
        assert run.corpus.window_stride is None and run.training.lr == 1
        assert RunConfig().override("corpus", window_stride=None) == RunConfig()


def _annotated_keys(cls, path):
    """(section path, key, annotation) for every key under ``cls``, nested ones too."""
    for key, hint in typing.get_type_hints(cls).items():
        if dataclasses.is_dataclass(hint):
            yield from _annotated_keys(hint, f"{path}.{key}")
        yield path, key, hint


def _wrong_typed(hint):
    """JSON values the annotation refuses: a string for a number or a list,
    "no" or 1 for a bool, a number for a string, null unless Optional."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    arms = typing.get_args(hint) if union else (hint,)
    wrong = [5] if str in arms else ["no", 1] if bool in arms else ["x"]
    return wrong + ([] if type(None) in arms else [None])


WRONG_TYPED = [
    (path, key, value)
    for section, cls in typing.get_type_hints(RunConfig).items()
    for path, key, hint in _annotated_keys(cls, section)
    for value in _wrong_typed(hint)
]


class TestAnnotatedTypes:
    @pytest.mark.parametrize("path,key,value", WRONG_TYPED)
    def test_wrong_type_exits_2_naming_the_key(self, path, key, value, tmp_path, capsys):
        obj = {key: value}
        for part in reversed(path.split(".")):
            obj = {part: obj}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["mask-stats", "--samples", "10", "--seq-len", "16",
                     "--config", str(p)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert key in json.loads(line)["message"]
        if "." not in path:   # a flag sets its key through the same check
            with pytest.raises((ConfigInvalid, KOutOfRange), match=key):
                RunConfig().override(path, **{key: value})

    @pytest.mark.parametrize("motifs", [[[1, 0.5]], [["ACGT", 0.5, 1]], [["ACGT", "0.5"]],
                                        ["ACGT"]])
    def test_motif_must_be_a_pattern_probability_pair(self, motifs):
        with pytest.raises(ConfigInvalid, match="corpus.motifs"):
            run_config_from_dict({"corpus": {"motifs": motifs}})

    def test_echo_keeps_what_the_file_wrote(self):
        run = run_config_from_dict({"training": {"lr": 1},
                                    "corpus": {"background": [1, 0, 0, 0]}})
        echo = json.loads(json.dumps(run.to_dict()))
        assert echo["training"]["lr"] == 1 and echo["corpus"]["background"] == [1.0, 0, 0, 0]
        assert run_config_from_dict(echo) == run

    @pytest.mark.parametrize("corpus,words", [
        ({"background": [1, 1, 1, 1]}, "background"),
        ({"motifs": [["ACGT", 5]]}, "plant probability"),
        ({"num_sequences": -1}, "num_sequences"),
        ({"motifs": [["AXGT", 0.5]]}, "invalid bases"),
        ({"motifs": [["AXGT", 0.5]]}, "corpus.motifs pattern 'AXGT'"),
        ({"max_n_fraction": 5}, "max_n_fraction"),
        ({"max_n_fraction": -1}, "max_n_fraction"),
        ({"window_stride": 0}, "window_stride"),
        ({"sequence_length": 8, "window_length": 8}, "sequence_length"),
        ({"window_length": 4, "motifs": []}, "window_length"),
    ])
    def test_synthetic_corpus_settings_checked_on_load(self, corpus, words, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"corpus": corpus}), encoding="utf-8")
        assert main(["mask-stats", "--samples", "10", "--seq-len", "16",
                     "--config", str(p)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert words in json.loads(line)["message"]


@pytest.fixture(scope="module")
def two_step_run(tmp_path_factory):
    """A run directory whose checkpoint stopped after step 2 of SMALL_RUN."""
    root = tmp_path_factory.mktemp("two_step")
    (root / "cfg.json").write_text(json.dumps(SMALL_RUN), encoding="utf-8")
    assert main(["pretrain", "--config", str(root / "cfg.json"), "--stop-after", "2",
                 "--out", str(root / "run")]) == 0
    return root


class TestManifestValues:
    @pytest.mark.parametrize("keys,value,words", [
        (("optimizer", "lr"), "x", "optimizer.lr"),
        (("optimizer", "lr"), -1, "learning rate"),
        (("optimizer", "step"), -5, "optimizer step"),
        (("step",), -5, "step"),
        (("step",), True, "step"),
        (("model_config", "tie_embeddings"), "no", "model_config.tie_embeddings"),
        (("model_config",), [1], "malformed"),
    ])
    @pytest.mark.parametrize("command", ["pretrain", "analyze", "finetune"])
    def test_bad_value_exits_2(self, two_step_run, keys, value, words, command, tmp_path,
                               capsys):
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(two_step_run / "run" / "checkpoint", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        *parents, last = keys
        target = manifest
        for key in parents:
            target = target[key]
        target[last] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        data = tmp_path / "train.csv"
        data.write_text("sequence,label\nACGTACGT,0\nTTGCATGC,1\n", encoding="utf-8")
        config = str(two_step_run / "cfg.json")
        argv = {
            "pretrain": ["pretrain", "--config", config, "--resume", str(ckpt)],
            "analyze": ["analyze", "--checkpoint", str(ckpt)],
            "finetune": ["finetune", "--checkpoint", str(ckpt), "--data", str(data)],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ConfigInvalid" and words in err["message"]
        assert not (tmp_path / "out").exists()

    def test_finetune_checkpoint_that_is_a_file_exits_2(self, two_step_run, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("sequence,label\nACGTACGT,0\nTTGCATGC,1\n", encoding="utf-8")
        manifest = two_step_run / "run" / "checkpoint" / "manifest.json"
        assert main(["finetune", "--checkpoint", str(manifest), "--data", str(data),
                     "--out", str(tmp_path / "ft")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "cannot read checkpoint" in json.loads(line)["message"]
        assert not (tmp_path / "ft").exists()


class TestCliPretrainAnalyze:
    def test_pretrain_outputs_and_resume(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "runA")
        assert main(["pretrain", "--config", small_config, "--out", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["steps_run"] == 18
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["config"]["training"]["seed"] == 5
        assert [r["step"] for r in report["records"]] == list(range(1, 19))
        csv_lines = open(os.path.join(out, "loss.csv")).read().strip().split("\n")
        assert csv_lines[0] == "step,loss,stage,width_max"
        assert len(csv_lines) == 19

        out_half = str(tmp_path / "runB")
        assert main(["pretrain", "--config", small_config, "--out", out_half,
                     "--stop-after", "9"]) == 0
        capsys.readouterr()
        out_resumed = str(tmp_path / "runC")
        assert main(["pretrain", "--config", small_config, "--out", out_resumed,
                     "--resume", os.path.join(out_half, "checkpoint")]) == 0
        capsys.readouterr()
        rep_b = json.loads(open(os.path.join(out_half, "report.json")).read())
        rep_c = json.loads(open(os.path.join(out_resumed, "report.json")).read())
        spliced = [r["loss"] for r in rep_b["records"]] + [r["loss"] for r in rep_c["records"]]
        full = [r["loss"] for r in report["records"]]
        assert spliced == full

    def test_pretrain_byte_deterministic(self, small_config, tmp_path, capsys):
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        assert main(["pretrain", "--config", small_config, "--out", out1]) == 0
        assert main(["pretrain", "--config", small_config, "--out", out2]) == 0
        capsys.readouterr()
        for name in ("report.json", "loss.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2
        p1 = open(os.path.join(out1, "checkpoint", "params.bin"), "rb").read()
        p2 = open(os.path.join(out2, "checkpoint", "params.bin"), "rb").read()
        assert p1 == p2

    def test_masking_mode_flag_switches_baseline(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "bl")
        assert main(["pretrain", "--config", small_config, "--out", out,
                     "--masking-mode", "baseline"]) == 0
        capsys.readouterr()
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["config"]["masking"]["mode"] == "baseline"

    def test_report_echoes_scaled_boundaries(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "sb")
        assert main(["pretrain", "--config", small_config, "--out", out]) == 0
        capsys.readouterr()
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["stage_boundaries"][-1] == 18

    def test_analyze_schema(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "runA")
        assert main(["pretrain", "--config", small_config, "--out", out]) == 0
        capsys.readouterr()
        aj = str(tmp_path / "analysis.json")
        assert main(["analyze", "--checkpoint", os.path.join(out, "checkpoint"),
                     "--out", aj]) == 0
        obj = json.loads(open(aj).read())
        assert obj["num_layers"] == 1
        assert len(obj["cls_mass"]) == 1 and len(obj["entropy"]) == 1
        assert obj["checkpoint_step"] == 18
        # k=6 in this config, so the embedding metric is present
        assert -1.0 <= obj["silhouette"] <= 1.0

    def test_analyze_matches_report_and_reads_retired_workers_key(
        self, small_config, tmp_path, capsys
    ):
        out = str(tmp_path / "runA")
        assert main(["pretrain", "--config", small_config, "--out", out]) == 0
        capsys.readouterr()
        ckpt = os.path.join(out, "checkpoint")
        before = str(tmp_path / "before.json")
        assert main(["analyze", "--checkpoint", ckpt, "--out", before]) == 0
        manifest_path = os.path.join(ckpt, "manifest.json")
        manifest = json.loads(open(manifest_path).read())
        manifest["run_config"]["training"]["workers"] = 2
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        after = str(tmp_path / "after.json")
        assert main(["analyze", "--checkpoint", ckpt, "--out", after]) == 0
        assert open(before, "rb").read() == open(after, "rb").read()
        # analyze at the checkpoint step repeats pretrain's own diagnostics
        report = json.loads(open(os.path.join(out, "report.json")).read())
        obj = json.loads(open(after).read())
        assert obj["silhouette"] == report["silhouette"]
        assert {k: obj[k] for k in report["attention"]} == report["attention"]

    def test_analyze_probe_step_zero_is_usage_error(self, tmp_path, capsys):
        from dnamlm.model import ModelConfig, init_model, save_checkpoint

        params = init_model(ModelConfig(
            vocab_size=4101, num_layers=1, hidden_dim=16, num_heads=4,
            ff_dim=32, max_len=29, seed=3,
        ))
        ckpt = str(tmp_path / "fresh")
        save_checkpoint(ckpt, params, step=0,
                        run_config=run_config_from_dict(SMALL_RUN).to_dict())
        assert main(["analyze", "--checkpoint", ckpt, "--probe-step", "0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert "--probe-step" in err["message"]

    def test_analyze_missing_checkpoint_usage_error(self, capsys):
        assert main(["analyze", "--checkpoint", "/no/such/dir"]) == 2

    # finetune warns and starts from random init when the path is absent.
    @pytest.mark.parametrize("command,missing", [
        ("analyze", True), ("analyze", False), ("pretrain", True), ("pretrain", False),
        ("finetune", False),
    ])
    def test_unreadable_checkpoint_usage_error(self, command, missing, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        if not missing:
            ckpt.mkdir()
        data = tmp_path / "train.csv"
        data.write_text("sequence,label\nACGTACGT,0\nTTGCATGC,1\n", encoding="utf-8")
        argv = {
            "analyze": ["analyze", "--checkpoint", str(ckpt)],
            "pretrain": ["pretrain", "--resume", str(ckpt), "--out", str(tmp_path / "run")],
            "finetune": ["finetune", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out", str(tmp_path / "run")],
        }[command]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and "cannot read checkpoint" in err["message"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("damage,words", [
        ("manifest_not_json", "not valid JSON"),
        ("manifest_missing_keys", "'tensors'"),
        ("params_truncated", "ends at"),
        ("param_dropped", "do not match"),
        ("moment_dropped", "do not match"),
    ])
    def test_malformed_checkpoint_usage_error(self, damage, words, small_config, tmp_path,
                                              capsys):
        ckpt = tmp_path / "run" / "checkpoint"
        assert main(["pretrain", "--config", small_config, "--stop-after", "2",
                     "--out", str(tmp_path / "run")]) == 0
        if damage == "manifest_not_json":
            (ckpt / "manifest.json").write_text("{", encoding="utf-8")
        elif damage == "manifest_missing_keys":
            (ckpt / "manifest.json").write_text('{"schema": 1}', encoding="utf-8")
        elif damage == "params_truncated":
            with open(ckpt / "params.bin", "r+b") as fh:
                fh.truncate(1001)
        else:
            dropped = {"param_dropped": "param.pos_emb", "moment_dropped": "opt.v.pos_emb"}[damage]
            manifest = json.loads((ckpt / "manifest.json").read_text())
            manifest["tensors"] = [t for t in manifest["tensors"] if t["name"] != dropped]
            (ckpt / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        data = tmp_path / "train.csv"
        data.write_text("sequence,label\nACGTACGT,0\nTTGCATGC,1\n", encoding="utf-8")
        capsys.readouterr()
        for argv in (
            ["analyze", "--checkpoint", str(ckpt)],
            ["pretrain", "--config", small_config, "--resume", str(ckpt),
             "--out", str(tmp_path / "resumed")],
            ["finetune", "--checkpoint", str(ckpt), "--data", str(data),
             "--out", str(tmp_path / "ft")],
        ):
            assert main(argv) == 2
            (line,) = capsys.readouterr().err.splitlines()
            err = json.loads(line)
            assert err["error"] == "ConfigInvalid" and words in err["message"]
        assert not (tmp_path / "resumed").exists() and not (tmp_path / "ft").exists()

    def test_pretrain_p_zero_writes_null_attention(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["pretrain", "--config", small_config, "--p", "0", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["attention"] == {
            "cls_mass": None, "entropy": None, "num_masked_queries": 0, "probe_step": 18,
        }
        assert len((out / "loss.csv").read_text().splitlines()) == 19
        assert (out / "checkpoint" / "params.bin").exists()
        capsys.readouterr()
        assert main(["analyze", "--checkpoint", str(out / "checkpoint")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert {k: obj[k] for k in report["attention"]} == report["attention"]

    def test_analyze_fresh_random_checkpoint_silhouette_near_zero(self, tmp_path, capsys):
        from dnamlm.config import run_config_from_dict
        from dnamlm.model import ModelConfig, init_model, save_checkpoint

        run = run_config_from_dict(SMALL_RUN)
        params = init_model(ModelConfig(
            vocab_size=4101, num_layers=1, hidden_dim=16, num_heads=4,
            ff_dim=32, max_len=29, seed=3,
        ))
        ckpt = str(tmp_path / "fresh")
        save_checkpoint(ckpt, params, step=0, run_config=run.to_dict())
        out = str(tmp_path / "fresh.json")
        assert main(["analyze", "--checkpoint", ckpt, "--out", out]) == 0
        obj = json.loads(open(out).read())
        assert abs(obj["silhouette"]) < 0.05
        assert obj["checkpoint_step"] == 0


class TestCliFinetune:
    @pytest.fixture()
    def labeled_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["sequence,label"]
        for label, motif in ((0, "AAAAAAAAAA"), (1, "GTGTGTGTGT")):
            for _ in range(32):
                bases = "".join(rng.choice(list("ACGT"), size=24))
                pos = int(rng.integers(0, 15))
                rows.append(f"{bases[:pos]}{motif}{bases[pos + 10:]},{label}")
        p = tmp_path / "train.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(p)

    def test_finetune_without_checkpoint_warns_and_runs(self, labeled_csv, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "tokenizer": {"k": 3},
            "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 24},
            "finetune": {"epochs": 2, "lr": 0.003, "batch_size": 16},
            "training": {"seed": 2},
        }), encoding="utf-8")
        out = str(tmp_path / "ft")
        rc = main(["finetune", "--config", str(cfgp), "--data", labeled_csv,
                   "--checkpoint", str(tmp_path / "missing_ckpt"), "--out", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "random initialization" in captured.err
        csv_lines = open(os.path.join(out, "metrics.csv")).read().strip().split("\n")
        assert csv_lines[0] == "epoch,loss,mcc"
        assert len(csv_lines) == 3
        metrics = json.loads(open(os.path.join(out, "metrics.json")).read())
        assert metrics["num_classes"] == 2

    def test_finetune_random_init_rejects_dropout(self, labeled_csv, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "tokenizer": {"k": 3},
            "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 24,
                      "dropout_rate": 0.1},
            "finetune": {"epochs": 1, "batch_size": 16},
        }), encoding="utf-8")
        rc = main(["finetune", "--config", str(cfgp), "--data", labeled_csv,
                   "--out", str(tmp_path / "ft")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert "dropout_rate" in err["message"]

    def test_finetune_header_only_csv_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("sequence,label\n", encoding="utf-8")
        out = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "EmptyDataset"
        assert not out.exists()

    def test_finetune_negative_lr_is_usage_error(self, labeled_csv, tmp_path, capsys):
        out = str(tmp_path / "ft")
        rc = main(["finetune", "--data", labeled_csv, "--finetune-lr", "-1", "--out", out])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert "learning rate" in err["message"]
        assert not os.path.exists(os.path.join(out, "metrics.csv"))

    def test_every_finetune_key_reaches_finetune_config(
        self, labeled_csv, tmp_path, capsys, monkeypatch
    ):
        from dnamlm import cli
        from dnamlm.model.training import FinetuneSettings

        section = {"epochs": 3, "lr": 0.004, "batch_size": 7, "weight_decay": 0.05,
                   "freeze_backbone": True}
        assert set(section) == {f.name for f in dataclasses.fields(FinetuneSettings)}
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({
            "tokenizer": {"k": 3},
            "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 24},
            "finetune": section,
            "training": {"seed": 13},
        }), encoding="utf-8")
        seen = []

        def fake_finetune(params, examples, num_classes, vocab, config, strategy):
            seen.append(config)
            return params, [{"epoch": 1, "loss": 0.0, "mcc": 0.0}]

        monkeypatch.setattr(cli, "finetune_classify", fake_finetune)
        assert main(["finetune", "--config", str(cfgp), "--data", labeled_csv,
                     "--out", str(tmp_path / "ft")]) == 0
        capsys.readouterr()
        (ft,) = seen
        assert {k: getattr(ft, k) for k in section} == section
        assert ft.seed == 13

    def test_finetune_from_checkpoint(self, labeled_csv, small_config, tmp_path, capsys):
        out_pre = str(tmp_path / "pre")
        assert main(["pretrain", "--config", small_config, "--out", out_pre]) == 0
        capsys.readouterr()
        out_ft = str(tmp_path / "ft2")
        rc = main(["finetune", "--config", small_config, "--data", labeled_csv,
                   "--checkpoint", os.path.join(out_pre, "checkpoint"),
                   "--epochs", "1", "--out", out_ft])
        assert rc == 0
        assert os.path.exists(os.path.join(out_ft, "metrics.csv"))


# Every config flag: an argument, and the section key it sets to a value
# other than the default.  "--config" reads CONFIG_FILE_BODY.
CONFIG_FLAGS = [
    ("--config", None, "model", "hidden_dim", 32),
    ("--seed", "7", "training", "seed", 7),
    ("--k", "4", "tokenizer", "k", 4),
    ("--strategy", "samelength", "tokenizer", "strategy", "samelength"),
    ("--p", "0.3", "masking", "p", 0.3),
    ("--masking-mode", "baseline", "masking", "mode", "baseline"),
    ("--total-steps", "77", "training", "total_steps", 77),
    ("--batch-size", "5", "training", "batch_size", 5),
    ("--lr", "0.25", "training", "lr", 0.25),
    ("--epochs", "9", "finetune", "epochs", 9),
    ("--finetune-lr", "0.125", "finetune", "lr", 0.125),
    ("--finetune-batch-size", "11", "finetune", "batch_size", 11),
    ("--freeze-backbone", None, "finetune", "freeze_backbone", True),
]
CONFIG_FILE_BODY = {"model": {"hidden_dim": 32}}
FINETUNE_ONLY = {"--epochs", "--finetune-lr", "--finetune-batch-size", "--freeze-backbone"}
# Each command's flags that are not config flags, and the arguments it requires.
COMMAND_FLAGS = {
    "pretrain": ({"--out", "--resume", "--stop-after"}, []),
    "mask-stats": ({"--step", "--seq-len", "--samples", "--out"}, []),
    "finetune": ({"--checkpoint", "--data", "--out"}, ["--data", "train.csv"]),
}


def _subparser(command):
    from dnamlm import cli

    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


class TestConfigFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_every_config_flag_is_covered(self, command):
        other, _required = COMMAND_FLAGS[command]
        declared = {opt for a in _subparser(command)._actions for opt in a.option_strings}
        want = {flag for flag, *_ in CONFIG_FLAGS
                if command == "finetune" or flag not in FINETUNE_ONLY}
        assert declared - {"-h", "--help"} - other == want

    @pytest.mark.parametrize("command,flag,arg,section,key,value", [
        (command, *case) for command in sorted(COMMAND_FLAGS) for case in CONFIG_FLAGS
        if command == "finetune" or case[0] not in FINETUNE_ONLY
    ])
    def test_flag_sets_only_its_key(self, command, flag, arg, section, key, value, tmp_path):
        from dnamlm import cli

        if flag == "--config":
            arg = str(tmp_path / "cfg.json")
            pathlib.Path(arg).write_text(json.dumps(CONFIG_FILE_BODY), encoding="utf-8")
        argv = [command, *COMMAND_FLAGS[command][1], flag] + ([arg] if arg else [])
        run = cli._load_run_config(cli.build_parser().parse_args(argv))
        want = RunConfig().to_dict()
        assert want[section][key] != value
        want[section][key] = value
        assert run.to_dict() == want


class TestCliContracts:
    def test_help_exits_zero_for_every_subcommand(self):
        for cmd in ("tokenize", "mask-stats", "pretrain", "finetune", "analyze"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["pretrain"], ["mask-stats"], ["finetune", "--data", "train.csv"],
    ])
    def test_workers_flag_removed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_invalid_config_json_error_on_stderr(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"training": {"bogus": 1}}), encoding="utf-8")
        assert main(["pretrain", "--config", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid"
        assert "bogus" in err["message"]

    def test_zero_window_stride_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**SMALL_RUN, "corpus": {**SMALL_RUN["corpus"],
                                                         "window_stride": 0}}),
                     encoding="utf-8")
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(p), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and "stride" in err["message"]
        assert not out.exists()

    def test_negative_weight_decay_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**SMALL_RUN, "training": {**SMALL_RUN["training"],
                                                           "weight_decay": -1}}),
                     encoding="utf-8")
        out = tmp_path / "run"
        assert main(["pretrain", "--config", str(p), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and "weight decay" in err["message"]
        assert not out.exists()

    def test_missing_fasta_path_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.fa")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"corpus": {"source": "fasta", "fasta_path": missing}}),
                     encoding="utf-8")
        assert main(["pretrain", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and "absent.fa" in err["message"]

    def test_report_dir_env_var(self, small_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DNAMLM_REPORT_DIR", str(tmp_path / "envruns"))
        assert main(["pretrain", "--config", small_config]) == 0
        capsys.readouterr()
        assert os.path.exists(str(tmp_path / "envruns" / "pretrain" / "report.json"))

    def test_console_script_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dnamlm.cli", "--version"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0
        assert "dnamlm" in proc.stdout

    def test_python_m_package_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dnamlm", "--help"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: dnamlm")
        assert "tokenize" in proc.stdout
