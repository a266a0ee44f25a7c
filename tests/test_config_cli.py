import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from dnamlm.cli import main
from dnamlm.config import RunConfig, run_config_from_dict
from dnamlm.errors import ConfigInvalid


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
        obj = {"corpus": {"motifs": [["ACGT", 0.5],
                                     {"pattern": "GGTT", "plant_probability": 1.0}]}}
        run = run_config_from_dict(obj)
        assert run.corpus.motifs == (("ACGT", 0.5), ("GGTT", 1.0))

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
        assert json.loads(block) == RunConfig().to_dict()


@pytest.fixture()
def fasta_file(tmp_path):
    p = tmp_path / "in.fa"
    p.write_text(">r1\nATGACG\n>r2\nACGTACGT\n", encoding="utf-8")
    return str(p)


class TestCliTokenize:
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
