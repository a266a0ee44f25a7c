"""Artefacts are written whole or not at all: a write that fails midway
leaves the previous file, or no file, and no temporary file beside it."""

import builtins
import errno
import json
import os

import numpy as np
import pytest

from dnamlm import atomic
from dnamlm.analysis import RunReport, StepRecord, emit_report
from dnamlm.cli import main
from dnamlm.model import ModelConfig, init_model, load_checkpoint, save_checkpoint


class _HalfWriter:
    """A binary file that keeps half of its first write, then fails as a full disk does."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def full_disk(monkeypatch):
    """Make every whole-file write fail midway."""
    def enable():
        monkeypatch.setattr(atomic, "open", _HalfWriter, raising=False)
    return enable


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


def test_failed_write_keeps_the_old_file(tmp_path, full_disk):
    path = str(tmp_path / "out.txt")
    assert atomic.write_then_replace(path, [b"old ", b"bytes"]) == 9
    full_disk()
    with pytest.raises(OSError):
        atomic.write_then_replace(path, [b"new bytes, longer than the old"])
    with pytest.raises(OSError):
        atomic.write_then_replace(str(tmp_path / "fresh.txt"), [b"new"])
    assert _files(tmp_path) == {"out.txt": b"old bytes"}


def _report(loss: float) -> RunReport:
    return RunReport(
        config={"training": {"seed": 3}}, seeds={"root": 3}, stage_boundaries=[60],
        records=[StepRecord(step=1, stage=0, widths=[6], loss=loss)],
    )


def test_failed_report_keeps_the_old_report(tmp_path, full_disk):
    run = str(tmp_path / "run")
    emit_report(_report(8.25), run)
    old = _files(run)
    assert sorted(old) == ["loss.csv", "report.json"]
    full_disk()
    with pytest.raises(OSError):
        emit_report(_report(7.5), run)
    assert _files(run) == old
    with pytest.raises(OSError):
        emit_report(_report(7.5), str(tmp_path / "fresh"))
    assert _files(tmp_path / "fresh") == {}


def test_failed_metrics_keep_the_old_metrics(tmp_path, full_disk, capsys):
    rows = ["sequence,label"] + [f"{'ACGT' * 4}{'AT'[y] * 8},{y}" for y in (0, 1, 0, 1)]
    data = tmp_path / "train.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "tokenizer": {"k": 3},
        "model": {"num_layers": 1, "hidden_dim": 16, "ff_dim": 32, "max_len": 24},
        "finetune": {"epochs": 1, "batch_size": 4},
    }), encoding="utf-8")
    args = ["finetune", "--config", str(cfg), "--data", str(data), "--out"]
    out = str(tmp_path / "ft")
    assert main(args + [out]) == 0
    old = _files(out)
    assert sorted(old) == ["metrics.csv", "metrics.json"]
    capsys.readouterr()
    full_disk()
    assert main(args + [out, "--epochs", "2"]) == 1
    assert "OSError" in capsys.readouterr().err
    assert _files(out) == old
    assert main(args + [str(tmp_path / "fresh")]) == 1
    assert _files(tmp_path / "fresh") == {}


def test_failed_save_keeps_the_old_checkpoint(tmp_path, full_disk):
    cfg = ModelConfig(vocab_size=21, num_layers=1, num_heads=2, hidden_dim=8, ff_dim=16,
                      max_len=12)
    params = init_model(cfg)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, params)
    old = _files(ckpt)
    full_disk()
    with pytest.raises(OSError):
        save_checkpoint(ckpt, init_model(ModelConfig(**{**vars(cfg), "seed": 1})))
    assert _files(ckpt) == old
    loaded = load_checkpoint(ckpt).params
    assert all(np.array_equal(loaded[name], params[name]) for name in params.arrays)
