"""sha256 fingerprints of the byte-deterministic outputs.

Pins ``loss.csv``, ``report.json`` and ``checkpoint/params.bin`` of a
40-step ``pretrain_run`` at seed 3 in each masking mode, the ``analyze``
JSON of the RandomMask checkpoint, and a small ``mask-stats`` JSON.  A
change that passes this file changes none of these outputs.  A change that
alters the numerics on purpose updates ``EXPECTED`` and says so in
``CHANGES.md``; run this file as a script to print the current digests:

    PYTHONPATH=src python tests/test_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from dnamlm.cli import main
from dnamlm.config import run_config_from_dict
from dnamlm.pipeline import pretrain_run

MODES = ("randommask", "baseline")

EXPECTED = {
    "randommask/loss.csv": "fb426c291589bc37095b45d254c43ac0b3ae99f202ff4573214292687f95cf65",
    "randommask/report.json": "9e02aaeeff9b057c3e0b9a20d16c7060f9f52509746c641744d26d8b00828efd",
    "randommask/params.bin": "46e2d1299923b717672ad444c6677c67cf8e8a66a67faaf4133573668af0ed07",
    "baseline/loss.csv": "189fbbe10a2edbd98c898e42ee9cf29ab6bc65ed72c0e2a91266dcb7869e62ac",
    "baseline/report.json": "22a007a69335910fe60df9619f88e64cb0877d73ffc5cd08aad88bc2ac7e676c",
    "baseline/params.bin": "7c83421d25d47ad56e9d79e7fe38d1f1a9cafab52c43760275b1babd4d77b9b9",
    "analyze.json": "a412dbc9af59f99940ba7df04d3bc2d1003f6fa5c54b3e03473f4346ebaa20f9",
    "mask-stats.json": "7afd4b841570b65e12a46a7fa4e765c4199405a1a1aee92323e2808cea853fd2",
}


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def compute_digests(root: Path) -> dict[str, str]:
    """Produce every fingerprinted output under ``root``; name -> sha256."""
    digests = {}
    for mode in MODES:
        run = run_config_from_dict(
            {"masking": {"mode": mode}, "training": {"seed": 3, "total_steps": 40}}
        )
        res = pretrain_run(run, str(root / mode))
        digests[f"{mode}/loss.csv"] = _sha256(res.loss_csv)
        digests[f"{mode}/report.json"] = _sha256(res.report_json)
        digests[f"{mode}/params.bin"] = _sha256(Path(res.checkpoint_dir) / "params.bin")
    analyze_out = root / "analyze.json"
    if main(["analyze", "--checkpoint", str(root / "randommask" / "checkpoint"),
             "--out", str(analyze_out)]) != 0:
        raise RuntimeError("analyze failed")
    digests["analyze.json"] = _sha256(analyze_out)
    stats_out = root / "mask-stats.json"
    if main(["mask-stats", "--seed", "3", "--samples", "200", "--out", str(stats_out)]) != 0:
        raise RuntimeError("mask-stats failed")
    digests["mask-stats.json"] = _sha256(stats_out)
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("fingerprints"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_fingerprint(digests, name):
    assert digests[name] == EXPECTED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(compute_digests(Path(tmp)), sys.stdout, indent=4)
        print()
