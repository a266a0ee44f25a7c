"""Checkpoint format: JSON manifest plus one little-endian raw tensor blob.

The manifest records every tensor's name, dtype, shape, and byte offset
into the blob, along with the model config, optimizer hyperparameters, and
training step, so checkpoints round-trip bit-exactly and runs can resume
deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigInvalid
from .config import ModelConfig
from .optimizer import OptimizerState
from .params import ModelParams

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
SCHEMA_VERSION = 1


@dataclass
class Checkpoint:
    params: ModelParams
    opt_state: OptimizerState | None
    step: int
    run_config: dict | None


def _le_dtype(arr: np.ndarray) -> str:
    return np.dtype(arr.dtype).newbyteorder("<").str


def save_checkpoint(
    directory: str,
    params: ModelParams,
    opt_state: OptimizerState | None = None,
    step: int = 0,
    run_config: dict | None = None,
) -> str:
    """Write ``manifest.json`` and ``params.bin`` under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    tensors = []
    chunks = []
    offset = 0

    def add(name: str, arr: np.ndarray) -> None:
        nonlocal offset
        dt = _le_dtype(arr)
        data = np.ascontiguousarray(arr).astype(dt, copy=False).tobytes()
        tensors.append(
            {"name": name, "dtype": dt, "shape": list(arr.shape),
             "offset": offset, "nbytes": len(data)}
        )
        chunks.append(data)
        offset += len(data)

    for name, arr in params.arrays.items():
        add(f"param.{name}", arr)
    optimizer = None
    if opt_state is not None:
        for name in params.arrays:
            add(f"opt.m.{name}", opt_state.m[name])
            add(f"opt.v.{name}", opt_state.v[name])
        optimizer = {
            "lr": opt_state.lr, "beta1": opt_state.beta1, "beta2": opt_state.beta2,
            "weight_decay": opt_state.weight_decay, "eps": opt_state.eps,
            "step": opt_state.step,
        }

    manifest = {
        "schema": SCHEMA_VERSION,
        "step": int(step),
        "model_config": asdict(params.config),
        "optimizer": optimizer,
        "run_config": run_config,
        "tensors": tensors,
    }
    with open(os.path.join(directory, BLOB_NAME), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return directory


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint back; arrays compare bit-equal to what was saved."""
    try:
        with open(os.path.join(directory, MANIFEST_NAME), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(directory, BLOB_NAME), "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read checkpoint {directory!r}: {exc}") from None
    if manifest.get("schema") != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported checkpoint schema {manifest.get('schema')!r}")

    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        raw = blob[entry["offset"] : entry["offset"] + entry["nbytes"]]
        arr = np.frombuffer(raw, dtype=entry["dtype"]).reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(arr.dtype.newbyteorder("="), copy=True)

    config = ModelConfig(**manifest["model_config"])
    params = ModelParams(
        config=config,
        arrays={n[len("param."):]: a for n, a in arrays.items() if n.startswith("param.")},
    )
    opt_state = None
    if manifest["optimizer"] is not None:
        opt = manifest["optimizer"]
        opt_state = OptimizerState(
            lr=opt["lr"], beta1=opt["beta1"], beta2=opt["beta2"],
            weight_decay=opt["weight_decay"], eps=opt["eps"], step=opt["step"],
            m={n[len("opt.m."):]: a for n, a in arrays.items() if n.startswith("opt.m.")},
            v={n[len("opt.v."):]: a for n, a in arrays.items() if n.startswith("opt.v.")},
        )
    return Checkpoint(
        params=params,
        opt_state=opt_state,
        step=int(manifest["step"]),
        run_config=manifest.get("run_config"),
    )
