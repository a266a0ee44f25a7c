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
from .config import ModelConfig, param_shapes
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
    """Read a checkpoint back; arrays compare bit-equal to what was saved.

    A checkpoint that cannot be read, whose manifest is not valid JSON,
    lacks a key or holds one of the wrong type, whose parameter or moment
    tensors do not match its model config, or whose blob is shorter than
    the manifest says raises :class:`ConfigInvalid`.
    """
    try:
        with open(os.path.join(directory, MANIFEST_NAME), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(directory, BLOB_NAME), "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read checkpoint {directory!r}: {exc}") from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigInvalid(
            f"checkpoint {directory!r} manifest is not valid JSON: {exc}"
        ) from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported checkpoint schema {schema!r}")
    try:
        return _decode(manifest, blob)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed checkpoint manifest in {directory!r}: {exc!r}") from None


def _decode(manifest: dict, blob: bytes) -> Checkpoint:
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        start = entry["offset"]
        end = start + entry["nbytes"]
        if end > len(blob):
            raise ConfigInvalid(
                f"{BLOB_NAME} holds {len(blob)} bytes but tensor {entry['name']!r} ends at {end}"
            )
        arr = np.frombuffer(blob[start:end], dtype=entry["dtype"]).reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(arr.dtype.newbyteorder("="), copy=True)

    config = ModelConfig(**manifest["model_config"])
    shapes = param_shapes(config)

    def group(prefix: str) -> dict[str, np.ndarray]:
        out = {n[len(prefix):]: a for n, a in arrays.items() if n.startswith(prefix)}
        if {n: a.shape for n, a in out.items()} != shapes:
            raise ConfigInvalid(f"checkpoint {prefix}* tensors do not match its model config")
        return out

    params = ModelParams(config=config, arrays=group("param."))
    opt_state = None
    if manifest["optimizer"] is not None:
        opt = manifest["optimizer"]
        opt_state = OptimizerState(
            lr=opt["lr"], beta1=opt["beta1"], beta2=opt["beta2"],
            weight_decay=opt["weight_decay"], eps=opt["eps"], step=opt["step"],
            m=group("opt.m."), v=group("opt.v."),
        )
    return Checkpoint(
        params=params,
        opt_state=opt_state,
        step=int(manifest["step"]),
        run_config=manifest.get("run_config"),
    )
