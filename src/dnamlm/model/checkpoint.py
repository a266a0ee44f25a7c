"""Checkpoint format: JSON manifest plus one little-endian raw tensor blob.

The blob's layout follows from the model config alone: every parameter in
``param_shapes`` order, then each parameter's moments ``m`` and ``v`` when
optimizer state is saved, all in ``config.dtype``.  The manifest (schema 2)
holds the step, model config, optimizer hyperparameters and run config,
and the blob's length and sha256, which loading checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigInvalid
from .config import ModelConfig, check_types, param_shapes, type_checks
from .optimizer import OptimizerState
from .params import ModelParams

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
SCHEMA_VERSION = 2


@dataclass
class Checkpoint:
    params: ModelParams
    opt_state: OptimizerState | None
    step: int
    run_config: dict | None


_CHECKS = {cls: type_checks(cls) for cls in (Checkpoint, ModelConfig, OptimizerState)}


def _layout(config: ModelConfig, moments: bool) -> list[tuple[str, str, tuple[int, ...]]]:
    """(group, name, shape) of every tensor in blob order; the groups are param, m and v."""
    shapes = param_shapes(config).items()
    return [("param", name, shape) for name, shape in shapes] + [
        (group, name, shape) for name, shape in shapes for group in ("m", "v") if moments]


def _write_then_replace(path: str, chunks) -> int:
    """Write ``chunks`` to ``path`` + ".tmp", move it over ``path``; return its size."""
    with open(path + ".tmp", "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        size = fh.tell()
    os.replace(path + ".tmp", path)
    return size


def save_checkpoint(
    directory: str,
    params: ModelParams,
    opt_state: OptimizerState | None = None,
    step: int = 0,
    run_config: dict | None = None,
) -> str:
    """Write ``params.bin``, then ``manifest.json``, each via a temp file and ``os.replace``.

    A crash between the two moves leaves the new blob beside the old
    manifest, whose sha256 then refuses it.
    """
    os.makedirs(directory, exist_ok=True)
    groups = {"param": params.arrays}
    optimizer = None
    if opt_state is not None:
        groups.update(m=opt_state.m, v=opt_state.v)
        optimizer = {k: v for k, v in vars(opt_state).items() if k not in ("m", "v")}
    dtype = np.dtype(params.config.dtype).newbyteorder("<")
    digest = hashlib.sha256()

    def chunks():
        for group, name, _shape in _layout(params.config, opt_state is not None):
            data = np.ascontiguousarray(groups[group][name], dtype=dtype)
            digest.update(data)
            yield data

    blob_bytes = _write_then_replace(os.path.join(directory, BLOB_NAME), chunks())
    manifest = {
        "schema": SCHEMA_VERSION,
        "step": int(step),
        "model_config": asdict(params.config),
        "optimizer": optimizer,
        "run_config": run_config,
        "blob_bytes": blob_bytes,
        "blob_sha256": digest.hexdigest(),
    }
    text = json.dumps(manifest, indent=2) + "\n"  # ASCII: json escapes the rest
    _write_then_replace(os.path.join(directory, MANIFEST_NAME), [text.encode()])
    return directory


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint back; arrays compare bit-equal to what was saved.

    Raises :class:`ConfigInvalid` for an unreadable checkpoint, a manifest
    that is not schema-2 JSON with every key or whose step, ``model_config``
    or ``optimizer`` fails its fields' checks, or a blob whose length or
    sha256 differs from what the manifest and model config say.
    """
    try:
        with open(os.path.join(directory, MANIFEST_NAME), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(os.path.join(directory, BLOB_NAME), "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read checkpoint {directory!r}: {exc}") from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigInvalid(f"checkpoint {directory!r} manifest is not valid JSON: {exc}") from None
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported checkpoint schema {schema!r}")
    try:
        return _decode(manifest, blob)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"malformed checkpoint manifest in {directory!r}: {exc!r}") from None


def _decode(manifest: dict, blob: bytes) -> Checkpoint:
    step, run_config = manifest["step"], manifest.get("run_config")
    check_types(_CHECKS[Checkpoint], {"step": step, "run_config": run_config}, "checkpoint")
    if step < 0:
        raise ConfigInvalid(f"checkpoint step must be >= 0, got {step}")
    check_types(_CHECKS[ModelConfig], manifest["model_config"], "model_config")
    opt = manifest["optimizer"]
    if opt is not None:
        check_types(_CHECKS[OptimizerState], opt, "optimizer")
    config = ModelConfig(**manifest["model_config"])
    layout = _layout(config, opt is not None)
    sizes = [math.prod(shape) for *_, shape in layout]
    dtype = np.dtype(config.dtype).newbyteorder("<")
    implied = sum(sizes) * dtype.itemsize
    if not len(blob) == manifest["blob_bytes"] == implied:
        raise ConfigInvalid(f"{BLOB_NAME} holds {len(blob)} bytes, its manifest says "
                            f"{manifest['blob_bytes']!r} and its config implies {implied}")
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise ConfigInvalid(f"{BLOB_NAME} does not match the sha256 in its manifest")
    groups: dict[str, dict[str, np.ndarray]] = {"param": {}, "m": {}, "v": {}}
    parts = np.split(np.frombuffer(blob, dtype), np.cumsum(sizes)[:-1])
    for (group, name, shape), part in zip(layout, parts):
        groups[group][name] = part.reshape(shape).astype(config.dtype)
    params = ModelParams(config=config, arrays=groups["param"])
    opt_state = None if opt is None else OptimizerState(**opt, m=groups["m"], v=groups["v"])
    return Checkpoint(params=params, opt_state=opt_state, step=step, run_config=run_config)
