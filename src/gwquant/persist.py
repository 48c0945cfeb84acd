"""Versioned text (JSON) serialization of trained models.

The schema id distinguishes the payloads:

    gwquant.sgpr.v1   kernel + noise hyperparameters in log space
    gwquant.vhgpr.v1  both kernels, mu0 and the variational lambda vector

Hyperparameters and training data are stored inline as JSON numbers, whose
repr round-trips float64 exactly. Loading rebuilds the cached
factorizations deterministically.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import SchemaMismatchError
from .kernels import KernelParams
from .sgpr import SgprModel
from .vhgpr import VhgprModel

# Schema id -> model class and the keys of its hyperparameters, in the order
# of the class's hyperparams() and from_hyperparams(); the remaining keys
# are common to both schemas.
_SCHEMAS = {
    "gwquant.sgpr.v1": (SgprModel, ("kernel", "log_noise_variance")),
    "gwquant.vhgpr.v1": (
        VhgprModel,
        ("kernel_f", "kernel_g", "mu0", "variational_lambda"),
    ),
}


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encode(value):
    if isinstance(value, KernelParams):
        return {
            "log_output_variance": float(value.log_output_variance),
            "log_length_scales": [float(v) for v in value.log_length_scales],
        }
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    return float(value)


def _decode(value):
    if isinstance(value, dict):
        return KernelParams(
            value["log_output_variance"], np.array(value["log_length_scales"])
        )
    if isinstance(value, list):
        return np.array(value, dtype=float)
    return float(value)


def model_to_dict(model, seed: int | None = None) -> dict:
    schema = next((s for s, (cls, _) in _SCHEMAS.items() if isinstance(model, cls)), None)
    if schema is None:
        raise SchemaMismatchError(f"cannot serialize object of type {type(model).__name__}")
    keys = _SCHEMAS[schema][1]
    payload = {"schema": schema}
    payload.update(zip(keys, map(_encode, model.hyperparams())))
    payload.update(
        d=int(model.ndim),
        target_offset=float(model.target_offset),
        train_inputs=[[float(v) for v in row] for row in model.train_inputs],
        train_targets=[float(v) for v in model.train_targets],
    )
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def model_from_dict(payload):
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema not in _SCHEMAS:
        raise SchemaMismatchError(f"unsupported model schema {schema!r}")
    cls, keys = _SCHEMAS[schema]
    try:
        hyperparams = [_decode(payload[key]) for key in keys]
        x = np.array(payload["train_inputs"], dtype=float)
        y = np.array(payload["train_targets"], dtype=float)
        offset = float(payload["target_offset"])
    except KeyError as exc:
        raise SchemaMismatchError(f"{schema} model lacks key {exc}") from exc
    return cls.from_hyperparams(*hyperparams, x, y, target_offset=offset)


def save_model(path, model, seed: int | None = None) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model, seed), indent=1) + "\n")


def load_model(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaMismatchError(f"{path}: not a model file ({exc})") from exc
    return model_from_dict(payload)
