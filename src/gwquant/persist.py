"""The program's outside boundary: files, the numbers read from them, and
the versioned model files.

gwquant reads every file through ``open_ascii`` (JSON through ``read_json``
on top of it), renders its DI, manifest and report CSVs with ``csv_text``
and writes every file with ``atomic_write_text``. Every number read from
outside must be finite: ``_text_number`` decodes one written as text (a
cell, a header field, a config value, a flag, ``GWQUANT_SEED``; signal
samples are checked per section by ``Signal``), ``_numbers`` one in JSON.

Models are JSON text; the schema id distinguishes the payloads:

    gwquant.sgpr.v1   kernel + noise hyperparameters in log space
    gwquant.vhgpr.v1  both kernels, mu0 and the variational lambda vector

Hyperparameters and training data are stored inline as JSON numbers, whose
repr round-trips float64 exactly. Building a model from its text decodes it
and factors its matrices, deterministically, so equal text gives an equal
model: ``load_model`` keeps the last ``_MODEL_MEMO_SIZE`` models it built,
keyed by the file's text, and returns the kept one, read-only, when a file
holds the same text again.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import fields
from itertools import chain

import numpy as np

from .errors import InvalidArgumentError, SchemaMismatchError
from .kernels import KernelParams
from .sgpr import SgprModel
from .vhgpr import VhgprModel


def _text_number(text: str, kind=float):
    """The finite float (or int, for kind int) that text spells; ValueError otherwise."""
    value = kind(text)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


_NUMBER_TYPES = {int, float}


def _numbers(ndim: int):
    """Decoder of a finite JSON number (ndim 0) or an ndim-deep list of them, not a bool.

    The lists must be rectangular, all lists of one level of one length. An
    empty list ends the depth, as numpy reads it: [] is 1-D and [[]] 2-D.
    """

    def decode(value):
        shape, items = [], [value]
        for _ in range(ndim):
            lengths = set(map(len, items)) if set(map(type, items)) == {list} else set()
            if len(lengths) != 1:
                raise ValueError(f"expected {ndim}-D numbers")
            shape.append(lengths.pop())
            items = list(chain.from_iterable(items))
        if not set(map(type, items)) <= _NUMBER_TYPES:
            raise ValueError(f"expected {ndim}-D numbers")
        try:
            array = np.array(items, dtype=float).reshape(shape)
        except OverflowError:
            raise ValueError("an integer beyond a double") from None
        if not np.isfinite(array).all():
            raise ValueError("expected finite numbers")
        return float(array) if ndim == 0 else array

    return decode


_scalar, _vector, _matrix = _numbers(0), _numbers(1), _numbers(2)


def _kernel(value) -> KernelParams:
    return KernelParams(
        _scalar(value["log_output_variance"]), _vector(value["log_length_scales"])
    )


# Schema id -> model class and the decoder of each hyperparameter key, in
# the order of the class's hyperparams() and from_hyperparams(); the
# _COMMON keys follow in both schemas.
_SCHEMAS = {
    "gwquant.sgpr.v1": (SgprModel, {"kernel": _kernel, "log_noise_variance": _scalar}),
    "gwquant.vhgpr.v1": (
        VhgprModel,
        {"kernel_f": _kernel, "kernel_g": _kernel, "mu0": _scalar, "variational_lambda": _vector},
    ),
}
_COMMON = {"target_offset": _scalar, "train_inputs": _matrix, "train_targets": _vector}


@contextmanager
def open_ascii(path, error=InvalidArgumentError):
    """The text file at path, opened to be read as ASCII and streamed like open.

    A non-ASCII byte raises ``error("not ASCII text", line, path)``, which
    reads ``<path>: line N: not ASCII text``, in place of a UnicodeDecodeError;
    a path that holds a NUL byte raises ``error`` too.
    """
    try:
        fh = open(path, "r", encoding="ascii")
    except ValueError as exc:  # a NUL byte in the path
        raise error(f"cannot open ({exc})", path=path) from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # text mode decodes whole blocks, so the line is found afresh;
            # latin-1 decodes any byte and splits lines as the ASCII reader does
            with open(path, "r", encoding="latin-1") as text:
                line = next((n for n, ln in enumerate(text, start=1) if not ln.isascii()), None)
            raise error("not ASCII text", line, path) from None


def read_json(path, kind: str, error=InvalidArgumentError, text: str | None = None):
    """The JSON value of the ASCII file at path, a kind file ("model", ...).

    text, when given, is the file's text already read, and the file is not
    read again. Malformed or too deeply nested text raises ``error`` naming
    the file.
    """
    if text is None:
        with open_ascii(path, error) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"not a {kind} file ({exc})", path=path) from None


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(map(_csv_cell, value))
    return f"{value:.17g}"


def csv_text(header: str, rows, comment: str | None = None) -> str:
    """An optional ``# comment`` line, the header line, then one line per row.

    A number cell is written with 17 significant digits, which round-trips
    a double; text is written as is, None as an empty cell and a list as
    its items joined by ``;``.
    """
    lines = [f"# {comment}"] if comment else []
    lines.append(header)
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


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
    if not isinstance(schema, str) or schema not in _SCHEMAS:
        raise SchemaMismatchError(f"unsupported model schema {schema!r}")
    cls, decoders = _SCHEMAS[schema]
    values = []
    for key, decode in [*decoders.items(), *_COMMON.items()]:
        if key not in payload:
            raise SchemaMismatchError(f"{schema} model lacks key {key!r}")
        try:
            values.append(decode(payload[key]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaMismatchError(f"{schema} model has a malformed {key!r} ({exc})") from exc
    *hyperparams, offset, x, y = values
    if x.shape[0] != y.size:
        raise SchemaMismatchError(f"{schema} model has {x.shape[0]} inputs but {y.size} targets")
    return cls.from_hyperparams(*hyperparams, x, y, target_offset=offset)


def save_model(path, model, seed: int | None = None) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model, seed), indent=1) + "\n")


# How many built models load_model keeps, the least recently used dropped first.
_MODEL_MEMO_SIZE = 4
# file text -> the read-only model built from it, least recently used first;
# a lookup, build and update hold the lock, so threads never see it half done
_model_memo: dict[str, SgprModel | VhgprModel] = {}
_model_memo_lock = threading.Lock()


def _read_only(model):
    """model, with each of its arrays, its kernels' too, made read-only."""
    values = [getattr(model, f.name) for f in fields(model)]
    values += [v.log_length_scales for v in values if isinstance(v, KernelParams)]
    for value in values:
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return model


def load_model(path):
    """The model saved at path; malformed JSON raises an error naming the file.

    A model built from text loaded before is returned again: it is shared
    with every caller that loaded that text, so its arrays are read-only. A
    model is built under numpy's raising error state, as ``cli.main`` runs
    commands, so what is kept does not depend on the caller's error state;
    a failed build keeps nothing.

    The model also carries ``_row_variance``, where ``quantify`` keeps each
    training row's predicted variance, by row, once it has predicted it, and
    ``_damage_grid``, the unrefined StateGrid of its training damages that
    ``predict`` scores over (None for a model with no input column); a
    shared model must not be changed, or what it keeps would go stale.
    """
    # imported here: quantify imports this module, through damage_index
    from .quantify import StateGrid

    with open_ascii(path, SchemaMismatchError) as fh:
        text = fh.read()
    with _model_memo_lock:
        model = _model_memo.pop(text, None)
        if model is None:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                payload = read_json(path, "model", SchemaMismatchError, text)
                model = _read_only(model_from_dict(payload))
            model._row_variance = {}
            model._damage_grid = (
                StateGrid.from_training_inputs(model.train_inputs, include_load=False)
                if model.ndim
                else None
            )
            if len(_model_memo) >= _MODEL_MEMO_SIZE:
                del _model_memo[next(iter(_model_memo))]
        _model_memo[text] = model
    return model
