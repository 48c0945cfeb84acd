"""The program's outside boundary: files, the numbers read from them, and
the versioned model files.

gwquant reads every input file the same way: its bytes in one call
(``_read_bytes``), checked as ASCII in one function (``_ascii_bytes``).
``read_ascii`` gives a text file's text (JSON through ``read_json`` on top
of it), ``read_ascii_bytes`` the same text as bytes; ``load_model`` keys
its memo by a model file's bytes and decodes them only when it builds a
model. gwquant renders its DI, manifest and report CSVs with ``csv_text``.
It writes every file one way: ``write_staged`` creates it in a temporary
directory beside its target (``staging``), ``place`` renames it into
place, and leaving the directory removes what a failure left. So no reader
sees half a file, every output has the mode the umask gives a new file,
and an error names the user's path, never a staging one.
``atomic_write_text`` does this for one file; ``simulate`` stages all its
signal files in one directory and places them in cell order.

Every number read from outside must be finite: ``_text_number`` decodes one
written as text (a cell, a header field, a config value, a flag,
``GWQUANT_SEED``; signal samples are checked per section by ``Signal``),
``_numbers`` one in JSON.

Models are JSON text; the schema id distinguishes the payloads:

    gwquant.sgpr.v1   kernel + noise hyperparameters in log space
    gwquant.vhgpr.v1  both kernels, mu0 and the variational lambda vector

Hyperparameters and training data are stored inline as JSON numbers, whose
repr round-trips float64 exactly; ``train_inputs`` has one column per
covariate, damage first. Building a model from its text decodes it, factors
its matrices and grids its training damages, deterministically, so equal
text gives an equal model: ``load_model`` keeps the last
``_MODEL_MEMO_SIZE`` models it built, keyed by the file's bytes, and returns
the kept one, read-only, when a file holds the same bytes again.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
import threading
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


# a count of array values no machine holds (2**53 float64 values are 64 PiB),
# the bound of a count setting: numpy refuses some larger counts with a
# ValueError, not a MemoryError
_MAX_COUNT = 2**53


_NUMBER_TYPES = {int, float}


def _number(value) -> float:
    """A finite JSON number, not a bool, as a float: the decoder _numbers(0) gives."""
    if type(value) not in _NUMBER_TYPES:
        raise ValueError("expected 0-D numbers")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("an integer beyond a double") from None
    if not math.isfinite(number):
        raise ValueError("expected finite numbers")
    return number


def _numbers(ndim: int):
    """Decoder of a finite JSON number (ndim 0) or an ndim-deep list of them, not a bool.

    The lists must be rectangular, all lists of one level of one length. An
    empty list ends the depth, as numpy reads it: [] is 1-D and [[]] 2-D.
    """
    if ndim == 0:
        return _number

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
        return array

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


def _read_bytes(path, error) -> bytes:
    """The bytes of the file at path, in one unbuffered read; a path that
    holds a NUL byte raises ``error``."""
    try:
        fh = open(path, "rb", buffering=0)
    except ValueError as exc:  # a NUL byte in the path
        raise error(f"cannot open ({exc})", path=path) from None
    with fh:
        return fh.read()


def _ascii_bytes(data: bytes, path, error) -> bytes:
    """The ASCII text of data, the bytes of the file at path, as bytes.

    Newlines are translated as text mode translates them; a non-ASCII byte,
    wherever it lies, raises ``error("not ASCII text", line, path)``, which
    reads ``<path>: line N: not ASCII text``.
    """
    if data.isascii() and b"\r" not in data:
        return data  # nothing to translate
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="ascii").read().encode("ascii")
    except UnicodeDecodeError:
        # latin-1 decodes any byte and splits lines as the ASCII decoder does
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")
        line = next(n for n, text in enumerate(lines, start=1) if not text.isascii())
        raise error("not ASCII text", line, path) from None


def read_ascii_bytes(path, error=InvalidArgumentError) -> bytes:
    """The text of the ASCII file at path, read whole, as bytes.

    A non-ASCII byte raises ``error`` naming the file and the byte's line;
    a path that holds a NUL byte raises ``error`` too.
    """
    return _ascii_bytes(_read_bytes(path, error), path, error)


def read_ascii(path, error=InvalidArgumentError) -> str:
    """The text of the ASCII file at path, read whole: read_ascii_bytes's."""
    return read_ascii_bytes(path, error).decode("ascii")


def read_json(path, kind: str, error=InvalidArgumentError, text: str | None = None):
    """The JSON value of the ASCII file at path, a kind file ("model", ...).

    text, when given, is the file's text already read, and the file is not
    read again. Malformed or too deeply nested text raises ``error`` naming
    the file.
    """
    if text is None:
        text = read_ascii(path, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"not a {kind} file ({exc})", path=path) from None


def _csv_cell(value) -> str:
    if type(value) is float:
        return f"{value:.17g}"
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


@contextlib.contextmanager
def _naming(path):
    """Re-raise the OSError of a file call in the block naming path, the user's
    path, not a staging path random on every run."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


@contextlib.contextmanager
def staging(directory):
    """A new temporary directory in directory to stage files in, removed with what a
    failure left in it on leaving the with block; an OSError making it names directory."""
    with _naming(directory):
        stage = tempfile.TemporaryDirectory(dir=directory)
    with stage as path:
        yield path


def write_staged(stage, target, text: str) -> None:
    """Write text, as ASCII, to a new file in stage, the one ``place`` moves
    to target; an OSError names target."""
    staged = os.path.join(stage, os.path.basename(target))
    with _naming(target), open(staged, "w", encoding="ascii") as fh:
        fh.write(text)


def place(stage, target) -> None:
    """Rename target's file staged in stage into place; an OSError names target."""
    with _naming(target):
        os.replace(os.path.join(stage, os.path.basename(target)), target)


def atomic_write_text(path, text: str) -> None:
    """Write text, as ASCII, to path: staged in a temporary directory beside
    path, then placed; an OSError names path."""
    with _naming(path), staging(os.path.dirname(os.path.abspath(path))) as stage:
        write_staged(stage, path, text)
        place(stage, path)


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
    if x.shape[1] == 0:
        raise SchemaMismatchError(
            f"{schema} model lacks the input column 'damage': its train_inputs has no column"
        )
    for key, value in zip(decoders, hyperparams):
        if isinstance(value, KernelParams) and value.ndim != x.shape[1]:
            raise SchemaMismatchError(
                f"{schema} model has {x.shape[1]} input columns but {key!r} has "
                f"{value.ndim} length scales"
            )
    return cls.from_hyperparams(*hyperparams, x, y, target_offset=offset)


def save_model(path, model, seed: int | None = None) -> None:
    atomic_write_text(path, json.dumps(model_to_dict(model, seed), indent=1) + "\n")


# How many built models load_model keeps, the least recently used dropped first.
_MODEL_MEMO_SIZE = 4
# file bytes -> the read-only model built from them, least recently used first;
# a lookup, build and update hold the lock, so threads never see it half done
_model_memo: dict[bytes, SgprModel | VhgprModel] = {}
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

    The file is read on every call, as bytes; a model built from the same
    bytes before is returned again: it is shared with every caller that
    loaded them, so its arrays are read-only. The bytes are decoded and
    checked as ASCII text only when a model is built from them. A model is
    built under numpy's raising error state, as ``cli.main`` runs commands,
    so what is kept does not depend on the caller's error state; a failed
    build keeps nothing.
    """
    data = _read_bytes(path, SchemaMismatchError)
    with _model_memo_lock:
        model = _model_memo.pop(data, None)
        if model is None:
            text = _ascii_bytes(data, path, SchemaMismatchError).decode("ascii")
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                payload = read_json(path, "model", SchemaMismatchError, text)
                model = _read_only(model_from_dict(payload))
            if len(_model_memo) >= _MODEL_MEMO_SIZE:
                del _model_memo[next(iter(_model_memo))]
        _model_memo[data] = model
    return model
