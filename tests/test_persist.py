"""Model files: the JSON number decoder, and the memo behind load_model.

The decoder must accept the same JSON values as the object-array decoder it
replaced, with the same array bit for bit, and reject the same values with
the same message. load_model must build each distinct file once, keyed by
its bytes, keep no failure, and hand out models no caller can change.
"""

import json
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gwquant.sgpr
import gwquant.vhgpr
from gwquant import persist
from gwquant.errors import SchemaMismatchError
from gwquant.kernels import KernelParams
from gwquant.persist import _numbers, load_model, read_ascii, save_model
from gwquant.sgpr import SgprModel
from gwquant.vhgpr import VhgprModel, VhgprState


def _object_array_numbers(ndim):
    """The decoder as it was: numpy discovers the shape of an object array."""

    def decode(value):
        array = np.array(value, dtype=object)
        if array.ndim != ndim or not {type(v) for v in array.flat} <= {int, float}:
            raise ValueError(f"expected {ndim}-D numbers")
        try:
            array = array.astype(float)
        except OverflowError:
            raise ValueError("an integer beyond a double") from None
        if not np.all(np.isfinite(array)):
            raise ValueError("expected finite numbers")
        return float(array) if ndim == 0 else array

    return decode


def _outcome(decode, value):
    """("ok", shape, dtype, bytes) of the decoded value, or ("error", message)."""
    try:
        result = decode(value)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(result, float):
        return ("ok", type(result), np.float64(result).tobytes())
    return ("ok", result.shape, result.dtype, result.tobytes())


NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
)
LEAVES = st.one_of(
    NUMBERS,
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), 2**1024 - 1]),
)
# any JSON value, mostly lists
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=1), children, max_size=1)
    ),
    max_leaves=12,
)


def _grid(leaves, depth):
    """Rectangular lists depth deep, some of whose leaves are not numbers."""
    if depth == 0:
        return leaves
    return st.integers(0, 3).flatmap(
        lambda width: st.lists(_grid(leaves, depth - 1), min_size=width, max_size=width)
    )


MIXED = st.one_of(NUMBERS, NUMBERS, NUMBERS, LEAVES)
SHAPED = st.one_of(VALUES, *(_grid(MIXED, d) for d in (1, 2, 3)))


@pytest.mark.parametrize("ndim", [0, 1, 2])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=SHAPED)
@example(value=[])
@example(value=[[]])
@example(value=[[], []])
@example(value=[[1, 2], [3]])
@example(value=[[1.5], []])
@example(value=[[1, [2]], [3, 4]])
@example(value=[[[1.0]]])
@example(value=[[0.5, 10**400]])
@example(value=[True, 1])
@example(value=-0.0)
@example(value=[[-0.0, 2**60 + 1]])
def test_decoder_matches_the_object_array_decoder(ndim, value):
    # as read from a file: json.loads gives the same values back
    value = json.loads(json.dumps(value))
    assert _outcome(_numbers(ndim), value) == _outcome(_object_array_numbers(ndim), value)


@pytest.mark.parametrize(
    "value",
    [True, False, 0, 1, -7, 2**1024 - 1, 2**1024, -(2**1024), 10**400, 2.5, -0.0, 5e-324,
     float("nan"), float("inf"), -float("inf"), np.float64(0.5), np.float64("nan"), np.int64(3),
     np.bool_(True), np.float32(1.5), "1", None, [1.0], {}],
    ids=repr,
)
def test_a_scalar_is_decoded_as_the_object_array_decoder_decodes_it(value):
    """_numbers(0) takes a Python int or float without an array: each value,
    a bool and a numpy scalar among them, is accepted or refused as before."""
    assert _outcome(_numbers(0), value) == _outcome(_object_array_numbers(0), value)


# load_model's memo: one build per distinct file text


@pytest.fixture
def memo(monkeypatch):
    """An empty memo, and counters of the builds and factorizations made."""
    monkeypatch.setattr(persist, "_model_memo", {})
    counts = {"builds": 0, "factorizations": 0}

    def counting(fn, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(persist, "model_from_dict", counting(persist.model_from_dict, "builds"))
    for module in (gwquant.sgpr, gwquant.vhgpr):
        cholesky = counting(module.robust_cholesky, "factorizations")
        monkeypatch.setattr(module, "robust_cholesky", cholesky)
    return counts


def _sgpr(log_noise=-4.0, n=4) -> SgprModel:
    x = np.arange(float(n)).reshape(-1, 1)
    y = np.linspace(0.1, 0.4, n)
    return SgprModel.from_hyperparams(KernelParams(0.0, [0.0]), log_noise, x, y)


def _vhgpr() -> VhgprModel:
    x = np.repeat(np.arange(3.0), 2).reshape(-1, 1)
    kernel = KernelParams(0.0, [0.0])
    state = VhgprState(kernel, kernel, -3.0, np.full(x.shape[0], 0.5))
    return VhgprModel.from_state(state, x, 0.1 * x.ravel())


def test_a_second_load_of_the_same_text_builds_nothing(memo, tmp_path):
    for name, model in (("sgpr.json", _sgpr()), ("vhgpr.json", _vhgpr())):
        save_model(tmp_path / name, model)
        first = load_model(tmp_path / name)
        built = dict(memo)
        assert built["builds"] >= 1 and built["factorizations"] >= 1
        assert load_model(tmp_path / name) is first
        assert memo == built
    # the key is the text: a copy at another path is the same model
    (tmp_path / "copy.json").write_text((tmp_path / "sgpr.json").read_text())
    assert load_model(tmp_path / "copy.json") is load_model(tmp_path / "sgpr.json")
    assert memo == built


def test_a_byte_identical_copy_is_a_memo_hit(memo, tmp_path):
    save_model(tmp_path / "model.json", _vhgpr())
    first = load_model(tmp_path / "model.json")
    built = dict(memo)
    shutil.copyfile(tmp_path / "model.json", tmp_path / "copy.json")
    assert load_model(tmp_path / "copy.json") is first
    assert memo == built


@pytest.mark.parametrize(
    "change",
    [
        lambda data: data[:-1] + b" ",  # the last newline made a space
        lambda data: data.replace(b"\n", b"\r\n"),  # the same text in text mode
        lambda data: data.replace(b'"d": 1', b'"d": 1 ', 1),
    ],
    ids=["trailing-space", "crlf", "inner-space"],
)
def test_a_file_one_byte_apart_is_built_again(memo, tmp_path, change):
    path = tmp_path / "model.json"
    save_model(path, _sgpr())
    first = load_model(path)
    data = path.read_bytes()
    path.write_bytes(change(data))
    assert path.read_bytes() != data
    second = load_model(path)
    assert second is not first
    assert memo["builds"] == 2
    xq = np.array([[0.5], [2.5]])
    assert first.predict(xq).mean.tobytes() == second.predict(xq).mean.tobytes()
    # both are kept: each set of bytes finds its own model
    path.write_bytes(data)
    assert load_model(path) is first
    assert memo["builds"] == 2


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_non_ascii_model_file_names_its_line_as_read_ascii_does(memo, tmp_path, newline):
    path = tmp_path / "model.json"
    save_model(path, _sgpr())
    lines = path.read_text().splitlines()
    lines[2] = lines[2] + "\u00e9"
    path.write_bytes(newline.join(lines).encode("latin-1"))
    with pytest.raises(SchemaMismatchError) as read:
        read_ascii(path, SchemaMismatchError)
    assert str(read.value) == f"{path}: line 3: not ASCII text"
    for _ in range(2):
        with pytest.raises(SchemaMismatchError) as loaded:
            load_model(path)
        assert str(loaded.value) == str(read.value)
        assert loaded.value.line == 3
    assert persist._model_memo == {} and memo["builds"] == 0


def test_a_path_with_a_nul_byte_is_refused(memo, tmp_path):
    path = str(tmp_path / "model\0.json")
    with pytest.raises(SchemaMismatchError, match="cannot open"):
        load_model(path)
    assert persist._model_memo == {}


def test_a_rewritten_file_is_read_afresh(memo, tmp_path):
    path = tmp_path / "model.json"
    save_model(path, _sgpr(log_noise=-4.0))
    assert load_model(path).log_noise_variance == -4.0
    save_model(path, _sgpr(log_noise=-2.0))
    assert load_model(path).log_noise_variance == -2.0
    assert memo["builds"] == 2


# text -> the error it raises, which names the file unless the JSON is sound
FAILED_LOADS = {
    '{"schema": ': "bad.json: not a model file",
    "\u00e9": "bad.json: line 1: not ASCII text",
    '{"schema": "gwquant.sgpr.v1"}': "model lacks key 'kernel'",
}


@pytest.mark.parametrize("text", sorted(FAILED_LOADS))
def test_a_failed_load_keeps_nothing(memo, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    for _ in range(2):
        with pytest.raises(SchemaMismatchError, match=FAILED_LOADS[text]):
            load_model(path)
    assert persist._model_memo == {}


def test_a_model_whose_build_overflows_raises_in_any_error_state_and_is_not_kept(memo, tmp_path):
    path = tmp_path / "overflow.json"
    payload = persist.model_to_dict(_sgpr())
    payload["kernel"]["log_length_scales"] = [1e300]
    path.write_text(json.dumps(payload))
    with np.errstate(all="ignore"):
        for _ in range(2):
            with pytest.raises(FloatingPointError, match="overflow"):
                load_model(path)
    assert persist._model_memo == {}


def test_a_loaded_model_is_read_only(memo, tmp_path):
    for name, model in (("sgpr.json", _sgpr()), ("vhgpr.json", _vhgpr())):
        save_model(tmp_path / name, model)
        loaded = load_model(tmp_path / name)
        arrays = [v for v in vars(loaded).values() if isinstance(v, np.ndarray)]
        arrays += [loaded.kernel.log_length_scales, loaded.unique_inputs]
        if isinstance(loaded, VhgprModel):
            arrays.append(loaded.kernel_g.log_length_scales)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            loaded.alpha[0] = 1.0
        # and the model still predicts what the model it was saved from does
        xq = np.array([[0.5], [1.5]])
        expected, got = model.predict(xq), loaded.predict(xq)
        assert np.array_equal(expected.mean, got.mean)
        assert np.array_equal(expected.variance, got.variance)


def test_the_memo_keeps_at_most_its_size_dropping_the_least_recently_used(memo, tmp_path):
    size = persist._MODEL_MEMO_SIZE
    paths = []
    for i in range(size + 2):
        paths.append(tmp_path / f"model{i}.json")
        save_model(paths[-1], _sgpr(log_noise=-1.0 - i))
    for path in paths[:size]:
        load_model(path)
    load_model(paths[0])  # now the most recently used
    for path in paths[size:]:
        load_model(path)
        assert len(persist._model_memo) == size
    assert memo["builds"] == size + 2
    load_model(paths[0])
    assert memo["builds"] == size + 2
    load_model(paths[1])  # the least recently used, dropped first
    assert memo["builds"] == size + 3
    assert len(persist._model_memo) == size


def test_threads_sharing_the_memo_each_get_the_model_of_their_file(memo, tmp_path):
    size = persist._MODEL_MEMO_SIZE
    paths = []
    for i in range(size + 2):  # more texts than the memo keeps, so threads evict
        paths.append(tmp_path / f"model{i}.json")
        save_model(paths[-1], _sgpr(log_noise=-1.0 - i))
    errors = []

    def client(k):
        try:
            for j in range(200):
                i = (j + k) % len(paths)
                assert load_model(paths[i]).log_noise_variance == -1.0 - i
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(persist._model_memo) == size
