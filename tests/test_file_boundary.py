"""The file boundary: fuzzed input files and the one place that opens files.

Every kind of file the CLI reads is fuzzed by splicing random bytes into a
valid example, or by replacing it with random bytes. The CLI must exit 0,
or exit 1 with one ``error:`` line, and must never raise.
"""

import ast
import contextlib
import io
import json
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gwquant.cli import main
from gwquant.kernels import KernelParams
from gwquant.persist import save_model
from gwquant.sgpr import SgprModel

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gwquant"

SIGNALS = (
    "# signal damage=0 load=0 replicate=0 role=test sample_rate=1e6\n1\n2\n0.5\n"
    "\n# signal damage=0 load=0 replicate=1 role=test sample_rate=1e6\n2\n1\n0.25\n"
)


def _report_argv(d):
    return [
        "report", "--pred-file", d / "preds.json", "--true-file", d / "truth.csv",
        "--box-out", d / "box.csv", "--errors-out", d / "errors.csv",
    ]


def _di_argv(d):
    return ["di", "--workdir", d / "work", "--out", d / "out.csv"]


# kind -> (file the fuzzed bytes replace, its valid text, argv in a directory)
KINDS = {
    "di": (
        "di.csv",
        "# di\ndamage,di\n0,0.1\n1,0.2\n2,0.3\n",
        lambda d: ["evaluate", "--model-file", d / "model1.json", "--di-file", d / "di.csv"],
    ),
    "two-state": (
        "two.csv",
        "class,ref_load,ref_damage,di\n1,0,0,0.1\n1,5,0,0.2\n2,0,0,0.1\n2,0,1,0.3\n",
        lambda d: [
            "predict", "--model-file", d / "model3.json", "--two-state",
            "--test-di-file", d / "two.csv",
        ],
    ),
    "truth": ("truth.csv", "damage,load\n0,0\n1,5\n", _report_argv),
    "prediction": (
        "preds.json",
        json.dumps([{"argmax": {"damage": 0, "load": 0}}, {"argmax": {"damage": 1, "load": 5}}]),
        _report_argv,
    ),
    "config": (
        "pipeline.cfg",
        "# rig\ndi.kind = normalized\ndi.n_use = 3\ntrain.seed = 2\n"
        "simulation.damage_grid = 0 1\nquantify.grid_refine = 1\n",
        lambda d: ["di", "--config", d / "pipeline.cfg", *_di_argv(d)[1:]],
    ),
    "model": (
        "model1.json",
        None,  # the saved model
        lambda d: ["predict", "--model-file", d / "model1.json", "--test-di", 0.15],
    ),
    "manifest": (
        "work/manifest.csv", "# seed=0\ndamage,load,n_signals,file\n0,0,2,cell.csv\n", _di_argv
    ),
    "signal": ("work/cell.csv", SIGNALS, _di_argv),
}


def _model(x) -> SgprModel:
    x = np.array(x, dtype=float)
    y = np.linspace(0.1, 0.4, x.shape[0])
    return SgprModel.from_hyperparams(KernelParams(0.0, np.zeros(x.shape[1])), -4.0, x, y)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory holding a valid file of every kind, and their texts."""
    root = tmp_path_factory.mktemp("boundary")
    (root / "work").mkdir()
    save_model(root / "model1.json", _model([[0], [1], [2], [2]]))
    save_model(
        root / "model3.json",
        _model([(d, w, c) for c in (1, 2) for d in (0, 1) for w in (0, 5)]),
    )
    texts = {}
    for kind, (name, text, _) in KINDS.items():
        if text is None:
            text = (root / name).read_text()
        (root / name).write_text(text)
        texts[kind] = text.encode()
    return root, texts


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_files_run(kind, valid_files):
    root, _ = valid_files
    assert _run(KINDS[kind][2](root)) == (0, "")


# a valid text with a random slice replaced by random bytes, or random bytes alone
EDITS = st.one_of(
    st.tuples(st.floats(0, 1), st.integers(0, 16), st.binary(max_size=16)),
    st.binary(max_size=300),
)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(edit=EDITS)
def test_fuzzed_file_exits_zero_or_one_with_one_error_line(kind, valid_files, edit):
    root, texts = valid_files
    name, _, argv = KINDS[kind]
    if isinstance(edit, bytes):
        data = edit
    else:
        at, cut, junk = edit
        base = texts[kind]
        start = int(at * len(base))
        data = base[:start] + junk + base[start + cut:]
    (root / name).write_bytes(data)
    try:
        code, err = _run(argv(root))
    finally:
        (root / name).write_bytes(texts[kind])
    if code != 0:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# the functions that may open a file, and the calls no other function makes
FILE_OPENERS = {"open_ascii", "atomic_write_text"}
OPENING_CALLS = {"open", "fdopen", "read_text", "read_bytes", "loadtxt", "genfromtxt", "fromfile"}


def _calls_outside(tree, allowed_functions, names):
    """(function, line, call) of each call named in names outside allowed_functions."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in names and function not in allowed_functions:
                found.append((function, node.lineno, called))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_the_file_boundary_opens_files(module):
    tree = ast.parse((SRC / module).read_text())
    allowed = FILE_OPENERS if module == "persist.py" else set()
    assert _calls_outside(tree, allowed, OPENING_CALLS) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_the_json_reader_parses_json(module):
    tree = ast.parse((SRC / module).read_text())
    allowed = {"read_json"} if module == "persist.py" else set()
    assert _calls_outside(tree, allowed, {"load", "loads"}) == []


def test_the_guard_sees_a_stray_open():
    tree = ast.parse("def reader(path):\n    with open(path) as fh:\n        return fh.read()\n")
    assert _calls_outside(tree, FILE_OPENERS, OPENING_CALLS) == [("reader", 2, "open")]
    assert (SRC / "persist.py").is_file()
