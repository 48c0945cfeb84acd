"""The outside boundary: fuzzed input files and values, and the one place
that opens files.

Every kind of file the CLI reads is fuzzed by splicing random bytes into a
valid example, or by replacing it with random bytes; every settings flag,
config key, ``--test-di`` and ``--known-load`` is fuzzed with random text.
The CLI must exit 0, or exit 1 with one ``error:`` line, and must never
raise.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gwquant.cli import _COMMAND_SECTIONS, _SECTIONS, build_parser, main
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


# a tiny simulation, and a cheap training run
VALUE_CONFIG = (
    "simulation.center_frequency = 250e3\nsimulation.sample_rate = 1e6\n"
    "simulation.n_cycles = 1\nsimulation.n_samples = 8\n"
    "simulation.damage_grid = 0 1\nsimulation.load_grid = 0\ntrain.restarts = 1\n"
)

# command -> its argv, run in the values directory with --config value.cfg
COMMAND_ARGV = {
    "simulate": ["simulate"],
    "di": ["di", "--workdir", "work", "--out", "di.csv"],
    "train": ["train", "--di-file", "train.csv", "--model-file", "trained.json"],
    "predict": ["predict", "--model-file", "model2.json", "--test-di", "0.15", "--known-load", "0"],
}
# section -> the first command that reads it
SECTION_COMMANDS = {
    section: command
    for command, sections in reversed(_COMMAND_SECTIONS.items())
    for section in sections
}
SETTINGS_FIELDS = {f.name for cls in _SECTIONS.values() for f in fields(cls)}


def _settings_flags():
    """(command, flag, argparse action) of every flag whose dest is a settings field."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return [
        (command, action.option_strings[0], action)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.dest in SETTINGS_FIELDS
    ]


# (command, flag or config key) of each value the user can write
VALUE_TARGETS = sorted(
    [
        (SECTION_COMMANDS[section], f"{section}.{f.name}")
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
    ]
    + [("simulate", f"simulation.{grid}") for grid in ("damage_grid", "load_grid")]
    + [(command, flag) for command, flag, _ in _settings_flags()]
    + [("predict", "--test-di"), ("predict", "--known-load")]
)

# random text stays within two characters, so a count (n_samples, restarts,
# grid_refine) keeps every run small, and holds no "/", so a fuzzed workdir
# stays in the test directory; the longer forms are listed here
SPECIAL_TEXTS = [
    "nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e308", "1e-320", "1_0",
    "-0", "-1", "0.5", " 3 ", "true", "false", "rmsd", "as-written", "both", "vhgpr",
]
VALUE_TEXTS = st.one_of(
    st.sampled_from(SPECIAL_TEXTS), st.text(alphabet="0123456789.eE+-_ naifx#=", max_size=2)
)


@pytest.fixture(scope="module")
def values_dir(valid_files):
    """A directory holding what each command of COMMAND_ARGV reads."""
    root, texts = valid_files
    values = root / "values"
    (values / "work").mkdir(parents=True)
    (values / "work" / "manifest.csv").write_bytes(texts["manifest"])
    (values / "work" / "cell.csv").write_bytes(texts["signal"])
    (values / "train.csv").write_text("damage,di\n0,0.1\n0,0.12\n1,0.2\n1,0.23\n")
    save_model(values / "model2.json", _model([(d, w) for d in (0, 1, 2) for w in (0, 5)]))
    return values


@pytest.mark.parametrize("target", VALUE_TARGETS, ids=":".join)
@settings(
    max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(text=VALUE_TEXTS)
def test_fuzzed_value_exits_zero_or_one_with_one_error_line(target, values_dir, text):
    command, where = target
    is_flag = where.startswith("--")
    (values_dir / "value.cfg").write_text(VALUE_CONFIG + ("" if is_flag else f"{where} = {text}\n"))
    argv = [command, "--config", "value.cfg", *COMMAND_ARGV[command][1:]]
    if is_flag:
        argv.append(f"{where}={text}")  # the = form passes text that starts with "-"
    cwd = os.getcwd()
    os.chdir(values_dir)  # a fuzzed workdir is made here
    try:
        code, err = _run(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_each_command_has_one_untyped_flag_per_field_of_its_sections():
    for command, sections in _COMMAND_SECTIONS.items():
        dests = sorted(action.dest for c, _, action in _settings_flags() if c == command)
        assert dests == sorted(f.name for s in sections for f in fields(_SECTIONS[s]))
    typed = [flag for _, flag, action in _settings_flags() if action.type or action.choices]
    assert typed == []


# the settings flags the CLI had before every key got one: (command, flag) -> field
EARLIER_FLAGS = {
    ("simulate", "--workdir"): "workdir", ("simulate", "--seed"): "rng_seed",
    ("di", "--workdir"): "workdir", ("di", "--kind"): "kind", ("di", "--mode"): "mode",
    ("di", "--policy"): "policy", ("di", "--n-use"): "n_use",
    ("di", "--fixed-damage"): "fixed_damage", ("di", "--fixed-load"): "fixed_load",
    ("train", "--model"): "model_kind", ("train", "--restarts"): "restarts",
    ("train", "--seed"): "seed", ("train", "--center-targets"): "center_targets",
    ("train", "--train-fraction"): "train_fraction", ("predict", "--grid-refine"): "grid_refine",
}


@pytest.mark.parametrize("command, flag", sorted(EARLIER_FLAGS), ids=":".join)
def test_each_earlier_flag_sets_the_same_field(command, flag):
    args = build_parser().parse_args([*COMMAND_ARGV[command], f"{flag}=7"])
    assert getattr(args, EARLIER_FLAGS[command, flag]) == "7"


# the functions that may open a file, and the calls no other function makes
FILE_OPENERS = {"_read_bytes", "write_staged"}
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
