"""Command-line pipeline: simulate -> di -> train -> predict/evaluate/report.

Configuration file grammar (no external parser): one ``section.key = value``
per line, ``#`` starts a comment, blank lines ignored. Grids are
space-separated numbers. Example::

    simulation.center_frequency = 250e3
    simulation.sample_rate = 6e6
    simulation.damage_grid = 0 1 2 3 4
    simulation.load_grid = 0 5 10 15
    di.kind = rmsd
    train.model_kind = sgpr
    train.train_fraction = 0.5
    paths.workdir = out

Each value takes the type of its key's default: an integer, a finite
number, ``true``/``false`` or text, which its section then checks (a choice,
a range). Every key of the sections a command reads (``_COMMAND_SECTIONS``)
also has a flag ``--<key with dashes>``; ``--model`` (``train.model_kind``)
and simulate's ``--seed`` (``simulation.rng_seed``) are the renames, and
``gwquant <command> --help`` lists them. A flag's text replaces the key's
value and is typed and checked as the key's would be; an error names the
config line, the flag or ``GWQUANT_SEED``.

The environment variable ``GWQUANT_SEED`` overrides any configured or
flag-provided seed. Every subcommand is deterministic given identical
inputs and seed. Files pass through ``persist``: every input file must be
ASCII text, every number read must be finite, and every output file is
staged in a temporary directory beside it and renamed into place; an error
names the path given.

``simulate`` writes, and ``di`` reads, its signal files on up to as many
forked worker processes as the process has usable CPUs (``_fan_out``). There
is no setting: the output bytes and every error message are those of one
process working alone. ``di`` checks its whole manifest before it opens a
signal file; ``simulate`` stages the cells in one temporary directory of
the workdir and renames them into place in cell order.

Each command's flags are declared once, in ``_COMMAND_FLAGS``, from which
the argparse parser is built. ``main`` reads a plain argv, a command and
then only its full flag names, each value a non-empty word not starting with
``-``, straight from that table (``_plain_args``), into the namespace
``build_parser().parse_args`` returns. Any other argv (help, ``--flag=value``,
an abbreviation, a usage error) goes to ``build_parser().parse_args`` itself,
the grammar and the only source of usage errors and help text.

Exit codes: 0 success, 1 domain error (single-line ``error: ...`` message on
stderr), including a bad flag value, a numpy overflow, invalid or
divide-by-zero error and a ``UserWarning``, 2 usage error (a missing or
unknown flag).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from itertools import product
from types import SimpleNamespace

import numpy as np

from .damage_index import (
    DEFAULT_N_USE,
    DI_HEADERS,
    DiDataset,
    build_di_dataset,
    di_to_csv_text,
    read_csv_table,
    read_di_csv,
)
from .errors import (
    CovariateMismatchError,
    DimensionMismatchError,
    GwquantError,
    InvalidArgumentError,
)
from .persist import _scalar, _text_number, atomic_write_text, csv_text, load_model, read_ascii
from .persist import _MAX_COUNT, place, read_json, save_model, staging, write_staged
from .quantify import (
    DEFAULT_LOW_CONFIDENCE_THRESHOLD,
    score_test_dis,
    two_state_scores,
    summarize_predictions,
)
from .sgpr import OptimizerConfig, evaluate_fit, train_sgpr
from .signals import (
    SimulationConfig,
    read_signals_csv,
    signals_to_csv_text,
    simulate_dataset,
)
from .vhgpr import train_vhgpr

SEED_ENV_VAR = "GWQUANT_SEED"

_POLICY_NAMES = {
    "class1": "healthy_per_load",
    "class2": "unloaded_per_damage",
    "both": "both_classes",
    "fixed": "fixed",
}


def _check_choice(name: str, value: str, choices) -> None:
    if value not in choices:
        raise InvalidArgumentError(f"{name} must be one of {', '.join(choices)}; got {value!r}")


@dataclass
class DiConfig:
    kind: str = "rmsd"
    mode: str = "projection"
    policy: str = "class1"
    n_use: int = DEFAULT_N_USE
    fixed_damage: float = 0.0
    fixed_load: float = 0.0

    def __post_init__(self):
        self.mode = self.mode.replace("-", "_")
        _check_choice("di.kind", self.kind, ("rmsd", "normalized"))
        _check_choice("di.mode", self.mode, ("projection", "as_written"))
        _check_choice("di.policy", self.policy, tuple(_POLICY_NAMES))
        if self.n_use < 1:
            raise InvalidArgumentError("n_use must be >= 1")


@dataclass
class TrainConfig:
    model_kind: str = "sgpr"
    restarts: int = 5
    seed: int = 0
    center_targets: bool = False
    train_fraction: float = 0.5

    def __post_init__(self):
        _check_choice("train.model_kind", self.model_kind, ("sgpr", "vhgpr"))
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidArgumentError("train_fraction must be in (0, 1)")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be >= 0")


@dataclass
class QuantifyConfig:
    grid_refine: int = 0
    low_confidence_threshold: float = DEFAULT_LOW_CONFIDENCE_THRESHOLD

    def __post_init__(self):
        if self.grid_refine < 0:
            raise InvalidArgumentError("grid_refine must be >= 0")
        if self.grid_refine > _MAX_COUNT:
            raise InvalidArgumentError(f"grid_refine must be <= {_MAX_COUNT}")
        if not 0.0 <= self.low_confidence_threshold <= 1.0:
            raise InvalidArgumentError("low_confidence_threshold must be in [0, 1]")


@dataclass
class PathsConfig:
    workdir: str = "gwquant-out"

    def __post_init__(self):
        if "\0" in self.workdir:
            raise InvalidArgumentError("workdir must not hold a NUL byte")


@dataclass
class PipelineConfig:
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    damage_grid: list[float] = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 4.0])
    load_grid: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0])
    di: DiConfig = field(default_factory=DiConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    quantify: QuantifyConfig = field(default_factory=QuantifyConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


# PipelineConfig field -> the factory of its default
_DEFAULTS = {f.name: f.default_factory for f in fields(PipelineConfig)}
_GRIDS = ("damage_grid", "load_grid")
# section -> its class (its default's factory), in PipelineConfig's order
_SECTIONS = {name: cls for name, cls in _DEFAULTS.items() if name not in _GRIDS}
# command -> {section it reads: the field GWQUANT_SEED sets, or None}
_COMMAND_SECTIONS = {
    "simulate": {"simulation": "rng_seed", "paths": None},
    "di": {"di": None, "paths": None},
    "train": {"train": "seed"},
    "predict": {"quantify": None},
}
_SECTION_FIELDS = {section: [f.name for f in fields(cls)] for section, cls in _SECTIONS.items()}
# field -> its flag, where the flag is not the field name in dashes
_FLAG_NAMES = {"model_kind": "--model", "rng_seed": "--seed"}


def _flag(name: str) -> str:
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))


_TYPE_NAMES = {
    bool: "true or false", int: "an integer", float: "a finite number",
    list: "space-separated numbers",
}


def _typed(text: str, kind, where: str):
    """text as a kind (bool, int, float, a list of floats or str); where names it in errors."""
    try:
        if kind is bool:
            return {"true": True, "false": False}[text.lower()]
        if kind is list:
            return [_text_number(v) for v in text.split()]
        return text if kind is str else _text_number(text, kind)
    except (KeyError, ValueError):
        raise InvalidArgumentError(f"{where} must be {_TYPE_NAMES[kind]}, got {text!r}") from None


def _overlay(config, section: str, name: str, source: str, text: str) -> None:
    """Lay the text of one value over field name of the config's section.

    The text takes the field's type, then the section's __post_init__ checks
    it. The source ("config line N", a flag or GWQUANT_SEED) starts errors.
    """
    settings = getattr(config, section)
    kinds = {f.name: type(f.default) for f in fields(settings)}
    if name not in kinds:
        raise InvalidArgumentError(f"{source}: section {section!r} has unknown keys {[name]}")
    where = f"{source}: {section}.{name}" if source.startswith("config") else source
    value = _typed(text, kinds[name], where)
    try:
        setattr(config, section, replace(settings, **{name: value}))
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{source}: {exc}") from None


def parse_config(text: str) -> PipelineConfig:
    """Parse the flat key/value grammar into a validated PipelineConfig."""
    config = PipelineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise InvalidArgumentError(f"config line {lineno}: key must be section.name")
        section, name = key.split(".", 1)
        source = f"config line {lineno}"
        if section == "simulation" and name in _GRIDS:
            setattr(config, name, _typed(value, list, f"{source}: {key}"))
        elif section in _SECTIONS:
            _overlay(config, section, name, source, value)
        else:
            raise InvalidArgumentError(f"{source}: unknown sections {[section]}")
    return config


def load_config(path) -> PipelineConfig:
    return parse_config(read_ascii(path))


def _config(args) -> SimpleNamespace:
    """The sections the command reads (simulate's grids too), from the config file
    or their defaults, with the command's flags, then GWQUANT_SEED, laid over.

    A config file is parsed and checked whole; with none, only the sections
    read are built. A flag's dest names the field it replaces; unset flags
    are None. Each section's seed field takes GWQUANT_SEED over both flag
    and config.
    """
    sections = _COMMAND_SECTIONS[args.command]
    names = [*sections, *(_GRIDS if "simulation" in sections else ())]
    if args.config:
        whole = load_config(args.config)
        config = SimpleNamespace(**{name: getattr(whole, name) for name in names})
    else:
        config = SimpleNamespace(**{name: _DEFAULTS[name]() for name in names})
    for section, seed_field in sections.items():
        for name in _SECTION_FIELDS[section]:
            text = getattr(args, name)
            if text is not None:
                _overlay(config, section, name, _flag(name), text)
        env = None if seed_field is None else os.environ.get(SEED_ENV_VAR)
        if env is not None:
            _overlay(config, section, seed_field, SEED_ENV_VAR, env)
    return config


def split_dataset(dataset: DiDataset, train_fraction: float, seed: int):
    """Stratified per-state split with a seeded shuffle.

    Each state keeps ceil(train_fraction * k) rows for training, capped at
    k - 1 so that every state with >= 2 rows retains a held-out replicate.
    Either side with fewer than 2 rows is an error giving both counts.
    """
    rng = np.random.default_rng(seed)
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(dataset.inputs):
        groups.setdefault(tuple(row), []).append(i)
    train_idx, test_idx = [], []
    for state in sorted(groups):
        idx = np.array(groups[state])
        rng.shuffle(idx)
        k = idx.size
        n_train = max(1, math.ceil(train_fraction * k))
        if k >= 2:
            n_train = min(n_train, k - 1)
        train_idx.extend(idx[:n_train])
        test_idx.extend(idx[n_train:])
    if min(len(train_idx), len(test_idx)) < 2:
        raise InvalidArgumentError(
            f"the per-state split holds out {len(test_idx)} of {dataset.n} rows and "
            f"trains on {len(train_idx)}, and each side needs at least 2: a state "
            "needs 2 or more replicates to hold one out"
        )
    train_idx = sorted(train_idx)
    test_idx = sorted(test_idx)

    def subset(indices):
        return DiDataset(
            dataset.inputs[indices], dataset.targets[indices], list(dataset.column_names)
        )

    return subset(train_idx), subset(test_idx)


MANIFEST_HEADER = "damage,load,n_signals,file"


def _signal_file_name(damage: float, load: float) -> str:
    """Cell file name: each value in ``:g`` form, or its repr when ``:g`` rounds it."""
    text = [f"{v:g}" if float(f"{v:g}") == v else repr(v) for v in (damage, load)]
    return f"signals_d{text[0]}_L{text[1]}.csv"


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


def _fan_out(fn, items: list):
    """An iterator of fn(item) for each item, in order, worked out by forked workers.

    There are min(len(items), usable CPUs) workers; worker w takes items w,
    w + workers, ... and sends each result down its own pipe, which the
    parent reads in item order in its main thread. A worker never raises
    across its pipe: an item it raised on, or left unsent by dying, is run
    again here when the iterator reaches it, so its error is the in-process
    one. Every worker is ended and joined before this returns. With fewer
    than 2 workers, or no fork start method, the items run here through map.

    It is written out rather than built on concurrent.futures: a
    ProcessPoolExecutor version (forked, the items inherited through its
    initializer) gave up the fixed round-robin split and raised the peak
    resident memory of perfbench's front-paper workload from 101-102 MB to
    120-121 MB.
    """
    workers = min(len(items), _usable_cpus())
    if workers < 2:
        return map(fn, items)
    # imported here, so that importing the CLI does not load multiprocessing
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return map(fn, items)
    context = multiprocessing.get_context("fork")
    # a child flushes the buffers it inherits when it exits: empty them first
    # (multiprocessing's fork start does so too; this does not rest on that)
    sys.stdout.flush()
    sys.stderr.flush()
    receivers, processes, results = [], [], {}
    try:
        for w in range(workers):
            # made just before its worker, so no other worker holds its sending end
            receiver, sender = context.Pipe(duplex=False)
            receivers.append(receiver)
            process = context.Process(target=_fan_out_worker, args=(fn, items[w::workers], sender))
            try:
                process.start()
            except OSError:  # no process to be had: its items run here
                pass
            else:
                processes.append(process)
            sender.close()
        for i in range(len(items)):
            try:
                done, result = receivers[i % workers].recv()
            except (EOFError, OSError):  # the worker died, mid-message too, or never started
                continue
            if done:
                results[i] = result
    finally:
        # a worker that has sent its last result has nothing left to do
        for process in processes:
            process.terminate()
        for process in processes:
            process.join()
        for receiver in receivers:
            receiver.close()
    return (results[i] if i in results else fn(item) for i, item in enumerate(items))


def _fan_out_worker(fn, items, sender) -> None:
    """Send (True, fn(item)) for each item in turn, or (False, None) where fn raises."""
    for item in items:
        try:
            message = (True, fn(item))
        except Exception:
            message = (False, None)
        sender.send(message)


def _write_signal_file(cell) -> None:
    stage, target, signals, comment = cell
    write_staged(stage, target, signals_to_csv_text(signals, comment=comment))


def cmd_simulate(args) -> int:
    config = _config(args)
    sim, workdir = config.simulation, config.paths.workdir
    os.makedirs(workdir, exist_ok=True)

    signals = simulate_dataset(sim, config.damage_grid, config.load_grid)
    cells, manifest = [], []
    n = sim.n_replicates
    # workers write the cells into one staging directory, and the cells are
    # placed in cell order: from the first cell that fails, no later cell is
    # left, as when one process writes the cells in turn
    with staging(workdir) as stage:
        for i, (damage, load) in enumerate(product(config.damage_grid, config.load_grid)):
            # simulate_dataset's signals come cell by cell, in this order
            cell = signals[i * n : (i + 1) * n]
            name = _signal_file_name(damage, load)
            cells.append((stage, os.path.join(workdir, name), cell, f"seed={sim.rng_seed}"))
            manifest.append((damage, load, len(cell), name))
        for (_, target, _, _), _ in zip(cells, _fan_out(_write_signal_file, cells)):
            place(stage, target)
    text = csv_text(MANIFEST_HEADER, manifest, comment=f"seed={sim.rng_seed}")
    atomic_write_text(os.path.join(workdir, "manifest.csv"), text)
    print(f"wrote {len(signals)} signals to {workdir}")
    return 0


def _read_workdir_signals(workdir: str):
    """The signals of every file manifest.csv lists, each checked against its row.

    After ``#`` and blank lines, the first line must be MANIFEST_HEADER. A
    row names a distinct file that holds exactly n_signals signals, all at
    the row's (damage, load); no (damage, load, replicate, role) comes twice,
    in one file or across rows. Errors name manifest.csv and the line. The
    whole manifest is checked before any signal file is opened; the files
    are then read by ``_fan_out`` and checked in row order.
    """
    manifest = os.path.join(workdir, "manifest.csv")
    if not os.path.exists(manifest):
        raise InvalidArgumentError(f"no manifest.csv in {workdir}")
    rows = _manifest_rows(manifest)

    def bad(message):
        return InvalidArgumentError(message, lineno, manifest)

    files = _fan_out(read_signals_csv, [os.path.join(workdir, row[-1]) for row in rows])
    signals, first_files = [], {}
    for (lineno, damage, load, count, name), held in zip(rows, files):
        if len(held) != count:
            raise bad(f"{name} holds {len(held)} signals, the row lists {count}")
        for state in (s.state for s in held):
            if (state.damage_size, state.load) != (damage, load):
                raise bad(
                    f"{name} holds a signal at (damage={state.damage_size!r}, "
                    f"load={state.load!r}), the row lists ({damage!r}, {load!r})"
                )
            if state in first_files:
                raise bad(
                    f"{name} holds the signal (damage={state.damage_size!r}, "
                    f"load={state.load!r}, replicate={state.replicate}, role={state.role}) "
                    f"again (first in {first_files[state]})"
                )
            first_files[state] = name
        signals.extend(held)
    if not signals:
        raise InvalidArgumentError("lists no signals", path=manifest)
    return signals


def _manifest_rows(manifest: str) -> list:
    """The (line number, damage, load, n_signals, file) of each row of manifest, in order.

    A non-ASCII byte, wherever it lies, is the error; else the first bad
    header or row, or file listed again.
    """

    def bad(message):
        return InvalidArgumentError(message, lineno, manifest)

    header, rows, first_lines = None, [], {}
    for lineno, line in enumerate(read_ascii(manifest).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            if line != MANIFEST_HEADER:
                raise bad(f"expected header {MANIFEST_HEADER!r}, got {line!r}")
            continue
        try:
            damage, load, count, name = line.split(",")
            damage, load = _text_number(damage), _text_number(load)
            count = _text_number(count, int)
        except ValueError:
            raise bad(f"bad row {line!r}") from None
        if name in first_lines:
            raise bad(f"{name} is listed again (first on line {first_lines[name]})")
        first_lines[name] = lineno
        rows.append((lineno, damage, load, count, name))
    return rows


def cmd_di(args) -> int:
    config = _config(args)
    di = config.di
    policy = _POLICY_NAMES[di.policy]
    signals = _read_workdir_signals(config.paths.workdir)
    n_use = min(di.n_use, min(len(s) for s in signals))
    fixed = (di.fixed_damage, di.fixed_load) if policy == "fixed" else None
    dataset = build_di_dataset(signals, di.kind, policy, n_use, di.mode, fixed)
    text = di_to_csv_text(dataset, comment=f"kind={di.kind} policy={policy} n_use={n_use}")
    atomic_write_text(args.out, text)
    print(f"wrote {dataset.n} DI rows ({dataset.ndim} input columns) to {args.out}")
    return 0


def _fit_line(metrics) -> str:
    """The fit metrics as name=value fields; nmse comes first, as scripts take its first match."""
    names = ("nmse", "rss_sss_percent", "nlpd", "coverage_2sd")
    return " ".join(f"{name}={getattr(metrics, name):.4g}" for name in names)


def cmd_train(args) -> int:
    train = _config(args).train
    dataset = read_di_csv(args.di_file)
    try:
        train_set, test_set = split_dataset(dataset, train.train_fraction, train.seed)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(str(exc), path=args.di_file) from None
    optimizer = OptimizerConfig(n_restarts=train.restarts, seed=train.seed)
    trainer = train_sgpr if train.model_kind == "sgpr" else train_vhgpr
    model = trainer(train_set.inputs, train_set.targets, optimizer, train.center_targets)

    save_model(args.model_file, model, seed=train.seed)
    heldout = args.heldout_file or args.model_file + ".heldout.csv"
    source = os.path.basename(args.di_file)
    atomic_write_text(
        heldout, di_to_csv_text(test_set, comment=f"seed={train.seed} heldout_of={source}")
    )

    metrics = evaluate_fit(
        model.predict(test_set.inputs), test_set.targets, train_set.targets
    )
    print(f"{train.model_kind} trained on {train_set.n}/{dataset.n} rows: {_fit_line(metrics)}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model_file)
    dataset = read_di_csv(args.di_file)
    if dataset.ndim != model.ndim:
        raise DimensionMismatchError(
            f"holds input columns {','.join(dataset.column_names)}; "
            f"the model takes {model.ndim}",
            path=args.di_file,
        )
    metrics = evaluate_fit(
        model.predict(dataset.inputs), dataset.targets, model.train_targets
    )
    print(_fit_line(metrics))
    return 0


@functools.lru_cache(maxsize=8)
def _tables_skeleton(ids: tuple, states: tuple) -> tuple[tuple[str, ...], str]:
    """(each state's argmax object, a table's text up to its probabilities' end
    as a %-template) of a grid's states; ids are the states' ids.

    Equal floats can be written apart (0.0 and -0.0), so the ids key the
    skeleton to these very state tuples, which the cache keeps alive: a grid
    a model holds is written once, and a grid made afresh once per request.
    """
    members = [
        f'"damage": {s[0]!r}, "load": {"null" if len(s) == 1 else repr(s[1])}'
        for s in states
    ]
    argmax = tuple("{" + m + "}" for m in members)
    entries = ", ".join("{" + m + ', "p": %r}' for m in members)
    return argmax, '{"argmax": %s, "low_confidence": %s, "probabilities": [' + entries + "], "


def _predictions_json(scores, step1_reference_load=None) -> str:
    """json.dumps(tables, sort_keys=True) of the scored tables, written from the arrays.

    A table is {"argmax": {"damage", "load"}, "low_confidence",
    "probabilities": [{"damage", "load", "p"}, ...], "test_di"}, with
    "step1_reference_load" before "test_di" when it is given, and a
    damage-only state's load null. One table is written as one object, more
    as a list. Every number is a float, written by its repr as json writes
    it: each grid's text is one %-template, filled with each row's floats.
    """
    states = tuple(scores.states)
    argmax, head = _tables_skeleton(tuple(map(id, states)), states)
    reference = (
        "" if step1_reference_load is None
        else f'"step1_reference_load": {float(step1_reference_load)!r}, '
    )
    template = head + reference + '"test_di": %r}'
    flags = ("false", "true")
    tables = [
        template % (argmax[k], flags[low], *row, di)
        for di, k, low, row in zip(
            scores.test_dis.tolist(),
            scores.best.tolist(),
            scores.low_confidence.tolist(),
            scores.probabilities.tolist(),
        )
    ]
    return tables[0] if len(tables) == 1 else "[" + ", ".join(tables) + "]"


def _two_state_json(model, class1, class2, threshold) -> str:
    """The two-state table: step 2's, with the chosen class-1 DI, its reference load
    and either step's low-confidence flag."""
    step1, chosen, step2 = two_state_scores(
        model, class1, lambda d: class2[d], None, None, threshold
    )
    scores = replace(
        step2,
        test_dis=step1.test_dis[chosen : chosen + 1],
        low_confidence=step1.low_confidence[chosen : chosen + 1] | step2.low_confidence,
    )
    return _predictions_json(scores, step1_reference_load=class1[chosen][0])


def _check_predict_inputs(args, quantify: QuantifyConfig) -> None:
    """Reject an input or setting that predict would otherwise leave unused."""
    if args.two_state:
        for flag, value in (("--test-di", args.test_di), ("--known-load", args.known_load)):
            if value is not None:
                raise InvalidArgumentError(f"--two-state takes no {flag}")
        # the two-state grids are the training damages and loads, unrefined
        if quantify.grid_refine:
            raise InvalidArgumentError(
                "--two-state takes no quantify.grid_refine (--grid-refine), "
                f"got {quantify.grid_refine}"
            )
    elif args.test_di is not None and args.test_di_file is not None:
        raise InvalidArgumentError("give --test-di or --test-di-file, not both")


def _check_known_load(model, known_load) -> None:
    """Name the flag a request on this model lacks or must not give: --known-load
    for a (damage, load) or a damage-only model, --two-state for a (damage,
    load, switch) model."""
    if model.ndim == 3:
        raise CovariateMismatchError(
            "the model takes (damage, load, switch): it answers --two-state requests"
        )
    if known_load is None and model.ndim == 2:
        raise CovariateMismatchError(
            "the model takes (damage, load): give the load with --known-load"
        )
    if known_load is not None and model.ndim == 1:
        raise CovariateMismatchError(
            f"the model takes damage alone: it uses no --known-load, got {known_load!r}"
        )


def _check_class2_damages(path, class2, model) -> None:
    """Reject a class-2 row at a damage the model was not trained on.

    Step 2 reads only the row of the predicted damage, which is a training
    damage, so such a row could never be read. A model without the
    (damage, load, switch) inputs is left to two_state_scores to refuse.
    """
    if model.ndim != 3:
        return
    damages = [state[0] for state in model.damage_grid.states]
    for damage in class2:
        if damage not in damages:
            raise InvalidArgumentError(
                f"{path}: class-2 ref_damage {damage!r} is none of the model's training "
                f"damages {', '.join(map(repr, damages))}"
            )


def cmd_predict(args) -> int:
    quantify = _config(args).quantify
    _check_predict_inputs(args, quantify)
    test_di, known_load = (
        None if text is None else _typed(text, float, flag)
        for flag, text in (("--test-di", args.test_di), ("--known-load", args.known_load))
    )
    threshold = quantify.low_confidence_threshold
    model = load_model(args.model_file)

    if args.two_state:
        class1, class2 = _read_two_state_dis(args.test_di_file)
        _check_class2_damages(args.test_di_file, class2, model)
        text = _two_state_json(model, class1, class2, threshold)
    else:
        _check_known_load(model, known_load)
        test_dis = [test_di] if test_di is not None else _read_di_column(args.test_di_file)
        grid = model.damage_grid
        if quantify.grid_refine:
            grid = grid.refine(quantify.grid_refine)
        # the grid is the model's damage grid or a refinement: damage-only
        fixed = None if known_load is None else {"load": known_load}
        scores = score_test_dis(model, grid, np.array(test_dis, dtype=float), fixed, threshold)
        text = _predictions_json(scores)

    if args.out:
        atomic_write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


def _read_di_column(path) -> np.ndarray:
    """The di column of a DI CSV, one test DI per row."""
    if path is None:
        raise InvalidArgumentError("provide --test-di or --test-di-file")
    _, rows = read_csv_table(path, DI_HEADERS)
    if not len(rows):
        raise InvalidArgumentError(f"{path}: no test DI rows")
    return rows[:, -1]


def _read_two_state_dis(path):
    """CSV with header class,ref_load,ref_damage,di.

    class=1 rows carry one test DI per class-1 reference load, whose
    reference is healthy (ref_damage 0); class=2 rows carry the pre-computed
    class-2 test DI per candidate damage size, whose reference is unloaded
    (ref_load 0). A reference load or damage given twice, or a nonzero
    reference value predict would leave unread, is an error.
    """
    if path is None:
        raise InvalidArgumentError("--two-state requires --test-di-file")
    class1 = []
    class2 = {}
    _, rows = read_csv_table(path, [("class", "ref_load", "ref_damage", "di")])
    for cls, ref_load, ref_damage, di in rows.tolist():
        if cls == 1:
            if ref_damage != 0:
                raise InvalidArgumentError(
                    f"{path}: class-1 ref_damage must be 0 (a healthy reference), "
                    f"got {ref_damage!r}"
                )
            if any(load == ref_load for load, _ in class1):
                raise InvalidArgumentError(f"{path}: repeated class-1 ref_load {ref_load:g}")
            class1.append((ref_load, di))
        elif cls == 2:
            if ref_load != 0:
                raise InvalidArgumentError(
                    f"{path}: class-2 ref_load must be 0 (an unloaded reference), "
                    f"got {ref_load!r}"
                )
            if ref_damage in class2:
                raise InvalidArgumentError(f"{path}: repeated class-2 ref_damage {ref_damage:g}")
            class2[ref_damage] = di
        else:
            raise InvalidArgumentError(f"{path}: class must be 1 or 2, got {cls:g}")
    if not class1:
        raise InvalidArgumentError(f"{path}: no class-1 test DI rows")
    return class1, class2


def cmd_report(args) -> int:
    payload = read_json(args.pred_file, "predictions")
    predictions = payload if isinstance(payload, list) else [payload]

    _, rows = read_csv_table(args.true_file, [("damage",), ("damage", "load")])
    true_states = rows.tolist()
    if len(true_states) != len(predictions):
        raise InvalidArgumentError(
            f"{len(true_states)} true states vs {len(predictions)} predictions"
        )

    predicted_states = []
    for i, pred in enumerate(predictions):
        try:
            argmax = pred["argmax"]
            damage, load = _scalar(argmax["damage"]), argmax.get("load")
            predicted_states.append((damage,) if load is None else (damage, _scalar(load)))
        except (KeyError, TypeError, ValueError):
            raise InvalidArgumentError(
                f"{args.pred_file}: prediction {i} has no numeric argmax damage"
            ) from None
    boxes, errors = summarize_predictions(true_states, predicted_states)

    boxes = [("damage=" + ":".join(f"{v:g}" for v in state), *stats) for state, *stats in boxes]
    header = "state,median,q25,q75,lo_whisk,hi_whisk,outliers"
    atomic_write_text(args.box_out, csv_text(header, boxes))
    header = "true_damage,true_load,pred_damage,pred_load,err_damage,err_load"
    atomic_write_text(args.errors_out, csv_text(header, errors))
    print(f"wrote {args.box_out} and {args.errors_out}")
    return 0


@dataclass(frozen=True)
class _Flag:
    """One flag of a command: its name, the namespace field it sets, and its kind.

    A "value" flag takes the next word, a "switch" is store_true, and a
    "bool" setting takes an optional word (nargs "?", "true" alone).
    """

    name: str
    dest: str
    kind: str = "value"
    required: bool = False
    help: str | None = None


def _own_flag(name: str, **more) -> _Flag:
    """A flag no config key sets; its dest is its name's, as argparse derives it."""
    return _Flag(name, name[2:].replace("-", "_"), **more)


def _settings_flags(command: str) -> list[_Flag]:
    """--config, then one flag per field of each section the command reads, in
    field order; none for a command that reads no section."""
    if command not in _COMMAND_SECTIONS:
        return []
    flags = [_Flag("--config", "config", help="pipeline config file")]
    for section in _COMMAND_SECTIONS[command]:
        for f in fields(_SECTIONS[section]):
            kind = "bool" if type(f.default) is bool else "value"
            flags.append(_Flag(_flag(f.name), f.name, kind, help=f"{section}.{f.name}"))
    return flags


# command -> (its help, its flags in the order --help lists them): the
# settings flags of the sections it reads, then its own
_COMMAND_FLAGS = {
    command: (help, [*_settings_flags(command), *own])
    for command, help, own in (
        ("simulate", "synthesize signal files for a state grid", ()),
        (
            "di", "compute a DI dataset from simulated signals",
            (_own_flag("--out", required=True, help="output DI CSV path"),),
        ),
        (
            "train", "train a model on a DI dataset",
            (
                _own_flag("--di-file", required=True),
                _own_flag("--model-file", required=True),
                _own_flag("--heldout-file"),
            ),
        ),
        (
            "predict", "state probabilities for test DI values",
            (
                _own_flag("--model-file", required=True),
                _own_flag("--test-di"),
                _own_flag("--test-di-file"),
                _own_flag("--known-load"),
                _own_flag("--two-state", kind="switch"),
                _own_flag("--out", help="output JSON path (default stdout)"),
            ),
        ),
        (
            "evaluate", "recompute fit metrics for a model file",
            (_own_flag("--model-file", required=True), _own_flag("--di-file", required=True)),
        ),
        (
            "report", "box-plot and prediction-error CSVs",
            tuple(
                _own_flag(name, required=True)
                for name in ("--pred-file", "--true-file", "--box-out", "--errors-out")
            ),
        ),
    )
}
# _Flag kind -> the add_argument keywords that make it
_ACTIONS = {
    "value": {}, "switch": {"action": "store_true"}, "bool": {"nargs": "?", "const": "true"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gwquant parser, one subparser per command, from _COMMAND_FLAGS; built once."""
    # a settings flag keeps its text untyped: _config types and checks it as
    # parse_config does the key's value
    parser = argparse.ArgumentParser(
        prog="gwquant",
        description="Guided-wave damage quantification with DI-trained GP models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=help)
        for flag in flags:
            p.add_argument(
                flag.name, dest=flag.dest, required=flag.required, help=flag.help,
                **_ACTIONS[flag.kind],
            )
    return parser


@functools.cache
def _plain_table(command: str):
    """(flags by name, the namespace of an argv of no flag, required dests) of a command."""
    flags = _COMMAND_FLAGS[command][1]
    defaults = {"command": command}
    defaults.update((flag.dest, False if flag.kind == "switch" else None) for flag in flags)
    return (
        {flag.name: flag for flag in flags},
        defaults,
        frozenset(flag.dest for flag in flags if flag.required),
    )


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The namespace parse_args returns for a plain argv, or None for any other argv.

    A plain argv is a command, then only that command's flags by their full
    names: a value flag followed by a non-empty word that does not start with
    "-", a switch alone, and every required flag present. argparse reads
    each such word as the flag's value, the last of a repeated flag wins, and
    an absent flag takes its default (None, or False for a switch), so the
    namespace is parse_args's own. Every other argv, a "bool" setting flag
    among them, is argparse's to read and to answer.
    """
    if not argv or argv[0] not in _COMMAND_FLAGS:
        return None
    by_name, defaults, required = _plain_table(argv[0])
    values = dict(defaults)
    words = iter(argv[1:])
    for word in words:
        flag = by_name.get(word)
        if flag is None:
            return None
        if flag.kind == "switch":
            values[flag.dest] = True
            continue
        value = next(words, "")
        if flag.kind != "value" or not value or value[0] == "-":
            return None
        values[flag.dest] = value
    if any(values[dest] is None for dest in required):
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), a plain argv read by _plain_args without argparse.

    argparse turns a flag's value "--" (as in --out=--) into []; it is taken
    as written. A plain argv never holds such a value.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        vars(args).update({name: "--" for name, value in vars(args).items() if value == []})
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        # numpy raises on overflow, invalid and divide, and a UserWarning
        # (constant training targets) is raised, in place of a warning line;
        # the error becomes the one error line like any other
        with (
            np.errstate(over="raise", invalid="raise", divide="raise"),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error", UserWarning)
            # looked up per call, not kept in the cached parser, so a command
            # replaced on the module after the first call is the one that runs
            return globals()[f"cmd_{args.command}"](args)
    except (GwquantError, FloatingPointError, UserWarning) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # such as numpy's refusal of an array too large to allocate
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
