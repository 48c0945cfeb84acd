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

Each value takes the type of its key's default: an integer, a number,
``true``/``false`` or text. ``di.kind`` (rmsd, normalized), ``di.mode``
(projection, as-written), ``di.policy`` (class1, class2, both, fixed) and
``train.model_kind`` (sgpr, vhgpr) take only the listed choices;
``paths.workdir`` is the only ``paths`` key. A flag given on the command
line replaces the key of the same name, and both pass the same checks.

The environment variable ``GWQUANT_SEED`` overrides any configured or
flag-provided seed. Every subcommand is deterministic given identical
inputs and seed; output files are written atomically (temp file + rename).

Exit codes: 0 success, 1 domain error (single-line ``error: ...`` message on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

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
from .errors import GwquantError, InvalidArgumentError
from .persist import atomic_write_text, load_model, save_model
from .quantify import (
    DEFAULT_LOW_CONFIDENCE_THRESHOLD,
    StateGrid,
    predict_single_state,
    predict_two_states,
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


@dataclass
class QuantifyConfig:
    grid_refine: int = 0
    low_confidence_threshold: float = DEFAULT_LOW_CONFIDENCE_THRESHOLD


@dataclass
class PathsConfig:
    workdir: str = "gwquant-out"


@dataclass
class PipelineConfig:
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    damage_grid: list[float] = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 4.0])
    load_grid: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0, 15.0])
    di: DiConfig = field(default_factory=DiConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    quantify: QuantifyConfig = field(default_factory=QuantifyConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTIONS = {
    "simulation": SimulationConfig,
    "di": DiConfig,
    "train": TrainConfig,
    "quantify": QuantifyConfig,
    "paths": PathsConfig,
}

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number"}


def _typed(text: str, default, where: str):
    """text converted to the type of default; where names the value in errors."""
    kind = type(default)
    try:
        if kind is bool:
            return {"true": True, "false": False}[text.lower()]
        return kind(text)
    except (KeyError, ValueError):
        raise InvalidArgumentError(f"{where} must be {_TYPE_NAMES[kind]}, got {text!r}") from None


def parse_config(text: str) -> PipelineConfig:
    """Parse the flat key/value grammar into a validated PipelineConfig."""
    given: dict[str, dict[str, tuple[int, str]]] = {}
    grids: dict[str, list[float]] = {}
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
        if key in ("simulation.damage_grid", "simulation.load_grid"):
            try:
                grids[name] = [float(v) for v in value.split()]
            except ValueError as exc:
                raise InvalidArgumentError(
                    f"config line {lineno}: {key} must be space-separated numbers"
                ) from exc
            continue
        given.setdefault(section, {})[name] = (lineno, value)

    sections = {}
    for section, values in given.items():
        cls = _SECTIONS.get(section)
        if cls is None:
            first = min(lineno for lineno, _ in values.values())
            raise InvalidArgumentError(f"config line {first}: unknown sections {[section]}")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(values) - set(defaults)
        if unknown:
            first = min(values[name][0] for name in unknown)
            raise InvalidArgumentError(
                f"config line {first}: section {section!r} has unknown keys {sorted(unknown)}"
            )
        # one key at a time, so the section's own checks name the line too
        settings = cls()
        for name, (lineno, text) in values.items():
            try:
                value = _typed(text, defaults[name], f"{section}.{name}")
                settings = replace(settings, **{name: value})
            except InvalidArgumentError as exc:
                raise InvalidArgumentError(f"config line {lineno}: {exc}") from None
        sections[section] = settings
    return PipelineConfig(**sections, **grids)


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())


def _settings(args, section, seed_field: str | None = None):
    """The config section with the flags the user set laid over it.

    A flag's dest names the field it replaces; unset flags are None. The
    seed field, when given, takes GWQUANT_SEED over both flag and config.
    """
    names = {f.name for f in fields(section)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    env = os.environ.get(SEED_ENV_VAR)
    if seed_field is not None and env is not None:
        flags[seed_field] = _typed(env, 0, SEED_ENV_VAR)
    return replace(section, **flags)


def _config(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def split_dataset(dataset: DiDataset, train_fraction: float, seed: int):
    """Stratified per-state split with a seeded shuffle.

    Each state keeps ceil(train_fraction * k) rows for training, capped at
    k - 1 so that every state with >= 2 rows retains a held-out replicate.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidArgumentError("train_fraction must be in (0, 1)")
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
    train_idx = sorted(train_idx)
    test_idx = sorted(test_idx)

    def subset(indices):
        return DiDataset(
            dataset.inputs[indices], dataset.targets[indices], list(dataset.column_names)
        )

    return subset(train_idx), subset(test_idx)


def _signal_file_name(damage: float, load: float) -> str:
    """Cell file name: each value in ``:g`` form, or its repr when ``:g`` rounds it."""
    text = [f"{v:g}" if float(f"{v:g}") == v else repr(v) for v in (damage, load)]
    return f"signals_d{text[0]}_L{text[1]}.csv"


def cmd_simulate(args) -> int:
    config = _config(args)
    sim = _settings(args, config.simulation, seed_field="rng_seed")
    workdir = _settings(args, config.paths).workdir
    os.makedirs(workdir, exist_ok=True)

    signals = simulate_dataset(sim, config.damage_grid, config.load_grid)
    manifest = ["damage,load,n_signals,file"]
    for damage in config.damage_grid:
        for load in config.load_grid:
            cell = [
                s
                for s in signals
                if s.state.damage_size == damage and s.state.load == load
            ]
            name = _signal_file_name(damage, load)
            text = signals_to_csv_text(cell, comment=f"seed={sim.rng_seed}")
            atomic_write_text(os.path.join(workdir, name), text)
            manifest.append(f"{damage:.17g},{load:.17g},{len(cell)},{name}")
    atomic_write_text(
        os.path.join(workdir, "manifest.csv"),
        f"# seed={sim.rng_seed}\n" + "\n".join(manifest) + "\n",
    )
    print(f"wrote {len(signals)} signals to {workdir}")
    return 0


def _read_workdir_signals(workdir: str):
    manifest = os.path.join(workdir, "manifest.csv")
    if not os.path.exists(manifest):
        raise InvalidArgumentError(f"no manifest.csv in {workdir}")
    signals = []
    with open(manifest, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("damage,"):
                continue
            name = line.split(",")[-1]
            signals.extend(read_signals_csv(os.path.join(workdir, name)))
    return signals


def cmd_di(args) -> int:
    config = _config(args)
    di = _settings(args, config.di)
    policy = _POLICY_NAMES[di.policy]
    signals = _read_workdir_signals(_settings(args, config.paths).workdir)
    n_use = min(di.n_use, min(len(s) for s in signals))
    fixed = (di.fixed_damage, di.fixed_load) if policy == "fixed" else None
    dataset = build_di_dataset(signals, di.kind, policy, n_use, di.mode, fixed)
    text = di_to_csv_text(dataset, comment=f"kind={di.kind} policy={policy} n_use={n_use}")
    atomic_write_text(args.out, text)
    print(f"wrote {dataset.n} DI rows ({dataset.ndim} input columns) to {args.out}")
    return 0


def _format_metric(value: float) -> str:
    return f"{value:.4g}"


def cmd_train(args) -> int:
    train = _settings(args, _config(args).train, seed_field="seed")
    dataset = read_di_csv(args.di_file)
    train_set, test_set = split_dataset(dataset, train.train_fraction, train.seed)
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
    print(
        f"{train.model_kind} trained on {train_set.n}/{dataset.n} rows: "
        f"nmse={_format_metric(metrics.nmse)} "
        f"rss_sss_percent={_format_metric(metrics.rss_sss_percent)}"
    )
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model_file)
    dataset = read_di_csv(args.di_file)
    metrics = evaluate_fit(
        model.predict(dataset.inputs), dataset.targets, model.train_targets
    )
    print(
        f"nmse={_format_metric(metrics.nmse)} "
        f"rss_sss_percent={_format_metric(metrics.rss_sss_percent)}"
    )
    return 0


def _table_to_json(table, two_state_argmax=None) -> dict:
    argmax = table.argmax_state if two_state_argmax is None else two_state_argmax
    return {
        "test_di": table.test_di,
        "argmax": {
            "damage": argmax[0],
            "load": argmax[1] if len(argmax) > 1 else None,
        },
        "low_confidence": table.low_confidence,
        "probabilities": [
            {
                "damage": state[0],
                "load": state[1] if len(state) > 1 else None,
                "p": p,
            }
            for state, p in table.entries
        ],
    }


def cmd_predict(args) -> int:
    quantify = _settings(args, _config(args).quantify)
    threshold = quantify.low_confidence_threshold
    model = load_model(args.model_file)

    results = []
    if args.two_state:
        class1, class2 = _read_two_state_dis(args.test_di_file)
        prediction = predict_two_states(
            model, class1, lambda d: class2[d], low_confidence_threshold=threshold
        )
        payload = _table_to_json(
            prediction.step2_table,
            (prediction.predicted_damage, prediction.predicted_load),
        )
        payload["low_confidence"] = (
            prediction.step1_table.low_confidence or prediction.step2_table.low_confidence
        )
        payload["step1_reference_load"] = prediction.step1_reference_load
        payload["test_di"] = prediction.step1_table.test_di
        results.append(payload)
    else:
        test_dis = (
            [args.test_di] if args.test_di is not None else _read_di_column(args.test_di_file)
        )
        grid = StateGrid.from_training_inputs(model.train_inputs, include_load=False)
        grid = grid.refine(quantify.grid_refine)
        # no name keeps the tables, so they are freed before the JSON is built
        results.extend(
            _table_to_json(table)
            for table in predict_single_state(
                model, grid, test_dis, known_load=args.known_load,
                low_confidence_threshold=threshold,
            )
        )

    text = json.dumps(results[0] if len(results) == 1 else results, indent=1, sort_keys=True)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


def _read_di_column(path) -> list[float]:
    """The di column of a DI CSV, one test DI per row."""
    if path is None:
        raise InvalidArgumentError("provide --test-di or --test-di-file")
    _, rows = read_csv_table(path, DI_HEADERS)
    if not rows:
        raise InvalidArgumentError(f"{path}: no test DI rows")
    return [row[-1] for row in rows]


def _read_two_state_dis(path):
    """CSV with header class,ref_load,ref_damage,di.

    class=1 rows carry one test DI per class-1 reference load; class=2 rows
    carry the pre-computed class-2 test DI per candidate damage size.
    """
    if path is None:
        raise InvalidArgumentError("--two-state requires --test-di-file")
    class1 = []
    class2 = {}
    _, rows = read_csv_table(path, [("class", "ref_load", "ref_damage", "di")])
    for cls, ref_load, ref_damage, di in rows:
        if cls == 1:
            class1.append((ref_load, di))
        elif cls == 2:
            class2[ref_damage] = di
        else:
            raise InvalidArgumentError(f"{path}: class must be 1 or 2, got {cls:g}")
    if not class1:
        raise InvalidArgumentError(f"{path}: no class-1 test DI rows")
    return class1, class2


def cmd_report(args) -> int:
    with open(args.pred_file, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"{args.pred_file}: not a predictions file ({exc})")
    predictions = payload if isinstance(payload, list) else [payload]

    _, rows = read_csv_table(args.true_file, [("damage",), ("damage", "load")])
    true_states = [tuple(row) for row in rows]
    if len(true_states) != len(predictions):
        raise InvalidArgumentError(
            f"{len(true_states)} true states vs {len(predictions)} predictions"
        )

    predicted_states = []
    for i, pred in enumerate(predictions):
        try:
            damage, load = float(pred["argmax"]["damage"]), pred["argmax"].get("load")
            predicted_states.append((damage,) if load is None else (damage, float(load)))
        except (AttributeError, KeyError, TypeError, ValueError):
            raise InvalidArgumentError(
                f"{args.pred_file}: prediction {i} has no numeric argmax damage"
            ) from None
    report = summarize_predictions(true_states, predicted_states)

    box_lines = ["state,median,q25,q75,lo_whisk,hi_whisk,outliers"]
    for box in report.boxes:
        state = "damage=" + ":".join(f"{v:g}" for v in box.state)
        outliers = ";".join(f"{v:.17g}" for v in box.outliers)
        box_lines.append(
            f"{state},{box.median:.17g},{box.q25:.17g},{box.q75:.17g},"
            f"{box.lo_whisker:.17g},{box.hi_whisker:.17g},{outliers}"
        )
    atomic_write_text(args.box_out, "\n".join(box_lines) + "\n")

    err_lines = ["true_damage,true_load,pred_damage,pred_load,err_damage,err_load"]
    for rec in report.errors:
        cells = [
            f"{rec.true_damage:.17g}",
            "" if rec.true_load is None else f"{rec.true_load:.17g}",
            f"{rec.pred_damage:.17g}",
            "" if rec.pred_load is None else f"{rec.pred_load:.17g}",
            f"{rec.err_damage:.17g}",
            "" if rec.err_load is None else f"{rec.err_load:.17g}",
        ]
        err_lines.append(",".join(cells))
    atomic_write_text(args.errors_out, "\n".join(err_lines) + "\n")
    print(f"wrote {args.box_out} and {args.errors_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwquant",
        description="Guided-wave damage quantification with DI-trained GP models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize signal files for a state grid")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--workdir", help="output directory (default from config)")
    p.add_argument("--seed", type=int, dest="rng_seed", help="simulation RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("di", help="compute a DI dataset from simulated signals")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--workdir", help="directory holding manifest.csv")
    p.add_argument("--kind", choices=["rmsd", "normalized"])
    p.add_argument("--mode", choices=["projection", "as-written"])
    p.add_argument("--policy", choices=["class1", "class2", "both", "fixed"])
    p.add_argument("--n-use", type=int, dest="n_use")
    p.add_argument("--fixed-damage", type=float, dest="fixed_damage")
    p.add_argument("--fixed-load", type=float, dest="fixed_load")
    p.add_argument("--out", required=True, help="output DI CSV path")
    p.set_defaults(func=cmd_di)

    p = sub.add_parser("train", help="train a model on a DI dataset")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--di-file", required=True, dest="di_file")
    p.add_argument("--model", choices=["sgpr", "vhgpr"], dest="model_kind")
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--center-targets", action="store_true", default=None, dest="center_targets")
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--model-file", required=True, dest="model_file")
    p.add_argument("--heldout-file", dest="heldout_file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="state probabilities for test DI values")
    p.add_argument("--config", help="pipeline config file")
    p.add_argument("--model-file", required=True, dest="model_file")
    p.add_argument("--test-di", type=float, dest="test_di")
    p.add_argument("--test-di-file", dest="test_di_file")
    p.add_argument("--known-load", type=float, dest="known_load")
    p.add_argument("--two-state", action="store_true", dest="two_state")
    p.add_argument("--grid-refine", type=int, dest="grid_refine")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="recompute fit metrics for a model file")
    p.add_argument("--model-file", required=True, dest="model_file")
    p.add_argument("--di-file", required=True, dest="di_file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="box-plot and prediction-error CSVs")
    p.add_argument("--pred-file", required=True, dest="pred_file")
    p.add_argument("--true-file", required=True, dest="true_file")
    p.add_argument("--box-out", required=True, dest="box_out")
    p.add_argument("--errors-out", required=True, dest="errors_out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GwquantError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: OSError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
