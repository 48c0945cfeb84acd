"""Damage indices and DI dataset assembly.

Two DI formulations are provided:

* ``rmsd_di`` - root-mean-square deviation between a baseline and an unknown
  signal over the first ``n_use`` samples.
* ``normalized_di`` - the normalized-signal DI. Its published middle
  expression divides by the baseline per time index, which is singular
  whenever the baseline crosses zero; the default ``projection`` mode uses
  the singularity-free orthogonal-projection reading (the baseline-direction
  component of the normalized unknown signal) and reproduces DI = 0 for
  identical signals. ``as_written`` keeps the literal per-index division for
  fidelity experiments.

Training datasets pair every test signal with the replicate-averaged
reference of the state its policy selects: the healthy signal at the same
load (class 1), the unloaded signal at the same damage size (class 2), both
(block layout with a switch covariate of 1 or 2), or one fixed state. When a
test signal is itself part of its reference pool the average excludes it, so
healthy-state DI scatter is not deflated by self-pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSignalError,
    InvalidArgumentError,
    MissingBaselineError,
)
from .signals import Signal, StateLabel

DEFAULT_N_USE = 2500

REFERENCE_CLASSES = ("class1", "class2", "single")

COLUMN_NAMES = ("damage", "load", "switch")

# headers a DI CSV may carry: the input columns of a D-column dataset, then di
DI_HEADERS = [(*COLUMN_NAMES[:d], "di") for d in (1, 2, 3)]


@dataclass(frozen=True)
class DiValue:
    """One computed damage index with its pairing metadata."""

    value: float
    state: StateLabel
    reference_state: StateLabel
    reference_class: str = "single"

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise InvalidArgumentError("DI value must be finite")
        if self.reference_class not in REFERENCE_CLASSES:
            raise InvalidArgumentError(
                f"reference_class must be one of {REFERENCE_CLASSES}"
            )
        if self.reference_class == "class1" and self.reference_state.damage_size != 0:
            raise InvalidArgumentError("class1 reference must be a healthy signal")
        if self.reference_class == "class2" and self.reference_state.load != 0:
            raise InvalidArgumentError("class2 reference must be an unloaded signal")


@dataclass
class DiDataset:
    """Input/target pairs for GP training.

    inputs has D in {1, 2, 3} columns: damage [, load [, switch]]. Rows with
    switch = 1 carry class-1 targets and rows with switch = 2 carry class-2
    targets.
    """

    inputs: np.ndarray
    targets: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        n, d = self.inputs.shape
        if n < 2:
            raise InvalidArgumentError("a DI dataset needs at least 2 rows")
        if self.targets.size != n:
            raise InvalidArgumentError("inputs and targets row counts differ")
        if d not in (1, 2, 3):
            raise InvalidArgumentError(f"inputs must have 1..3 columns, got {d}")
        if list(self.column_names) != list(COLUMN_NAMES[:d]):
            raise InvalidArgumentError(
                f"column_names must be {list(COLUMN_NAMES[:d])} for D={d}"
            )
        if not (np.all(np.isfinite(self.inputs)) and np.all(np.isfinite(self.targets))):
            raise InvalidArgumentError("dataset entries must be finite")
        if d == 3:
            switch = self.inputs[:, 2]
            if not np.all(np.isin(switch, (1.0, 2.0))):
                raise InvalidArgumentError("switch column values must be 1 or 2")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def ndim(self) -> int:
        return self.inputs.shape[1]


def _check_pair(baseline: Signal, unknown: Signal, n_use: int):
    if n_use < 1:
        raise InvalidArgumentError("n_use must be >= 1")
    if len(baseline) < n_use or len(unknown) < n_use:
        raise InvalidArgumentError(
            f"signals shorter than n_use={n_use} "
            f"(baseline {len(baseline)}, unknown {len(unknown)})"
        )
    return baseline.samples[:n_use], unknown.samples[:n_use]


def rmsd_di(baseline: Signal, unknown: Signal, n_use: int = DEFAULT_N_USE) -> float:
    """Root-mean-square deviation between the two signals; always >= 0."""
    y0, yu = _check_pair(baseline, unknown, n_use)
    return float(np.sqrt(np.mean((y0 - yu) ** 2)))


def normalized_di(
    baseline: Signal,
    unknown: Signal,
    n_use: int = DEFAULT_N_USE,
    mode: str = "projection",
) -> float:
    """Normalized-signal DI; invariant to positive rescaling of either signal.

    projection mode:
        Yu[t] = yu[t] / sqrt(sum yu^2)
        Y0[t] = y0[t] * (sum y0*Yu) / (sum y0^2)
        DI    = sum (Yu[t] - Y0[t])

    as_written mode divides by y0[t] per index instead of projecting, and
    raises ZeroDivisionError whenever the baseline has a zero sample.
    """
    if mode not in ("projection", "as_written"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    y0, yu = _check_pair(baseline, unknown, n_use)
    eu = float(np.sum(yu**2))
    e0 = float(np.sum(y0**2))
    if eu == 0.0:
        raise DegenerateSignalError("unknown signal has zero energy")
    if e0 == 0.0:
        raise DegenerateSignalError("baseline signal has zero energy")
    yu_n = yu / np.sqrt(eu)
    cross = float(np.sum(y0 * yu_n))
    if mode == "projection":
        y0_n = y0 * (cross / e0)
    else:
        if np.any(y0 == 0.0):
            raise ZeroDivisionError(
                "as_written mode divides by the baseline per index and the "
                "baseline contains zero samples"
            )
        y0_n = cross / (y0 * e0)
    return float(np.sum(yu_n - y0_n))


def _di_function(di_kind: str, mode: str, n_use: int):
    if di_kind == "rmsd":
        return lambda ref, sig: rmsd_di(ref, sig, n_use)
    if di_kind == "normalized":
        return lambda ref, sig: normalized_di(ref, sig, n_use, mode)
    raise InvalidArgumentError(f"unknown di_kind {di_kind!r}")


def _mean_reference(pool: list[Signal], exclude: Signal | None, n_use: int) -> Signal:
    """Replicate-averaged reference signal, leave-one-out when possible."""
    members = [s for s in pool if s is not exclude]
    if not members:
        members = pool
    stack = np.stack([s.samples[:n_use] for s in members])
    ref_state = StateLabel(
        members[0].state.damage_size, members[0].state.load, 0, "baseline"
    )
    return Signal(stack.mean(axis=0), members[0].sample_rate, ref_state)


def _group_by_state(signals: list[Signal]) -> dict[tuple[float, float], list[Signal]]:
    groups: dict[tuple[float, float], list[Signal]] = {}
    for sig in signals:
        groups.setdefault((sig.state.damage_size, sig.state.load), []).append(sig)
    return groups


def _reference_pool(groups, damage: float, load: float) -> list[Signal]:
    pool = groups.get((damage, load))
    if not pool:
        raise MissingBaselineError(
            f"no reference signals at (damage={damage:g}, load={load:g})"
        )
    return pool


def compute_di_values(
    signals: list[Signal],
    di_kind: str = "rmsd",
    reference_policy: str = "healthy_per_load",
    n_use: int = DEFAULT_N_USE,
    mode: str = "projection",
    fixed_reference: tuple[float, float] | None = None,
) -> list[DiValue]:
    """DI values for every test signal under a reference policy.

    Policies:
        healthy_per_load    reference = averaged healthy signal at the test
                            signal's load (class 1)
        unloaded_per_damage reference = averaged unloaded signal at the test
                            signal's damage size (class 2)
        both_classes        class-1 values for all test signals followed by
                            class-2 values for all test signals
        fixed               reference = averaged signals at fixed_reference
    """
    if reference_policy == "both_classes":
        return compute_di_values(
            signals, di_kind, "healthy_per_load", n_use, mode
        ) + compute_di_values(signals, di_kind, "unloaded_per_damage", n_use, mode)

    groups = _group_by_state(signals)
    tests = [s for s in signals if s.state.role == "test"]
    if not tests:
        raise InvalidArgumentError("no test signals in input")
    di = _di_function(di_kind, mode, n_use)

    values = []
    for sig in tests:
        if reference_policy == "healthy_per_load":
            pool = _reference_pool(groups, 0.0, sig.state.load)
            ref_class = "class1"
        elif reference_policy == "unloaded_per_damage":
            pool = _reference_pool(groups, sig.state.damage_size, 0.0)
            ref_class = "class2"
        elif reference_policy == "fixed":
            if fixed_reference is None:
                raise InvalidArgumentError("fixed policy requires fixed_reference")
            pool = _reference_pool(groups, *fixed_reference)
            ref_class = "single"
        else:
            raise InvalidArgumentError(f"unknown reference_policy {reference_policy!r}")
        ref = _mean_reference(pool, sig, n_use)
        values.append(DiValue(di(ref, sig), sig.state, ref.state, ref_class))
    return values


def build_di_dataset(
    signals: list[Signal],
    di_kind: str = "rmsd",
    reference_policy: str = "healthy_per_load",
    n_use: int = DEFAULT_N_USE,
    mode: str = "projection",
    fixed_reference: tuple[float, float] | None = None,
) -> DiDataset:
    """Assemble the training/test DI dataset for a reference policy.

    D = 3 for both_classes (damage, load, switch per the block layout),
    otherwise D = 1 when all test signals share one load and D = 2 when they
    span several.
    """
    values = compute_di_values(
        signals, di_kind, reference_policy, n_use, mode, fixed_reference
    )
    loads = {v.state.load for v in values}
    if reference_policy == "both_classes":
        rows = [
            (v.state.damage_size, v.state.load, 1.0 if v.reference_class == "class1" else 2.0)
            for v in values
        ]
        names = list(COLUMN_NAMES)
    elif len(loads) > 1:
        rows = [(v.state.damage_size, v.state.load) for v in values]
        names = list(COLUMN_NAMES[:2])
    else:
        rows = [(v.state.damage_size,) for v in values]
        names = list(COLUMN_NAMES[:1])
    return DiDataset(
        np.array(rows, dtype=float),
        np.array([v.value for v in values]),
        names,
    )


def di_to_csv_text(dataset: DiDataset, comment: str | None = None) -> str:
    """Render header ``damage[,load[,switch]],di`` plus one row per DI value."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join([*dataset.column_names, "di"]))
    for row, target in zip(dataset.inputs, dataset.targets):
        lines.append(",".join([f"{v:.17g}" for v in row] + [f"{target:.17g}"]))
    return "\n".join(lines) + "\n"


def write_di_csv(path, dataset: DiDataset, comment: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(di_to_csv_text(dataset, comment))


def read_csv_table(path, headers) -> tuple[list[str], list[list[float]]]:
    """Column names and float rows of a comma-separated table.

    Blank lines and lines starting with ``#`` are skipped. The first line
    left must be one of ``headers`` (sequences of column names); every later
    line must have one number per column. Errors name the file and, for a
    bad row, its 1-based line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1)]
    lines = [(n, ln) for n, ln in lines if ln and not ln.startswith("#")]
    names = lines[0][1].split(",") if lines else []
    if names not in [list(h) for h in headers]:
        expected = " or ".join(repr(",".join(h)) for h in headers)
        found = repr(lines[0][1]) if lines else "no rows"
        raise InvalidArgumentError(f"{path}: expected header {expected}, got {found}")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise InvalidArgumentError(
                f"{path} line {lineno}: row has {len(cells)} cells, expected {len(names)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise InvalidArgumentError(f"{path} line {lineno}: bad value in row {ln!r}") from None
    return names, rows


def read_di_csv(path) -> DiDataset:
    names, rows = read_csv_table(path, DI_HEADERS)
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    try:
        return DiDataset(data[:, :-1], data[:, -1], names[:-1])
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from None
