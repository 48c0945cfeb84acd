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

``build_di_dataset`` is the one path from signals to a training dataset. It
pairs every test signal with the replicate-averaged reference of the state
its policy selects: the healthy signal at the same load (class 1), the
unloaded signal at the same damage size (class 2), both (block layout with a
switch covariate of 1 or 2), or one fixed state. When a test signal is itself
part of its reference pool the average excludes it, so healthy-state DI
scatter is not deflated by self-pairing. That leave-one-out mean is averaged
afresh over the other members: deriving it from the pool sum would change
DIs in the last bits, and with them every model trained on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSignalError,
    InvalidArgumentError,
    MissingBaselineError,
)
from .signals import Signal

DEFAULT_N_USE = 2500

COLUMN_NAMES = ("damage", "load", "switch")

# headers a DI CSV may carry: the input columns of a D-column dataset, then di
DI_HEADERS = [(*COLUMN_NAMES[:d], "di") for d in (1, 2, 3)]


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
    raises DegenerateSignalError whenever the baseline has a zero sample.
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
            raise DegenerateSignalError(
                "as_written mode divides by the baseline per index and the "
                "baseline contains zero samples"
            )
        y0_n = cross / (y0 * e0)
    return float(np.sum(yu_n - y0_n))


# policy -> its reference classes, each (reference state of a test signal, switch)
_CLASS1 = (lambda state, fixed: (0.0, state.load), 1.0)
_CLASS2 = (lambda state, fixed: (state.damage_size, 0.0), 2.0)
_POLICIES = {
    "healthy_per_load": [_CLASS1],
    "unloaded_per_damage": [_CLASS2],
    "both_classes": [_CLASS1, _CLASS2],
    "fixed": [(lambda state, fixed: tuple(fixed), None)],
}


def build_di_dataset(
    signals: list[Signal],
    di_kind: str = "rmsd",
    reference_policy: str = "healthy_per_load",
    n_use: int = DEFAULT_N_USE,
    mode: str = "projection",
    fixed_reference: tuple[float, float] | None = None,
) -> DiDataset:
    """The DI dataset of every test signal under a reference policy.

    Policies:
        healthy_per_load    reference = averaged healthy signals at the test
                            signal's load (class 1)
        unloaded_per_damage reference = averaged unloaded signals at the test
                            signal's damage size (class 2)
        both_classes        class-1 rows for all test signals followed by
                            class-2 rows for all test signals
        fixed               reference = averaged signals at fixed_reference

    A reference is the mean of the first ``n_use`` samples of every signal
    (test or baseline) of its state, computed once per state. A test signal
    of the reference state itself is left out of its own mean, unless it is
    the only signal of that state. Rows follow the signal order within each
    class. D = 3 for both_classes (damage, load, switch), otherwise D = 1
    when all test signals share one load and D = 2 when they span several.
    """
    tests = [s for s in signals if s.state.role == "test"]
    if not tests:
        raise InvalidArgumentError("no test signals in input")
    if di_kind not in ("rmsd", "normalized"):
        raise InvalidArgumentError(f"unknown di_kind {di_kind!r}")
    if reference_policy not in _POLICIES:
        raise InvalidArgumentError(f"unknown reference_policy {reference_policy!r}")
    if reference_policy == "fixed" and fixed_reference is None:
        raise InvalidArgumentError("fixed policy requires fixed_reference")

    pools: dict[tuple[float, float], list[Signal]] = {}
    for sig in signals:
        pools.setdefault((sig.state.damage_size, sig.state.load), []).append(sig)
    pool_means: dict[tuple[float, float], Signal] = {}

    def mean_signal(members: list[Signal]) -> Signal:
        stack = np.stack([s.samples[:n_use] for s in members])
        return Signal(stack.mean(axis=0), members[0].sample_rate)

    loads = {s.state.load for s in tests}
    d = 3 if reference_policy == "both_classes" else 2 if len(loads) > 1 else 1
    rows, targets = [], []
    for reference_state, switch in _POLICIES[reference_policy]:
        for sig in tests:
            key = reference_state(sig.state, fixed_reference)
            pool = pools.get(key)
            if not pool:
                raise MissingBaselineError(
                    f"no reference signals at (damage={key[0]:g}, load={key[1]:g})"
                )
            own = (sig.state.damage_size, sig.state.load)
            if key == own:
                ref = mean_signal([s for s in pool if s is not sig] or pool)
            else:
                if key not in pool_means:
                    pool_means[key] = mean_signal(pool)
                ref = pool_means[key]
            if di_kind == "rmsd":
                value = rmsd_di(ref, sig, n_use)
            else:
                value = normalized_di(ref, sig, n_use, mode)
            if not np.isfinite(value):
                raise InvalidArgumentError("DI value must be finite")
            rows.append((*own, switch)[:d])
            targets.append(value)
    return DiDataset(np.array(rows, dtype=float), np.array(targets), list(COLUMN_NAMES[:d]))


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
