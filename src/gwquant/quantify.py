"""Probabilistic state quantification from incoming test DI values.

Trained GP models map states to DI values; inspection works the other way
round: a test DI arrives and the structural state must be inferred. The
probability that a test DI y* originates from candidate state x is the
predictive-CDF mass

    P(x* = x) = F(b; E{y|x}, V{y|x}) - F(a; E{y|x}, V{y|x})
    a, b      = y* -/+ 2 sqrt(V{y_closest})

where y_closest is the training target nearest to y* in absolute value and
V{y_closest} the model's predictive variance at that training row's inputs.
The candidate grid defaults to the unique training states.

One scoring core, ``score_test_dis``, scores a whole vector of test DIs at
once: the grid's predictive moments, a search for each DI's nearest
training target (in blocks only when the batch is too large for one),
whose variance the model holds (``row_variance``), and the CDF differences
as one (n_test x n_grid) array. Per request it does only the work that
depends on the test DIs: it reads the model's 1-D targets and row
variances as they are, looks each grid row up in the model's moments as
the tuple the grid holds, and computes both interval ends' CDFs in one
call, with the quotients of ``gaussian_cdf``, bit for bit, but without
re-checking the model's own variances. A grid state the model was trained
at takes the moments the model holds (``state_moments``); the other
states, refined damages or an untrained load, take one predict together,
so a training state scores alike in every grid. A two-state request scores
the model's own grids (``damage_load_grid`` and ``load_grid``, kept since
its build) unless it gives others. It returns arrays (``Scores``): the
test DIs, the nearest targets and their variances, the probability
matrix, each row's argmax column and low-confidence flag. A DI
scored in a batch therefore gets the table it gets alone, bit for bit.
state_probabilities, predict_single_state and predict_two_states build
their StateProbabilityTables from those arrays; the CLI writes its JSON text
straight from them and builds no table, through ``score_test_dis`` and
``two_state_scores``, the cores of the single- and two-state predictions.

Simultaneous damage-size + load prediction runs in two steps over a model
trained with the two reference-signal classes and a switch covariate:
class-1 test DIs (one per reference load) vote over the full damage x load
grid with switch ``1`` and only the damage estimate is accepted; a class-2
test DI referenced to the unloaded signal at that damage then selects the
load with switch ``2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .damage_index import COLUMN_NAMES
from .errors import (
    CovariateMismatchError,
    DimensionMismatchError,
    InvalidArgumentError,
    MissingBaselineError,
)
from .sgpr import StateGrid

DEFAULT_LOW_CONFIDENCE_THRESHOLD = 0.05

# distances held at once by the nearest-target search (test DIs x rows)
_SEARCH_BLOCK = 1 << 16

_SQRT2 = np.sqrt(2.0)

_COLUMNS = frozenset(COLUMN_NAMES)


@dataclass
class StateProbabilityTable:
    """Per-candidate-state probabilities for one test DI."""

    entries: list[tuple[tuple, float]]
    test_di: float
    closest_training_di: float
    closest_variance: float
    argmax_state: tuple
    low_confidence: bool = False

    def probability(self, state: tuple) -> float:
        state = tuple(float(v) for v in state)
        for s, p in self.entries:
            if s == state:
                return p
        raise KeyError(state)

    @property
    def max_probability(self) -> float:
        return max(p for _, p in self.entries)


@dataclass
class TwoStepPrediction:
    predicted_damage: float
    predicted_load: float
    step1_table: StateProbabilityTable
    step2_table: StateProbabilityTable
    step1_reference_load: float


def gaussian_cdf(s, mean, variance):
    """Gaussian CDF at s, computed through the complementary error function.

    Broadcasts over array arguments; returns a float for all-scalar input.
    A variance that is not > 0, NaN included, is refused.
    """
    if not np.all(np.asarray(variance) > 0):
        raise InvalidArgumentError("variance must be > 0")
    z = (np.asarray(s, dtype=float) - mean) / np.sqrt(variance)
    out = 0.5 * erfc(-z / _SQRT2)
    return float(out) if np.ndim(out) == 0 else out


def _query_rows(grid: StateGrid, fixed_covariates, ndim: int) -> list[tuple]:
    """Model queries over canonical columns damage, load, switch, as tuples.

    Each row is a grid state followed by the fixed values the model takes
    after the grid's columns, in canonical order.
    """
    fixed = dict(fixed_covariates or {})
    unknown = fixed.keys() - _COLUMNS
    if unknown:
        raise CovariateMismatchError(f"unknown fixed covariates {sorted(unknown)}")
    width = len(grid.states[0])
    present = COLUMN_NAMES[:width]
    values = {}
    for name, value in fixed.items():
        if name in present:
            raise CovariateMismatchError(
                f"covariate {name!r} is fixed but already present in the grid"
            )
        value = values[name] = float(value)
        if not math.isfinite(value):
            raise InvalidArgumentError(f"fixed covariate {name!r} must be finite, got {value!r}")
    needed = COLUMN_NAMES[:ndim]
    missing = [c for c in needed[width:] if c not in values]
    if missing:
        raise CovariateMismatchError(
            f"model expects covariates {list(needed)}; missing {missing}"
        )
    extra = [c for c in (*present, *values) if c not in needed]
    if extra:
        raise CovariateMismatchError(
            f"covariates {extra} not used by a {ndim}-input model"
        )
    tail = tuple(values[c] for c in needed[width:])
    return [state + tail for state in grid.states]


def _nearest_rows(model, test_dis: np.ndarray, switch: float | None) -> np.ndarray:
    """Row of the training target nearest each test DI, ties to the smaller row.

    The distance is |target - di|; with a fixed switch covariate the search
    stays within that reference class, so the other class's predictive
    moments are never read.
    """
    targets, rows = model.train_targets, None
    if switch is not None and model.ndim >= 3:
        rows = np.flatnonzero(model.train_inputs[:, 2] == switch)
        if rows.size == 0:
            raise CovariateMismatchError(f"no training rows with switch={switch:g}")
        targets = targets[rows]
    step = max(1, _SEARCH_BLOCK // targets.size)
    # argmin takes the first minimum: the smallest row among equal distances
    if test_dis.size <= step:
        nearest = np.abs(targets - test_dis[:, None]).argmin(axis=1)
    else:
        nearest = np.concatenate([
            np.abs(targets - test_dis[start : start + step, None]).argmin(axis=1)
            for start in range(0, test_dis.size, step)
        ])
    return nearest if rows is None else rows[nearest]


def _grid_moments(model, queries: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(mean, root of the variance) at the query rows: a training state's
    moments from the model's state_moments, the other rows' from one
    predict, in query order."""
    moments = list(map(model.state_moments.get, queries))
    if None in moments:
        missing = [i for i, m in enumerate(moments) if m is None]
        predicted = model.predict(np.array([queries[i] for i in missing]))
        for i, m, v in zip(missing, predicted.mean.tolist(), predicted.variance.tolist()):
            moments[i] = (m, v)
    mean, variance = np.array(moments).T
    return mean, np.sqrt(variance)


def _cdf(s: np.ndarray, mean: np.ndarray, root: np.ndarray) -> np.ndarray:
    """gaussian_cdf(s, mean, root**2) without its check, bit for bit.

    (mean - s) is -(s - mean) exactly, as IEEE rounding is symmetric, so this
    takes gaussian_cdf's quotients with one negation fewer; each step after
    the first writes into its input.
    """
    z = mean - s
    z /= root
    z /= _SQRT2
    cdf = erfc(z, out=z)
    cdf *= 0.5
    return cdf


@dataclass(frozen=True)
class Scores:
    """The scores of n test DIs over the m states of one grid, as arrays.

    test_dis, closest_dis and closest_variances have shape (n,) and
    probabilities (n, m); best holds each row's argmax column and
    low_confidence whether that row's best probability fell below the
    threshold.
    """

    states: list[tuple]
    test_dis: np.ndarray
    closest_dis: np.ndarray
    closest_variances: np.ndarray
    probabilities: np.ndarray
    best: np.ndarray
    low_confidence: np.ndarray

    def tables(self) -> list[StateProbabilityTable]:
        """One StateProbabilityTable per test DI, in input order."""
        states = self.states
        return [
            StateProbabilityTable(
                entries=list(zip(states, row)),
                test_di=di,
                closest_training_di=y,
                closest_variance=v,
                argmax_state=states[k],
                low_confidence=low,
            )
            for di, y, v, k, low, row in zip(
                self.test_dis.tolist(),
                self.closest_dis.tolist(),
                self.closest_variances.tolist(),
                self.best.tolist(),
                self.low_confidence.tolist(),
                self.probabilities.tolist(),
            )
        ]


def score_test_dis(
    model, grid: StateGrid, test_dis: np.ndarray, fixed_covariates, threshold
) -> Scores:
    """Score a 1-D array of test DIs over the grid: the core of every entry point."""
    if not np.isfinite(test_dis).all():
        raise InvalidArgumentError("test_di must be finite")
    queries = _query_rows(grid, fixed_covariates, model.ndim)
    nearest = _nearest_rows(model, test_dis, (fixed_covariates or {}).get("switch"))
    y_closest = model.train_targets[nearest]
    v_closest = model.row_variance[nearest]
    # the interval ends y* + 2 sd and y* - 2 sd, as y* - 2 sd is y* + (-2 sd)
    # exactly, and gaussian_cdf at both in one call, without its variance
    # check: the variances are the model's own
    ends = test_dis + np.multiply.outer((2.0, -2.0), np.sqrt(v_closest))
    mean, root = _grid_moments(model, queries)
    upper, lower = _cdf(ends[..., None], mean, root)
    probs = np.subtract(upper, lower, out=upper).clip(0.0, 1.0, out=upper)

    # grid states are sorted, so the first maximum is the smallest damage
    # then load among ties
    best = probs.argmax(axis=1)
    top = probs.max(axis=1)
    return Scores(grid.states, test_dis, y_closest, v_closest, probs, best, top < threshold)


def state_probabilities(
    model,
    grid: StateGrid,
    test_di,
    fixed_covariates: dict | None = None,
    low_confidence_threshold: float = DEFAULT_LOW_CONFIDENCE_THRESHOLD,
):
    """Probability that each test DI originates from each candidate state.

    test_di is a number, giving one StateProbabilityTable, or a 1-D
    sequence, giving a list of them in input order. The argmax breaks ties
    toward smaller damage, then smaller load. A table whose best probability
    falls below low_confidence_threshold is flagged.
    """
    test_dis = np.asarray(test_di, dtype=float)
    if test_dis.ndim > 1:
        raise InvalidArgumentError("test_di must be a number or a 1-D sequence")
    scores = score_test_dis(
        model, grid, test_dis.ravel(), fixed_covariates, low_confidence_threshold
    )
    tables = scores.tables()
    return tables[0] if test_dis.ndim == 0 else tables


def predict_single_state(
    model,
    grid: StateGrid,
    test_di,
    known_load: float | None = None,
    low_confidence_threshold: float = DEFAULT_LOW_CONFIDENCE_THRESHOLD,
):
    """Damage-size quantification over a damage-only grid.

    test_di is a number or a 1-D sequence, as in state_probabilities; the
    load is fixed at known_load when it is given.
    """
    # a StateGrid's states are all of one width
    if len(grid.states[0]) != 1:
        raise InvalidArgumentError("predict_single_state expects a damage-only grid")
    fixed = None if known_load is None else {"load": known_load}
    return state_probabilities(model, grid, test_di, fixed, low_confidence_threshold)


def two_state_scores(
    model, class1_test_dis, class2_di_provider, damage_grid, load_grid, threshold
) -> tuple[Scores, int, Scores]:
    """(step-1 scores, the row of the chosen class-1 DI, step-2 scores), as in predict_two_states.

    The chosen row is the first with the highest best probability.
    """
    if model.ndim != 3:
        raise CovariateMismatchError(
            "two-state prediction needs a model trained on (damage, load, switch)"
        )
    if not class1_test_dis:
        raise InvalidArgumentError("class1_test_dis must be non-empty")
    if damage_grid is None and load_grid is None:
        # the model's own: its training damages by its training loads
        grid, load_grid = model.damage_load_grid, model.load_grid
    else:
        if damage_grid is None:
            damage_grid = np.unique(model.train_inputs[:, 0])
        if load_grid is None:
            load_grid = model.load_grid
        damage_grid = [float(d) for d in damage_grid]
        load_grid = [float(w) for w in load_grid]
        if not damage_grid or not load_grid:
            raise InvalidArgumentError("damage and load grids must be non-empty")
        grid = StateGrid([(d, w) for d in damage_grid for w in load_grid])

    class1 = np.array([di for _, di in class1_test_dis], dtype=float)
    step1 = score_test_dis(model, grid, class1, {"switch": 1.0}, threshold)
    chosen = int(np.argmax(step1.probabilities.max(axis=1)))
    predicted_damage = grid.states[step1.best[chosen]][0]

    try:
        class2_di = float(class2_di_provider(predicted_damage))
    except KeyError as exc:
        raise MissingBaselineError(
            f"no class-2 reference DI for predicted damage {predicted_damage:g}"
        ) from exc

    step2_grid = StateGrid([(predicted_damage, w) for w in load_grid])
    step2 = score_test_dis(model, step2_grid, np.array([class2_di]), {"switch": 2.0}, threshold)
    return step1, chosen, step2


def predict_two_states(
    model,
    class1_test_dis: list[tuple[float, float]],
    class2_di_provider,
    damage_grid=None,
    load_grid=None,
    low_confidence_threshold: float = DEFAULT_LOW_CONFIDENCE_THRESHOLD,
) -> TwoStepPrediction:
    """Two-step simultaneous damage-size and load prediction.

    class1_test_dis holds (reference_load, di) pairs, one per class-1
    reference; class2_di_provider(damage) returns the test DI referenced to
    the unloaded signal at that damage and may raise KeyError when absent.
    The damage and load grids default to the training states' values.
    """
    step1, chosen, step2 = two_state_scores(
        model, class1_test_dis, class2_di_provider, damage_grid, load_grid,
        low_confidence_threshold,
    )
    step1_table, step2_table = step1.tables()[chosen], step2.tables()[0]
    return TwoStepPrediction(
        predicted_damage=step1_table.argmax_state[0],
        predicted_load=step2_table.argmax_state[1],
        step1_table=step1_table,
        step2_table=step2_table,
        step1_reference_load=float(class1_test_dis[chosen][0]),
    )


def summarize_predictions(true_states: list[tuple], predicted_states: list[tuple]):
    """Box-plot rows of predicted damage per true state plus signed error rows.

    Returns (boxes, errors). boxes holds one (state, median, q25, q75,
    lo_whisker, hi_whisker, outliers) tuple per true state, in sorted order;
    whiskers follow the Tukey convention: the most extreme data points within
    1.5 IQR of the box edges, everything beyond is an outlier. errors holds
    one (true_damage, true_load, pred_damage, pred_load, err_damage,
    err_load) tuple per prediction; a damage-only state has None loads.
    Each predicted state must have as many values as its true state.
    """
    if len(true_states) != len(predicted_states):
        raise DimensionMismatchError("true_states and predicted_states lengths differ")
    groups: dict[tuple, list[float]] = {}
    errors = []
    for i, (true_state, pred) in enumerate(zip(true_states, predicted_states)):
        true_state = tuple(map(float, true_state))
        if len(pred) != len(true_state):
            raise DimensionMismatchError(
                f"prediction {i} has {len(pred)} values, its true state {len(true_state)}"
            )
        groups.setdefault(true_state, []).append(pred[0])
        true_damage, true_load = (*true_state, None)[:2]
        pred_damage, pred_load = (*pred, None)[:2]
        err_load = None if pred_load is None else pred_load - true_load
        errors.append(
            (true_damage, true_load, pred_damage, pred_load, pred_damage - true_damage, err_load)
        )

    boxes = []
    for state in sorted(groups):
        values = np.array(groups[state])
        q25, med, q75 = (float(q) for q in np.percentile(values, [25.0, 50.0, 75.0]))
        iqr = q75 - q25
        lo_whisker = float(values[values >= q25 - 1.5 * iqr].min())
        hi_whisker = float(values[values <= q75 + 1.5 * iqr].max())
        outliers = sorted(float(v) for v in values[(values < lo_whisker) | (values > hi_whisker)])
        boxes.append((state, med, q25, q75, lo_whisker, hi_whisker, outliers))
    return boxes, errors
