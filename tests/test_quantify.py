"""State-quantification tests: CDF oracles, probability tables, two-step flow,
and the training-row variances a built model holds."""

import math
import re
import sys
import threading
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gwquant.sgpr
from gwquant import persist, quantify
from gwquant.cli import main
from gwquant.damage_index import COLUMN_NAMES
from gwquant.errors import (
    CovariateMismatchError,
    InvalidArgumentError,
    MissingBaselineError,
)
from gwquant.kernels import KernelParams
from gwquant.persist import load_model, save_model
from gwquant.quantify import (
    DEFAULT_LOW_CONFIDENCE_THRESHOLD,
    StateGrid,
    _query_rows,
    gaussian_cdf,
    predict_single_state,
    predict_two_states,
    score_test_dis,
    state_probabilities,
    summarize_predictions,
    two_state_scores,
)
from gwquant.sgpr import OptimizerConfig, PredictiveMoments, SgprModel, train_sgpr
from gwquant.vhgpr import VhgprModel, VhgprState, train_vhgpr

TWO_SIGMA_MASS = math.erf(math.sqrt(2.0))  # Phi(2) - Phi(-2)


def gaussian_pdf(t, mean, var):
    return math.exp(-((t - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


class StubModel:
    """Duck-typed model with a fixed moment per state, for exact oracles."""

    def __init__(self, moments, train_inputs, train_targets):
        # moments: {query tuple: (mean, variance)}
        self.moments = {tuple(map(float, k)): v for k, v in moments.items()}
        self.state_moments = self.moments
        self.train_inputs = np.atleast_2d(np.asarray(train_inputs, dtype=float))
        self.train_targets = np.asarray(train_targets, dtype=float)
        self.ndim = self.train_inputs.shape[1]
        self.row_variance = np.array([self.moments[tuple(row)][1] for row in self.train_inputs])

    def predict(self, xq):
        xq = np.atleast_2d(np.asarray(xq, dtype=float))
        mean = np.array([self.moments[tuple(row)][0] for row in xq])
        var = np.array([self.moments[tuple(row)][1] for row in xq])
        return PredictiveMoments(mean, var, xq)


class TestGaussianCdf:
    def test_at_mean_is_half(self):
        assert gaussian_cdf(3.0, 3.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_two_sigma_matches_quadrature(self):
        value = gaussian_cdf(2.0, 0.0, 1.0)
        oracle, err = quad(gaussian_pdf, -12.0, 2.0, args=(0.0, 1.0))
        assert err < 1e-9
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(0.97725, abs=5e-6)

    def test_interval_probabilities_match_quadrature(self, rng):
        for _ in range(50):
            mean = rng.normal(0, 3)
            var = rng.uniform(0.01, 4.0)
            a, b = sorted(rng.normal(mean, 3 * math.sqrt(var), 2))
            p = gaussian_cdf(b, mean, var) - gaussian_cdf(a, mean, var)
            oracle, _ = quad(gaussian_pdf, a, b, args=(mean, var))
            assert abs(p - oracle) <= 1e-9

    def test_monotone_in_s(self, rng):
        s = np.sort(rng.normal(size=32))
        values = gaussian_cdf(s, 0.3, 1.7)
        assert np.all(np.diff(values) >= 0.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gaussian_cdf(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("variance", [-1.0, -0.0, math.nan, [1.0, math.nan], [math.nan, -1.0]])
    def test_a_variance_not_above_zero_nan_included_is_refused(self, variance):
        # NaN <= 0 is False, so a check for <= 0 let a NaN variance through
        with pytest.raises(InvalidArgumentError, match="variance must be > 0"):
            gaussian_cdf(0.1, 0.0, variance)


def two_state_stub(v_closest=0.04, means=(0.0, 1.0), variances=(0.04, 0.04)):
    moments = {
        (0.0,): (means[0], variances[0]),
        (1.0,): (means[1], variances[1]),
    }
    # one training row per state; targets equal the state means
    return StubModel(moments, [[0.0], [1.0]], list(means))


def _column_query_matrix(grid, fixed_covariates, ndim):
    """The query matrix built column by column: the oracle of _query_rows."""
    fixed = dict(fixed_covariates or {})
    unknown = set(fixed) - set(COLUMN_NAMES)
    if unknown:
        raise CovariateMismatchError(f"unknown fixed covariates {sorted(unknown)}")
    states = np.array(grid.states)
    columns = dict(zip(COLUMN_NAMES, states.T))
    for name, value in fixed.items():
        if name in columns:
            raise CovariateMismatchError(
                f"covariate {name!r} is fixed but already present in the grid"
            )
        columns[name] = np.full(len(states), float(value))
    needed = COLUMN_NAMES[:ndim]
    missing = [c for c in needed if c not in columns]
    if missing:
        raise CovariateMismatchError(f"model expects covariates {list(needed)}; missing {missing}")
    extra = [c for c in columns if c not in needed]
    if extra:
        raise CovariateMismatchError(f"covariates {extra} not used by a {ndim}-input model")
    return np.column_stack([columns[c] for c in needed])


def _query_row_matrix(grid, fixed_covariates, ndim):
    """_query_rows as a matrix, after checking that each row is a tuple of
    floats, as the state_moments keys are."""
    rows = _query_rows(grid, fixed_covariates, ndim)
    assert all(type(row) is tuple and set(map(type, row)) == {float} for row in rows)
    return np.array(rows)


def _query_outcome(build, grid, fixed, ndim):
    """(shape, dtype, C order, bytes) of the matrix build makes, or its error's text."""
    try:
        q = build(grid, fixed, ndim)
    except CovariateMismatchError as exc:
        return str(exc)
    return q.shape, q.dtype, q.flags.c_contiguous, q.tobytes()


class TestStateProbabilities:
    def test_exact_match_gives_two_sigma_mass(self):
        # test DI equals the state's mean and V(x) = V{y_closest}
        model = two_state_stub()
        table = state_probabilities(model, StateGrid([(0.0,), (1.0,)]), 0.0)
        assert table.closest_training_di == 0.0
        assert table.closest_variance == 0.04
        assert table.probability((0.0,)) == pytest.approx(TWO_SIGMA_MASS, abs=1e-12)
        assert table.argmax_state == (0.0,)
        assert not table.low_confidence

    def test_far_test_di_flags_low_confidence(self):
        model = two_state_stub()
        table = state_probabilities(model, StateGrid([(0.0,), (1.0,)]), 50.0)
        assert all(p <= 0.01 for _, p in table.entries)
        assert table.low_confidence

    def test_probability_monotone_in_interval_width(self):
        grid = StateGrid([(0.0,), (1.0,)])
        narrow = state_probabilities(two_state_stub(), grid, 0.37)
        wide_model = StubModel(
            {(0.0,): (0.0, 0.25), (1.0,): (1.0, 0.04)},
            [[0.0], [1.0]],
            [0.37, 1.0],  # closest row now carries variance 0.25
        )
        wide = state_probabilities(wide_model, grid, 0.37)
        assert wide.closest_variance > narrow.closest_variance
        for state in ((0.0,), (1.0,)):
            # same state moments for state 1; its probability must not drop
            if state == (1.0,):
                assert wide.probability(state) >= narrow.probability(state)

    def test_grid_order_invariance(self):
        model = two_state_stub()
        t1 = state_probabilities(model, StateGrid([(0.0,), (1.0,)]), 0.4)
        t2 = state_probabilities(model, StateGrid([(1.0,), (0.0,)]), 0.4)
        assert t1.entries == t2.entries
        assert t1.argmax_state == t2.argmax_state

    def test_symmetric_states_get_equal_probability(self):
        model = StubModel(
            {(0.0,): (-1.5, 0.09), (1.0,): (1.5, 0.09)},
            [[0.0], [1.0]],
            [-1.5, 1.5],
        )
        table = state_probabilities(model, StateGrid([(0.0,), (1.0,)]), 0.0)
        p0, p1 = table.probability((0.0,)), table.probability((1.0,))
        assert abs(p0 - p1) <= 1e-12

    def test_exact_tie_breaks_toward_smaller_damage(self):
        model = StubModel(
            {(0.0,): (0.5, 0.04), (1.0,): (0.5, 0.04)},
            [[0.0], [1.0]],
            [0.5, 0.5],
        )
        table = state_probabilities(model, StateGrid([(0.0,), (1.0,)]), 0.5)
        assert table.probability((0.0,)) == table.probability((1.0,))
        assert table.argmax_state == (0.0,)

    def test_probabilities_within_unit_interval(self, rng):
        model = two_state_stub()
        for _ in range(100):
            table = state_probabilities(
                model, StateGrid([(0.0,), (1.0,)]), rng.normal(0.5, 2.0)
            )
            assert all(0.0 <= p <= 1.0 for _, p in table.entries)

    def test_covariate_mismatch_detected(self):
        model = two_state_stub()
        with pytest.raises(CovariateMismatchError):
            state_probabilities(model, StateGrid([(0.0,), (1.0,)]), 0.0, {"load": 1.0})

    @pytest.mark.parametrize(
        "grid_states, fixed, fragment",
        [
            ([(0.0, 5.0)], {"torque": 1.0}, "unknown fixed covariates ['torque']"),
            ([(0.0, 5.0)], {"load": 5.0}, "'load' is fixed but already present"),
            ([(0.0,)], {"switch": 1.0}, "missing ['load']"),
            ([(0.0, 5.0)], {}, "missing ['switch']"),
        ],
    )
    def test_query_covariate_errors_name_the_column(self, grid_states, fixed, fragment):
        model = StubModel({(0.0, 5.0, 1.0): (0.0, 1.0)}, [[0.0, 5.0, 1.0]], [0.0])
        with pytest.raises(CovariateMismatchError, match=re.escape(fragment)):
            state_probabilities(model, StateGrid(grid_states), 0.0, fixed)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        states=st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=6
        ),
        width=st.sampled_from([1, 2]),
        fixed=st.lists(
            st.tuples(st.sampled_from(["damage", "load", "switch", "torque"]), st.floats(-5, 5)),
            max_size=3,
        ),
        ndim=st.integers(0, 3),
    )
    def test_query_matrix_equals_the_column_oracle(self, states, width, fixed, ndim):
        grid = StateGrid([s[:width] for s in states])
        assert _query_outcome(_query_row_matrix, grid, dict(fixed), ndim) == _query_outcome(
            _column_query_matrix, grid, dict(fixed), ndim
        )

    def test_sequence_gives_one_table_per_di_in_input_order(self):
        model = two_state_stub()
        grid = StateGrid([(0.0,), (1.0,)])
        dis = [0.9, 0.0, 50.0, 0.4, 0.9]
        tables = state_probabilities(model, grid, dis)
        assert isinstance(tables, list)
        assert [t.test_di for t in tables] == dis
        assert tables == [state_probabilities(model, grid, di) for di in dis]
        assert state_probabilities(model, grid, np.array(dis)) == tables

    def test_matrix_of_test_dis_rejected(self):
        with pytest.raises(InvalidArgumentError, match="1-D sequence"):
            state_probabilities(two_state_stub(), StateGrid([(0.0,)]), [[0.0, 1.0]])


def per_di_oracle(model, grid, test_di, fixed=None):
    """The quantification rule for one DI, written out in plain Python.

    Returns (closest target, its variance, probabilities, argmax state,
    low_confidence).
    """
    fixed = fixed or {}
    targets = np.asarray(model.train_targets).ravel()
    rows = range(targets.size)
    if "switch" in fixed:
        rows = [i for i in rows if model.train_inputs[i, 2] == fixed["switch"]]
    row = min(rows, key=lambda i: (abs(targets[i] - test_di), i))
    variance = float(model.row_variance[row])
    half_width = 2.0 * math.sqrt(variance)
    # a training state's moments are the model's own; the others are
    # predicted together, in grid order
    queries = [(*state, *fixed.values()) for state in grid.states]
    moments = [model.state_moments.get(q) for q in queries]
    others = [k for k, m in enumerate(moments) if m is None]
    if others:
        predicted = model.predict(np.array([queries[k] for k in others]))
        for k, m, v in zip(others, predicted.mean, predicted.variance):
            moments[k] = (m, v)
    probs = []
    for m, v in moments:
        p = gaussian_cdf(test_di + half_width, m, v) - gaussian_cdf(test_di - half_width, m, v)
        probs.append(min(max(p, 0.0), 1.0))
    best = max(range(len(probs)), key=lambda k: (probs[k], [-v for v in grid.states[k]]))
    low = probs[best] < DEFAULT_LOW_CONFIDENCE_THRESHOLD
    return float(targets[row]), variance, probs, grid.states[best], low


@pytest.fixture(scope="module")
def oracle_cases():
    """(model, grid, fixed covariates) on trained SGPR and VHGPR models.

    Some targets are copied onto rows of other states, so equal targets
    with different predictive variances exist and the row tie rule shows.
    """
    rng = np.random.default_rng(7)
    x = np.repeat(np.arange(5.0), 6).reshape(-1, 1)
    y = 0.8 * x.ravel() + rng.normal(0.0, 0.05 + 0.04 * x.ravel())
    y[[9, 20]] = y[[2, 14]]
    vhgpr = train_vhgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))

    class1 = lambda d, w: 1.0 * d + 0.02 * w  # noqa: E731
    class2 = lambda d, w: 0.3 * w + 0.05 * d  # noqa: E731
    xs, ys = eq20_layout(
        [0.0, 1.0, 2.0], [0.0, 5.0], class1, class2, reps=3, noise=0.05, rng=rng
    )
    ys[[4, 30]] = ys[[0, 21]]
    sgpr = train_sgpr(xs, ys, OptimizerConfig(n_restarts=1, seed=0))
    grid2 = StateGrid.from_training_inputs(xs)
    return {
        "vhgpr": (vhgpr, StateGrid.from_training_inputs(x), None),
        "vhgpr-refined": (vhgpr, StateGrid.from_training_inputs(x).refine(2), None),
        "sgpr-switch-1": (sgpr, grid2, {"switch": 1.0}),
        "sgpr-switch-2": (sgpr, grid2, {"switch": 2.0}),
    }


def _equidistant_points(targets):
    """Points exactly as far from two adjacent distinct targets."""
    values = np.unique(targets)
    mids = (values[:-1] + values[1:]) / 2.0
    return [float(m) for m, a, b in zip(mids, values[:-1], values[1:]) if abs(a - m) == abs(b - m)]


@pytest.mark.parametrize("case", ["vhgpr", "vhgpr-refined", "sgpr-switch-1", "sgpr-switch-2"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_path_matches_per_di_oracle(case, oracle_cases, data):
    # Both read the nearest row's variance and the training states' moments
    # from the model and predict the other states in one query, so every
    # number is equal, not merely close.
    model, grid, fixed = oracle_cases[case]
    targets = np.asarray(model.train_targets)
    if fixed:
        targets = targets[model.train_inputs[:, 2] == fixed["switch"]]
    ties = _equidistant_points(targets)
    assert ties
    lo, hi = float(targets.min()) - 1.0, float(targets.max()) + 1.0
    test_dis = data.draw(
        st.lists(
            st.one_of(
                st.floats(lo, hi),
                st.sampled_from([float(t) for t in targets]),
                st.sampled_from(ties),
                # far enough that rounding ties the distances to many targets
                st.floats(-1e18, 1e18),
            ),
            min_size=1,
            max_size=12,
        )
    )
    tables = state_probabilities(model, grid, test_dis, fixed)
    assert len(tables) == len(test_dis)
    for di, table in zip(test_dis, tables):
        y_closest, v_closest, probs, argmax, low = per_di_oracle(model, grid, di, fixed)
        assert table.test_di == di
        assert table.closest_training_di == y_closest
        assert table.closest_variance == v_closest
        assert [p for _, p in table.entries] == probs
        assert table.argmax_state == argmax
        assert table.low_confidence == low


class TestStateGrid:
    def test_sorted_unique(self):
        grid = StateGrid([(2.0, 1.0), (0.0, 5.0), (2.0, 1.0), (0.0, 0.0)])
        assert grid.states == [(0.0, 0.0), (0.0, 5.0), (2.0, 1.0)]

    def test_refine_inserts_interpolated_damages(self):
        grid = StateGrid([(0.0,), (2.0,)]).refine(1)
        assert grid.states == [(0.0,), (1.0,), (2.0,)]

    def test_refine_keeps_load_slices_separate(self):
        grid = StateGrid([(0.0, 5.0), (2.0, 5.0), (0.0, 10.0), (2.0, 10.0)]).refine(1)
        assert grid.states == [
            (0.0, 5.0), (0.0, 10.0), (1.0, 5.0), (1.0, 10.0), (2.0, 5.0), (2.0, 10.0),
        ]

    def test_refine_zero_is_identity(self):
        grid = StateGrid([(0.0,), (3.0,)])
        assert grid.refine(0).states == grid.states

    def test_from_training_inputs_drops_switch(self):
        inputs = np.array([[0.0, 5.0, 1.0], [1.0, 5.0, 2.0], [0.0, 5.0, 2.0]])
        grid = StateGrid.from_training_inputs(inputs)
        assert grid.states == [(0.0, 5.0), (1.0, 5.0)]

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            StateGrid([])


def make_separated_di_data(rng, n_states=5, reps=20, gap=1.0, noise=0.05):
    damages = np.arange(float(n_states))
    x = np.repeat(damages, reps).reshape(-1, 1)
    y = gap * x.ravel() + rng.normal(0.0, noise, x.size)
    return x, y, damages


class TestPredictSingleState:
    def test_healthy_null_case(self, rng):
        x, y, damages = make_separated_di_data(rng)
        model = train_sgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
        grid = StateGrid([(d,) for d in damages])
        table = predict_single_state(model, grid, test_di=0.0)
        assert table.argmax_state == (0.0,)

    def test_overlapping_states_split_mass(self):
        # overlapped states (means 0.5 and 0.6, sd 0.4) probed with a narrow
        # window: the nearest training DI sits on a tight anchor state
        model = StubModel(
            {(0.0,): (0.5, 0.16), (1.0,): (0.6, 0.16), (2.0,): (0.55, 0.01)},
            [[0.0], [1.0], [2.0]],
            [0.5, 0.6, 0.55],
        )
        table = predict_single_state(model, StateGrid([(0.0,), (1.0,)]), 0.55)
        assert table.closest_variance == 0.01
        assert table.max_probability < 0.9
        p = [p for _, p in table.entries]
        assert min(p) > 0.25 * max(p)  # mass genuinely split, not one-sided

    def test_batch_argmax_accuracy_on_separated_states(self, rng):
        x, y, damages = make_separated_di_data(rng, gap=1.0, noise=0.1)
        model = train_sgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
        grid = StateGrid([(d,) for d in damages])
        correct = 0
        trials = 0
        for d in damages:
            for _ in range(4):
                test_di = d + rng.normal(0.0, 0.1)
                table = predict_single_state(model, grid, test_di)
                trials += 1
                correct += table.argmax_state == (d,)
        assert correct / trials >= 0.9

    def test_rejects_two_dimensional_grid(self, rng):
        x, y, damages = make_separated_di_data(rng)
        model = train_sgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
        with pytest.raises(InvalidArgumentError):
            predict_single_state(model, StateGrid([(0.0, 1.0)]), 0.0)

    def test_zero_noise_monotone_di_predicted_exactly(self):
        # every training DI maps back to its own state when the DI curve is
        # strictly monotone and noise-free
        from gwquant.damage_index import build_di_dataset
        from gwquant.signals import SimulationConfig, simulate_dataset

        config = SimulationConfig(
            center_frequency=50e3,
            sample_rate=1e6,
            path_delay=10e-6,
            damage_attenuation_coeff=0.2,
            n_samples=200,
            n_replicates=2,
            rng_seed=0,
        )
        signals = simulate_dataset(config, [0.0, 1.0, 2.0, 3.0, 4.0], [0.0])
        dataset = build_di_dataset(
            signals, "rmsd", "fixed", n_use=200, fixed_reference=(0.0, 0.0)
        )
        model = train_sgpr(dataset.inputs, dataset.targets, OptimizerConfig(n_restarts=1, seed=0))
        grid = StateGrid([(d,) for d in (0.0, 1.0, 2.0, 3.0, 4.0)])
        for di, damage in zip(dataset.targets, dataset.inputs[:, 0]):
            table = predict_single_state(model, grid, di)
            assert table.argmax_state == (damage,)


def eq20_layout(damages, loads, class1_fn, class2_fn, reps=1, noise=0.0, rng=None):
    """X = class-1 block then class-2 block with the switch covariate."""
    rows, targets = [], []
    for switch, fn in ((1.0, class1_fn), (2.0, class2_fn)):
        for d in damages:
            for w in loads:
                for _ in range(reps):
                    value = fn(d, w)
                    if noise and rng is not None:
                        value += rng.normal(0.0, noise)
                    rows.append((d, w, switch))
                    targets.append(value)
    return np.array(rows), np.array(targets)


@pytest.fixture(scope="module")
def trained():
    damages = [0.0, 1.0, 2.0, 3.0, 4.0]
    loads = [0.0, 5.0, 10.0, 15.0]
    class1 = lambda d, w: 1.0 * d + 0.02 * w  # noqa: E731
    class2 = lambda d, w: 0.3 * w + 0.05 * d  # noqa: E731
    x, y = eq20_layout(damages, loads, class1, class2)
    model = train_sgpr(x, y, OptimizerConfig(n_restarts=1, seed=1))
    return model, damages, loads, class1, class2


class TestPredictTwoStates:

    def test_noise_free_grid_recovered_exactly(self, trained):
        model, damages, loads, class1, class2 = trained
        for true_d in damages:
            for true_w in loads:
                class1_dis = [(w_ref, class1(true_d, true_w)) for w_ref in loads]
                provider = lambda d: class2(d, true_w)  # noqa: E731
                pred = predict_two_states(model, class1_dis, provider, damages, loads)
                assert pred.predicted_damage == true_d
                assert pred.predicted_load == true_w

    def test_baseline_state_maps_to_origin(self, trained):
        model, damages, loads, class1, class2 = trained
        class1_dis = [(w_ref, class1(0.0, 0.0)) for w_ref in loads]
        pred = predict_two_states(
            model, class1_dis, lambda d: class2(d, 0.0), damages, loads
        )
        assert (pred.predicted_damage, pred.predicted_load) == (0.0, 0.0)
        assert pred.step2_table.argmax_state == (0.0, 0.0)
        assert all(s[0] == 0.0 for s, _ in pred.step2_table.entries)

    def test_missing_class2_reference_raises(self, trained):
        model, damages, loads, class1, _ = trained

        def provider(_damage):
            raise KeyError(_damage)

        class1_dis = [(w, class1(1.0, 5.0)) for w in loads]
        with pytest.raises(MissingBaselineError):
            predict_two_states(model, class1_dis, provider, damages, loads)

    def test_step1_never_reads_class2_moments(self, trained):
        model, damages, loads, class1, class2 = trained
        phase = {"current": "step1"}
        seen = {"step1": [], "step2": []}

        class Watched(Mapping):
            """The model's state_moments, recording the switch of every key read."""

            def __getitem__(self, key):
                seen[phase["current"]].append(key[2])
                return model.state_moments[key]

            def __iter__(self):
                return iter(model.state_moments)

            def __len__(self):
                return len(model.state_moments)

        class Instrumented:
            def __init__(self, inner):
                self._inner = inner
                self.train_inputs = inner.train_inputs
                self.train_targets = inner.train_targets
                self.row_variance = inner.row_variance
                self.state_moments = Watched()
                self.ndim = inner.ndim

            def predict(self, xq):
                seen[phase["current"]].extend(np.atleast_2d(xq)[:, 2].tolist())
                return self._inner.predict(xq)

        def provider(d):
            phase["current"] = "step2"
            return class2(d, 10.0)

        class1_dis = [(w, class1(2.0, 10.0)) for w in loads]
        predict_two_states(Instrumented(model), class1_dis, provider, damages, loads)
        assert seen["step1"] and set(seen["step1"]) == {1.0}
        assert seen["step2"] and set(seen["step2"]) == {2.0}

    def test_step1_predicts_a_fixed_number_of_times(self, trained):
        model, damages, loads, class1, class2 = trained

        class Counting:
            def __init__(self, inner):
                self._inner = inner
                self.train_inputs = inner.train_inputs
                self.train_targets = inner.train_targets
                self.row_variance = inner.row_variance
                self.state_moments = inner.state_moments
                self.ndim = inner.ndim
                self.calls = 0

            def predict(self, xq):
                self.calls += 1
                return self._inner.predict(xq)

        calls = []
        for n_refs in (1, 4, 12):
            counting = Counting(model)
            class1_dis = [
                (loads[k % len(loads)], class1(2.0, 10.0) + 0.01 * k) for k in range(n_refs)
            ]
            predict_two_states(counting, class1_dis, lambda d: class2(d, 10.0), damages, loads)
            calls.append(counting.calls)
        # both steps score training states only: their moments are the
        # model's own, so no step predicts, however many DIs it scores
        assert calls == [0, 0, 0]

    def test_requires_three_input_model(self, rng):
        x, y, damages = make_separated_di_data(rng)
        model = train_sgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
        with pytest.raises(CovariateMismatchError):
            predict_two_states(model, [(0.0, 0.0)], lambda d: 0.0, [0.0], [0.0])


class TestSummarizePredictions:
    def test_exact_predictions_give_degenerate_boxes(self):
        true_states = [(0.0,), (0.0,), (2.0,), (2.0,)]
        boxes, errors = summarize_predictions(true_states, true_states)
        for state, median, q25, q75, _, _, outliers in boxes:
            assert median == q25 == q75 == state[0]
            assert outliers == []
        assert all(err_damage == 0.0 for *_, err_damage, _ in errors)

    def test_symmetric_errors_keep_median_on_truth(self):
        true_states = [(2.0,)] * 3
        boxes, _ = summarize_predictions(true_states, [(1.0,), (2.0,), (3.0,)])
        assert boxes[0][1] == 2.0

    def test_quartiles_match_sorting_oracle(self, rng):
        preds = rng.normal(2.0, 1.0, 12)
        true_states = [(2.0,)] * 12
        boxes, _ = summarize_predictions(true_states, [(float(p),) for p in preds])

        def quantile(sorted_values, q):
            # linear interpolation between closest ranks
            pos = q * (len(sorted_values) - 1)
            lo, hi = int(math.floor(pos)), int(math.ceil(pos))
            frac = pos - lo
            return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac

        ordered = sorted(preds)
        _, median, q25, q75, *_ = boxes[0]
        assert q25 == pytest.approx(quantile(ordered, 0.25), rel=1e-12)
        assert median == pytest.approx(quantile(ordered, 0.50), rel=1e-12)
        assert q75 == pytest.approx(quantile(ordered, 0.75), rel=1e-12)

    def test_two_state_error_records(self):
        true_states = [(1.0, 5.0)]
        _, errors = summarize_predictions(true_states, [(2.0, 10.0)])
        assert errors[0] == (1.0, 5.0, 2.0, 10.0, 1.0, 5.0)

    def test_whiskers_and_outliers(self):
        values = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0]
        true_states = [(0.0,)] * len(values)
        boxes, _ = summarize_predictions(true_states, [(v,) for v in values])
        *_, hi_whisker, outliers = boxes[0]
        assert outliers == [10.0]
        assert hi_whisker == 0.0


# The training-row variances a model holds: predicted in one call, when it is built.


@pytest.fixture
def loaded(oracle_cases, tmp_path, monkeypatch):
    """name -> (the oracle case's model saved and loaded afresh, its grid, fixed covariates)."""
    monkeypatch.setattr(persist, "_model_memo", {})
    cases = {}
    for name, (model, grid, fixed) in oracle_cases.items():
        path = tmp_path / f"{name}.json"
        save_model(path, model)
        cases[name] = (load_model(path), grid, fixed)
    return cases


@pytest.fixture
def predicts(monkeypatch):
    """The query shape of each sgpr_predict call made since the fixture was set up."""
    calls = []
    inner = gwquant.sgpr.sgpr_predict

    def counting(model, xq):
        calls.append(np.shape(xq))
        return inner(model, xq)

    monkeypatch.setattr(gwquant.sgpr, "sgpr_predict", counting)
    return calls


def _test_dis(model, fixed):
    """DIs whose nearest training rows are several distinct rows."""
    targets = np.asarray(model.train_targets)
    if fixed:
        targets = targets[model.train_inputs[:, 2] == fixed["switch"]]
    return [float(t) + 0.001 for t in targets[::3]]


def _tables(model, grid, fixed, dis=None):
    dis = _test_dis(model, fixed) if dis is None else dis
    tables = state_probabilities(model, grid, dis, fixed)
    return [(t.entries, t.closest_variance, t.argmax_state, t.low_confidence) for t in tables]


@pytest.mark.parametrize("case", ["vhgpr", "sgpr-switch-1"])
def test_a_repeated_request_on_a_loaded_model_predicts_only_the_grid(
    case, loaded, oracle_cases, predicts
):
    model, grid, fixed = loaded[case]
    first = _tables(model, grid, fixed)
    # a grid of training states: their moments and the nearest rows'
    # variances are the model's own, so nothing is predicted
    assert predicts == []
    assert _tables(model, grid, fixed) == first
    assert predicts == []
    # a loaded model answers as the trained one does
    assert first == _tables(oracle_cases[case][0], grid, fixed)


def test_building_a_model_predicts_its_training_rows_in_one_call(
    tmp_path, monkeypatch, predicts
):
    monkeypatch.setattr(persist, "_model_memo", {})
    x = np.linspace(0.0, 4.0, 1000)[:, None]
    y = np.sin(x.ravel())
    model = SgprModel.from_hyperparams(KernelParams(0.0, np.zeros(1)), -4.0, x, y)
    assert predicts == [(1000, 1)]
    path = tmp_path / "wide.json"
    save_model(path, model)
    loaded = load_model(path)
    assert predicts == [(1000, 1)] * 2
    assert loaded.row_variance.tobytes() == model.row_variance.tobytes()
    # a batch whose DIs are nearest to every row, over training states,
    # predicts nothing
    grid = StateGrid.from_training_inputs(x[::100])
    _tables(loaded, grid, None, [float(t) for t in y])
    assert predicts == [(1000, 1)] * 2


@pytest.mark.parametrize("case", ["vhgpr", "sgpr-switch-1"])
def test_row_variance_is_each_rows_predict_and_survives_a_reload(case, loaded, oracle_cases):
    model = oracle_cases[case][0]
    x = model.train_inputs
    one_row = [model.predict(x[i : i + 1]).variance[0] for i in range(len(x))]
    np.testing.assert_allclose(model.row_variance, one_row, rtol=1e-8, atol=0.0)
    _, inverse = np.unique(x, axis=0, return_inverse=True)
    assert inverse.max() + 1 < len(x)  # the case has replicates
    for state in range(inverse.max() + 1):
        assert np.unique(model.row_variance[inverse == state]).size == 1
    assert loaded[case][0].row_variance.tobytes() == model.row_variance.tobytes()


def _hyperparams_model():
    """A (damage, load) model built by from_hyperparams, its damages unsorted and repeated."""
    x = np.array([(d, w) for d in (2.0, 0.0, 0.5) for w in (0.0, 5.0) for _ in range(2)])
    y = 0.1 * x[:, 0] + 0.01 * x[:, 1]
    return SgprModel.from_hyperparams(KernelParams(0.0, np.zeros(2)), -4.0, x, y)


@pytest.mark.parametrize("case", ["vhgpr", "sgpr-switch-1", "from-hyperparams"])
def test_a_built_model_holds_the_grid_of_its_training_damages(
    case, oracle_cases, tmp_path, monkeypatch
):
    monkeypatch.setattr(persist, "_model_memo", {})
    model = _hyperparams_model() if case == "from-hyperparams" else oracle_cases[case][0]
    states = StateGrid.from_training_inputs(model.train_inputs, include_load=False).states
    assert states == sorted({(float(d),) for d in model.train_inputs[:, 0]})
    assert model.damage_grid.states == states
    path = tmp_path / "model.json"
    save_model(path, model)
    assert load_model(path).damage_grid.states == states


def _switch_hyperparams_model():
    """A (damage, load, switch) model built by from_hyperparams, unsorted, with
    loads 0.0 and -0.0 and a damage only one class has."""
    x = np.array(
        [(d, w, s) for d in (2.0, 0.0, 0.5) for w in (5.0, 0.0, -0.0) for s in (2.0, 1.0)]
        + [(3.0, 5.0, 1.0)]
    )
    y = 0.1 * x[:, 0] + 0.01 * x[:, 1] + 0.05 * x[:, 2]
    return SgprModel.from_hyperparams(KernelParams(0.0, np.zeros(3)), -4.0, x, y)


@pytest.mark.parametrize("case", ["vhgpr", "sgpr-switch-1", "from-hyperparams", "switch"])
def test_a_switch_model_holds_its_two_state_grids(case, oracle_cases, tmp_path, monkeypatch):
    """A (damage, load, switch) model holds its training loads and the grid of
    every training damage with every training load, with the bits of the grids
    two_state_scores built from np.unique on each request; other models hold None."""
    monkeypatch.setattr(persist, "_model_memo", {})
    model = {
        "from-hyperparams": _hyperparams_model, "switch": _switch_hyperparams_model
    }.get(case, lambda: oracle_cases[case][0])()
    path = tmp_path / "model.json"
    save_model(path, model)
    x = model.train_inputs
    for built in (model, load_model(path)):
        if x.shape[1] != 3:
            assert built.load_grid is None and built.damage_load_grid is None
            continue
        damages, loads = ([float(v) for v in np.unique(x[:, c])] for c in (0, 1))
        grid = StateGrid([(d, w) for d in damages for w in loads])
        assert repr(built.load_grid) == repr(tuple(loads))
        assert repr(built.damage_load_grid.states) == repr(grid.states)


def test_two_state_scores_on_the_kept_grids_equal_the_grids_given(oracle_cases):
    model = oracle_cases["sgpr-switch-1"][0]
    x = model.train_inputs
    class1 = [(0.0, 0.31), (5.0, 0.4)]
    kept = two_state_scores(model, class1, lambda d: 0.1 * d, None, None, 0.05)
    for damages, loads in [(np.unique(x[:, 0]), np.unique(x[:, 1])), (None, np.unique(x[:, 1])),
                           (np.unique(x[:, 0]), None)]:
        given = two_state_scores(model, class1, lambda d: 0.1 * d, damages, loads, 0.05)
        assert kept[1] == given[1]
        for a, b in ((kept[0], given[0]), (kept[2], given[2])):
            assert repr(a.states) == repr(b.states)
            for name in ("test_dis", "closest_dis", "closest_variances", "probabilities",
                         "best", "low_confidence"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_a_build_whose_row_variance_overflows_raises_and_is_not_kept(
    oracle_cases, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(persist, "_model_memo", {})
    model = oracle_cases["vhgpr"][0]
    path = tmp_path / "vhgpr.json"
    save_model(path, model)
    inner = gwquant.sgpr.sgpr_predict

    def overflowing(m, xq):
        moments = inner(m, xq)
        moments.variance[:] = np.float64(1e200) * 1e200
        return moments

    monkeypatch.setattr(gwquant.sgpr, "sgpr_predict", overflowing)
    for state in ("ignore", "warn", "raise"):
        with np.errstate(all=state), pytest.raises(FloatingPointError, match="overflow"):
            load_model(path)
        assert persist._model_memo == {}
    assert main(["predict", "--model-file", str(path), "--test-di", "0.5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: FloatingPointError: overflow")
    assert persist._model_memo == {}
    monkeypatch.setattr(gwquant.sgpr, "sgpr_predict", inner)
    assert load_model(path).row_variance.tobytes() == model.row_variance.tobytes()


def test_threads_sharing_a_loaded_model_get_the_answers_of_one_thread(loaded, oracle_cases):
    model, grid, fixed = loaded["sgpr-switch-1"]
    requests = [[di] for di in _test_dis(model, fixed)]
    trained = oracle_cases["sgpr-switch-1"][0]
    expected = [state_probabilities(trained, grid, r, fixed) for r in requests]
    errors = []

    def client(k):
        try:
            for j in range(60):
                i = (j + k) % len(requests)
                assert state_probabilities(model, grid, requests[i], fixed) == expected[i]
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


# The predictive moments a model holds at its training states: one predict, when it is built.


@pytest.mark.parametrize("case", ["vhgpr", "sgpr-switch-1", "from-hyperparams"])
def test_state_moments_are_the_predict_over_the_unique_rows(
    case, oracle_cases, tmp_path, monkeypatch
):
    monkeypatch.setattr(persist, "_model_memo", {})
    model = _hyperparams_model() if case == "from-hyperparams" else oracle_cases[case][0]
    unique = np.unique(model.train_inputs, axis=0)
    moments = model.predict(unique)
    expected = {
        tuple(row): (m, v)
        for row, m, v in zip(unique.tolist(), moments.mean.tolist(), moments.variance.tolist())
    }
    path = tmp_path / "model.json"
    save_model(path, model)
    for built in (model, load_model(path)):
        held = dict(built.state_moments)
        assert list(held) == list(expected)
        # keys and moments are Python floats, as unique.tolist() gives them
        assert all(type(x) is float for key, value in held.items() for x in (*key, *value))
        held_bits = np.array(list(held.values())).tobytes()
        assert held_bits == np.array(list(expected.values())).tobytes()
        with pytest.raises(TypeError):
            built.state_moments[next(iter(expected))] = (0.0, 1.0)


@pytest.fixture
def predicted_rows(monkeypatch):
    """The query rows, as lists, of each sgpr_predict call made since the fixture was set up."""
    rows = []
    inner = gwquant.sgpr.sgpr_predict

    def spy(model, xq):
        rows.append(np.asarray(xq).tolist())
        return inner(model, xq)

    monkeypatch.setattr(gwquant.sgpr, "sgpr_predict", spy)
    return rows


def test_a_load_the_model_was_not_trained_at_predicts_the_grid_rows_once(predicted_rows):
    model = _hyperparams_model()
    assert 7.5 not in model.train_inputs[:, 1]
    grid = model.damage_grid
    del predicted_rows[:]  # the build's own predict
    tables = predict_single_state(model, grid, [0.05, 0.1, 0.2], known_load=7.5)
    # one predict, over the grid rows only: no nearest row is predicted
    assert predicted_rows == [[[d, 7.5] for (d,) in grid.states]]
    for table in tables:
        oracle = per_di_oracle(model, grid, table.test_di, {"load": 7.5})
        assert [p for _, p in table.entries] == oracle[2]


def test_a_grid_mixing_training_and_other_states_predicts_only_the_others(
    oracle_cases, predicted_rows
):
    model = oracle_cases["vhgpr"][0]
    grid = StateGrid([(0.0,), (0.5,), (1.0,), (2.5,), (4.0,), (3.25,)])
    assert {(0.0,), (1.0,), (4.0,)} <= set(model.state_moments)
    dis = [0.1, 1.7, 3.3]
    tables = state_probabilities(model, grid, dis)
    # one predict, over the states the model was not trained at, in grid order
    assert predicted_rows == [[[0.5], [2.5], [3.25]]]
    for di, table in zip(dis, tables):
        _, v_closest, probs, argmax, low = per_di_oracle(model, grid, di)
        assert (table.closest_variance, table.argmax_state, table.low_confidence) == (
            v_closest, argmax, low
        )
        assert [p for _, p in table.entries] == probs


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_fixed_covariate_is_refused_before_any_arithmetic(value, oracle_cases):
    # the refusal comes before any arithmetic, so no predict runs and numpy
    # warns of nothing
    message = re.escape(f"fixed covariate 'load' must be finite, got {value!r}")
    model = _hyperparams_model()
    with np.errstate(all="raise"), pytest.raises(InvalidArgumentError, match=message):
        predict_single_state(model, model.damage_grid, 0.21, known_load=value)
    sgpr, grid, _ = oracle_cases["sgpr-switch-1"]
    message = re.escape(f"fixed covariate 'switch' must be finite, got {value!r}")
    with np.errstate(all="raise"), pytest.raises(InvalidArgumentError, match=message):
        state_probabilities(sgpr, grid, 0.21, {"switch": value})
    with pytest.raises(InvalidArgumentError, match=message):
        _query_rows(grid, {"switch": value}, 3)


# score_test_dis against the formulation it replaced, kept as its reference


def _stacked_scores(model, grid, test_dis, fixed, threshold):
    """The scoring core as first written: a query matrix whose rows go back
    to tuples, nearest rows mapped through arange, and both interval ends
    stacked into one gaussian_cdf call. Returns Scores' fields in order."""
    fixed = fixed or {}
    tail = tuple(float(fixed[c]) for c in COLUMN_NAMES[len(grid.states[0]) : model.ndim])
    queries = np.array([state + tail for state in grid.states])

    targets = np.asarray(model.train_targets, dtype=float).ravel()
    rows = np.arange(targets.size)
    if fixed.get("switch") is not None and model.ndim >= 3:
        rows = rows[np.asarray(model.train_inputs)[:, 2] == fixed["switch"]]
    candidates = targets[rows]
    step = max(1, quantify._SEARCH_BLOCK // rows.size)
    nearest = np.empty(test_dis.size, dtype=int)
    for start in range(0, test_dis.size, step):
        block = test_dis[start : start + step, None]
        nearest[start : start + step] = rows[np.abs(candidates - block).argmin(axis=1)]
    y_closest = targets[nearest]
    v_closest = model.row_variance[nearest]
    half_width = (2.0 * np.sqrt(v_closest))[:, None]
    bounds = np.stack((test_dis[:, None] + half_width, test_dis[:, None] - half_width))

    moments = [model.state_moments.get(row) for row in map(tuple, queries.tolist())]
    missing = [i for i, m in enumerate(moments) if m is None]
    if missing:
        predicted = model.predict(queries[missing])
        for i, m, v in zip(missing, predicted.mean.tolist(), predicted.variance.tolist()):
            moments[i] = (m, v)
    mean, variance = np.array(moments).T
    upper, lower = gaussian_cdf(bounds, mean, variance)
    probs = (upper - lower).clip(0.0, 1.0)
    best = probs.argmax(axis=1)
    top = probs[np.arange(best.size), best]
    return grid.states, test_dis, y_closest, v_closest, probs, best, top < threshold


def _random_model(rng, x, y):
    """An SGPR or a VHGPR model of random hyperparameters on rows x, y."""
    d = x.shape[1]
    kernel = KernelParams(rng.normal(0.0, 0.5), rng.normal(0.0, 0.5, d))
    if rng.random() < 0.5:
        return SgprModel.from_hyperparams(kernel, rng.uniform(-6.0, -1.0), x, y)
    kernel_g = KernelParams(rng.normal(-1.0, 0.5), rng.normal(0.0, 0.5, d))
    state = VhgprState(kernel, kernel_g, rng.uniform(-5.0, -2.0), rng.uniform(0.0, 2.0, len(x)))
    return VhgprModel.from_state(state, x, y)


def _scoring_cases(rng, draw_layout):
    """(name, model, grid, fixed covariates) over random replicate layouts and
    both-class layouts: training grids, refined grids, an untrained load and
    the two switch-filtered grids of a two-state request."""
    for i in range(12):
        x, y = draw_layout(rng)
        y[rng.integers(len(y))] = y[0]  # an equal target at another row: a tied distance
        model = _random_model(rng, x, y)
        name = f"layout{i}-{type(model).__name__}-d{model.ndim}"
        if model.ndim == 1:
            yield name, model, model.damage_grid, None
            yield name + "-refined", model, model.damage_grid.refine(2), None
        elif model.ndim == 2:
            full = StateGrid.from_training_inputs(x)
            yield name, model, full, None
            yield name + "-refined", model, full.refine(1), None
            yield name + "-trained-load", model, model.damage_grid, {"load": float(x[0, 1])}
            untrained = float(x[:, 1].max()) + 1.0
            yield name + "-untrained-load", model, model.damage_grid, {"load": untrained}
        else:
            fixed = {"switch": float(x[0, 2])}
            yield name + "-switch", model, StateGrid.from_training_inputs(x), fixed
    for i in range(4):
        x, y = eq20_layout(
            [0.0, 1.0, 2.0], [0.0, 5.0], lambda d, w: d + 0.02 * w, lambda d, w: 0.3 * w + 0.05 * d,
            reps=3, noise=0.05, rng=rng,
        )
        y[[4, 30]] = y[[0, 21]]
        model = _random_model(rng, x, y)
        name = f"both-classes{i}-{type(model).__name__}"
        yield name + "-step1", model, StateGrid.from_training_inputs(x), {"switch": 1.0}
        damage = float(rng.choice([0.0, 1.0, 2.0]))
        step2 = StateGrid([(damage, 0.0), (damage, 5.0)])
        yield name + "-step2", model, step2, {"switch": 2.0}


def _scored_dis(rng, model, fixed, size):
    """size test DIs: the searched targets themselves, points equally far from
    two of them, draws across their range and far points that tie many."""
    targets = np.asarray(model.train_targets)
    if fixed and "switch" in fixed:
        targets = targets[model.train_inputs[:, 2] == fixed["switch"]]
    pool = [
        *targets.tolist(),
        *_equidistant_points(targets),
        *rng.uniform(targets.min() - 1.0, targets.max() + 1.0, 8).tolist(),
        1e18, -1e18,
    ]
    return np.array(rng.choice(pool, size))


def test_the_scoring_core_equals_its_stacked_reference_bit_for_bit(
    rng, replicate_layout, monkeypatch
):
    # a small search block, so that batches fall on both sides of one block
    monkeypatch.setattr(quantify, "_SEARCH_BLOCK", 64)
    seen = set()
    for name, model, grid, fixed in _scoring_cases(rng, replicate_layout):
        searched = np.asarray(model.train_targets)
        if fixed and "switch" in fixed:
            searched = searched[model.train_inputs[:, 2] == fixed["switch"]]
        step = max(1, quantify._SEARCH_BLOCK // searched.size)
        for size in sorted({1, max(1, step - 1), step, step + 1, 3 * step + 2}):
            seen.add("one block" if size <= step else "blocks")
            test_dis = _scored_dis(rng, model, fixed, size)
            got = score_test_dis(model, grid, test_dis, fixed, DEFAULT_LOW_CONFIDENCE_THRESHOLD)
            want = _stacked_scores(model, grid, test_dis, fixed, DEFAULT_LOW_CONFIDENCE_THRESHOLD)
            assert got.states == want[0], name
            for field_name, expected in zip(
                ("test_dis", "closest_dis", "closest_variances", "probabilities", "best",
                 "low_confidence"),
                want[1:],
            ):
                value = getattr(got, field_name)
                assert value.dtype == expected.dtype, (name, field_name)
                assert value.shape == expected.shape, (name, field_name)
                assert value.tobytes() == expected.tobytes(), (name, field_name, size)
    assert seen == {"one block", "blocks"}


def test_one_block_and_blocked_searches_find_the_same_rows(rng, replicate_layout, monkeypatch):
    """_nearest_rows searches a batch that fits one block without its block
    loop; any block size gives the rows of the one-block search."""
    for name, model, _, fixed in _scoring_cases(rng, replicate_layout):
        switch = (fixed or {}).get("switch")
        test_dis = _scored_dis(rng, model, fixed, 40)
        one_block = quantify._nearest_rows(model, test_dis, switch)
        searched = np.asarray(model.train_targets)
        if switch is not None:
            searched = searched[model.train_inputs[:, 2] == switch]
        for block in (1, searched.size, 3 * searched.size + 1, 40 * searched.size - 1):
            monkeypatch.setattr(quantify, "_SEARCH_BLOCK", block)
            blocked = quantify._nearest_rows(model, test_dis, switch)
            assert blocked.dtype == one_block.dtype, name
            assert blocked.tolist() == one_block.tolist(), (name, block)
        monkeypatch.undo()
