"""State-quantification tests: CDF oracles, probability tables, two-step flow."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gwquant.errors import (
    CovariateMismatchError,
    InvalidArgumentError,
    MissingBaselineError,
)
from gwquant.quantify import (
    StateGrid,
    gaussian_cdf,
    predict_single_state,
    predict_two_states,
    state_probabilities,
    summarize_predictions,
)
from gwquant.sgpr import OptimizerConfig, PredictiveMoments, train_sgpr

TWO_SIGMA_MASS = math.erf(math.sqrt(2.0))  # Phi(2) - Phi(-2)


def gaussian_pdf(t, mean, var):
    return math.exp(-((t - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


class StubModel:
    """Duck-typed model with a fixed moment per state, for exact oracles."""

    def __init__(self, moments, train_inputs, train_targets):
        # moments: {query tuple: (mean, variance)}
        self.moments = {tuple(map(float, k)): v for k, v in moments.items()}
        self.train_inputs = np.atleast_2d(np.asarray(train_inputs, dtype=float))
        self.train_targets = np.asarray(train_targets, dtype=float)
        self.ndim = self.train_inputs.shape[1]

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


def two_state_stub(v_closest=0.04, means=(0.0, 1.0), variances=(0.04, 0.04)):
    moments = {
        (0.0,): (means[0], variances[0]),
        (1.0,): (means[1], variances[1]),
    }
    # one training row per state; targets equal the state means
    return StubModel(moments, [[0.0], [1.0]], list(means))


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

        class Instrumented:
            def __init__(self, inner):
                self._inner = inner
                self.train_inputs = inner.train_inputs
                self.train_targets = inner.train_targets
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

    def test_requires_three_input_model(self, rng):
        x, y, damages = make_separated_di_data(rng)
        model = train_sgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
        with pytest.raises(CovariateMismatchError):
            predict_two_states(model, [(0.0, 0.0)], lambda d: 0.0, [0.0], [0.0])


class TestSummarizePredictions:
    def test_exact_predictions_give_degenerate_boxes(self):
        true_states = [(0.0,), (0.0,), (2.0,), (2.0,)]
        report = summarize_predictions(true_states, true_states)
        for box in report.boxes:
            assert box.median == box.q25 == box.q75 == box.state[0]
            assert box.outliers == []
        assert all(r.err_damage == 0.0 for r in report.errors)

    def test_symmetric_errors_keep_median_on_truth(self):
        true_states = [(2.0,)] * 3
        report = summarize_predictions(true_states, [(1.0,), (2.0,), (3.0,)])
        assert report.boxes[0].median == 2.0

    def test_quartiles_match_sorting_oracle(self, rng):
        preds = rng.normal(2.0, 1.0, 12)
        true_states = [(2.0,)] * 12
        report = summarize_predictions(true_states, [(float(p),) for p in preds])

        def quantile(sorted_values, q):
            # linear interpolation between closest ranks
            pos = q * (len(sorted_values) - 1)
            lo, hi = int(math.floor(pos)), int(math.ceil(pos))
            frac = pos - lo
            return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac

        ordered = sorted(preds)
        box = report.boxes[0]
        assert box.q25 == pytest.approx(quantile(ordered, 0.25), rel=1e-12)
        assert box.median == pytest.approx(quantile(ordered, 0.50), rel=1e-12)
        assert box.q75 == pytest.approx(quantile(ordered, 0.75), rel=1e-12)

    def test_two_state_error_records(self):
        true_states = [(1.0, 5.0)]
        report = summarize_predictions(true_states, [(2.0, 10.0)])
        rec = report.errors[0]
        assert rec.err_damage == 1.0
        assert rec.err_load == 5.0

    def test_whiskers_and_outliers(self):
        values = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0]
        true_states = [(0.0,)] * len(values)
        box = summarize_predictions(true_states, [(v,) for v in values]).boxes[0]
        assert box.outliers == [10.0]
        assert box.hi_whisker == 0.0
