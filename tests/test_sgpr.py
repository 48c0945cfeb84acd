"""SGPR training, prediction and metric tests with independent oracles."""

import math

import numpy as np
import pytest

from gwquant.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from gwquant.kernels import KernelParams, kernel_matrix
from gwquant.persist import load_model, save_model
from gwquant.sgpr import (
    OptimizerConfig,
    SgprModel,
    evaluate_fit,
    sgpr_nlml,
    sgpr_predict,
    train_sgpr,
)
from gwquant.vhgpr import VhgprModel, VhgprState, mv_bound, train_vhgpr

FAST_OPT = OptimizerConfig(n_restarts=2, seed=0)
_KERNEL = KernelParams(0.0, [0.0])


def _state(x):
    return VhgprState(_KERNEL, _KERNEL, -2.0, np.full(len(x), 0.5))


# every entry point that takes training rows: (the fewest rows it takes, a call)
_ROW_TAKERS = {
    "sgpr_nlml": (1, lambda x, y: sgpr_nlml(_KERNEL, -2.0, x, y)),
    "mv_bound": (2, lambda x, y: mv_bound(_state(x), x, y)),
    "train_sgpr": (2, lambda x, y: train_sgpr(x, y, FAST_OPT)),
    "train_vhgpr": (2, lambda x, y: train_vhgpr(x, y, FAST_OPT)),
    "SgprModel.from_hyperparams": (
        1, lambda x, y: SgprModel.from_hyperparams(_KERNEL, -2.0, x, y)
    ),
    "VhgprModel.from_state": (1, lambda x, y: VhgprModel.from_state(_state(x), x, y)),
    "VhgprModel.from_hyperparams": (
        1,
        lambda x, y: VhgprModel.from_hyperparams(
            _KERNEL, _KERNEL, -2.0, np.full(len(x), 0.5), x, y
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_ROW_TAKERS))
def test_every_row_taker_refuses_short_targets_and_too_few_rows_alike(name, capfd):
    fewest, call = _ROW_TAKERS[name]
    x = np.arange(4.0).reshape(-1, 1)
    with pytest.raises(DimensionMismatchError, match="^4 training rows but 3 targets$"):
        call(x, np.zeros(3))
    few = x[: fewest - 1]
    message = f"^need n >= {fewest} training rows, got {fewest - 1}$"
    # refused before any arithmetic: numpy warns of nothing (a warning fails
    # the test) and LAPACK prints nothing
    with pytest.raises(InvalidArgumentError, match=message):
        call(few, np.zeros(fewest - 1))
    assert capfd.readouterr() == ("", "")


def rel_err(a, b, floor=1e-8):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestNlml:
    def test_single_point_zero_target_is_half_log_2pi_c(self):
        params = KernelParams(math.log(0.8), [0.0])
        log_noise = math.log(0.3)
        c = 0.8 + 0.3
        value, _ = sgpr_nlml(params, log_noise, np.array([[0.5]]), np.array([0.0]))
        assert value == pytest.approx(0.5 * math.log(2 * math.pi * c), rel=1e-12)

    def test_gradient_matches_central_differences(self, rng):
        n, d = 12, 2
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        theta = rng.normal(0.0, 0.5, d + 2)

        def value_at(t):
            return sgpr_nlml(KernelParams.unpack(t[:-1]), t[-1], x, y)[0]

        _, grad = sgpr_nlml(KernelParams.unpack(theta[:-1]), theta[-1], x, y)
        h = 1e-5
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (value_at(tp) - value_at(tm)) / (2 * h)
            assert rel_err(grad[j], fd, floor=1e-4 * (1 + np.abs(grad).max())) <= 1e-5

    def test_duplicated_data_value_matches_block_formula(self, rng):
        # Duplicating every (x, y) block-diagonalizes the covariance under
        # the pair mean/difference transform, giving the closed form
        #   nlml_2n = y^T (2K + sn2 I)^-1 y + 0.5 log|2K + sn2 I|
        #             + (n/2) log sn2 + n log 2pi
        n, d = 8, 1
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        params = KernelParams(0.2, [0.1])
        log_noise = math.log(0.4)
        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        value, _ = sgpr_nlml(params, log_noise, x2, y2)

        k = kernel_matrix(x, x, params)
        m = 2.0 * k + 0.4 * np.eye(n)
        expected = (
            float(y @ np.linalg.solve(m, y))
            + 0.5 * float(np.linalg.slogdet(m)[1])
            + 0.5 * n * math.log(0.4)
            + n * math.log(2 * math.pi)
        )
        assert value == pytest.approx(expected, rel=1e-10)

    def test_duplicated_data_keeps_minimizing_length_scale(self, rng):
        # Jointly re-optimizing the duplicated problem is ill-posed (its
        # nlml diverges as both the noise and the length scale shrink), but
        # profiling over the kernel parameters at fixed noise, duplication
        # at sn2 is exactly the single problem at sn2/2, so the minimizing
        # length scale is preserved. Re-optimize both and compare.
        from scipy.optimize import minimize

        n = 8
        x = np.linspace(0.0, 3.0, n).reshape(-1, 1)
        y = np.sin(1.5 * x).ravel() + 0.05 * rng.normal(size=n)
        sn2 = 0.05**2

        def argmin_kernel(xd, yd, noise_var):
            def f(t):
                value, grad = sgpr_nlml(KernelParams.unpack(t), math.log(noise_var), xd, yd)
                return value, grad[:-1]

            res = minimize(f, np.zeros(2), jac=True, method="L-BFGS-B",
                           options={"ftol": 1e-12, "gtol": 1e-8})
            return res.x

        t_single = argmin_kernel(x, y, sn2 / 2.0)
        t_dup = argmin_kernel(np.vstack([x, x]), np.concatenate([y, y]), sn2)
        assert abs(t_single[1] - t_dup[1]) <= 1e-4


class TestTrainSgpr:
    def test_noise_free_sine_interpolates(self):
        x = np.linspace(0.0, 2 * math.pi, 15).reshape(-1, 1)
        y = np.sin(x).ravel()
        model = train_sgpr(x, y, FAST_OPT)
        moments = sgpr_predict(model, x)
        assert np.max(np.abs(moments.mean - y)) <= 1e-6

    def test_constant_targets_warn_and_recover_constant(self):
        x = np.linspace(0.0, 1.0, 10).reshape(-1, 1)
        y = np.full(10, 5.0)
        with pytest.warns(UserWarning, match="constant"):
            model = train_sgpr(x, y, FAST_OPT, center_targets=True)
        moments = sgpr_predict(model, np.array([[0.5]]))
        assert moments.mean[0] == pytest.approx(5.0, rel=1e-2)

    def test_heteroscedastic_noise_lands_between_extremes(self, rng):
        x = np.repeat(np.arange(5.0), 20).reshape(-1, 1)
        stds = 0.05 + 0.05 * x.ravel()
        y = 2.0 * x.ravel() + rng.normal(0.0, stds)
        model = train_sgpr(x, y, FAST_OPT)
        assert stds.min() ** 2 <= model.noise_variance <= stds.max() ** 2

    def test_rejects_single_row(self):
        with pytest.raises(InvalidArgumentError):
            train_sgpr(np.array([[0.0]]), np.array([1.0]), FAST_OPT)


class TestSgprPredict:
    def test_single_training_point_interpolation(self):
        model = SgprModel.from_hyperparams(
            KernelParams(0.0, [0.0]), math.log(1e-12), np.array([[0.0]]), np.array([1.0])
        )
        moments = sgpr_predict(model, np.array([[0.0]]))
        assert moments.mean[0] == pytest.approx(1.0, abs=1e-9)
        # exact value is sn2 (2 + sn2) / (1 + sn2) ~ 2 sn2: noise-floor scale
        assert 1e-12 - 1e-24 <= moments.variance[0] <= 3e-12

    def test_far_query_reverts_to_prior(self):
        model = SgprModel.from_hyperparams(
            KernelParams(math.log(2.0), [0.0]),
            math.log(0.5),
            np.array([[0.0], [1.0]]),
            np.array([1.0, 2.0]),
        )
        moments = sgpr_predict(model, np.array([[50.0]]))
        assert moments.mean[0] == pytest.approx(0.0, abs=1e-9)
        assert moments.variance[0] == pytest.approx(2.5, rel=1e-9)

    def test_matches_naive_dense_inverse(self, rng):
        n, d, m = 6, 2, 4
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        params = KernelParams(0.3, rng.normal(size=d))
        noise = 0.2
        model = SgprModel.from_hyperparams(params, math.log(noise), x, y)
        xq = rng.normal(size=(m, d))
        moments = sgpr_predict(model, xq)

        ky_inv = np.linalg.inv(kernel_matrix(x, x, params) + noise * np.eye(n))
        ks = kernel_matrix(xq, x, params)
        mean = ks @ ky_inv @ y
        var = params.output_variance - np.einsum("ij,jk,ik->i", ks, ky_inv, ks) + noise
        assert np.max(rel_err(moments.mean, mean)) <= 1e-9
        assert np.max(rel_err(moments.variance, var)) <= 1e-9

    def test_variance_never_below_noise_floor(self, rng):
        x = rng.normal(size=(20, 1))
        y = rng.normal(size=20)
        model = SgprModel.from_hyperparams(KernelParams(0.0, [0.0]), math.log(0.1), x, y)
        moments = sgpr_predict(model, rng.normal(size=(50, 1)))
        assert np.all(moments.variance >= 0.1 - 1e-12)

    def test_permutation_invariance(self, rng):
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        params = KernelParams(0.1, [0.0, 0.2])
        xq = rng.normal(size=(6, 2))
        m1 = sgpr_predict(SgprModel.from_hyperparams(params, -1.0, x, y), xq)
        perm = rng.permutation(15)
        m2 = sgpr_predict(SgprModel.from_hyperparams(params, -1.0, x[perm], y[perm]), xq)
        assert np.max(rel_err(m1.mean, m2.mean)) <= 1e-9
        assert np.max(rel_err(m1.variance, m2.variance)) <= 1e-9

    def test_duplicate_training_point_leaves_mean_unchanged(self, rng):
        # holds in the interpolation regime (well-separated inputs, tiny
        # noise): a duplicate of a genuinely noisy observation is extra
        # evidence and shifts the mean by O(sn2 * ||alpha||)
        x = np.linspace(0.0, 9.0, 10).reshape(-1, 1)
        y = rng.normal(size=10)
        params = KernelParams(0.0, [math.log(0.7)])
        log_noise = math.log(1e-10)
        xq = rng.uniform(0.0, 9.0, size=(5, 1))
        base = sgpr_predict(SgprModel.from_hyperparams(params, log_noise, x, y), xq)
        x2 = np.vstack([x, x[:1]])
        y2 = np.concatenate([y, y[:1]])
        dup = sgpr_predict(SgprModel.from_hyperparams(params, log_noise, x2, y2), xq)
        assert np.max(rel_err(base.mean, dup.mean, floor=1e-6)) <= 1e-6

    def test_dimension_mismatch(self, rng):
        model = SgprModel.from_hyperparams(
            KernelParams(0.0, [0.0]), -1.0, rng.normal(size=(4, 1)), rng.normal(size=4)
        )
        with pytest.raises(DimensionMismatchError):
            sgpr_predict(model, rng.normal(size=(3, 2)))


class TestEvaluateFit:
    def _moments(self, mean):
        from gwquant.sgpr import PredictiveMoments

        mean = np.asarray(mean, dtype=float)
        return PredictiveMoments(mean, np.ones_like(mean), np.zeros((mean.size, 1)))

    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        metrics = evaluate_fit(self._moments(y), y, np.array([0.0, 4.0]))
        assert metrics.nmse == 0.0
        assert metrics.rss_sss_percent == 0.0

    def test_train_mean_predictor_has_unit_nmse(self):
        y_train = np.array([1.0, 3.0])
        y_true = np.array([1.5, 2.5, 4.0])
        metrics = evaluate_fit(self._moments(np.full(3, 2.0)), y_true, y_train)
        assert metrics.nmse == pytest.approx(1.0, rel=1e-12)

    def test_random_case_matches_hand_computation(self, rng):
        y_true = rng.normal(size=10)
        y_train = rng.normal(size=7)
        pred = rng.normal(size=10)
        metrics = evaluate_fit(self._moments(pred), y_true, y_train)
        nmse = np.mean((y_true - pred) ** 2) / np.mean((y_true - y_train.mean()) ** 2)
        rss = 100.0 * np.sum((y_true - pred) ** 2) / np.sum(y_true**2)
        assert metrics.nmse == pytest.approx(nmse, rel=1e-12)
        assert metrics.rss_sss_percent == pytest.approx(rss, rel=1e-12)

    def test_nlpd_is_the_mean_negative_gaussian_log_density(self, rng):
        from gwquant.sgpr import PredictiveMoments
        from scipy.stats import norm

        y_true = rng.normal(size=12)
        mean = rng.normal(size=12)
        variance = rng.uniform(0.01, 3.0, size=12)
        moments = PredictiveMoments(mean, variance, np.zeros((12, 1)))
        metrics = evaluate_fit(moments, y_true, rng.normal(size=5))
        oracle = -np.mean(norm.logpdf(y_true, loc=mean, scale=np.sqrt(variance)))
        assert metrics.nlpd == pytest.approx(oracle, rel=1e-12)

    def test_coverage_counts_targets_within_two_sd(self):
        from gwquant.sgpr import PredictiveMoments

        # |y - m| against 2 sd: 0 <= 2, 1 <= 1 (on the edge), 2.5 > 2, 3 <= 4
        moments = PredictiveMoments(np.zeros(4), [1.0, 0.25, 1.0, 4.0], np.zeros((4, 1)))
        metrics = evaluate_fit(moments, np.array([0.0, 1.0, 2.5, -3.0]), np.array([1.0, 2.0]))
        assert metrics.coverage_2sd == 0.75

    def test_degenerate_denominator_raises(self):
        y = np.zeros(3)
        with pytest.raises(InvalidArgumentError):
            evaluate_fit(self._moments(y), y, np.zeros(2))


def test_noise_free_heldout_nmse_small(rng):
    x = np.linspace(0.0, 4.0, 30).reshape(-1, 1)
    y = np.sin(2.0 * x).ravel()
    train_idx = np.arange(0, 30, 2)
    test_idx = np.arange(1, 30, 2)
    model = train_sgpr(x[train_idx], y[train_idx], FAST_OPT)
    metrics = evaluate_fit(
        sgpr_predict(model, x[test_idx]), y[test_idx], y[train_idx]
    )
    assert metrics.nmse <= 1e-3


def test_trained_model_factorization_invariants(rng):
    # four states of five replicates: the model factors K_uu + diag(sn2 / 5)
    # at the states and solves it against each state's mean target
    x = np.repeat(np.arange(4.0), 5).reshape(-1, 1)
    y = x.ravel() + 0.05 * rng.normal(size=20)
    model = train_sgpr(x, y, FAST_OPT)
    states = np.arange(4.0).reshape(-1, 1)
    ky = kernel_matrix(states, states, model.kernel) + model.noise_variance / 5 * np.eye(4)
    recon = model.chol_factor @ model.chol_factor.T
    # reconstruction may include the escalated jitter on the diagonal
    jitter = (recon - ky)[0, 0]
    assert np.linalg.norm(recon - ky - jitter * np.eye(4)) <= 1e-10 * np.linalg.norm(ky)
    means = y.reshape(4, 5).mean(axis=1)
    residual = (ky + jitter * np.eye(4)) @ model.alpha - means
    assert np.linalg.norm(residual) <= 1e-8 * max(np.linalg.norm(means), 1.0)


def dense_sgpr_predict(kernel, log_noise, x, y, offset, xq):
    """(mean, variance) of the posterior given every row: N x N dense solves."""
    noise = math.exp(log_noise)
    w = kernel_matrix(x, x, kernel) + noise * np.eye(len(y))
    ks = kernel_matrix(xq, x, kernel)
    latent = kernel.output_variance - np.einsum("ij,ji->i", ks, np.linalg.solve(w, ks.T))
    return ks @ np.linalg.solve(w, y - offset) + offset, np.maximum(latent, 0.0) + noise


@pytest.mark.parametrize("seed", range(20))
def test_a_model_on_replicates_predicts_what_the_dense_row_algebra_gives(seed, replicate_layout):
    rng = np.random.default_rng(seed)
    x, y = replicate_layout(rng)
    d = x.shape[1]
    kernel = KernelParams(rng.normal(0.0, 0.5), rng.normal(0.0, 0.4, d))
    log_noise = rng.normal(-3.0, 0.5)
    model = SgprModel.from_hyperparams(kernel, log_noise, x, y, target_offset=0.25)
    n_u = len(np.unique(x, axis=0))
    assert model.chol_factor.shape == (n_u, n_u)
    assert model.alpha.size == model.unique_inputs.shape[0] == n_u
    xq = np.vstack((x, rng.uniform(-1.0, 5.0, size=(6, d))))
    mean, variance = dense_sgpr_predict(kernel, log_noise, x, y, 0.25, xq)
    got = model.predict(xq)
    np.testing.assert_allclose(got.mean, mean, rtol=0.0, atol=1e-9 * np.abs(mean).max())
    np.testing.assert_allclose(got.variance, variance, rtol=1e-9)

    # the same rows in another order make the same model
    order = rng.permutation(len(y))
    shuffled = SgprModel.from_hyperparams(kernel, log_noise, x[order], y[order], 0.25).predict(xq)
    scale = np.abs(got.mean).max()
    np.testing.assert_allclose(shuffled.mean, got.mean, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(shuffled.variance, got.variance, rtol=1e-12)


class TestMinimizeWithRestarts:
    def test_result_not_worse_than_any_start(self):
        from gwquant.sgpr import minimize_with_restarts

        calls = []

        def quadratic(theta):
            calls.append(theta.copy())
            return float(np.sum((theta - 3.0) ** 2)), 2.0 * (theta - 3.0)

        config = OptimizerConfig(n_restarts=4, seed=1)
        theta, value = minimize_with_restarts(quadratic, np.zeros(3), config)
        assert np.allclose(theta, 3.0, atol=1e-5)
        start_values = [float(np.sum((c - 3.0) ** 2)) for c in calls]
        assert value <= min(start_values) + 1e-12

    def test_all_failures_raise(self):
        from gwquant.errors import OptimizerFailureError
        from gwquant.sgpr import minimize_with_restarts

        def broken(theta):
            return float("nan"), np.zeros_like(theta)

        with pytest.raises(OptimizerFailureError):
            minimize_with_restarts(broken, np.zeros(2), OptimizerConfig(n_restarts=2))

    def test_dimension_mismatch_propagates(self):
        from gwquant.sgpr import minimize_with_restarts

        def mis_shaped(theta):
            raise DimensionMismatchError("query has 2 columns, model expects 3")

        with pytest.raises(DimensionMismatchError, match="model expects 3"):
            minimize_with_restarts(mis_shaped, np.zeros(2), OptimizerConfig(n_restarts=2))

    @pytest.mark.parametrize(
        "error",
        [
            NotPositiveDefiniteError("not positive definite"),
            InvalidArgumentError("matrix contains non-finite entries"),
        ],
    )
    def test_bad_trial_points_are_rejected_not_raised(self, error):
        from gwquant.sgpr import minimize_with_restarts

        def quadratic_with_a_wall(theta):
            # a trial point beyond the wall fails the way a factorization does
            if theta[0] > 2.0:
                raise error
            return float(np.sum((theta - 3.0) ** 2)), 2.0 * (theta - 3.0)

        theta, value = minimize_with_restarts(
            quadratic_with_a_wall, np.zeros(2), OptimizerConfig(n_restarts=1)
        )
        assert theta[0] <= 2.0
        assert value == pytest.approx(float(np.sum((theta - 3.0) ** 2)))


def test_persistence_round_trip(tmp_path, rng):
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    model = train_sgpr(x, y, FAST_OPT, center_targets=True)
    path = tmp_path / "model.json"
    save_model(path, model, seed=7)
    loaded = load_model(path)
    xq = rng.normal(size=(5, 2))
    a = sgpr_predict(model, xq)
    b = sgpr_predict(loaded, xq)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)
