"""VHGPR bound, gradient and prediction tests against dense-inverse oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import spearmanr

from gwquant.kernels import KernelParams, _as_2d, kernel_matrix
from gwquant.linalg import solve_lower
from gwquant.persist import load_model, save_model
from gwquant.sgpr import OptimizerConfig, SgprModel, sgpr_predict, train_sgpr
from gwquant.vhgpr import (
    _EXP_CLIP,
    VhgprModel,
    VhgprState,
    _posterior,
    mv_bound,
    softplus,
    softplus_inverse,
    train_vhgpr,
    vhgpr_predict,
)

FAST_OPT = OptimizerConfig(n_restarts=2, seed=0)


def gaussian_kl(m0, s0, m1, s1):
    """KL(N(m0, s0) || N(m1, s1)) by direct dense formulas."""
    n = len(m0)
    s1_inv = np.linalg.inv(s1)
    delta = m1 - m0
    return 0.5 * (
        np.trace(s1_inv @ s0)
        + delta @ s1_inv @ delta
        - n
        + np.linalg.slogdet(s1)[1]
        - np.linalg.slogdet(s0)[1]
    )


def dense_bound(state: VhgprState, x, y):
    """Independent term-by-term evaluation of the bound via dense inverses.

    mu and Sigma follow the reparametrization mu = K_g (Lambda - I/2) 1
    + mu0 1, Sigma = (K_g^-1 + Lambda)^-1; requires an invertible K_g.
    """
    n = len(y)
    kf = kernel_matrix(x, x, state.kernel_f)
    kg = kernel_matrix(x, x, state.kernel_g)
    lam = np.diag(state.variational_lambda)
    sigma = np.linalg.inv(np.linalg.inv(kg) + lam)
    mu = kg @ (state.variational_lambda - 0.5) + state.mu0
    r = np.diag(np.exp(mu - np.diag(sigma) / 2.0))
    w = kf + r
    log_gauss = (
        -0.5 * y @ np.linalg.inv(w) @ y
        - 0.5 * np.linalg.slogdet(w)[1]
        - 0.5 * n * math.log(2 * math.pi)
    )
    kl = gaussian_kl(mu, sigma, state.mu0 * np.ones(n), kg)
    return log_gauss - 0.25 * np.trace(sigma) - kl


def random_state(rng, n, d, lam_low=0.05, lam_high=1.5):
    return VhgprState(
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        float(rng.normal(-0.5, 0.5)),
        rng.uniform(lam_low, lam_high, n),
    )


class TestMvBound:
    def test_kl_of_identical_gaussians_is_zero(self, rng):
        b = rng.normal(size=(4, 4))
        s = b @ b.T + 4 * np.eye(4)
        m = rng.normal(size=4)
        assert abs(gaussian_kl(m, s, m, s)) <= 1e-12

    def test_value_matches_dense_term_by_term_oracle(self, rng):
        n, d = 7, 2
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        state = random_state(rng, n, d)
        value, _ = mv_bound(state, x, y)
        assert value == pytest.approx(-dense_bound(state, x, y), rel=1e-10)

    def test_zero_lambda_value_against_dense_oracle(self, rng):
        # Lambda = 0 collapses Sigma to K_g and mu to mu0 - K_g 1 / 2; the
        # dense oracle needs lambda > 0 for its inverse, so take the limit
        # by direct substitution instead.
        n, d = 6, 1
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        state = random_state(rng, n, d)
        state.variational_lambda = np.zeros(n)
        value, _ = mv_bound(state, x, y)

        kf = kernel_matrix(x, x, state.kernel_f)
        kg = kernel_matrix(x, x, state.kernel_g)
        mu = state.mu0 - 0.5 * kg @ np.ones(n)
        r = np.diag(np.exp(mu - np.diag(kg) / 2.0))
        w = kf + r
        log_gauss = (
            -0.5 * y @ np.linalg.inv(w) @ y
            - 0.5 * np.linalg.slogdet(w)[1]
            - 0.5 * n * math.log(2 * math.pi)
        )
        kl = gaussian_kl(mu, kg, state.mu0 * np.ones(n), kg)
        assert kl == pytest.approx(0.125 * np.ones(n) @ kg @ np.ones(n), rel=1e-10)
        expected = -(log_gauss - 0.25 * np.trace(kg) - kl)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_gradient_matches_central_differences(self, rng):
        n, d = 10, 1
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        state = random_state(rng, n, d)
        theta = state.pack()
        _, grad = mv_bound(state, x, y)

        def value_at(t):
            return mv_bound(VhgprState.unpack(t, d), x, y)[0]

        h = 1e-5
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (value_at(tp) - value_at(tm)) / (2 * h)
            denom = max(abs(grad[j]), abs(fd), 1e-4 * (1 + np.abs(grad).max()))
            assert abs(grad[j] - fd) / denom <= 1e-4

    def test_softplus_round_trip(self):
        rho = np.array([-3.0, 0.0, 2.5])
        assert np.allclose(softplus_inverse(softplus(rho)), rho, atol=1e-12)
        assert softplus_inverse(np.array([0.0]))[0] == -np.inf

    def test_preconditions(self, rng):
        from gwquant.errors import DimensionMismatchError, InvalidArgumentError

        state = random_state(rng, 4, 1)
        with pytest.raises(InvalidArgumentError):
            mv_bound(state, rng.normal(size=(1, 1)), rng.normal(size=1))
        with pytest.raises(DimensionMismatchError):
            # lambda sized for 4 rows, data has 6
            mv_bound(state, rng.normal(size=(6, 1)), rng.normal(size=6))


class TestTrainVhgpr:
    def test_homoscedastic_agreement_with_sgpr(self, rng):
        x = np.repeat(np.arange(5.0), 12).reshape(-1, 1)
        y = 0.5 * x.ravel() ** 1.3 + rng.normal(0.0, 0.05, x.size)
        sgpr = train_sgpr(x, y, FAST_OPT)
        vhgpr = train_vhgpr(x, y, FAST_OPT)
        q = np.linspace(0.0, 4.0, 50).reshape(-1, 1)
        gap = np.abs(sgpr_predict(sgpr, q).mean - vhgpr_predict(vhgpr, q).mean)
        assert np.max(gap) <= 0.02 * y.std()

    def test_heteroscedastic_noise_tracks_truth(self, rng):
        x = np.repeat(np.arange(6.0), 15).reshape(-1, 1)
        true_std = 0.03 + 0.05 * x.ravel()
        y = np.sin(0.8 * x.ravel()) + rng.normal(0.0, true_std)
        model = train_vhgpr(x, y, FAST_OPT)
        q = np.arange(6.0).reshape(-1, 1)
        mom = vhgpr_predict(model, q)
        # noise part of the predictive variance, per state
        states = np.unique(model.train_inputs, axis=0)
        vf = np.maximum(
            model.kernel.output_variance
            - np.sum(
                np.linalg.solve(model.chol_factor, kernel_matrix(states, q, model.kernel)) ** 2,
                axis=0,
            ),
            0.0,
        )
        noise_var = mom.variance - vf
        truth = (0.03 + 0.05 * np.arange(6.0)) ** 2
        corr = spearmanr(noise_var, truth).statistic
        assert corr >= 0.9

    def test_final_bound_not_worse_than_initialization(self, rng):
        x = np.repeat(np.arange(4.0), 8).reshape(-1, 1)
        y = x.ravel() + rng.normal(0.0, 0.1, x.size)
        opt = OptimizerConfig(n_restarts=1, seed=0)
        sgpr = train_sgpr(x, y, opt)
        init = VhgprState(
            sgpr.kernel,
            KernelParams(0.0, sgpr.kernel.log_length_scales.copy()),
            sgpr.log_noise_variance,
            np.full(x.shape[0], 0.5),
        )
        init_value, _ = mv_bound(init, x, y)
        model = train_vhgpr(x, y, opt)
        final_state = VhgprState(
            model.kernel, model.kernel_g, model.mu0, model.variational_lambda
        )
        final_value, _ = mv_bound(final_state, x, y)
        assert final_value <= init_value + 1e-9

    def test_accepted_iterates_monotone_and_r_positive(self, rng):
        n = 24
        x = np.repeat(np.arange(4.0), 6).reshape(-1, 1)
        y = x.ravel() + rng.normal(0.0, 0.1, n)
        state0 = VhgprState(
            KernelParams(0.0, [0.0]), KernelParams(0.0, [0.0]), -2.0, np.full(n, 0.5)
        )
        trace = []

        def record(theta):
            state = VhgprState.unpack(theta, 1)
            value, _ = mv_bound(state, x, y)
            kg = kernel_matrix(x, x, state.kernel_g)
            r = _posterior(kg, state.variational_lambda, np.ones(n), state.mu0)["r"]
            assert np.all(r > 0.0)
            trace.append(value)

        minimize(
            lambda t: mv_bound(VhgprState.unpack(t, 1), x, y),
            state0.pack(),
            jac=True,
            method="L-BFGS-B",
            callback=record,
            options={"maxiter": 60},
        )
        assert len(trace) > 3
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


class TestVhgprPredict:
    def test_matches_naive_dense_inverse(self, rng):
        n, d, m = 6, 2, 5
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        state = random_state(rng, n, d)
        model = VhgprModel.from_state(state, x, y)
        mom = vhgpr_predict(model, rng.normal(size=(m, d)))

        kf = kernel_matrix(x, x, state.kernel_f)
        kg = kernel_matrix(x, x, state.kernel_g)
        lam = state.variational_lambda
        sigma = np.linalg.inv(np.linalg.inv(kg) + np.diag(lam))
        mu = kg @ (lam - 0.5) + state.mu0
        w = kf + np.diag(np.exp(mu - np.diag(sigma) / 2.0))
        w_inv = np.linalg.inv(w)
        kfs = kernel_matrix(mom.query_inputs, x, state.kernel_f)
        kgs = kernel_matrix(mom.query_inputs, x, state.kernel_g)
        a_star = kfs @ w_inv @ y
        c2 = state.kernel_f.output_variance - np.einsum("ij,jk,ik->i", kfs, w_inv, kfs)
        mu_star = kgs @ (lam - 0.5) + state.mu0
        s2 = state.kernel_g.output_variance - np.einsum(
            "ij,jk,ik->i", kgs, np.linalg.inv(kg + np.diag(1.0 / lam)), kgs
        )
        var = c2 + np.exp(mu_star + s2 / 2.0)
        assert np.max(np.abs(mom.mean - a_star) / np.abs(a_star)) <= 1e-9
        assert np.max(np.abs(mom.variance - var) / np.abs(var)) <= 1e-9

    def test_degenerate_query_gives_unit_variance(self):
        # c*^2 ~ 0, mu* -> mu0 = -sigma_g^2/2 and s*^2 -> sigma_g^2 far from
        # the data, so the variance tends to exp(0) = 1
        sigma_g2 = 0.5
        state = VhgprState(
            KernelParams(math.log(1e-12), [0.0]),
            KernelParams(math.log(sigma_g2), [0.0]),
            -sigma_g2 / 2.0,
            np.array([0.3, 0.3]),
        )
        x = np.array([[0.0], [1.0]])
        y = np.array([0.1, -0.2])
        model = VhgprModel.from_state(state, x, y)
        mom = vhgpr_predict(model, np.array([[500.0]]))
        assert mom.variance[0] == pytest.approx(1.0, abs=1e-9)

    def test_far_field_prior_reversion(self, rng):
        n, d = 5, 1
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        state = random_state(rng, n, d)
        model = VhgprModel.from_state(state, x, y)
        mom = vhgpr_predict(model, np.array([[1e4]]))
        kf_ss = state.kernel_f.output_variance
        kg_ss = state.kernel_g.output_variance
        expected = kf_ss + math.exp(state.mu0 + kg_ss / 2.0)
        assert mom.mean[0] == pytest.approx(0.0, abs=1e-12)
        assert mom.variance[0] == pytest.approx(expected, rel=1e-12)

    def test_variance_strictly_positive(self, rng):
        n, d = 12, 1
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = VhgprModel.from_state(random_state(rng, n, d), x, y)
        mom = vhgpr_predict(model, rng.normal(scale=3.0, size=(200, d)))
        assert np.all(mom.variance > 0.0)

    def test_predictive_noise_moments_match_the_row_posterior_at_train(self, rng):
        # the literal mu*/s*^2 expressions, with the model's S-factor over its
        # unique rows, reproduce the row-level posterior mu and diag(Sigma)
        # when queried at the training inputs
        n, d = 8, 2
        x = np.repeat(rng.normal(size=(n // 2, d)), 2, axis=0)
        y = rng.normal(size=n)
        state = random_state(rng, n, d)
        model = VhgprModel.from_state(state, x, y)
        kgs = kernel_matrix(x, x, state.kernel_g)
        post = _posterior(kgs, state.variational_lambda, np.ones(n), state.mu0)
        mu_star = kgs @ (state.variational_lambda - 0.5) + state.mu0
        kg_states = kernel_matrix(x, np.unique(x, axis=0), state.kernel_g)
        quad = np.sum((model.u_g @ kg_states.T) ** 2, axis=0)
        s2_star = state.kernel_g.output_variance - quad
        assert np.max(np.abs(mu_star - post["mu"])) <= 1e-8 * (1 + np.max(np.abs(post["mu"])))
        assert np.max(np.abs(s2_star - post["sigma_diag"])) <= 1e-8 * (
            1 + np.max(np.abs(post["sigma_diag"]))
        )

    def test_row_posterior_satisfies_reparametrization_identities(self, rng):
        n, d = 7, 1
        x = rng.normal(size=(n, d))
        state = random_state(rng, n, d)
        kg = kernel_matrix(x, x, state.kernel_g)
        post = _posterior(kg, state.variational_lambda, np.ones(n), state.mu0)
        sigma = np.linalg.inv(np.linalg.inv(kg) + np.diag(state.variational_lambda))
        mu = kg @ (state.variational_lambda - 0.5) + state.mu0
        assert np.max(np.abs(post["mu"] - mu)) <= 1e-8 * (1 + np.max(np.abs(mu)))
        assert np.max(np.abs(post["sigma_diag"] - np.diag(sigma))) <= 1e-8
        assert np.max(np.abs(post["r"] - np.exp(mu - np.diag(sigma) / 2))) <= 1e-8

    def test_reduces_to_sgpr_when_noise_gp_collapses(self, rng):
        # Lambda = 0 and vanishing kernel_g output variance make the noise
        # model constant exp(mu0)
        n, d = 9, 1
        x = np.linspace(0.0, 4.0, n).reshape(-1, 1)
        y = rng.normal(size=n)
        mu0 = math.log(0.3)
        kf = KernelParams(0.2, [0.1])
        state = VhgprState(kf, KernelParams(math.log(1e-14), [0.0]), mu0, np.zeros(n))
        vmodel = VhgprModel.from_state(state, x, y)
        smodel = SgprModel.from_hyperparams(kf, mu0, x, y)
        xq = np.linspace(-1.0, 5.0, 20).reshape(-1, 1)
        vm = vhgpr_predict(vmodel, xq)
        sm = sgpr_predict(smodel, xq)
        denom = np.maximum(np.abs(sm.mean), 1e-6)
        assert np.max(np.abs(vm.mean - sm.mean) / denom) <= 1e-6


def test_vhgpr_persistence_round_trip(tmp_path, rng):
    x = np.repeat(np.arange(4.0), 6).reshape(-1, 1)
    y = x.ravel() + rng.normal(0.0, 0.1, x.size)
    model = train_vhgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
    path = tmp_path / "vhgpr.json"
    save_model(path, model, seed=3)
    loaded = load_model(path)
    xq = rng.uniform(0, 3, size=(7, 1))
    a, b = vhgpr_predict(model, xq), vhgpr_predict(loaded, xq)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)


def _kernel_before(xa, xb, params):
    """kernel_matrix as computed before a model prepared its rows."""
    sa = xa / params.length_scales
    sb = xb / params.length_scales
    d2 = np.sum(sa**2, axis=1)[:, None] + np.sum(sb**2, axis=1)[None, :] - 2.0 * sa @ sb.T
    return params.output_variance * np.exp(-0.5 * np.maximum(d2, 0.0))


def _predict_before(model, xq):
    """(mean, variance) of sgpr_predict and noise_at as computed before a model
    prepared its rows, over the model's unique training rows: the bit-for-bit
    oracle."""
    xq = _as_2d(xq)
    states, inverse, counts = np.unique(
        model.train_inputs, axis=0, return_inverse=True, return_counts=True
    )
    k_star = _kernel_before(xq, states, model.kernel)
    mean = k_star @ model.alpha + model.target_offset
    v = solve_lower(model.chol_factor, k_star.T)
    latent = model.kernel.output_variance - np.sum(v**2, axis=0)
    if isinstance(model, VhgprModel):
        kg_star = _kernel_before(xq, states, model.kernel_g)
        totals = np.bincount(inverse.ravel(), weights=model.variational_lambda)
        mu_star = kg_star @ (totals - 0.5 * counts) + model.mu0
        quad = np.sum((model.u_g @ kg_star.T) ** 2, axis=0)
        sig2_star = np.maximum(model.kernel_g.output_variance - quad, 0.0)
        noise = np.exp(np.clip(mu_star + 0.5 * sig2_star, -_EXP_CLIP, _EXP_CLIP))
    else:
        noise = model.noise_variance
    return mean, np.maximum(latent, 0.0) + noise


@pytest.mark.parametrize("kind", ["sgpr", "vhgpr"])
@pytest.mark.parametrize("seed", range(8))
def test_predict_equals_the_unprepared_predict_bit_for_bit(kind, seed, tmp_path):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    states = rng.uniform(0.0, 4.0, size=(1 + seed, d))
    x = np.repeat(states, 3, axis=0)  # replicates, as DI datasets have
    y = rng.normal(size=x.shape[0])
    kernel = KernelParams(rng.normal(), rng.normal(size=d))
    if kind == "sgpr":
        model = SgprModel.from_hyperparams(kernel, rng.normal() - 3.0, x, y, target_offset=0.25)
    else:
        kernel_g = KernelParams(rng.normal(), rng.normal(size=d))
        lam = rng.uniform(0.0, 2.0, size=x.shape[0])
        model = VhgprModel.from_hyperparams(kernel, kernel_g, -3.0, lam, x, y, target_offset=0.25)
    save_model(tmp_path / "model.json", model)
    loaded = load_model(tmp_path / "model.json")
    queries = [rng.uniform(-1.0, 5.0, size=(7, d)), x, x[:1], states]
    for m in (model, loaded):
        for xq in queries:
            mean, variance = _predict_before(m, xq)
            got = sgpr_predict(m, xq)
            assert np.array_equal(got.mean, mean)
            assert np.array_equal(got.variance, variance)


def dense_row_predict(state: VhgprState, x, y, offset, xq):
    """(mean, variance) of the posterior given every row by N x N dense algebra.

    q(g) is written through A = I + Lambda^1/2 K_g Lambda^1/2, with
    S = Lambda^1/2 A^-1 Lambda^1/2 and Sigma = K_g - K_g S K_g, because K_g
    is singular when rows repeat.
    """
    n = len(y)
    lam = state.variational_lambda
    kg = kernel_matrix(x, x, state.kernel_g)
    sqrt_lam = np.sqrt(lam)
    s = sqrt_lam[:, None] * np.linalg.inv(np.eye(n) + sqrt_lam[:, None] * kg * sqrt_lam) * sqrt_lam
    sigma = kg - kg @ s @ kg
    mu = kg @ (lam - 0.5) + state.mu0
    w = kernel_matrix(x, x, state.kernel_f) + np.diag(np.exp(mu - np.diag(sigma) / 2.0))
    kfs = kernel_matrix(xq, x, state.kernel_f)
    kgs = kernel_matrix(xq, x, state.kernel_g)
    latent = state.kernel_f.output_variance - np.einsum("ij,ji->i", kfs, np.linalg.solve(w, kfs.T))
    s2 = state.kernel_g.output_variance - np.einsum("ij,jk,ik->i", kgs, s, kgs)
    noise = np.exp(kgs @ (lam - 0.5) + state.mu0 + s2 / 2.0)
    return kfs @ np.linalg.solve(w, y - offset) + offset, np.maximum(latent, 0.0) + noise


@pytest.mark.parametrize("seed", range(20))
def test_a_model_on_replicates_predicts_what_the_dense_row_algebra_gives(seed, replicate_layout):
    rng = np.random.default_rng(seed)
    x, y = replicate_layout(rng)
    n, d = x.shape
    state = random_state(rng, n, d, lam_low=0.0, lam_high=2.0)
    state.mu0 -= 2.0
    model = VhgprModel.from_state(state, x, y, target_offset=0.25)
    states, inverse = np.unique(x, axis=0, return_inverse=True)
    n_u, inverse = len(states), inverse.ravel()
    assert model.chol_factor.shape == model.u_g.shape == (n_u, n_u)
    assert model.alpha.size == model.centered_lambda.size == n_u
    assert model.f_rows.scaled.shape[0] == model.g_rows.scaled.shape[0] == n_u
    xq = np.vstack((x, rng.uniform(-1.0, 5.0, size=(6, d))))
    mean, variance = dense_row_predict(state, x, y, 0.25, xq)
    got = model.predict(xq)
    np.testing.assert_allclose(got.mean, mean, rtol=0.0, atol=1e-9 * np.abs(mean).max())
    np.testing.assert_allclose(got.variance, variance, rtol=1e-9)

    # the model sees lambda only through each state's total, and the rows in
    # any order: moving lambda within a state, or permuting the rows, keeps it
    share = rng.uniform(0.1, 1.0, size=n)
    share /= np.bincount(inverse, weights=share)[inverse]
    moved = VhgprState(
        state.kernel_f, state.kernel_g, state.mu0,
        np.bincount(inverse, weights=state.variational_lambda)[inverse] * share,
    )
    order = rng.permutation(n)
    permuted = VhgprState(
        state.kernel_f, state.kernel_g, state.mu0, state.variational_lambda[order]
    )
    scale = np.abs(got.mean).max()
    for other in (
        VhgprModel.from_state(moved, x, y, target_offset=0.25),
        VhgprModel.from_state(permuted, x[order], y[order], target_offset=0.25),
    ):
        again = other.predict(xq)
        np.testing.assert_allclose(again.mean, got.mean, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(again.variance, got.variance, rtol=1e-12)
