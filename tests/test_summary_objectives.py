"""The training objectives on the replicate summary against the row oracles.

sgpr_nlml and mv_bound compute on the n_u unique states of their rows; the
dense N x N row formulations in oracles.py compute on every row. Both give
one value and one gradient per row, so they must agree wherever the row
algebra needs no jitter, and the summary must not care how the rows are
ordered or how lambda is spread within a state.
"""

import math

import numpy as np
import pytest

import gwquant.sgpr
import gwquant.vhgpr
import oracles
from gwquant.kernels import KernelParams, kernel_matrix
from gwquant.linalg import _JITTER_START
from gwquant.sgpr import OptimizerConfig, sgpr_nlml
from gwquant.vhgpr import VhgprState, mv_bound, train_vhgpr

LAYOUTS = range(30)


def random_state(rng, n, d):
    return VhgprState(
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        float(rng.normal(-0.5, 0.5)),
        rng.uniform(0.0, 2.0, n),
    )


def random_problem(seed, replicate_layout):
    """(rng, x, y, log noise, state) on a replicate layout, lambda per row."""
    rng = np.random.default_rng(seed)
    x, y = replicate_layout(rng)
    state = random_state(rng, *x.shape)
    return rng, x, y, float(rng.normal(-1.0, 0.5)), state


def objectives(x, y, log_noise, state, module=None):
    """[(value, gradient)] of sgpr_nlml and mv_bound from gwquant or oracles."""
    nlml = module.sgpr_nlml if module else sgpr_nlml
    bound = module.mv_bound if module else mv_bound
    return [nlml(state.kernel_f, log_noise, x, y), bound(state, x, y)]


@pytest.fixture
def row_jitter(monkeypatch):
    """Each jitter robust_cholesky returns to gwquant.sgpr (the factor of
    K + R), relative to the matrix's mean diagonal."""
    seen = []
    cholesky = gwquant.sgpr.robust_cholesky

    def spy(a):
        l, jitter = cholesky(a)
        seen.append(jitter / np.mean(np.diag(a)))
        return l, jitter

    monkeypatch.setattr(gwquant.sgpr, "robust_cholesky", spy)
    return seen


@pytest.mark.parametrize("seed", LAYOUTS)
def test_objectives_equal_the_row_oracles(seed, replicate_layout, row_jitter):
    _, x, y, log_noise, state = random_problem(seed, replicate_layout)
    expected = objectives(x, y, log_noise, state, oracles)
    assert row_jitter == [0.0, 0.0]
    for (value, grad), (want, want_grad) in zip(objectives(x, y, log_noise, state), expected):
        assert abs(value - want) <= 1e-10 * abs(want)
        assert np.max(np.abs(grad - want_grad)) <= 1e-8 * (1 + np.max(np.abs(want_grad)))


@pytest.mark.parametrize("seed", LAYOUTS)
def test_objectives_are_invariant_to_row_order(seed, replicate_layout):
    rng, x, y, log_noise, state = random_problem(seed, replicate_layout)
    order = rng.permutation(len(y))
    moved = VhgprState(state.kernel_f, state.kernel_g, state.mu0, state.variational_lambda[order])
    (nlml, nlml_grad), (bound, bound_grad) = objectives(x, y, log_noise, state)
    (moved_nlml, moved_nlml_grad), (moved_bound, moved_bound_grad) = objectives(
        x[order], y[order], log_noise, moved
    )
    assert moved_nlml == pytest.approx(nlml, rel=1e-12)
    np.testing.assert_allclose(moved_nlml_grad, nlml_grad, rtol=1e-10, atol=1e-12)
    assert moved_bound == pytest.approx(bound, rel=1e-12)
    # the kernels' and mu0's partials, then one per row, in the rows' order
    head = bound_grad.size - len(y)
    np.testing.assert_allclose(moved_bound_grad[:head], bound_grad[:head], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        moved_bound_grad[head:], bound_grad[head:][order], rtol=1e-10, atol=1e-12
    )


@pytest.mark.parametrize("seed", LAYOUTS)
def test_the_bound_sees_lambda_only_through_each_state_total(seed, replicate_layout):
    rng, x, y, _, state = random_problem(seed, replicate_layout)
    inverse = gwquant.sgpr._replicates(x)[1]
    lam = state.variational_lambda
    share = rng.uniform(0.1, 1.0, size=lam.size)
    share /= np.bincount(inverse, weights=share)[inverse]
    moved = VhgprState(
        state.kernel_f, state.kernel_g, state.mu0, np.bincount(inverse, weights=lam)[inverse] * share
    )
    value, grad = mv_bound(state, x, y)
    moved_value, moved_grad = mv_bound(moved, x, y)
    assert abs(moved_value - value) <= 1e-12 * abs(value)
    head = grad.size - lam.size
    np.testing.assert_allclose(moved_grad[:head], grad[:head], rtol=1e-10, atol=1e-12)
    for g, lam_rows in ((grad, lam), (moved_grad, moved.variational_lambda)):
        # d/dlambda = d/drho / softplus'(rho), one value per state
        d_lam = g[head:] / -np.expm1(-lam_rows)
        per_state = d_lam[np.unique(inverse, return_index=True)[1]][inverse]
        np.testing.assert_allclose(d_lam, per_state, rtol=1e-12, atol=1e-14)


def test_training_builds_every_kernel_matrix_on_the_unique_states(monkeypatch):
    rng = np.random.default_rng(5)
    states = rng.uniform(0.0, 4.0, size=(6, 2))
    x = np.repeat(states, 4, axis=0)[rng.permutation(24)]
    y = x.sum(axis=1) + rng.normal(0.0, 0.1, size=24)
    rows = {"sgpr": [], "vhgpr": []}
    for name, module in (("sgpr", gwquant.sgpr), ("vhgpr", gwquant.vhgpr)):
        grads = module.kernel_matrix_grads

        def spy(xs, params, grads=grads, seen=rows[name]):
            seen.append(len(xs))
            return grads(xs, params)

        monkeypatch.setattr(module, "kernel_matrix_grads", spy)
    train_vhgpr(x, y, OptimizerConfig(n_restarts=1, seed=0))
    assert rows["sgpr"] and rows["vhgpr"]
    assert set(rows["sgpr"]) == set(rows["vhgpr"]) == {6}


@pytest.mark.parametrize("log_noise", [0.0, -10.0, -40.0, -100.0, -300.0, -700.0])
@pytest.mark.parametrize("seed", range(6))
def test_exact_replicates_stay_finite_and_equal_the_jittered_row_oracle(
    seed, log_noise, replicate_layout, row_jitter
):
    """SS_u = 0: the row matrix's replicate pivots are the noise alone. The
    oracle's factor at its first jitter has condition number about 1e10, so
    its own values carry about 1e10 eps of rounding."""
    rng, x, _, _, state = random_problem(seed, replicate_layout)
    inverse = gwquant.sgpr._replicates(x)[1]
    y = rng.normal(size=inverse.max() + 1)[inverse]
    state.mu0 = log_noise
    got = objectives(x, y, log_noise, state)
    for value, grad in got:
        assert np.isfinite(value) and np.all(np.isfinite(grad))
    row_jitter.clear()
    expected = objectives(x, y, log_noise, state, oracles)
    if log_noise <= -40.0:  # far below eps * s2_f: no factor without jitter
        assert row_jitter[0] == pytest.approx(_JITTER_START, rel=1e-12)
    for jitter, (value, grad), (want, want_grad) in zip(row_jitter, got, expected):
        if jitter == pytest.approx(_JITTER_START, rel=1e-12):
            assert abs(value - want) <= 1e-6 * abs(want)
            assert np.max(np.abs(grad - want_grad)) <= 1e-5 * (1 + np.max(np.abs(want_grad)))


@pytest.mark.parametrize("seed", range(20))
def test_without_replicates_the_objectives_are_the_row_oracles_bit_for_bit(seed):
    """Every state a single row, the rows in np.unique's (lexicographic)
    order: each sum runs as in the row algebra, so training on distinct
    inputs is what it was."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    x = np.unique(rng.uniform(0.0, 4.0, size=(int(rng.integers(2, 40)), d)), axis=0)
    y = rng.normal(size=len(x))
    state = random_state(rng, len(x), d)
    log_noise = float(rng.normal(-1.0, 0.5))
    expected = objectives(x, y, log_noise, state, oracles)
    for (value, grad), (want, want_grad) in zip(objectives(x, y, log_noise, state), expected):
        assert value == want
        assert np.array_equal(grad, want_grad)


def summary_nlml(params, noise, x, y):
    """-log N(y | 0, K + noise I) by the replicate identity, with numpy's
    dense solve at the states: an independent statement of the collapse."""
    unique, inverse, counts = np.unique(x, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    means = np.bincount(inverse, weights=y) / counts
    ss = np.bincount(inverse, weights=(y - means[inverse]) ** 2)
    w = kernel_matrix(unique, unique, params) + np.diag(noise / counts)
    replicate_terms = (counts - 1) * np.log(noise) + ss / noise + np.log(counts)
    return 0.5 * (
        means @ np.linalg.solve(w, means) + np.linalg.slogdet(w)[1]
        + len(y) * math.log(2 * math.pi) + np.sum(replicate_terms)
    )


@pytest.mark.parametrize("ratio, jittered", [(2.0, False), (0.5, True)])
@pytest.mark.parametrize("seed", range(6))
def test_the_jitter_rule_fires_below_eps_times_the_output_variance(
    seed, ratio, jittered, replicate_layout
):
    rng, x, y, _, state = random_problem(seed, replicate_layout)
    x, y = np.repeat(x, 2, axis=0), np.repeat(y, 2) + rng.normal(0.0, 0.1, 2 * len(y))
    s2 = state.kernel_f.output_variance
    noise = ratio * np.finfo(float).eps * s2
    value, _ = sgpr_nlml(state.kernel_f, math.log(noise), x, y)
    r = noise + _JITTER_START * (s2 + noise) if jittered else noise
    assert value == pytest.approx(summary_nlml(state.kernel_f, r, x, y), rel=1e-9)
