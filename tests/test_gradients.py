"""Analytic gradients against central differences on random states.

Each example draws N rows in D dimensions, with input rows that may repeat
(as replicated measurements do) and some variational lambda entries close
to 0, and compares every partial derivative of kernel_matrix_grads,
sgpr_nlml and mv_bound with a central difference. Replicate layouts, drawn
as DI sets lay them out, check the objectives' within-state terms, also past
their jitter rule.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gwquant.kernels import KernelParams, kernel_matrix, kernel_matrix_grads
from gwquant.sgpr import _replicates, sgpr_nlml
from gwquant.vhgpr import VhgprState, _posterior, mv_bound

H = 1e-5
EPS = np.finfo(float).eps


@st.composite
def problems(draw):
    """(x, y, state): replicated rows and near-zero lambdas drawn with the rest."""
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, 3))
    n_unique = draw(st.integers(1, n))
    n_small = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n_unique, d))[rng.integers(0, n_unique, n)]
    y = rng.normal(size=n)
    lam = rng.uniform(0.05, 1.5, n)
    lam[rng.choice(n, n_small, replace=False)] = 10.0 ** rng.uniform(-12, -6, n_small)
    state = VhgprState(
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        float(rng.normal(-0.5, 0.5)),
        lam,
    )
    return x, y, state


def assert_matches_central_differences(value_at, theta, grad, rtol):
    """Each grad[j] is within rtol of its central difference, relative to a floor."""
    floor = 1e-4 * (1 + np.abs(grad).max())
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = H
        fd = (value_at(theta + step) - value_at(theta - step)) / (2 * H)
        assert abs(grad[j] - fd) <= rtol * max(abs(grad[j]), abs(fd), floor), j


GRADIENT_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@GRADIENT_SETTINGS
@given(problem=problems())
def test_kernel_matrix_grads_match_central_differences(problem):
    x, _, state = problem
    params = state.kernel_f
    k, grads = kernel_matrix_grads(x, params)
    assert np.array_equal(k, kernel_matrix(x, x, params))
    theta = params.pack()
    for j, grad in enumerate(grads):
        step = np.zeros_like(theta)
        step[j] = H
        kp = kernel_matrix(x, x, KernelParams.unpack(theta + step))
        km = kernel_matrix(x, x, KernelParams.unpack(theta - step))
        assert np.allclose(grad, (kp - km) / (2 * H), rtol=1e-6, atol=1e-8), j


@GRADIENT_SETTINGS
@given(problem=problems())
def test_sgpr_nlml_gradient_matches_central_differences(problem):
    x, y, state = problem
    theta = np.append(state.kernel_f.pack(), state.mu0)

    def value_at(t):
        return sgpr_nlml(KernelParams.unpack(t[:-1]), t[-1], x, y)[0]

    _, grad = sgpr_nlml(state.kernel_f, state.mu0, x, y)
    assert_matches_central_differences(value_at, theta, grad, rtol=1e-5)


@GRADIENT_SETTINGS
@given(problem=problems())
def test_mv_bound_gradient_matches_central_differences(problem):
    x, y, state = problem
    d = x.shape[1]

    def value_at(t):
        return mv_bound(VhgprState.unpack(t, d), x, y)[0]

    _, grad = mv_bound(state, x, y)
    assert_matches_central_differences(value_at, state.pack(), grad, rtol=1e-4)


def replicated_problem(rng, replicate_layout, past_jitter_rule):
    """(x, y, state) on a replicate layout. Past the jitter rule every noise
    is far below eps * s2_f, the targets repeat exactly within a state and
    k_f's length scales are short: with noise near 1e-10 s2_f the factor is
    as ill-conditioned as K_f at the states, and at close states the value's
    own rounding is more than a central difference resolves."""
    x, y = replicate_layout(rng)
    n, d = x.shape
    shift = 0.0
    if past_jitter_rule:
        inverse = np.unique(x, axis=0, return_inverse=True)[1].ravel()
        y = rng.normal(size=inverse.max() + 1)[inverse]
        shift = 60.0
    state = VhgprState(
        KernelParams(rng.normal(0, 0.4), rng.normal(-shift / 60.0, 0.4, d)),
        KernelParams(rng.normal(0, 0.4), rng.normal(0, 0.4, d)),
        float(rng.normal(-0.5, 0.5)) - shift,
        rng.uniform(0.05, 1.5, n),
    )
    return x, y, state


def worst_central_difference_error(value_at, theta, grad, skip):
    """max_j |grad[j] - central difference| / (1 + max|grad|), j not in skip."""
    worst = 0.0
    for j in range(theta.size):
        if j not in skip:
            step = np.zeros_like(theta)
            step[j] = H
            fd = (value_at(theta + step) - value_at(theta - step)) / (2 * H)
            worst = max(worst, abs(grad[j] - fd))
    return worst / (1 + np.abs(grad).max())


# Past the jitter rule the gradient holds the jitter, 1e-10 (s2_f + mean
# noise), constant, as the row algebra's gradient holds robust_cholesky's:
# a central difference in log s2_f (index 0) sees the jitter's own slope.
@pytest.mark.parametrize("past_jitter_rule, tol", [(False, 1e-8), (True, 1e-7)])
@pytest.mark.parametrize("seed", range(20))
def test_gradients_on_replicate_layouts_match_central_differences(
    seed, past_jitter_rule, tol, replicate_layout
):
    rng = np.random.default_rng(seed)
    x, y, state = replicated_problem(rng, replicate_layout, past_jitter_rule)
    d = x.shape[1]
    skip = set()
    if past_jitter_rule:
        unique, inverse, counts = _replicates(x)
        kg = kernel_matrix(unique, unique, state.kernel_g)
        lam_u = np.bincount(inverse, weights=state.variational_lambda)
        r = _posterior(kg, lam_u, counts, state.mu0)["r"]
        assert np.all(r[counts > 1] < EPS * state.kernel_f.output_variance) and counts.max() > 1
        skip = {0}
    checks = [
        (
            np.append(state.kernel_f.pack(), state.mu0),
            sgpr_nlml(state.kernel_f, state.mu0, x, y)[1],
            lambda t: sgpr_nlml(KernelParams.unpack(t[:-1]), t[-1], x, y)[0],
        ),
        (
            state.pack(),
            mv_bound(state, x, y)[1],
            lambda t: mv_bound(VhgprState.unpack(t, d), x, y)[0],
        ),
    ]
    for theta, grad, value_at in checks:
        assert worst_central_difference_error(value_at, theta, grad, skip) <= tol
