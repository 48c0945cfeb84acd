"""Dense N x N row-level objectives and the kernel formula, kept as test oracles.

sgpr_nlml and mv_bound here are the row-level formulations of gwquant's
training objectives, with gaussian_nll, the likelihood term they share: every
matrix is over all N training rows, replicates included, and one evaluation
costs O(N^3). gwquant computes the same values and gradients on the replicate
summary of the rows; these bodies are what its tests compare against.

kernel_oracle is the squared-exponential kernel written out in
kernels.kernel_matrix's order of operations: the bit-for-bit oracle of every
kernel and predict test.
"""

import numpy as np

from gwquant.errors import DimensionMismatchError, InvalidArgumentError
from gwquant.kernels import KernelParams, _as_2d, kernel_matrix_grads
from gwquant.linalg import chol_logdet, chol_solve
from gwquant.sgpr import _LOG_2PI, _factor
from gwquant.vhgpr import VhgprState, _check_lambda, _posterior


def scaled_sqdist(xa, xb, length_scales):
    """Matrix of sum_d ((xa_i,d - xb_j,d)/l_d)^2, clipped at 0."""
    sa = xa / length_scales
    sb = xb / length_scales
    d2 = (
        np.sum(sa**2, axis=1)[:, None]
        + np.sum(sb**2, axis=1)[None, :]
        - 2.0 * sa @ sb.T
    )
    return np.maximum(d2, 0.0)


def kernel_oracle(xa, xb, params):
    return params.output_variance * np.exp(-0.5 * scaled_sqdist(xa, xb, params.length_scales))


def gaussian_nll(k: np.ndarray, r: np.ndarray, y: np.ndarray):
    """-log N(y | 0, K + diag(r)) and M = alpha alpha^T - (K + diag(r))^-1.

    M carries the gradient: d(-log N)/dtheta = -0.5 tr(M d(K + diag(r))/dtheta).
    """
    n = y.size
    l, alpha = _factor(k, r, y)
    value = 0.5 * float(y @ alpha) + 0.5 * chol_logdet(l) + 0.5 * n * _LOG_2PI
    return value, np.outer(alpha, alpha) - chol_solve(l, np.eye(n))


def sgpr_nlml(params: KernelParams, log_noise_variance: float, x, y):
    """Negative log marginal likelihood and its analytic gradient.

    The gradient is with respect to the packed log parameters
    [log_output_variance, log_length_scales (D), log_noise_variance] via
    d(nlml)/dtheta = -0.5 tr((alpha alpha^T - Ky^-1) dKy/dtheta).
    """
    x = _as_2d(x)
    y = np.asarray(y, dtype=float).ravel()
    n = x.shape[0]
    if n < 1 or y.size != n:
        raise InvalidArgumentError("need n >= 1 training rows with matching targets")
    noise = float(np.exp(log_noise_variance))
    k, k_grads = kernel_matrix_grads(x, params)
    value, m = gaussian_nll(k, np.full(n, noise), y)
    grad = np.empty(params.ndim + 2)
    for j, dk in enumerate(k_grads):
        grad[j] = -0.5 * float(np.sum(m * dk))
    grad[-1] = -0.5 * float(np.trace(m)) * noise
    return value, grad


def mv_bound(state: VhgprState, x, y):
    """Negated marginal variational bound and its analytic gradient.

    The gradient is with respect to the packed free parameters
    [kernel_f logs (D+1), kernel_g logs (D+1), mu0, rho (n)] where
    variational_lambda = softplus(rho) keeps Lambda nonnegative.
    """
    x = _as_2d(x)
    y = np.asarray(y, dtype=float).ravel()
    n = x.shape[0]
    if n < 2:
        raise InvalidArgumentError("the bound needs n >= 2 rows")
    if y.size != n:
        raise DimensionMismatchError("inputs and targets row counts differ")

    lam = state.variational_lambda
    _check_lambda(lam, n)
    kg, kg_grads = kernel_matrix_grads(x, state.kernel_g)
    post = _posterior(kg, lam, np.ones(n), state.mu0)
    u_g, v = post["u_g"], post["v"]
    sigma_diag, r = post["sigma_diag"], post["r"]
    s = u_g.T @ u_g  # (K_g + Lambda^-1)^-1, valid at Lambda = 0

    kf, kf_grads = kernel_matrix_grads(x, state.kernel_f)
    nll, m = gaussian_nll(kf, r, y)

    # Sigma = K_g - K_g S K_g; only the trace terms need more than its diag
    kg_s = kg @ s
    sigma = kg - kg_s @ kg

    kl = 0.5 * (
        float(v @ (kg @ v)) - float(lam @ sigma_diag) + chol_logdet(post["chol_a"])
    )
    bound = -nll - 0.25 * float(np.sum(sigma_diag)) - kl

    # --- gradient of the bound ---
    b_mat = 0.5 * m
    b = np.diag(b_mat) * r  # dM/dmu_i
    c = -0.5 * b - 0.25 + 0.5 * lam  # dM/dSigma_ii (diagonal sensitivity)

    grad_f = np.array([float(np.sum(b_mat * dk)) for dk in kf_grads])

    p_t = np.eye(n) - s @ kg  # transpose of I - K_g S
    g_g = (
        np.outer(b, v)
        + (p_t * c[None, :]) @ p_t.T
        - 0.5 * np.outer(v, v)
        - 0.5 * s
    )
    grad_g = np.array([float(np.sum(g_g * dk)) for dk in kg_grads])

    grad_mu0 = float(np.sum(b))
    grad_lam = kg @ (b - v) - (sigma**2) @ c
    grad_rho = grad_lam * (-np.expm1(-lam))

    grad = np.concatenate((grad_f, grad_g, [grad_mu0], grad_rho))
    return -bound, -grad
