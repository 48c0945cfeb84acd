"""Variational heteroscedastic GP regression.

The observation noise variance is exp(g(x)) with its own GP prior
(mean mu0, kernel k_g). Training maximizes the marginal variational bound

    M = log N(y | 0, K_f + R) - 1/4 tr(Sigma)
        - KL(N(g | mu, Sigma) || N(g | mu0 1, K_g))

where, at the bound's maxima, the variational posterior is reparametrized
through a nonnegative diagonal Lambda:

    mu        = K_g (Lambda - I/2) 1 + mu0 1
    Sigma^-1  = K_g^-1 + Lambda
    R_ii      = exp(mu_i - Sigma_ii / 2)

All internal algebra is written against A = I + Lambda^1/2 K_g Lambda^1/2
(always well conditioned), so that neither K_g^-1 nor Lambda^-1 is formed
and Lambda = 0 is an admissible point:

    S     = Lambda^1/2 A^-1 Lambda^1/2   ( = (K_g + Lambda^-1)^-1 )
    Sigma = K_g - K_g S K_g
    KL    = 1/2 (v^T K_g v - tr(Lambda Sigma) + log|A|),  v = lambda - 1/2.

Lambda itself is optimized through a softplus transform, jointly with both
kernels' log hyperparameters and mu0 in a single quasi-Newton run.

A built model is conditioned on its unique training states: replicates
share g, so q(g) there takes each state's lambda total Lambda_u and count
c_u, mu_u = K_g (Lambda_u - c/2) + mu0, and r_u / c_u is its noise in f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .kernels import (
    KernelParams,
    KernelRows,
    _as_2d,
    cross_covariance,
    kernel_matrix_grads,
)
from .linalg import chol_logdet, robust_cholesky, solve_lower
from .sgpr import (
    GpPosterior,
    OptimizerConfig,
    _replicates,
    gaussian_nll,
    minimize_with_restarts,
    sgpr_predict,
    train_sgpr,
)

# exp() argument clip, keeps noise variances inside double range during the
# optimizer's exploratory steps
_EXP_CLIP = 500.0


def softplus(rho: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, rho)


def softplus_inverse(lam: np.ndarray) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(lam > 0, np.log(-np.expm1(-lam)) + lam, -np.inf)


@dataclass
class VhgprState:
    """Free parameters of the bound: two kernels, mu0 and Lambda's diagonal."""

    kernel_f: KernelParams
    kernel_g: KernelParams
    mu0: float
    variational_lambda: np.ndarray

    def __post_init__(self):
        self.variational_lambda = np.asarray(
            self.variational_lambda, dtype=float
        ).ravel()
        if np.any(self.variational_lambda < 0):
            raise InvalidArgumentError("variational_lambda entries must be >= 0")

    def pack(self) -> np.ndarray:
        return np.concatenate(
            (
                self.kernel_f.pack(),
                self.kernel_g.pack(),
                [self.mu0],
                softplus_inverse(self.variational_lambda),
            )
        )

    @classmethod
    def unpack(cls, theta: np.ndarray, ndim: int) -> "VhgprState":
        h = ndim + 1
        return cls(
            KernelParams.unpack(theta[:h]),
            KernelParams.unpack(theta[h : 2 * h]),
            float(theta[2 * h]),
            softplus(theta[2 * h + 1 :]),
        )


@dataclass
class VhgprModel(GpPosterior):
    """Trained heteroscedastic model; kernel is k_f, the rest describe g.

    variational_lambda keeps one lambda per training row. g_rows holds the
    unique training rows prepared for k_g and centered_lambda each state's
    Lambda_u - c_u/2, both computed once for noise_at.
    """

    kernel_g: KernelParams
    mu0: float
    variational_lambda: np.ndarray
    # u_g = L_A^-1 diag(sqrt Lambda_u) so that S = u_g^T u_g; this is the
    # Lambda=0-safe equivalent of factorizing K_g + Lambda^-1
    u_g: np.ndarray = field(repr=False)
    g_rows: KernelRows = field(repr=False, compare=False)
    centered_lambda: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_state(cls, state: VhgprState, x, y, target_offset: float = 0.0) -> "VhgprModel":
        x = _as_2d(x)
        y = np.asarray(y, dtype=float).ravel()
        _check_lambda(state.variational_lambda, x.shape[0])
        replicates = unique, inverse, counts = _replicates(x)
        g_rows = KernelRows.prepare(unique, state.kernel_g)
        totals = np.bincount(inverse, weights=state.variational_lambda)
        post = _posterior(cross_covariance(unique, g_rows), totals, counts, state.mu0)
        return cls._conditioned(
            state.kernel_f, x, y, target_offset, replicates, post["r"],
            kernel_g=state.kernel_g, mu0=state.mu0, variational_lambda=state.variational_lambda,
            u_g=post["u_g"], g_rows=g_rows, centered_lambda=post["v"],
        )

    @classmethod
    def from_hyperparams(
        cls, kernel_f, kernel_g, mu0, variational_lambda, x, y, target_offset: float = 0.0
    ) -> "VhgprModel":
        state = VhgprState(kernel_f, kernel_g, mu0, variational_lambda)
        return cls.from_state(state, x, y, target_offset)

    def hyperparams(self) -> tuple:
        """Arguments that from_hyperparams takes before x, in its order."""
        return self.kernel, self.kernel_g, self.mu0, self.variational_lambda

    def noise_at(self, xq: np.ndarray) -> np.ndarray:
        """exp(mu* + sigma*^2 / 2), the mean noise variance under q(g)."""
        kg_star = cross_covariance(xq, self.g_rows)
        mu_star = kg_star @ self.centered_lambda + self.mu0
        quad = ((self.u_g @ kg_star.T) ** 2).sum(axis=0)
        sig2_star = np.maximum(self.g_rows.output_variance - quad, 0.0)
        return np.exp((mu_star + 0.5 * sig2_star).clip(-_EXP_CLIP, _EXP_CLIP))


def _check_lambda(lam: np.ndarray, n: int) -> None:
    if lam.size != n:
        raise DimensionMismatchError(
            f"variational_lambda has {lam.size} entries for n={n} rows"
        )


def _posterior(kg: np.ndarray, lam: np.ndarray, counts: np.ndarray, mu0: float) -> dict:
    """mu, diag(Sigma), R and the S-factor of q(g) at rows with kernel matrix K_g,
    lambda totals lam and replicate counts; counts of 1 give the row-level q(g)."""
    n = kg.shape[0]
    sqrt_lam = np.sqrt(lam)
    a = np.eye(n) + sqrt_lam[:, None] * kg * sqrt_lam[None, :]
    chol_a, _ = robust_cholesky(a)
    u_g = solve_lower(chol_a, np.diag(sqrt_lam))
    ukg = u_g @ kg
    sigma_diag = np.diag(kg) - np.sum(ukg**2, axis=0)
    v = lam - 0.5 * counts
    mu = kg @ v + mu0
    r = np.exp(np.clip(mu - 0.5 * sigma_diag, -_EXP_CLIP, _EXP_CLIP))
    return {
        "chol_a": chol_a,
        "u_g": u_g,
        "sigma_diag": sigma_diag,
        "v": v,
        "mu": mu,
        "r": r,
    }


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


def train_vhgpr(
    x, y, optimizer: OptimizerConfig | None = None, center_targets: bool = False
) -> VhgprModel:
    """Jointly optimize both kernels, mu0 and Lambda from an SGPR warm start.

    kernel_f starts at the trained SGPR kernel, kernel_g at unit output
    variance with the SGPR length scales, mu0 at log of the SGPR noise
    variance and every Lambda entry at 0.5 (the bound's reparametrization
    is centered on Lambda - I/2).
    """
    x = _as_2d(x)
    y = np.asarray(y, dtype=float).ravel()
    optimizer = optimizer or OptimizerConfig()
    sgpr = train_sgpr(x, y, optimizer, center_targets=center_targets)
    offset = sgpr.target_offset
    yc = y - offset

    n, ndim = x.shape
    state0 = VhgprState(
        kernel_f=sgpr.kernel,
        kernel_g=KernelParams(0.0, sgpr.kernel.log_length_scales.copy()),
        mu0=sgpr.log_noise_variance,
        variational_lambda=np.full(n, 0.5),
    )

    def objective(theta):
        return mv_bound(VhgprState.unpack(theta, ndim), x, yc)

    theta, _ = minimize_with_restarts(objective, state0.pack(), optimizer)
    return VhgprModel.from_state(VhgprState.unpack(theta, ndim), x, y, offset)


# Both model kinds share one prediction path; see GpPosterior.noise_at.
vhgpr_predict = sgpr_predict
