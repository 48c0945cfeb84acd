"""Variational heteroscedastic GP regression.

The observation noise variance is exp(g(x)) with its own GP prior
(mean mu0, kernel k_g). Training maximizes the marginal variational bound

    M = log N(y | 0, K_f + R) - 1/4 tr(Sigma)
        - KL(N(g | mu, Sigma) || N(g | mu0 1, K_g))

where, at the bound's maxima, the variational posterior is reparametrized
through a nonnegative diagonal Lambda, one lambda per row. Replicates share
g, so M sees Lambda only through each state's total Lambda_u and is computed
at the n_u unique states with counts c_u, at O(N + n_u^3):

    mu_u      = K_g (Lambda_u - c/2) + mu0
    Sigma^-1  = K_g^-1 + diag(Lambda_u)
    r_u       = exp(mu_u - Sigma_uu / 2)

log N is sgpr.gaussian_nll's on the replicate summary, jitter rule included,
and tr(Sigma) is sum_u c_u Sigma_uu. All internal algebra is written against
A = I + Lambda^1/2 K_g Lambda^1/2 (always well conditioned), so that neither
K_g^-1 nor Lambda^-1 is formed and Lambda = 0 is an admissible point:

    S     = Lambda^1/2 A^-1 Lambda^1/2   ( = (K_g + Lambda^-1)^-1 )
    Sigma = K_g - K_g S K_g
    KL    = 1/2 (v^T K_g v - Lambda^T diag(Sigma) + log|A|),  v = Lambda_u - c/2.

Each lambda is optimized through a softplus transform, jointly with both
kernels' log hyperparameters and mu0 in a single quasi-Newton run. A built
model is conditioned on the same states, r_u / c_u its noise in f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .kernels import KernelParams, kernel_matrix, kernel_matrix_grads
from .linalg import chol_logdet, robust_cholesky, solve_lower
from .sgpr import (
    GpPosterior,
    OptimizerConfig,
    _replicates,
    _training_rows,
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

    variational_lambda keeps one lambda per training row, and
    centered_lambda each state's Lambda_u - c_u/2, computed once for
    noise_at, which evaluates k_g against unique_inputs.
    """

    kernel_g: KernelParams
    mu0: float
    variational_lambda: np.ndarray
    # u_g = L_A^-1 diag(sqrt Lambda_u) so that S = u_g^T u_g; this is the
    # Lambda=0-safe equivalent of factorizing K_g + Lambda^-1
    u_g: np.ndarray = field(repr=False)
    centered_lambda: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_state(cls, state: VhgprState, x, y, target_offset: float = 0.0) -> "VhgprModel":
        x, y = _training_rows(x, y, 1)
        _check_lambda(state.variational_lambda, x.shape[0])
        replicates = unique, inverse, counts = _replicates(x)
        totals = np.bincount(inverse, weights=state.variational_lambda)
        post = _posterior(kernel_matrix(unique, unique, state.kernel_g), totals, counts, state.mu0)
        return cls._conditioned(
            state.kernel_f, x, y, target_offset, replicates, post["r"],
            kernel_g=state.kernel_g, mu0=state.mu0, variational_lambda=state.variational_lambda,
            u_g=post["u_g"], centered_lambda=post["v"],
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
        kg_star = kernel_matrix(xq, self.unique_inputs, self.kernel_g)
        mu_star = kg_star @ self.centered_lambda + self.mu0
        quad = ((self.u_g @ kg_star.T) ** 2).sum(axis=0)
        sig2_star = np.maximum(self.kernel_g.output_variance - quad, 0.0)
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

    The gradient is with respect to the packed free parameters [kernel_f logs
    (D+1), kernel_g logs (D+1), mu0, rho (n)], variational_lambda =
    softplus(rho); each row of a state gets the state's d/dLambda_u.
    """
    x, y = _training_rows(x, y, 2)
    lam = state.variational_lambda
    _check_lambda(lam, x.shape[0])
    replicates = unique, inverse, counts = _replicates(x)
    lam_u = np.bincount(inverse, weights=lam)
    kg, kg_grads = kernel_matrix_grads(unique, state.kernel_g)
    post = _posterior(kg, lam_u, counts, state.mu0)
    u_g, v, sigma_diag = post["u_g"], post["v"], post["sigma_diag"]
    s = u_g.T @ u_g  # (K_g + Lambda^-1)^-1, valid at Lambda = 0
    kg_s = kg @ s
    sigma = kg - kg_s @ kg  # only the trace terms need more than its diag

    kf, kf_grads = kernel_matrix_grads(unique, state.kernel_f)
    nll, m, e = gaussian_nll(kf, post["r"], replicates, y, state.kernel_f.output_variance)
    kl = 0.5 * (float(v @ (kg @ v)) - float(lam_u @ sigma_diag) + chol_logdet(post["chol_a"]))
    bound = -nll - 0.25 * float(np.sum(counts * sigma_diag)) - kl

    # --- gradient of the bound: b is dM/dmu_u, c dM/dSigma_uu ---
    b = 0.5 * e * post["r"]
    c = -0.5 * b - 0.25 * counts + 0.5 * lam_u
    grad_f = [0.5 * float(np.sum(m * dk)) for dk in kf_grads]
    p_t = np.eye(counts.size) - s @ kg  # transpose of I - K_g S
    g_g = np.outer(b, v) + (p_t * c[None, :]) @ p_t.T - 0.5 * np.outer(v, v) - 0.5 * s
    grad_g = [float(np.sum(g_g * dk)) for dk in kg_grads]
    grad_lam = kg @ (b - v) - (sigma**2) @ c
    grad_rho = grad_lam[inverse] * (-np.expm1(-lam))
    return -bound, -np.concatenate((grad_f, grad_g, [np.sum(b)], grad_rho))


def train_vhgpr(
    x, y, optimizer: OptimizerConfig | None = None, center_targets: bool = False
) -> VhgprModel:
    """Jointly optimize both kernels, mu0 and Lambda from an SGPR warm start.

    kernel_f starts at the trained SGPR kernel, kernel_g at unit output
    variance with the SGPR length scales, mu0 at log of the SGPR noise
    variance and every Lambda entry at 0.5 (the bound's reparametrization
    is centered on Lambda - I/2).
    """
    x, y = _training_rows(x, y, 2)
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
