"""Signal recovery from noisy observables.

The noisy order parameter follows the linear model
``Delta_noisy(t) = f(t) Delta(t) + offset(parity of t)`` with an
attenuation f(t) that is (approximately) independent of the circuit
parameters. Recovery divides out f(t) using a reference run at the nearest
Clifford point and removes the parity offsets, which are learned by
regularized least squares against a classically simulated small system.

The same machinery recovers squared-correlator order parameters via two
learned coefficients per run. Each estimate is one guarded ratio with two
parameters above and two below the line, fitted by a ridge solve and
Gauss-Newton steps. The per-cycle flip probability is the binomial
maximum-likelihood estimate from the Clifford reference's Hamming
distribution. Hamming-distance distributions are recovered via the
binomial flip kernel. Each kernel column is a reversed binomial pmf
convolved with another; the kernel is diagonal in the Krawtchouk basis,
with eigenvalues (1 - 2p)^j (MacWilliams & Sloane, 1977). Deconvolution
fits a Gaussian-times-logistic trial distribution whose mean and variance
are anchored to the recovered order parameter and the quantum Fisher
information. The fit runs over the trial's natural parameters with an
analytic gradient and L-BFGS-B (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci.
Comput. 16, 1190, 1995), with the curvature bounded away from zero so that
the fit has a finite minimum.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

DEFAULT_GUARD = 1e-3
DEFAULT_GRID_HALF_WIDTH = 0.2
DEFAULT_GRID_POINTS = 41
# The nested fits halve a Gauss-Newton step that raises the objective by
# more than FIT_ROUNDING of it (its rounding noise is about 1e-11), and stop
# at a step within FIT_STEP_FLOOR (a converged one is about 1e-16).
FIT_ROUNDING = 1e-9
FIT_STEP_FLOOR = 1e-14
FIT_MAX_STEPS = 100


def clifford_reference(phi: float) -> float:
    """Closest Clifford kick angle: 0 for phi <= pi/4, else pi/2."""
    if not 0 <= phi <= math.pi / 2 + 1e-12:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    return 0.0 if phi <= math.pi / 4 else math.pi / 2


def clifford_delta(phi0: float, n_cycles: int) -> np.ndarray:
    """Noiseless order parameter at a Clifford point: 1 or (-1)^t."""
    t = np.arange(n_cycles + 1)
    if phi0 == 0.0:
        return np.ones(n_cycles + 1)
    return (-1.0) ** t


@dataclass(frozen=True)
class OffsetVector:
    """Parity offsets at the target point and at the Clifford reference."""

    target_even: float
    target_odd: float
    reference_even: float
    reference_odd: float

    def __post_init__(self) -> None:
        values = astuple(self)
        if not all(np.isfinite(v) and abs(v) <= 1.0 for v in values):
            raise ValueError(f"offsets must be finite and within [-1, 1], got {values}")

    def as_array(self) -> np.ndarray:
        return np.array(astuple(self))


def _series(*arrays) -> list[np.ndarray]:
    """The arrays as float series over one cycle range, else ValueError."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError("series must share the cycle range")
    return arrays


def _affine(base: np.ndarray, columns: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """base + columns @ pair per cycle, for one pair or an array of pairs."""
    return base + columns[:, 0] * pair[..., :1] + columns[:, 1] * pair[..., 1:]


@dataclass(frozen=True)
class _Ratio:
    """The estimate (shift + numerator @ c) / (denominator + slope @ u) per
    cycle: shift and denominator are (T,) series, numerator and slope (T, 2)."""

    shift: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    slope: np.ndarray

    def top(self, c) -> np.ndarray:
        return _affine(self.shift, self.numerator, c)

    def bottom(self, u) -> np.ndarray:
        return _affine(self.denominator, self.slope, u)

    def apply(self, params: np.ndarray, guard: float) -> tuple[np.ndarray, np.ndarray]:
        """(estimate at (c0, c1, u0, u1) clamped to [-1, 1], guard flags)."""
        bottom = self.bottom(params[2:])
        flagged = np.abs(bottom) < guard
        estimate = self.top(params[:2]) / np.where(flagged, 1.0, bottom)
        return np.clip(estimate, -1.0, 1.0), flagged


def _delta_model(noisy_target, noisy_reference, exact_reference) -> _Ratio:
    """Delta_hat = E (N - target offset) / (R - reference offset), per parity."""
    noisy, reference, exact = _series(noisy_target, noisy_reference, exact_reference)
    one_hot = (np.arange(len(noisy))[:, None] % 2 == np.arange(2)).astype(float)
    return _Ratio(exact * noisy, -exact[:, None] * one_hot, reference, -one_hot)


def _chi_model(chi_noisy, corr_noisy, chi_ref, corr_ref, n_qubits: int) -> _Ratio:
    """chi_hat = (chi + 2 c1 C + (N-1) c2) / (chi' + 2 c1' C' + (N-1) c2')."""
    chi, corr, chi_ref, corr_ref = _series(chi_noisy, corr_noisy, chi_ref, corr_ref)
    constant = np.full(len(chi), n_qubits - 1.0)
    columns = [np.stack([2 * c, constant], axis=-1) for c in (corr, corr_ref)]
    return _Ratio(chi, columns[0], chi_ref, columns[1])


def _nested_fit(model: _Ratio, simulated, ridge: float, guard: float) -> tuple:
    """Fit the model to the simulated series: ((c0, c1, u0, u1), objective).

    Minimizes sum_t r(t)^2 + ridge (|c|^2 + |u|^2), r = estimate - simulated,
    over usable cycles: t >= 1 with |denominator| >= ``guard``. For each u, c
    is one ridge solve (variable projection; Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413, 1973). The 41x41 grid of u is scored in one call, a cell
    with no usable cycle scoring inf. From the best cell (the first in
    u0-major order), Gauss-Newton steps move u, with c solved again at each
    u (Kaufman, BIT 15, 49, 1975): with w = 1/denominator on usable cycles,
    dr/dc = w numerator and dr/du = -w^2 (shift + numerator @ c) slope.
    """
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    _, simulated = _series(model.shift, simulated)
    late = np.arange(len(simulated)) >= 1

    def profile(u: np.ndarray) -> tuple[np.ndarray, ...]:
        bottom = model.bottom(u)
        usable = late & (np.abs(bottom) >= guard)
        w = np.where(usable, 1.0 / np.where(usable, bottom, 1.0), 0.0)
        design = w[..., None] * model.numerator
        rhs = np.where(usable, simulated - w * model.shift, 0.0)
        design_t = np.swapaxes(design, -1, -2)
        normal = design_t @ design + ridge * np.eye(2)
        c = np.linalg.solve(normal, design_t @ rhs[..., None])[..., 0]
        residual = np.where(usable, w * model.top(c) - simulated, 0.0)
        objective = np.sum(residual**2, axis=-1) + ridge * np.sum(c**2 + u**2, axis=-1)
        return np.where(usable.any(axis=-1), objective, np.inf), c, w, residual

    axis = np.linspace(
        -DEFAULT_GRID_HALF_WIDTH, DEFAULT_GRID_HALF_WIDTH, DEFAULT_GRID_POINTS
    )
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    u = grid[np.argmin(profile(grid)[0])]
    objective, c, w, residual = profile(u)
    for _ in range(FIT_MAX_STEPS):
        slope = -(w**2 * model.top(c))[:, None] * model.slope
        jacobian = np.concatenate([w[:, None] * model.numerator, slope], axis=1)
        gradient = jacobian.T @ residual + ridge * np.concatenate([c, u])
        step = -np.linalg.solve(jacobian.T @ jacobian + ridge * np.eye(4), gradient)[2:]
        while np.max(np.abs(step)) > FIT_STEP_FLOOR:
            trial = profile(u + step)
            if trial[0] <= objective * (1 + FIT_ROUNDING):
                break
            step = step / 2
        else:
            break
        u = u + step
        objective, c, w, residual = trial
    return (*map(float, c), *map(float, u)), float(objective)


def renormalize_delta(
    noisy_target: np.ndarray,
    noisy_reference: np.ndarray,
    exact_reference: np.ndarray,
    offsets: OffsetVector,
    guard: float = DEFAULT_GUARD,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the order parameter by Clifford-point renormalization,
    Delta_hat = E (N - target offset) / (R - reference offset) per parity.

    Returns (recovered, flagged): recovered values are clamped to [-1, 1];
    a point is flagged (and should be excluded from metrics) when the
    denominator magnitude falls below ``guard``.
    """
    model = _delta_model(noisy_target, noisy_reference, exact_reference)
    return model.apply(offsets.as_array(), guard)


def learn_offsets(
    noisy_target: np.ndarray,
    noisy_reference: np.ndarray,
    exact_reference: np.ndarray,
    delta_sim: np.ndarray,
    ridge: float = 1e-4,
    guard: float = DEFAULT_GUARD,
) -> tuple[OffsetVector, dict]:
    """Learn the four parity offsets by regularized least squares.

    Minimizes sum_t (Delta_sim(t) - Delta_hat(t))^2 + ridge * |offsets|^2
    over t = 1..T, with Delta_hat of ``renormalize_delta`` unclamped. The
    reference offsets enter the denominator, so the problem is not jointly
    convex; ``_nested_fit`` solves for the target offsets in closed form
    and takes Gauss-Newton steps on the reference offsets.
    """
    model = _delta_model(noisy_target, noisy_reference, exact_reference)
    solution, objective = _nested_fit(model, delta_sim, ridge, guard)
    return OffsetVector(*solution), {"objective": objective}


@dataclass(frozen=True)
class ChiCoefficients:
    """Bias coefficients of the correlator recovery, target and reference."""

    c1_target: float
    c2_target: float
    c1_reference: float
    c2_reference: float


def recover_chi(
    chi_noisy: np.ndarray,
    corr_noisy: np.ndarray,
    chi_noisy_reference: np.ndarray,
    corr_noisy_reference: np.ndarray,
    coeffs: ChiCoefficients,
    n_qubits: int,
    guard: float = DEFAULT_GUARD,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the squared-correlator order parameter.

    chi_hat = [chi_noisy + 2 c1 C_noisy + (N-1) c2]
            / [chi_noisy_ref + 2 c1' C_noisy_ref + (N-1) c2'],
    using that the noiseless reference value is 1 at Clifford points.
    Returns (recovered, flagged), as ``renormalize_delta`` does.
    """
    model = _chi_model(
        chi_noisy, corr_noisy, chi_noisy_reference, corr_noisy_reference, n_qubits
    )
    return model.apply(np.array(astuple(coeffs)), guard)


def learn_chi_coefficients(
    chi_noisy: np.ndarray,
    corr_noisy: np.ndarray,
    chi_noisy_reference: np.ndarray,
    corr_noisy_reference: np.ndarray,
    chi_sim: np.ndarray,
    n_qubits: int,
    ridge: float = 1e-4,
    guard: float = DEFAULT_GUARD,
) -> tuple[ChiCoefficients, dict]:
    """Learn c1/c2 pairs by the same nested least-squares fit as the offsets.

    Minimizes sum_t (chi_sim(t) - chi_hat(t))^2 + ridge * |coefficients|^2
    over t = 1..T, with chi_hat of ``recover_chi`` unclamped; ``_nested_fit``
    solves for the target pair in closed form and takes Gauss-Newton steps
    on the reference pair.
    """
    model = _chi_model(
        chi_noisy, corr_noisy, chi_noisy_reference, corr_noisy_reference, n_qubits
    )
    solution, objective = _nested_fit(model, chi_sim, ridge, guard)
    return ChiCoefficients(*solution), {"objective": objective}


# --- Hamming-distance recovery ---

# A reported trial is evaluated as exp(log_weights) in plain floats, so the
# fit keeps its largest unshifted log-weight at or above
# TRIAL_LOG_WEIGHT_FLOOR, where exp is still a normal float64 (the smallest
# is about exp(-708)). Two things would break that:
# - once a distribution looks like an exponential tilt, the unbounded
#   optimum sits at beta = 0 (natural parameters, x = d/N), i.e. at
#   sigma = infinity. beta is therefore bounded at -TRIAL_CURVATURE_FLOOR;
# - a steep tilt carried by the Gaussian alone puts d0 far outside [0, N],
#   and the largest log-weight is then about -alpha^2 / (4 delta). The fit
#   pays a quadratic penalty once a smooth upper bound of it (logsumexp)
#   falls below TRIAL_LOG_WEIGHT_FLOOR + 100, so the logistic takes up the
#   tilt; a fit that still ends below the floor raises.
TRIAL_CURVATURE_FLOOR = 0.05
TRIAL_LOG_WEIGHT_FLOOR = -600.0


def _binomial_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """Bin(n, p) pmf over k = 0..n along a new last axis, for each p."""
    from scipy.special import gammaln, xlog1py, xlogy
    p = np.asarray(p, dtype=float)[..., None]
    k = np.arange(n + 1)
    log_choose = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.exp(log_choose + xlogy(k, p) + xlog1py(n - k, -p))


def kernel_column(n_bits: int, p, d_in: int) -> np.ndarray:
    """Column d_in of the flip kernel: output-distance distribution when
    each of ``n_bits`` spins flips independently with probability p.

    The output distance is (d_in - X) + Y with X ~ Bin(d_in, p) and
    Y ~ Bin(n_bits - d_in, p), so the column is a reversed binomial pmf
    convolved with another. ``p`` may be an array; the column then runs
    along a new last axis, one per p.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("flip probability must lie in [0, 1]")
    if not 0 <= d_in <= n_bits:
        raise ValueError("input distance out of range")
    kept = _binomial_pmf(d_in, p)[..., ::-1]
    flipped = _binomial_pmf(n_bits - d_in, p)
    short, long = sorted((kept, flipped), key=lambda a: a.shape[-1])
    column = np.zeros(p.shape + (n_bits + 1,))
    for i in range(short.shape[-1]):
        column[..., i : i + long.shape[-1]] += short[..., i, None] * long
    return column


def flip_kernel(n_bits: int, p: float) -> np.ndarray:
    """Full (N+1)x(N+1) flip kernel T[d_out, d_in] on Hamming-distance
    histograms; columns sum to 1."""
    return np.column_stack(
        [kernel_column(n_bits, p, d_in) for d_in in range(n_bits + 1)]
    )


def learn_flip_schedule(
    noisy_distributions: np.ndarray, d_cliff: np.ndarray
) -> np.ndarray:
    """Per-cycle flip probabilities from Clifford-point distributions.

    Row t holds the reference's noisy Hamming distribution h(t, d). Its
    noiseless output is one bitstring at distance d_cliff(t), 0 or N, so the
    noisy distance is Bin(N, p(t)) with the maximum-likelihood estimate
    p(t) = |sum_d d h(t, d) - d_cliff(t)| / N, capped at 1/2.
    """
    noisy_distributions = np.asarray(noisy_distributions, dtype=float)
    d_cliff = np.asarray(d_cliff)
    n_bits = noisy_distributions.shape[-1] - 1
    if n_bits < 1:
        raise ValueError("need distributions over at least one bit")
    if not np.all((d_cliff == 0) | (d_cliff == n_bits)):
        raise ValueError(f"d_cliff must be 0 or {n_bits}, got {d_cliff}")
    mean = noisy_distributions @ np.arange(n_bits + 1)
    return np.minimum(np.abs(mean - d_cliff) / n_bits, 0.5)


@dataclass(frozen=True)
class TrialDistribution:
    """Gaussian-times-logistic ansatz for the noiseless Hamming distribution."""

    d0: float
    sigma: float
    k: float
    q: float

    def log_weights(self, n_bits: int) -> np.ndarray:
        """Unnormalized log-weights -(d - d0)^2 / (2 sigma^2) + log expit(-(k d + q))."""
        from scipy.special import log_expit
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        d = np.arange(n_bits + 1, dtype=float)
        return -((d - self.d0) ** 2) / (2 * self.sigma**2) + log_expit(
            -(self.k * d + self.q)
        )

    def pmf(self, n_bits: int) -> np.ndarray:
        log_w = self.log_weights(n_bits)
        if not np.all(np.isfinite(log_w)):
            raise ValueError("trial distribution has no support on [0, N]")
        weights = np.exp(log_w - log_w.max())
        return weights / weights.sum()


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call (only the
    deconvolution needs it); a wrapper put on this name sees every fit."""
    import scipy.optimize
    return scipy.optimize.minimize(*args, **kwargs)


def deconvolve_hamming(
    noisy_distribution: np.ndarray,
    p: float,
    mu_target: float,
    var_target: float,
    lambda_mean: float = 10.0,
    lambda_var: float = 10.0,
) -> tuple[TrialDistribution, dict]:
    """Invert the flip channel by fitting the constrained trial distribution.

    Minimizes the push-forward misfit plus moment-anchoring penalties tying
    the trial mean and variance to the recovered order parameter and the
    QFI. The fit runs over the natural parameters of the trial, with
    x = d/N: log w = alpha x + beta x^2 - softplus(k x + q), bounded by
    beta <= -TRIAL_CURVATURE_FLOOR. L-BFGS-B with the analytic gradient
    starts from three deterministic seeds; the best fit wins. The info dict
    holds its objective, iteration count and ``at_bound``, true when beta
    ended on its bound.
    """
    from scipy.special import expit, log_expit
    noisy_distribution = np.asarray(noisy_distribution, dtype=float)
    n_bits = len(noisy_distribution) - 1
    if n_bits < 1:
        raise ValueError("need a distribution over at least one bit")
    if lambda_mean <= 0 or lambda_var <= 0:
        raise ValueError("moment penalties must be positive")
    kernel = flip_kernel(n_bits, p)
    d = np.arange(n_bits + 1, dtype=float)
    x = d / n_bits

    def loss(theta: np.ndarray) -> tuple[float, np.ndarray]:
        alpha, beta, k, q = theta
        z = k * x + q
        log_w = alpha * x + beta * x**2 + log_expit(-z)
        shift = log_w.max()
        weights = np.exp(log_w - shift)
        total = weights.sum()
        pmf = weights / total
        # logsumexp of the reported (unshifted) log-weights
        top = shift + math.log(total) + alpha**2 / (4 * beta)
        shortfall = max(TRIAL_LOG_WEIGHT_FLOOR + 100.0 - top, 0.0)
        residual = noisy_distribution - kernel @ pmf
        mean = d @ pmf
        var = d**2 @ pmf - mean**2
        mean_gap = mean - mu_target
        var_gap = var - var_target
        # dL/dpmf, then through the softmax to dL/dlog_w
        grad_pmf = (
            -2.0 * kernel.T @ residual
            + 2.0 * lambda_mean * mean_gap * d
            + 2.0 * lambda_var * var_gap * (d**2 - 2.0 * mean * d)
        )
        grad_log_w = pmf * (grad_pmf - pmf @ grad_pmf - 2.0 * shortfall)
        slope = grad_log_w * expit(z)
        grad = np.array(
            [
                grad_log_w @ x - shortfall * alpha / beta,
                grad_log_w @ x**2 + shortfall * alpha**2 / (2 * beta**2),
                -(slope @ x),
                -slope.sum(),
            ]
        )
        value = (
            residual @ residual
            + lambda_mean * mean_gap**2
            + lambda_var * var_gap**2
            + shortfall**2
        )
        return float(value), grad

    def natural(d0: float, sigma: float, k: float, q: float) -> np.ndarray:
        beta = min(-(n_bits**2) / (2 * sigma**2), -TRIAL_CURVATURE_FLOOR)
        return np.array([-2 * beta * d0 / n_bits, beta, k * n_bits, q])

    width = math.sqrt(max(var_target, 0.25))
    seeds = [
        natural(mu_target, width, 0.0, -20.0),
        natural(0.9 * mu_target, 1.5 * width, 0.5, -5.0),
        natural(min(1.1 * mu_target, float(n_bits)), 0.75 * width, -0.5, 5.0),
    ]
    bounds = [(None, None), (None, -TRIAL_CURVATURE_FLOOR), (None, None), (None, None)]
    best_result = None
    for seed in seeds:
        result = minimize(
            loss,
            seed,
            method="L-BFGS-B",
            jac=True,
            bounds=bounds,
            options={"ftol": 1e-15, "gtol": 1e-12},
        )
        if best_result is None or result.fun < best_result.fun:
            best_result = result
    if best_result is None or not np.isfinite(best_result.fun):
        raise RuntimeError("trial-distribution fit failed")
    alpha, beta, k, q = best_result.x
    trial = TrialDistribution(
        d0=-alpha * n_bits / (2 * beta),
        sigma=n_bits / math.sqrt(-2 * beta),
        k=k / n_bits,
        q=q,
    )
    if trial.log_weights(n_bits).max() < TRIAL_LOG_WEIGHT_FLOOR:
        raise RuntimeError(f"trial-distribution fit left float range: {trial}")
    info = {
        "objective": float(best_result.fun),
        "n_iterations": int(best_result.nit),
        "at_bound": bool(beta >= -TRIAL_CURVATURE_FLOOR),
    }
    return trial, info
