"""Signal recovery from noisy observables.

The noisy order parameter follows the linear model
``Delta_noisy(t) = f(t) Delta(t) + offset(parity of t)`` with an
attenuation f(t) that is (approximately) independent of the circuit
parameters. Recovery divides out f(t) using a reference run at the nearest
Clifford point and removes the parity offsets, which are learned by
regularized least squares against a classically simulated small system.

The same machinery recovers squared-correlator order parameters via two
learned coefficients per run, and Hamming-distance distributions via the
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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, gammaln, log_expit, xlog1py, xlogy

DEFAULT_GUARD = 1e-3
DEFAULT_GRID_HALF_WIDTH = 0.2
DEFAULT_GRID_POINTS = 41


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
        values = (
            self.target_even,
            self.target_odd,
            self.reference_even,
            self.reference_odd,
        )
        if not all(np.isfinite(v) and abs(v) <= 1.0 for v in values):
            raise ValueError(f"offsets must be finite and within [-1, 1], got {values}")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.target_even, self.target_odd, self.reference_even, self.reference_odd]
        )

    @classmethod
    def zeros(cls) -> "OffsetVector":
        return cls(0.0, 0.0, 0.0, 0.0)

    def target(self, t: np.ndarray) -> np.ndarray:
        return np.where(t % 2 == 0, self.target_even, self.target_odd)

    def reference(self, t: np.ndarray) -> np.ndarray:
        return np.where(t % 2 == 0, self.reference_even, self.reference_odd)


def renormalize_delta(
    noisy_target: np.ndarray,
    noisy_reference: np.ndarray,
    exact_reference: np.ndarray,
    offsets: OffsetVector,
    guard: float = DEFAULT_GUARD,
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the order parameter by Clifford-point renormalization.

    Returns (recovered, flagged): recovered values are clamped to [-1, 1];
    a point is flagged (and should be excluded from metrics) when the
    denominator magnitude falls below ``guard``.
    """
    noisy_target = np.asarray(noisy_target, dtype=float)
    noisy_reference = np.asarray(noisy_reference, dtype=float)
    exact_reference = np.asarray(exact_reference, dtype=float)
    if not noisy_target.shape == noisy_reference.shape == exact_reference.shape:
        raise ValueError("series must share the cycle range")
    t = np.arange(len(noisy_target))
    denominator = noisy_reference - offsets.reference(t)
    flagged = np.abs(denominator) < guard
    safe = np.where(flagged, 1.0, denominator)
    recovered = exact_reference * (noisy_target - offsets.target(t)) / safe
    return np.clip(recovered, -1.0, 1.0), flagged


def _nested_fit(inner, full_objective) -> tuple[tuple[float, ...], float]:
    """Solve a four-parameter least-squares fit that is quadratic in two.

    ``inner(outer)`` solves the two inner parameters for a fixed outer pair
    and returns (objective, a, b). The outer pair is grid-scanned, then the
    best (a, b, outer_0, outer_1) is refined by Nelder-Mead on
    ``full_objective``; the refinement is kept only when it does not do
    worse. Deterministic. Returns (solution, objective).
    """
    grid = np.linspace(
        -DEFAULT_GRID_HALF_WIDTH, DEFAULT_GRID_HALF_WIDTH, DEFAULT_GRID_POINTS
    )
    best = (np.inf, (0.0, 0.0, 0.0, 0.0))
    for u0 in grid:
        for u1 in grid:
            objective, a, b = inner((u0, u1))
            if objective < best[0]:
                best = (objective, (a, b, u0, u1))

    objective, solution = best
    result = minimize(
        full_objective,
        np.array(solution),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000},
    )
    if result.fun <= objective:
        objective, solution = float(result.fun), tuple(result.x)
    return solution, objective


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
    over t = 1..T. The reference offsets enter the denominator, so the
    problem is not jointly convex. With the reference offsets fixed, the
    recovered series is linear in the target offsets, so that subproblem
    solves in closed form, independently per parity class; the nested fit
    grid-scans the reference offsets around it and refines locally.
    """
    noisy_target = np.asarray(noisy_target, dtype=float)
    noisy_reference = np.asarray(noisy_reference, dtype=float)
    exact_reference = np.asarray(exact_reference, dtype=float)
    delta_sim = np.asarray(delta_sim, dtype=float)
    if ridge <= 0:
        raise ValueError("ridge must be positive")
    t = np.arange(len(noisy_target))

    def inner(reference_offsets: tuple[float, float]) -> tuple[float, float, float]:
        u = np.where(t % 2 == 0, reference_offsets[0], reference_offsets[1])
        denominator = noisy_reference - u
        valid = (np.abs(denominator) >= guard) & (t >= 1)
        objective = ridge * (reference_offsets[0] ** 2 + reference_offsets[1] ** 2)
        solved = [0.0, 0.0]
        for parity in (0, 1):
            mask = valid & (t % 2 == parity)
            if not np.any(mask):
                continue
            ratio = exact_reference[mask] / denominator[mask]
            misfit = delta_sim[mask] - ratio * noisy_target[mask]
            offset = -float(misfit @ ratio) / (float(ratio @ ratio) + ridge)
            solved[parity] = offset
            objective += float(np.sum((misfit + ratio * offset) ** 2))
            objective += ridge * offset**2
        return objective, solved[0], solved[1]

    def full_objective(vec: np.ndarray) -> float:
        # the target offsets are free variables here, not the closed form
        u = np.where(t % 2 == 0, vec[2], vec[3])
        denominator = noisy_reference - u
        valid = (np.abs(denominator) >= guard) & (t >= 1)
        ratio = np.where(valid, exact_reference / np.where(valid, denominator, 1.0), 0.0)
        d = np.where(t % 2 == 0, vec[0], vec[1])
        residual = np.where(valid, delta_sim - ratio * (noisy_target - d), 0.0)
        return float(np.sum(residual**2) + ridge * np.sum(vec**2))

    solution, objective = _nested_fit(inner, full_objective)
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
    Returns (recovered, flagged).
    """
    numerator = (
        chi_noisy + 2 * coeffs.c1_target * corr_noisy + (n_qubits - 1) * coeffs.c2_target
    )
    denominator = (
        chi_noisy_reference
        + 2 * coeffs.c1_reference * corr_noisy_reference
        + (n_qubits - 1) * coeffs.c2_reference
    )
    flagged = np.abs(denominator) < guard
    safe = np.where(flagged, 1.0, denominator)
    return np.clip(numerator / safe, -1.0, 1.0), flagged


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
    """Learn c1/c2 pairs by the same nested least-squares scheme as offsets."""
    chi_noisy = np.asarray(chi_noisy, dtype=float)
    corr_noisy = np.asarray(corr_noisy, dtype=float)
    chi_ref = np.asarray(chi_noisy_reference, dtype=float)
    corr_ref = np.asarray(corr_noisy_reference, dtype=float)
    chi_sim = np.asarray(chi_sim, dtype=float)
    t = np.arange(len(chi_noisy))

    def inner(ref_pair: tuple[float, float]) -> tuple[float, float, float]:
        denominator = chi_ref + 2 * ref_pair[0] * corr_ref + (n_qubits - 1) * ref_pair[1]
        valid = (np.abs(denominator) >= guard) & (t >= 1)
        if not np.any(valid):
            return np.inf, 0.0, 0.0
        den = denominator[valid]
        design = np.column_stack([2 * corr_noisy[valid] / den, (n_qubits - 1) / den])
        rhs = chi_sim[valid] - chi_noisy[valid] / den
        gram = design.T @ design + ridge * np.eye(2)
        c = np.linalg.solve(gram, design.T @ rhs)
        residual = design @ c - rhs
        objective = float(residual @ residual) + ridge * float(
            c @ c + ref_pair[0] ** 2 + ref_pair[1] ** 2
        )
        return objective, float(c[0]), float(c[1])

    def full_objective(vec: np.ndarray) -> float:
        coeffs = ChiCoefficients(*vec)
        recovered, flagged = recover_chi(
            chi_noisy, corr_noisy, chi_ref, corr_ref, coeffs, n_qubits, guard
        )
        valid = ~flagged & (t >= 1)
        residual = np.where(valid, chi_sim - recovered, 0.0)
        return float(np.sum(residual**2) + ridge * np.sum(vec**2))

    solution, objective = _nested_fit(inner, full_objective)
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


@dataclass(frozen=True)
class FlipKernel:
    """Transition matrix on Hamming-distance histograms, T[d_out, d_in]."""

    n_bits: int
    p: float
    matrix: np.ndarray

    def apply(self, distribution: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(distribution, dtype=float)


def flip_kernel(n_bits: int, p: float) -> FlipKernel:
    """Full (N+1)x(N+1) flip kernel; columns sum to 1."""
    matrix = np.column_stack(
        [kernel_column(n_bits, p, d_in) for d_in in range(n_bits + 1)]
    )
    return FlipKernel(n_bits=n_bits, p=p, matrix=matrix)


def _golden_section(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def learn_flip_probability(
    noisy_distribution: np.ndarray, d_cliff: int
) -> float:
    """Fit the flip probability from one noisy Clifford-point distribution.

    The noiseless Clifford distribution is a point mass at d_cliff, so the
    model prediction is a single kernel column. The loss is not unimodal on
    [0, 1/2] (it has a shallow tail toward 1/2), so the global minimum is
    bracketed by a coarse grid scan, scored from one table of columns,
    before golden-section refinement.
    """
    noisy_distribution = np.asarray(noisy_distribution, dtype=float)
    n_bits = len(noisy_distribution) - 1

    def loss(p):
        column = kernel_column(n_bits, p, d_cliff)
        return np.sum((noisy_distribution - column) ** 2, axis=-1)

    grid = np.linspace(0.0, 0.5, 101)
    values = loss(grid)
    if np.ptp(values) < 1e-14:
        warnings.warn("flat flip-probability objective; returning boundary 0")
        return 0.0
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    return _golden_section(loss, lo, hi)


def learn_flip_schedule(
    noisy_distributions: np.ndarray, d_cliff: np.ndarray
) -> np.ndarray:
    """Per-cycle flip probabilities from Clifford-point distributions."""
    return np.array(
        [
            learn_flip_probability(dist, int(d))
            for dist, d in zip(noisy_distributions, d_cliff)
        ]
    )


@dataclass(frozen=True)
class TrialDistribution:
    """Gaussian-times-logistic ansatz for the noiseless Hamming distribution."""

    d0: float
    sigma: float
    k: float
    q: float

    def log_weights(self, n_bits: int) -> np.ndarray:
        """Unnormalized log-weights -(d - d0)^2 / (2 sigma^2) + log expit(-(k d + q))."""
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

    def moments(self, n_bits: int) -> tuple[float, float]:
        pmf = self.pmf(n_bits)
        d = np.arange(n_bits + 1)
        mean = float(np.sum(d * pmf))
        var = float(np.sum(d**2 * pmf) - mean**2)
        return mean, var


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
    noisy_distribution = np.asarray(noisy_distribution, dtype=float)
    n_bits = len(noisy_distribution) - 1
    if n_bits < 1:
        raise ValueError("need a distribution over at least one bit")
    if lambda_mean <= 0 or lambda_var <= 0:
        raise ValueError("moment penalties must be positive")
    kernel = flip_kernel(n_bits, p).matrix
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
