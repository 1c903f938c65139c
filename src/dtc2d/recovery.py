"""Signal recovery from noisy observables.

The noisy order parameter follows the linear model
``Delta_noisy(t) = f(t) Delta(t) + offset(parity of t)`` with an
attenuation f(t) that is (approximately) independent of the circuit
parameters. Recovery divides out f(t) using a reference run at the nearest
Clifford point and removes the parity offsets, which are learned by
regularized least squares against a classically simulated small system.

The same machinery recovers squared-correlator order parameters via two
learned coefficients per run, and Hamming-distance distributions via the
binomial flip kernel: deconvolution fits a constrained trial distribution
whose mean and variance are anchored to the recovered order parameter and
the quantum Fisher information.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, gammaln, logsumexp

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


def _log_binomial(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log C(n, k), -inf outside 0 <= k <= n."""
    n = np.asarray(n, dtype=float)
    k = np.asarray(k, dtype=float)
    valid = (k >= 0) & (k <= n)
    safe_k = np.where(valid, k, 0.0)
    value = gammaln(n + 1) - gammaln(safe_k + 1) - gammaln(n - safe_k + 1)
    return np.where(valid, value, -np.inf)


def kernel_column(n_bits: int, p: float, d_in: int) -> np.ndarray:
    """Column d_in of the flip kernel: output-distance distribution when
    each of ``n_bits`` spins flips independently with probability p.

    Computed in log space and exponentiated, stable up to n_bits ~ 200.
    """
    if not 0 <= p <= 1:
        raise ValueError("flip probability must lie in [0, 1]")
    if not 0 <= d_in <= n_bits:
        raise ValueError("input distance out of range")
    if p == 0.0:
        column = np.zeros(n_bits + 1)
        column[d_in] = 1.0
        return column
    if p == 1.0:
        column = np.zeros(n_bits + 1)
        column[n_bits - d_in] = 1.0
        return column
    d = np.arange(n_bits + 1)[:, None]
    x = np.arange(n_bits + 1)[None, :]
    log_terms = (
        _log_binomial(np.full_like(x, d_in), x)
        + _log_binomial(np.full_like(d, n_bits - d_in), d - x)
        + (d + d_in - 2 * x) * math.log(p)
        + (n_bits + 2 * x - d - d_in) * math.log1p(-p)
    )
    return np.exp(logsumexp(log_terms, axis=1))


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
    bracketed by a coarse grid scan before golden-section refinement.
    """
    noisy_distribution = np.asarray(noisy_distribution, dtype=float)
    n_bits = len(noisy_distribution) - 1

    def loss(p: float) -> float:
        column = kernel_column(n_bits, p, d_cliff)
        return float(np.sum((noisy_distribution - column) ** 2))

    grid = np.linspace(0.0, 0.5, 101)
    values = [loss(p) for p in grid]
    if max(values) - min(values) < 1e-14:
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

    def pmf(self, n_bits: int) -> np.ndarray:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        d = np.arange(n_bits + 1, dtype=float)
        weights = np.exp(-((d - self.d0) ** 2) / (2 * self.sigma**2)) * expit(
            -(self.k * d + self.q)
        )
        total = weights.sum()
        if total <= 0 or not np.isfinite(total):
            raise ValueError("trial distribution has no support on [0, N]")
        return weights / total

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
    QFI. Derivative-free simplex search restarted from three deterministic
    seeds; the best fit wins.
    """
    noisy_distribution = np.asarray(noisy_distribution, dtype=float)
    n_bits = len(noisy_distribution) - 1
    if lambda_mean <= 0 or lambda_var <= 0:
        raise ValueError("moment penalties must be positive")
    kernel = flip_kernel(n_bits, p)
    d = np.arange(n_bits + 1)

    def loss(theta: np.ndarray) -> float:
        d0, sigma, k, q = theta
        if sigma < 1e-3 or not np.isfinite(theta).all():
            return 1e9 + float(np.nan_to_num(np.abs(theta).sum()))
        trial = TrialDistribution(d0, sigma, k, q)
        try:
            pmf = trial.pmf(n_bits)
        except ValueError:
            return 1e9
        pushed = kernel.matrix @ pmf
        mean = float(np.sum(d * pmf))
        var = float(np.sum(d**2 * pmf) - mean**2)
        misfit = float(np.sum((noisy_distribution - pushed) ** 2))
        return (
            misfit
            + lambda_mean * (mean - mu_target) ** 2
            + lambda_var * (var - var_target) ** 2
        )

    width = math.sqrt(max(var_target, 0.25))
    seeds = [
        np.array([mu_target, width, 0.0, -20.0]),
        np.array([0.9 * mu_target, 1.5 * width, 0.5, -5.0]),
        np.array([min(1.1 * mu_target, float(n_bits)), 0.75 * width, -0.5, 5.0]),
    ]
    best_result = None
    for seed in seeds:
        result = minimize(
            loss,
            seed,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-13, "maxiter": 8000, "maxfev": 8000},
        )
        if best_result is None or result.fun < best_result.fun:
            best_result = result
    if best_result is None or not np.isfinite(best_result.fun):
        raise RuntimeError("trial-distribution fit failed")
    trial = TrialDistribution(*best_result.x)
    return trial, {"objective": float(best_result.fun), "n_iterations": best_result.nit}
