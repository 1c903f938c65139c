"""Signal recovery from noisy observables.

The noisy order parameter follows the linear model
``Delta_noisy(t) = f(t) Delta(t) + offset(parity of t)`` with an
attenuation f(t) that is (approximately) independent of the circuit
parameters. Recovery divides out f(t) using a reference run at the nearest
Clifford point and removes the parity offsets, which are learned by
regularized least squares against a classically simulated small system.

The same machinery recovers squared-correlator order parameters via two
learned coefficients per run. Each estimate is one guarded ratio,
``Ratio``, with two parameters above and two below the line, made by
``delta_ratio`` or ``chi_ratio``: ``Ratio.fit`` learns its parameters
against the simulated series by a ridge solve and Levenberg-Marquardt
steps, and ``Ratio.apply`` recovers the series with them. The per-cycle flip
probability is the binomial maximum-likelihood estimate from the Clifford
reference's Hamming distribution. Hamming-distance distributions are
recovered via the binomial flip kernel. Each kernel column is the
coefficient list of a product of two binomial generating functions; the
kernel is diagonal in the Krawtchouk basis, with eigenvalues (1 - 2p)^j
(MacWilliams & Sloane, 1977). Deconvolution
fits a Gaussian-times-logistic trial distribution whose mean and variance
are anchored to the recovered order parameter and the quantum Fisher
information. That fit is one bounded least-squares problem over the
trial's natural parameters: it starts from the best cell of a fixed grid
and takes Levenberg-Marquardt steps with the analytic Jacobian. Both fits
supply only their objective and its linearization to one loop,
``_descend``, which owns the step rule (Levenberg, Q. Appl. Math. 2, 164,
1944; Marquardt, J. SIAM 11, 431, 1963) and ends a fit whose objective has
stalled over FIT_STALL_STEPS steps (Madsen, Nielsen & Tingleff, Methods for
Non-Linear Least Squares Problems, 2004, sec. 3.2).
Everything here runs in numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_HALF_WIDTH = 0.2
DEFAULT_GRID_POINTS = 41
# The fits take a proposed step unless it raises the objective by more than
# FIT_ROUNDING of it (the nested fits' rounding noise is about 1e-11), and
# stop at a step within FIT_STEP_FLOOR of the parameters (a converged one is
# about 1e-16), once the objective has not fallen by FIT_ROUNDING of itself
# over the last FIT_STALL_STEPS taken steps (a fit that cycles on rounding
# noise), or after FIT_MAX_STEPS steps. The nested fits stop within 20
# steps; a deconvolution fit that follows a valley of the trial to its bound
# can take a few hundred.
FIT_ROUNDING = 1e-9
FIT_STEP_FLOOR = 1e-14
FIT_STALL_STEPS = 20
FIT_MAX_STEPS = 300


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
class Ratio:
    """The estimate (shift + numerator @ c) / (denominator + slope @ u) per
    cycle: shift and denominator are (T,) series, numerator and slope (T, 2).
    Its parameters are the 4-vector (c0, c1, u0, u1)."""

    shift: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    slope: np.ndarray

    def top(self, c) -> np.ndarray:
        return _affine(self.shift, self.numerator, c)

    def bottom(self, u) -> np.ndarray:
        return _affine(self.denominator, self.slope, u)

    def apply(self, params, guard: float) -> tuple[np.ndarray, np.ndarray]:
        """(estimate at (c0, c1, u0, u1) clamped to [-1, 1], guard flags).

        A cycle is flagged, and should be left out of any metric, when the
        magnitude of its denominator falls below ``guard``.
        """
        params = np.asarray(params, dtype=float)
        bottom = self.bottom(params[2:])
        flagged = np.abs(bottom) < guard
        estimate = self.top(params[:2]) / np.where(flagged, 1.0, bottom)
        return np.clip(estimate, -1.0, 1.0), flagged

    def fit(self, simulated, ridge: float, guard: float) -> tuple:
        """Fit to the simulated series: ((c0, c1, u0, u1), objective).

        Minimizes sum_t r(t)^2 + ridge (|c|^2 + |u|^2), r = estimate - simulated,
        with the estimate unclamped, over usable cycles: t >= 1 with
        |denominator| >= ``guard``. u enters the denominator, so the problem
        is not jointly convex. For each u, c is one ridge solve (variable
        projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).
        The 41x41 grid of u is scored in one call, a cell with no usable
        cycle scoring inf. From the best cell (the first in u0-major order),
        ``_descend`` takes Levenberg-Marquardt steps on u, with c solved
        again at each u (Kaufman, BIT 15, 49, 1975): with w = 1/denominator
        on usable cycles, dr/dc = w numerator and dr/du = -w^2 (shift +
        numerator @ c) slope. The residual is stacked over sqrt(ridge) (c, u),
        so its square is the objective, and its Jacobian on u is the u
        columns less their part along the c columns.
        """
        if ridge <= 0:
            raise ValueError("ridge must be positive")
        _, simulated = _series(self.shift, simulated)
        late = np.arange(len(simulated)) >= 1

        def profile(u: np.ndarray) -> tuple[np.ndarray, ...]:
            bottom = self.bottom(u)
            usable = late & (np.abs(bottom) >= guard)
            w = np.where(usable, 1.0 / np.where(usable, bottom, 1.0), 0.0)
            design = w[..., None] * self.numerator
            rhs = np.where(usable, simulated - w * self.shift, 0.0)
            design_t = np.swapaxes(design, -1, -2)
            normal = design_t @ design + ridge * np.eye(2)
            c = np.linalg.solve(normal, design_t @ rhs[..., None])[..., 0]
            residual = np.where(usable, w * self.top(c) - simulated, 0.0)
            penalty = ridge * np.sum(c**2 + u**2, axis=-1)
            objective = np.sum(residual**2, axis=-1) + penalty
            return np.where(usable.any(axis=-1), objective, np.inf), c, w, residual

        def linearize(u: np.ndarray, state: tuple) -> tuple[np.ndarray, np.ndarray]:
            _, c, w, residual = state
            root, zeros = math.sqrt(ridge), np.zeros((2, 2))
            inner = np.vstack([w[:, None] * self.numerator, root * np.eye(2), zeros])
            slope = -(w**2 * self.top(c))[:, None] * self.slope
            outer = np.vstack([slope, zeros, root * np.eye(2)])
            r = np.concatenate([residual, root * c, root * u])
            return r, outer - inner @ np.linalg.solve(inner.T @ inner, inner.T @ outer)

        axis = np.linspace(
            -DEFAULT_GRID_HALF_WIDTH, DEFAULT_GRID_HALF_WIDTH, DEFAULT_GRID_POINTS
        )
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        u, (objective, c, _, _), _ = _descend(
            profile, linearize, grid[np.argmin(profile(grid)[0])]
        )
        return (*map(float, c), *map(float, u)), float(objective)


def delta_ratio(noisy_target, noisy_reference, exact_reference) -> Ratio:
    """The order parameter by Clifford-point renormalization,
    Delta_hat(t) = E(t) (N(t) - d(t)) / (R(t) - u(t)).

    N is the noisy target series, R the noisy Clifford reference and E its
    noiseless value, 1 or (-1)^t (``clifford_delta``); the attenuation f(t)
    that N and R share cancels. The parameters are the parity offsets
    (d_even, d_odd, u_even, u_odd): the target's, which ``fit`` solves in
    closed form, then the reference's.
    """
    noisy, reference, exact = _series(noisy_target, noisy_reference, exact_reference)
    one_hot = (np.arange(len(noisy))[:, None] % 2 == np.arange(2)).astype(float)
    return Ratio(exact * noisy, -exact[:, None] * one_hot, reference, -one_hot)


def chi_ratio(chi_noisy, corr_noisy, chi_ref, corr_ref, n_qubits: int) -> Ratio:
    """The squared-correlator order parameter,
    chi_hat = (chi + 2 c1 C + (N-1) c2) / (chi' + 2 c1' C' + (N-1) c2').

    chi and C are the target's noisy squared-correlator and correlator
    averages, chi' and C' the Clifford reference's, whose noiseless value is
    1; N is the number of qubits. The parameters are the bias coefficients
    (c1, c2, c1', c2'): the target's, then the reference's.
    """
    chi, corr, chi_ref, corr_ref = _series(chi_noisy, corr_noisy, chi_ref, corr_ref)
    constant = np.full(len(chi), n_qubits - 1.0)
    columns = [np.stack([2 * c, constant], axis=-1) for c in (corr, corr_ref)]
    return Ratio(chi, columns[0], chi_ref, columns[1])


def _descend(profile, linearize, x, lower=-np.inf, upper=np.inf) -> tuple:
    """Minimize ``profile(x)[0]`` from x within lower <= x <= upper by
    Levenberg-Marquardt steps, and return (x, state, steps taken).

    ``profile(x)`` returns (objective, ...), the state at x, and
    ``linearize(x, state)`` the residual r, whose square is the objective,
    and its Jacobian J. A step solves (J^T J + damping D) h = -J^T r with D
    the diagonal of J^T J, floored at FIT_ROUNDING of its largest entry. A
    parameter on a bound that the gradient pushes outward is held. A step
    whose end point, clipped into the bounds, raises the objective by at
    most FIT_ROUNDING of it is taken; a rejected one doubles the damping and
    is solved again. The damping starts at FIT_ROUNDING; a taken step that
    gains less than 1/4 of its predicted decrease doubles it, one that gains
    more than 3/4 halves it. A decrease too small to measure (its prediction
    below FIT_ROUNDING of the objective) counts as a full gain, so no choice
    follows the last bits of the inputs.

    The loop stops when no parameter is free to move, at a step within
    FIT_STEP_FLOOR of x (relative to each entry of x above 1), at a taken
    step that leaves the objective above (1 - FIT_ROUNDING) times its value
    FIT_STALL_STEPS taken steps before (it has stalled), or after
    FIT_MAX_STEPS steps. Without the stall window a fit can cycle in its
    damping: once its steps gain too little to judge, the damping falls to
    its floor, where a step grows until the gain ratio rejects it, and the
    cycle repeats.
    """
    state = profile(x)
    objectives = [state[0]]  # after each taken step
    damping = FIT_ROUNDING
    for n_steps in range(FIT_MAX_STEPS):
        r, jac = linearize(x, state)
        gradient = jac.T @ r
        held = ((x >= upper) & (gradient < 0)) | ((x <= lower) & (gradient > 0))
        jac, gradient = jac * ~held, gradient * ~held
        if not gradient.any():
            return x, state, n_steps
        normal = jac.T @ jac
        diagonal = np.diag(normal)
        scale = np.diag(np.maximum(diagonal, FIT_ROUNDING * diagonal.max()))
        while True:
            step = -np.linalg.solve(normal + damping * scale, gradient)
            if np.max(np.abs(step) / np.maximum(np.abs(x), 1.0)) <= FIT_STEP_FLOOR:
                return x, state, n_steps
            moved = np.clip(x + step, lower, upper)
            trial = profile(moved)
            if trial[0] <= state[0] * (1 + FIT_ROUNDING):
                break
            damping *= 2
        predicted = -(2 * gradient @ step + step @ normal @ step)
        gain = 1.0
        if predicted > FIT_ROUNDING * state[0]:
            gain = (state[0] - trial[0]) / predicted
        if gain > 0.75:
            damping = max(damping / 2, FIT_ROUNDING)
        elif gain < 0.25:
            damping *= 2
        x, state = moved, trial
        objectives.append(state[0])
        if len(objectives) > FIT_STALL_STEPS and not (
            state[0] < (1 - FIT_ROUNDING) * objectives[-1 - FIT_STALL_STEPS]
        ):
            return x, state, n_steps + 1
    return x, state, FIT_MAX_STEPS


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
# The logistic's rise over [0, N], |k N|, is bounded by TRIAL_SLOPE_BOUND:
# a fit that sharpens the logistic toward a step then ends on the bound
# instead of following that valley without end.
TRIAL_CURVATURE_FLOOR = 0.05
TRIAL_LOG_WEIGHT_FLOOR = -600.0
TRIAL_SLOPE_BOUND = 100.0


def flip_kernel(n_bits: int, p: float) -> np.ndarray:
    """Full (N+1)x(N+1) flip kernel T[d_out, d_in] on Hamming-distance
    histograms; columns sum to 1.

    Column d_in holds the coefficients of z^d_out in
    (p + q z)^d_in (q + p z)^(N - d_in), q = 1 - p: each of the d_in
    differing spins still differs unless it flips, each of the others
    differs once it flips. (q + p z)^m is (p + q z)^m reversed.
    """
    if not 0 <= p <= 1:
        raise ValueError("flip probability must lie in [0, 1]")
    powers = [np.ones(1)]  # (p + q z)^m, m = 0..N
    for _ in range(n_bits):
        powers.append(np.convolve(powers[-1], [p, 1 - p]))
    return np.column_stack(
        [np.convolve(powers[d], powers[n_bits - d][::-1]) for d in range(n_bits + 1)]
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
        """Unnormalized log-weights -(d - d0)^2 / (2 sigma^2) - softplus(k d + q)."""
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        d = np.arange(n_bits + 1, dtype=float)
        return -((d - self.d0) ** 2) / (2 * self.sigma**2) - np.logaddexp(
            0.0, self.k * d + self.q
        )


def _trial_cells(n_bits: int, mu_target: float, var_target: float) -> np.ndarray:
    """Start cells of the deconvolution, as rows (alpha, beta, k N, q).

    The Gaussian factor is centered at mu + (-2..2) s with width
    s (1/2, 1/sqrt 2, 1, sqrt 2, 2), where s = sqrt(max(var, 1/4)), or it is
    one of the tilts alpha = -16, -14, .., 16 on the curvature bound. The
    logistic is a step of rise k N = +-6, +-20 or +-60 centered at
    x = 0.1, 0.3, .., 0.9. None is switched off: its gradient would then
    vanish, and the fit could not switch it on again.
    """
    spread = math.sqrt(max(var_target, 0.25))
    d0 = mu_target + np.arange(-2.0, 3.0)[:, None] * spread
    sigma = 2.0 ** np.arange(-1.0, 1.5, 0.5) * spread
    beta = np.minimum(-(n_bits**2) / (2 * sigma**2), -TRIAL_CURVATURE_FLOOR)
    gaussians = np.stack(np.broadcast_arrays(-2 * beta * d0 / n_bits, beta), axis=-1)
    tilts = np.stack(
        np.broadcast_arrays(np.arange(-16.0, 17.0, 2.0), -TRIAL_CURVATURE_FLOOR), axis=-1
    )
    shapes = np.concatenate([gaussians.reshape(-1, 2), tilts])
    rises = np.array([-60.0, -20.0, -6.0, 6.0, 20.0, 60.0])[:, None]
    centers = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    logistics = np.stack(np.broadcast_arrays(rises, -rises * centers), axis=-1)
    cells = np.broadcast_arrays(shapes[:, None], logistics.reshape(1, -1, 2))
    return np.concatenate(cells, axis=-1).reshape(-1, 4)


def deconvolve_hamming(
    noisy_distribution: np.ndarray,
    p: float,
    mu_target: float,
    var_target: float,
    lambda_mean: float = 10.0,
    lambda_var: float = 10.0,
) -> tuple[TrialDistribution, dict]:
    """Invert the flip channel by fitting the constrained trial distribution.

    Minimizes |r|^2 for one residual vector r: the push-forward misfit
    h - K pmf, sqrt(lambda_mean) (mean - mu), sqrt(lambda_var) (var - var)
    and the float-range shortfall (see TRIAL_LOG_WEIGHT_FLOOR), which ties
    the trial mean and variance to the recovered order parameter and the
    QFI. The fit runs over the natural parameters of the trial, with
    x = d/N: log w = alpha x + beta x^2 - softplus(k x + q), bounded by
    beta <= -TRIAL_CURVATURE_FLOOR and |k| <= TRIAL_SLOPE_BOUND.

    It scores the cells of ``_trial_cells`` in one call and starts from the
    best. From there ``_descend`` takes Levenberg-Marquardt steps with the
    analytic Jacobian.

    The info dict holds the objective, the number of steps and ``at_bound``,
    true when beta ended on its bound.
    """
    noisy_distribution = np.asarray(noisy_distribution, dtype=float)
    n_bits = len(noisy_distribution) - 1
    if n_bits < 1:
        raise ValueError("need a distribution over at least one bit")
    if lambda_mean <= 0 or lambda_var <= 0:
        raise ValueError("moment penalties must be positive")
    kernel = flip_kernel(n_bits, p)
    d = np.arange(n_bits + 1, dtype=float)
    x = d / n_bits
    root_mean, root_var = math.sqrt(lambda_mean), math.sqrt(lambda_var)

    def profile(theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """(objective, r, pmf, z) at one or an array of parameter rows."""
        alpha, beta, k, q = theta.T[..., None]
        z = k * x + q
        log_w = alpha * x + beta * x**2 - np.logaddexp(0.0, z)
        shift = log_w.max(axis=-1, keepdims=True)
        weights = np.exp(log_w - shift)
        total = weights.sum(axis=-1, keepdims=True)
        pmf = weights / total
        # logsumexp of the reported (unshifted) log-weights
        top = shift + np.log(total) + alpha**2 / (4 * beta)
        mean = pmf @ d
        r = np.concatenate(
            [
                noisy_distribution - pmf @ kernel.T,
                root_mean * (mean - mu_target)[..., None],
                root_var * (pmf @ d**2 - mean**2 - var_target)[..., None],
                np.maximum(TRIAL_LOG_WEIGHT_FLOOR + 100.0 - top, 0.0),
            ],
            axis=-1,
        )
        return np.sum(r**2, axis=-1), r, pmf, z

    def linearize(theta: np.ndarray, state: tuple) -> tuple[np.ndarray, np.ndarray]:
        _, r, pmf, z = state
        alpha, beta = theta[:2]
        expit_z = np.exp(-np.logaddexp(0.0, -z))
        dlog_w = np.stack([x, x**2, -expit_z * x, -expit_z], axis=1)
        dpmf = pmf[:, None] * (dlog_w - pmf @ dlog_w)  # through the softmax
        dtop = pmf @ dlog_w + [alpha / (2 * beta), -(alpha**2) / (4 * beta**2), 0, 0]
        return r, np.vstack(
            [
                -kernel @ dpmf,
                root_mean * (d @ dpmf),
                root_var * ((d**2 - 2 * (pmf @ d) * d) @ dpmf),
                -dtop if r[-1] > 0 else np.zeros(4),
            ]
        )

    lower = np.array([-np.inf, -np.inf, -TRIAL_SLOPE_BOUND, -np.inf])
    upper = np.array([np.inf, -TRIAL_CURVATURE_FLOOR, TRIAL_SLOPE_BOUND, np.inf])
    cells = _trial_cells(n_bits, mu_target, var_target)
    theta, (objective, *_), n_steps = _descend(
        profile, linearize, cells[np.argmin(profile(cells)[0])], lower, upper
    )
    if not np.isfinite(objective):
        raise RuntimeError("trial-distribution fit failed")
    alpha, beta, k, q = map(float, theta)
    trial = TrialDistribution(
        d0=-alpha * n_bits / (2 * beta),
        sigma=n_bits / math.sqrt(-2 * beta),
        k=k / n_bits,
        q=q,
    )
    if trial.log_weights(n_bits).max() < TRIAL_LOG_WEIGHT_FLOOR:
        raise RuntimeError(f"trial-distribution fit left float range: {trial}")
    info = {
        "objective": float(objective),
        "n_steps": n_steps,
        "at_bound": bool(beta >= -TRIAL_CURVATURE_FLOOR),
    }
    return trial, info
