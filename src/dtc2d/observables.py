"""Diagnostics computed from expectation values or sampled bitstrings.

All quantities are functions of the per-cycle state: the spin-memory order
parameter Delta(t), squared-correlator order parameters (nearest-neighbor
chi and its all-pairs Edwards-Anderson variant), Hamming-distance
distributions, and the connected-correlator variance sigma(t) (the quantum
Fisher information of the sampled distribution).
"""
from __future__ import annotations

import numpy as np


def delta(per_site_z: np.ndarray, s0: np.ndarray) -> float:
    """Spin memory (1/N) sum_i s_i(0) <Z_i(t)>."""
    per_site_z = np.asarray(per_site_z, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    if per_site_z.shape != s0.shape:
        raise ValueError("per_site_z and s0 have different lengths")
    return float(np.mean(s0 * per_site_z))


def chi(zz_values: np.ndarray) -> float:
    """Mean squared correlator over a pair set.

    Serves both the nearest-neighbor order parameter and, with all qubit
    pairs, the Edwards-Anderson spin-glass order parameter.
    """
    zz_values = np.asarray(zz_values, dtype=float)
    if zz_values.size == 0:
        raise ValueError("chi needs a non-empty pair set")
    return float(np.mean(zz_values**2))


def chi_from_matrix(zz: np.ndarray) -> float:
    """Edwards-Anderson variant: mean of <Z_i Z_j>^2 over all pairs i != j."""
    n = zz.shape[0]
    iu = np.triu_indices(n, k=1)
    return chi(zz[iu])


def correlator_average(zz_values: np.ndarray) -> float:
    """Plain pair average of <Z_i Z_j> (the C series used by chi recovery)."""
    zz_values = np.asarray(zz_values, dtype=float)
    if zz_values.size == 0:
        raise ValueError("empty pair set")
    return float(np.mean(zz_values))


def phase_order_params(deltas: list[float]) -> tuple[float, float]:
    """(Delta_MBL, Delta_DTC): localization and time-crystal order parameters.

    ``deltas`` holds Delta(t) for t = 0..T. Both sums are normalized by the
    actual number of cycles included, so the ideal flip point evaluates
    exactly to Delta_MBL = Delta_DTC = 1.
    """
    deltas = np.asarray(deltas, dtype=float)
    signs = (-1.0) ** np.arange(len(deltas))
    return float(np.mean(np.abs(deltas))), float(np.mean(signs * deltas))


def hamming_distances(samples: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Per-sample bit-flip count between sampled bitstrings and s0."""
    samples = np.asarray(samples)
    bits0 = ((1 - np.asarray(s0, dtype=np.int64)) // 2).astype(samples.dtype)
    return np.sum(samples != bits0[None, :], axis=1)


def hamming_distribution(samples: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Normalized histogram of Hamming distances over d = 0..N."""
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    n = samples.shape[1]
    d = hamming_distances(samples, s0)
    hist = np.bincount(d, minlength=n + 1).astype(float)
    return hist / hist.sum()


def distribution_mean_var(dist: np.ndarray) -> tuple[float, float]:
    d = np.arange(len(dist))
    mean = float(np.sum(d * dist))
    var = float(np.sum(d**2 * dist) - mean**2)
    return mean, var


def hamming_mean_from_delta(n_qubits: int, delta_value: float) -> float:
    """Mean of the Hamming distribution, mu = (N/2)(1 - Delta)."""
    return 0.5 * n_qubits * (1.0 - delta_value)


def qfi(per_site_z: np.ndarray, zz: np.ndarray, s0: np.ndarray) -> float:
    """Connected-correlator sum (1/4) sum_ij s_i s_j (<Z_iZ_j> - <Z_i><Z_j>).

    Equals the variance of the Hamming-distance distribution.
    """
    per_site_z = np.asarray(per_site_z, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    zz = np.asarray(zz, dtype=float)
    n = len(s0)
    if zz.shape != (n, n):
        raise ValueError(f"zz matrix must be {n}x{n}")
    weighted = s0 * per_site_z
    total = s0 @ zz @ s0 - np.sum(weighted) ** 2
    return float(total / 4.0)


def fourier_spectrum(series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude of the forward DFT over angular frequencies in [0, pi].

    Returns (omega, magnitude); omega = 2 pi k / len(series). With an even
    number of samples the last bin sits exactly at omega = pi.
    """
    series = np.asarray(series, dtype=float)
    if len(series) < 4:
        raise ValueError("need at least 4 samples")
    coef = np.fft.rfft(series)
    omega = 2.0 * np.pi * np.arange(len(coef)) / len(series)
    return omega, np.abs(coef)

