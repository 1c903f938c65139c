"""The synthetic noise channel that recovery learns to undo.

Expectation values are corrupted by the linear model
``z_noisy_i(t) = f_i(t) z_i(t) + bias_i(t)`` with per-qubit attenuation
schedules f_i(t) = rate_i**t and parity-periodic biases
(bias_i(t) = bias_i(t+2)). Sampled bitstrings are corrupted by independent
per-bit flips with probability p(t) followed by readout flips. The <ZZ>
matrix passes through the same per-qubit channel: ``corrupt_zz`` maps one
whole (z, zz) read, ``corrupt_bits`` all shots at once.

A ``NoiseModel`` holds the channel of one lattice. The config's
``noise`` section, ``dtc2d.config.NoiseSpec``, declares its settings and
their bounds and builds it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    decay: np.ndarray  # per-qubit per-cycle attenuation factor, in [0, 1]
    bias_even: np.ndarray
    bias_odd: np.ndarray
    flip_slope: float  # p(t) = min(flip_slope * t, flip_cap)
    flip_cap: float
    readout_flip: float

    @property
    def n_qubits(self) -> int:
        return len(self.decay)

    def attenuation(self, t: int) -> np.ndarray:
        """f_i(t); non-increasing in t."""
        return self.decay**t

    def bias(self, t: int) -> np.ndarray:
        return self.bias_even if t % 2 == 0 else self.bias_odd

    def flip_probability(self, t: int) -> float:
        return min(self.flip_slope * t, self.flip_cap)


def corrupt_zz(
    z: np.ndarray, zz: np.ndarray, model: NoiseModel, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the per-qubit linear channel to one (z, zz) read at cycle t.

    Each Z_i -> f_i Z_i + b_i independently, so
    <Z_i Z_j> -> f_i f_j <Z_i Z_j> + f_i b_j <Z_i> + f_j b_i <Z_j> + b_i b_j.
    The recovery ansatz approximates the pair map by a collective
    attenuation plus pair-averaged bias terms. Each entry i < j is mapped
    and mirrored to (j, i); the diagonal stays 1. Outputs are clamped to
    [-1, 1].
    """
    z = np.asarray(z, dtype=float)
    zz = np.asarray(zz, dtype=float)
    if len(z) != model.n_qubits:
        raise ValueError("noise model and z values have different lengths")
    f = model.attenuation(t)
    b = model.bias(t)
    i, j = np.triu_indices(len(z), k=1)
    noisy_zz = np.eye(len(z))
    upper = (
        f[i] * f[j] * zz[i, j]
        + f[i] * b[j] * z[i]
        + f[j] * b[i] * z[j]
        + b[i] * b[j]
    )
    noisy_zz[i, j] = noisy_zz[j, i] = np.clip(upper, -1.0, 1.0)
    return np.clip(f * z + b, -1.0, 1.0), noisy_zz


def corrupt_bits(
    samples: np.ndarray,
    model: NoiseModel,
    t: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flip each bit independently with p(t), then apply readout flips."""
    samples = np.asarray(samples, dtype=np.uint8)
    p = model.flip_probability(t)
    flips = (rng.random(samples.shape) < p).astype(np.uint8)
    noisy = samples ^ flips
    if model.readout_flip > 0:
        readout = (rng.random(samples.shape) < model.readout_flip).astype(np.uint8)
        noisy = noisy ^ readout
    return noisy

