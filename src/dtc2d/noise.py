"""Synthetic noise injection matching the recovery model's assumptions.

Expectation values are corrupted by the linear model
``z_noisy_i(t) = f_i(t) z_i(t) + bias_i(t)`` with per-qubit attenuation
schedules f_i(t) = rate_i**t and parity-periodic biases
(bias_i(t) = bias_i(t+2)). Sampled bitstrings are corrupted by independent
per-bit flips with probability p(t) followed by readout flips. The <ZZ>
matrix passes through the same per-qubit channel: ``corrupt_zz`` maps one
whole (z, zz) read, ``corrupt_bits`` all shots at once.

``NoiseSpec.build`` makes the ``NoiseModel`` of one lattice. Its
``uniform`` kind realizes exactly the model the recovery stack assumes, so
closed-loop tests isolate recovery-code correctness; its ``mismatched``
kind draws qubit-dependent schedules that break the uniformity
assumptions to probe robustness.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class NoiseModel:
    decay: np.ndarray  # per-qubit per-cycle attenuation factor, in [0, 1]
    bias_even: np.ndarray
    bias_odd: np.ndarray
    flip_slope: float = 0.0  # p(t) = min(flip_slope * t, flip_cap)
    flip_cap: float = 0.5
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        decay = np.asarray(self.decay, dtype=float)
        even = np.asarray(self.bias_even, dtype=float)
        odd = np.asarray(self.bias_odd, dtype=float)
        # written so that a NaN fails each check
        if not np.all((decay >= 0) & (decay <= 1)):
            raise ValueError("decay factors must lie in [0, 1]")
        if not np.all((np.abs(even) <= 1) & (np.abs(odd) <= 1)):
            raise ValueError("biases must lie in [-1, 1]")
        if not self.flip_slope >= 0:
            raise ValueError("flip_slope must be >= 0")
        if not 0 <= self.flip_cap <= 0.5:
            raise ValueError("flip_cap must lie in [0, 1/2]")
        if not 0 <= self.readout_flip <= 0.5:
            raise ValueError("readout_flip must lie in [0, 1/2]")
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "bias_even", even)
        object.__setattr__(self, "bias_odd", odd)

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


@dataclass(frozen=True)
class NoiseSpec:
    """Size-generic description of a noise model, instantiated per lattice.

    ``align_bias_with_initial`` ties per-qubit biases to the initial spins
    so the collective offset of the order parameter equals the configured
    bias values exactly; required for transferring learned offsets between
    lattice sizes.
    """

    kind: str = "uniform"  # "uniform" | "mismatched"
    decay: float = 0.97
    bias_even: float = 0.0
    bias_odd: float = 0.0
    align_bias_with_initial: bool = True
    flip_slope: float = 0.0
    flip_cap: float = 0.5
    readout_flip: float = 0.0
    seed: int = field(default=0, metadata={"least": 0})
    decay_spread: float = 0.02
    bias_scale: float = 0.05

    def build(self, n_qubits: int, s0: np.ndarray | None = None) -> NoiseModel:
        flips = dict(
            flip_slope=self.flip_slope,
            flip_cap=self.flip_cap,
            readout_flip=self.readout_flip,
        )
        if self.kind == "uniform":
            aligned = s0 is not None and self.align_bias_with_initial
            weight = np.asarray(s0, dtype=float) if aligned else np.ones(n_qubits)
            return NoiseModel(
                decay=np.full(n_qubits, self.decay),
                bias_even=self.bias_even * weight,
                bias_odd=self.bias_odd * weight,
                **flips,
            )
        if self.kind == "mismatched":
            # max and min would turn a NaN into an end of [0, 1]
            if not (0 <= self.decay <= 1 and self.decay_spread >= 0):
                raise ValueError(
                    "mismatched noise needs decay in [0, 1] and decay_spread >= 0"
                )
            # checked before the draws, NaN included: a scale past 1 may draw
            # legal biases on one lattice and an illegal one on another
            scale = self.bias_scale
            if not 0 <= scale <= 1:
                raise ValueError("mismatched noise needs bias_scale in [0, 1]")
            low = max(0.0, self.decay - self.decay_spread)
            high = min(1.0, self.decay + self.decay_spread)
            rng = np.random.default_rng(self.seed)
            return NoiseModel(
                decay=rng.uniform(low, high, size=n_qubits),
                bias_even=rng.uniform(-scale, scale, size=n_qubits),
                bias_odd=rng.uniform(-scale, scale, size=n_qubits),
                **flips,
            )
        raise ValueError(f"unknown noise kind {self.kind!r}")
