"""The run config, its sections and JSON loader, and the rule of each field."""
from __future__ import annotations

import json
import math
import typing
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache

import numpy as np

from .circuit import FloquetParams
from .exact import check_capacity
from .lattice import build_lattice
from .noise import NoiseSpec

# what a value of each kind of field must be, as an error message says
_MUST_BE = {int: "an integer", float: "a JSON number", bool: "a JSON boolean",
            str: "a JSON string", tuple: "a JSON list of numbers"}
_type_hints = cache(typing.get_type_hints)  # evaluating annotations is slow


def _rules(cls):
    """(name, kind, nullable, bound) of each field of ``cls``: the class of its
    annotation, or of X in ``X | None``, and its metadata."""
    hints = _type_hints(cls)
    for f in fields(cls):
        args = typing.get_args(hints[f.name])
        kind = args[0] if type(None) in args else hints[f.name]
        yield f.name, typing.get_origin(kind) or kind, type(None) in args, f.metadata


def _fits(kind: type, value) -> bool:
    """Whether ``value`` is of ``kind``; a boolean is no number, a number is finite."""
    if isinstance(value, bool):
        return kind is bool
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(float, v) for v in value)
    if kind is float:
        number = isinstance(value, (int, float, np.integer, np.floating))
        try:
            return number and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range is not finite
            return False
    return isinstance(value, (int, np.integer) if kind is int else kind)


def _check_fields(config, prefix: str = "") -> None:
    """Raise ValueError naming the first key of ``config`` or its sections
    whose value is neither of its field's kind nor an allowed null, or is out
    of its field's bound."""
    for name, kind, nullable, bound in _rules(type(config)):
        key, value = prefix + name, getattr(config, name)
        if value is None and nullable:
            continue
        if not _fits(kind, value):
            raise ValueError(f"{key} must be {_MUST_BE.get(kind, 'a JSON object')}, got {value!r}")
        if is_dataclass(kind):
            _check_fields(value, key + ".")
        if "least" in bound and value < bound["least"]:
            raise ValueError(f"{key} must be >= {bound['least']}")
        if bound.get("positive") and not value > 0:
            raise ValueError(f"{key} must be positive")
        if bound.get("nonempty") and not value:
            raise ValueError(f"{key} must not be empty")


def _section(cls, payload, prefix: str = ""):
    """``cls(**payload)`` for a JSON object of known keys, sections built alike."""
    if not isinstance(payload, dict):
        raise ValueError(f"config {prefix[:-1] or 'file'} must be a JSON object")
    unknown = sorted(prefix + k for k in set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    for name, kind, _, _ in _rules(cls):
        if is_dataclass(kind) and payload.get(name) is not None:
            payload[name] = _section(kind, payload[name], f"{prefix}{name}.")
    return cls(**payload)


@dataclass(frozen=True)
class MPSOptions:
    chi_max: int = field(default=64, metadata={"least": 1})
    cutoff: float = field(default=1e-12, metadata={"least": 0})


@dataclass(frozen=True)
class RecoverySettings:
    ridge: float = field(default=1e-4, metadata={"positive": True})
    lambda_mean: float = field(default=10.0, metadata={"positive": True})
    lambda_var: float = field(default=10.0, metadata={"positive": True})
    guard: float = field(default=1e-3, metadata={"positive": True})
    learn_rows: int | None = field(default=None, metadata={"least": 1})  # None: own lattice
    learn_cols: int | None = field(default=None, metadata={"least": 1})
    deconvolve: bool = False


@dataclass(frozen=True)
class RunConfig:
    rows: int = field(default=1, metadata={"least": 1})
    cols: int = field(default=1, metadata={"least": 1})
    epsilons: tuple[float, ...] = (0.05,)
    phis: tuple[float, ...] = (0.45 * np.pi,)
    cycles: int = field(default=10, metadata={"least": 1})
    initial_state: str = "neel"  # "neel" | "polarized" | 0/1 bitstring
    backend: str = "exact"  # "exact" | "mps"
    mps: MPSOptions = field(default_factory=MPSOptions)
    shots: int = field(default=0, metadata={"least": 0})
    seed: int = field(default=0, metadata={"least": 0})
    workers: int = field(default=1, metadata={"least": 1})
    full_correlations: bool = True
    noise: NoiseSpec | None = None
    recovery: RecoverySettings | None = None
    output_dir: str | None = field(default=None, metadata={"nonempty": True})
    checkpoint: bool = False

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.backend not in ("exact", "mps"):
            raise ValueError(f"unknown backend {self.backend!r}")
        n_qubits = build_lattice(self.rows, self.cols).n_qubits
        if self.noise is not None:
            self.noise.build(n_qubits)  # raises what the noise model rejects
        if self.backend == "exact":
            for rows, cols in {(self.rows, self.cols), self.learn_lattice}:
                check_capacity(build_lattice(rows, cols).n_qubits)
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        if not (self.epsilons and self.phis):
            raise ValueError("epsilons and phis must each list at least one value")
        if self.initial_state not in ("neel", "polarized"):
            bits = self.initial_state
            if set(bits) - {"0", "1"} or len(bits) != n_qubits:
                raise ValueError(
                    f"initial_state must be 'neel', 'polarized' or a 0/1 string "
                    f"of {n_qubits} bits for the {self.rows}x{self.cols} "
                    f"lattice, got {bits!r}"
                )
            if self.learn_lattice != (self.rows, self.cols):
                raise ValueError(
                    "a bitstring initial_state fits only the run's own lattice, "
                    "but recovery.learn_rows/learn_cols select %dx%d"
                    % self.learn_lattice
                )
        if self.recovery is not None and self.recovery.deconvolve:
            if self.shots == 0 or not self.full_correlations:
                raise ValueError(
                    "recovery.deconvolve needs shots > 0 and full_correlations"
                )
        # each point must make a Floquet cycle and tag its output files uniquely
        points: dict[str, tuple[float, float]] = {}
        for eps in self.epsilons:
            for phi in self.phis:
                FloquetParams(eps, phi)  # raises outside its ranges
                tag = point_tag(eps, phi)
                if tag in points:
                    raise ValueError(
                        f"grid points {points[tag]} and {(eps, phi)} share the "
                        f"file tag {tag!r}; eps and phi values must differ in "
                        "their first 6 significant digits"
                    )
                points[tag] = (eps, phi)

    @property
    def learn_lattice(self) -> tuple[int, int]:
        """(rows, cols) of the lattice that recovery learns on."""
        settings = self.recovery or RecoverySettings()
        return (settings.learn_rows or self.rows, settings.learn_cols or self.cols)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        payload = json.loads(text)
        # older configs carry the zip-up factor of the layer-MPO
        # contraction that the span-local gate engine replaced
        mps = payload.get("mps") if isinstance(payload, dict) else None
        if isinstance(mps, dict) and "zip_factor" in mps:
            del mps["zip_factor"]
            warnings.warn(
                "config key mps.zip_factor no longer has any effect; ignoring it",
                stacklevel=2,
            )
        return _section(cls, payload)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


def point_tag(eps: float, phi: float) -> str:
    return f"eps{eps:.6g}_phi{phi:.6g}"
