"""Scenario configuration: a YAML-backed description of the workspace,
predicates, task formula, solver budgets, and vehicle."""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .cbf import Barrier
from .dynamics import make_dynamics
from .simulate import RunReport, run_closed_loop
from .stl import (
    AffineHalfspace,
    BallNorm2,
    BoxInfNorm,
    Formula,
    FormulaSyntaxError,
    IntervalError,
    UndefinedPredicateError,
    horizon,
    parse,
)
from .synthesis import CoverSpec, SOPInstance, SolverSettings


class ConfigError(ValueError):
    """Scenario description is malformed or internally inconsistent."""


def _predicate_from_dict(name: str, spec: dict, dim: int):
    if not isinstance(spec, dict):
        raise ConfigError(f"predicates: {name!r} must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    if kind in ("box", "ball"):
        center = tuple(float(v) for v in spec["center"])
        if len(center) != dim:
            raise ConfigError(f"predicate {name!r}: center has wrong dimension")
        # without a positive size no state satisfies the predicate robustly
        size_key, shape = ("halfwidth", BoxInfNorm) if kind == "box" else ("radius", BallNorm2)
        size = float(spec[size_key])
        if not size > 0:
            raise ConfigError(f"predicate {name!r}: {size_key} must be positive, got {size}")
        return shape(center, size)
    if kind == "halfspace":
        weights = tuple(float(v) for v in spec["weights"])
        if len(weights) != dim:
            raise ConfigError(f"predicate {name!r}: weights have wrong dimension")
        return AffineHalfspace(weights, float(spec["offset"]))
    raise ConfigError(f"predicate {name!r}: unknown kind {kind!r}")


_COVER_KEYS = {"theta", "lambda", "tau"}


def _check_block(name: str, block, required: set, allowed: set) -> None:
    """A nested mapping holds every required key and no key outside allowed."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a mapping")
    missing = required - set(block)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _check_number(key: str, value) -> None:
    # YAML reads `dt: fast` as a string; comparing it with a number would
    # raise TypeError, which is not an input error
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")


def _check_vector(key: str, value, length: int) -> None:
    if np.ndim(value) != 1 or len(value) != length:
        raise ConfigError(f"{key} must be a list of {length} numbers, got {value!r}")
    for v in value:
        _check_number(key, v)


def _check_integer(key: str, value, least: int) -> None:
    # int() would truncate a count of 4.6 to 4, so a count must be a true
    # integer (YAML reads `true` as a bool, which is an int in Python)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")


def _plain(value):
    """A copy of value with every tuple turned into a list."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return [_plain(v) for v in value] if isinstance(value, (list, tuple)) else value


@dataclass
class ScenarioConfig:
    """Plain-data scenario description; see configs/ for worked examples."""

    name: str
    dimension: int
    t_f: float
    state_bounds: list
    predicates: dict
    formula: str
    min_radius: float = 0.25
    epsilon: Optional[float] = None
    cover_counts: Optional[dict] = None
    search_cover: Optional[dict] = None
    basis: dict = field(default_factory=lambda: {"center_count": 5, "radius_count": 4})
    radius_max: Optional[float] = None
    center_box_scale: float = 1.5
    start: Optional[list] = None
    solver: dict = field(default_factory=dict)
    dynamics: dict = field(default_factory=lambda: {"kind": "omni"})
    x0: Optional[list] = None
    x0_seed: int = 0
    dt: float = 0.05
    gain: float = 5.0
    control_weight: Optional[list] = None
    input_bound: Optional[float] = None
    until_convention: str = "paper"
    output_dir: str = "out"

    def __post_init__(self):
        # name is the stem of every artifact file, so it must not leave --out
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or "/" in self.name or "\\" in self.name):
            raise ConfigError(f"name must be a file stem with no path separator, "
                              f"got {self.name!r}")
        _check_integer("dimension", self.dimension, 1)
        _check_integer("x0_seed", self.x0_seed, 0)
        for key in ("t_f", "dt", "min_radius", "epsilon", "center_box_scale",
                    "gain", "input_bound", "radius_max"):
            if getattr(self, key) is not None:
                _check_number(key, getattr(self, key))
        if self.t_f <= 0:
            raise ConfigError("t_f must be positive")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        bounds = np.asarray(self.state_bounds, dtype=float)
        if bounds.shape != (self.dimension, 2) or np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ConfigError("state_bounds must be one nonempty [lo, hi] per dimension")
        if self.until_convention not in ("paper", "standard"):
            raise ConfigError(f"unknown until_convention {self.until_convention!r}")
        for key in ("x0", "start"):
            if getattr(self, key) is not None:
                _check_vector(key, getattr(self, key), self.dimension)
        # the tube's center starts at start, which must lie in the workspace
        if self.start is not None and not all(
                lo <= v <= hi for v, (lo, hi) in zip(self.start, bounds)):
            raise ConfigError(f"start {list(self.start)} lies outside state_bounds")
        if self.epsilon is None and self.cover_counts is None:
            raise ConfigError("no certification cover: set epsilon or cover_counts")
        for key in ("min_radius", "epsilon", "center_box_scale", "gain", "input_bound"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        if self.radius_max is not None and not self.radius_max >= self.min_radius:
            raise ConfigError(f"radius_max {self.radius_max} is below "
                              f"min_radius {self.min_radius}")
        for name in ("cover_counts", "search_cover"):
            block = getattr(self, name)
            if block is not None:
                _check_block(name, block, _COVER_KEYS, _COVER_KEYS)
                theta = block["theta"]
                if not isinstance(theta, list) or len(theta) != self.dimension - 1:
                    raise ConfigError(f"{name}: theta needs a list of {self.dimension - 1} "
                                      f"counts in dimension {self.dimension}")
                for count in theta:
                    _check_integer(f"{name}: theta", count, 1)
                _check_integer(f"{name}: lambda", block["lambda"], 1)
                _check_integer(f"{name}: tau", block["tau"], 1)
        _check_block("solver", self.solver, set(), {"seed", "budget"})
        for key, least in (("seed", 0), ("budget", 1)):
            if key in self.solver:
                _check_integer(f"solver: {key}", self.solver[key], least)
        _check_block("basis", self.basis, set(), {"center_count", "radius_count"})
        for key, value in self.basis.items():
            _check_integer(f"basis: {key}", value, 1)
        # predicates and formula are validated together in build_formula
        if not isinstance(self.predicates, dict):
            raise ConfigError(f"predicates must be a mapping, got {self.predicates!r}")
        self.build_formula()
        # building the model checks its parameters too (e.g. a diffdrive
        # look-ahead must be positive), so a bad one fails here, not in simulate
        if not isinstance(self.dynamics, dict):
            raise ConfigError("dynamics must be a mapping")
        try:
            model = self.make_dynamics()
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None
        if self.control_weight is not None:
            _check_vector("control_weight", self.control_weight, model.m)
            if not all(w > 0 for w in self.control_weight):
                raise ConfigError("control_weight diagonal must be positive")

    # -- domain objects ----------------------------------------------------

    def predicate_table(self) -> dict:
        return {name: _predicate_from_dict(name, spec, self.dimension)
                for name, spec in self.predicates.items()}

    def build_formula(self) -> Formula:
        try:
            f = parse(self.formula, self.predicate_table())
        except (FormulaSyntaxError, IntervalError, UndefinedPredicateError):
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad predicate declaration: {e}")
        if horizon(f) > self.t_f + 1e-9:
            raise ConfigError(
                f"formula horizon {horizon(f)} exceeds configured t_f {self.t_f}")
        return f

    def _from_counts(self, counts: dict) -> CoverSpec:
        return CoverSpec.from_counts(counts["theta"], counts["lambda"], counts["tau"], self.t_f)

    def cover_spec(self) -> CoverSpec:
        if self.cover_counts is not None:
            return self._from_counts(self.cover_counts)
        return CoverSpec.for_radius(self.epsilon, self.dimension, self.t_f)

    def instance(self) -> SOPInstance:
        b = self.basis
        return SOPInstance(
            self.build_formula(), n=self.dimension, t_f=self.t_f,
            state_bounds=self.state_bounds, min_radius=self.min_radius,
            center_count=b.get("center_count", 5),
            radius_count=b.get("radius_count", 4),
            radius_max=self.radius_max, cover=self.cover_spec(),
            start_center=self.start,
            center_box_scale=self.center_box_scale,
            until_convention=self.until_convention)

    def solver_settings(self, seed: Optional[int] = None) -> SolverSettings:
        s = self.solver
        return SolverSettings(
            seed=s.get("seed", 0) if seed is None else int(seed),
            budget=s.get("budget", 4000),
            search_cover=None if self.search_cover is None else self._from_counts(
                self.search_cover),
        )

    def make_dynamics(self):
        params = dict(self.dynamics)
        return make_dynamics(params.pop("kind", None), self.dimension, **params)

    def weight_matrix(self) -> np.ndarray:
        if self.control_weight is None:
            return np.eye(self.make_dynamics().m)
        return np.diag(np.asarray(self.control_weight, dtype=float))

    def pick_x0(self, tube, seed: Optional[int] = None) -> np.ndarray:
        """Configured start state, or a sample from the r(0)/2 interior ball."""
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float)
        rng = np.random.default_rng(self.x0_seed if seed is None else seed)
        direction = rng.normal(size=self.dimension)
        direction /= max(np.linalg.norm(direction), 1e-12)
        rho = tube.radius(0.0) / 2.0 * rng.uniform() ** (1.0 / self.dimension)
        return tube.center(0.0) + rho * direction

    def closed_loop(self, tube, seed: Optional[int] = None) -> RunReport:
        """Run the QP-filtered closed loop of this scenario inside tube, from
        the start state pick_x0(tube, seed)."""
        if tube.dimension != self.dimension:
            raise ConfigError(
                f"tube dimension {tube.dimension} does not match config {self.dimension}")
        if abs(tube.t_f - self.t_f) > 1e-9:
            raise ConfigError(f"tube horizon {tube.t_f} does not match config {self.t_f}")
        return run_closed_loop(self.make_dynamics(), Barrier(tube, gain=self.gain),
                               self.pick_x0(tube, seed=seed), self.dt, self.build_formula(),
                               weight=self.weight_matrix(), input_bound=self.input_bound,
                               until_convention=self.until_convention)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Every set field as plain YAML data, with float state bounds."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)
               if getattr(self, f.name) is not None}
        out["state_bounds"] = [list(map(float, b)) for b in self.state_bounds]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING} - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**data)


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: {e}")
    return ScenarioConfig.from_dict(data)


def save_config(config: ScenarioConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(config.to_dict(), sort_keys=True))
