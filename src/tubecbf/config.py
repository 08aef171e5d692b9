"""Scenario configuration: a YAML-backed description of the workspace,
predicates, task formula, solver budgets, and vehicle."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .cbf import Barrier
from .dynamics import dynamics_kind
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
    kind = spec.get("kind")
    if kind == "box":
        center = tuple(float(v) for v in spec["center"])
        if len(center) != dim:
            raise ConfigError(f"predicate {name!r}: center has wrong dimension")
        return BoxInfNorm(center, float(spec["halfwidth"]))
    if kind == "ball":
        center = tuple(float(v) for v in spec["center"])
        if len(center) != dim:
            raise ConfigError(f"predicate {name!r}: center has wrong dimension")
        return BallNorm2(center, float(spec["radius"]))
    if kind == "halfspace":
        weights = tuple(float(v) for v in spec["weights"])
        if len(weights) != dim:
            raise ConfigError(f"predicate {name!r}: weights have wrong dimension")
        return AffineHalfspace(weights, float(spec["offset"]))
    raise ConfigError(f"predicate {name!r}: unknown kind {kind!r}")


def _predicate_to_dict(fn) -> dict:
    if isinstance(fn, BoxInfNorm):
        return {"kind": "box", "center": list(fn.center), "halfwidth": fn.halfwidth}
    if isinstance(fn, BallNorm2):
        return {"kind": "ball", "center": list(fn.center), "radius": fn.radius}
    if isinstance(fn, AffineHalfspace):
        return {"kind": "halfspace", "weights": list(fn.weights), "offset": fn.offset}
    raise ConfigError(f"unsupported predicate function {fn!r}")


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
    basis: dict = field(default_factory=lambda: {"kind": "bernstein",
                                                 "center_count": 5,
                                                 "radius_count": 4})
    radius_max: Optional[float] = None
    center_box_scale: float = 1.5
    start: Optional[list] = None
    pin_start: bool = False
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
        if self.dimension < 1:
            raise ConfigError("dimension must be positive")
        if self.t_f <= 0:
            raise ConfigError("t_f must be positive")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        bounds = np.asarray(self.state_bounds, dtype=float)
        if bounds.shape != (self.dimension, 2) or np.any(bounds[:, 1] <= bounds[:, 0]):
            raise ConfigError("state_bounds must be one nonempty [lo, hi] per dimension")
        if self.until_convention not in ("paper", "standard"):
            raise ConfigError(f"unknown until_convention {self.until_convention!r}")
        if self.x0 is not None and len(self.x0) != self.dimension:
            raise ConfigError("x0 has wrong dimension")
        if self.start is not None and len(self.start) != self.dimension:
            raise ConfigError("start has wrong dimension")
        # predicates and formula are validated together in build_formula
        self.build_formula()
        if self.pin_start and self.start is None:
            raise ConfigError("pin_start requires a start point")
        # building the model checks its parameters too (e.g. a diffdrive
        # look-ahead must be positive), so a bad one fails here, not in simulate
        try:
            dynamics_kind(self.dynamics.get("kind"), self.dimension).build(
                self.dimension, self.dynamics)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None
        if self.control_weight is not None and len(self.control_weight) != self.input_dimension:
            raise ConfigError("control_weight diagonal has wrong length")

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

    def cover_spec(self) -> Optional[CoverSpec]:
        if self.cover_counts is not None:
            cc = self.cover_counts
            return CoverSpec.from_counts(cc["theta"], cc["lambda"], cc["tau"], self.t_f)
        if self.epsilon is not None:
            return CoverSpec.for_radius(self.epsilon, self.dimension, self.t_f)
        return None

    def instance(self) -> SOPInstance:
        b = self.basis
        return SOPInstance.build(
            self.build_formula(), n=self.dimension, t_f=self.t_f,
            state_bounds=self.state_bounds, min_radius=self.min_radius,
            basis_kind=b.get("kind", "bernstein"),
            center_count=int(b.get("center_count", 5)),
            radius_count=int(b.get("radius_count", 4)),
            radius_max=self.radius_max, cover=self.cover_spec(),
            start_center=self.start, pin_start=self.pin_start,
            center_box_scale=self.center_box_scale,
            until_convention=self.until_convention)

    def solver_settings(self, seed: Optional[int] = None) -> SolverSettings:
        s = dict(self.solver)
        search = None
        if self.search_cover is not None:
            sc = self.search_cover
            search = CoverSpec.from_counts(sc["theta"], sc["lambda"], sc["tau"], self.t_f)
        return SolverSettings(
            seed=int(s.get("seed", 0)) if seed is None else int(seed),
            budget=int(s.get("budget", 4000)),
            starts=int(s.get("starts", 3)),
            step0=float(s.get("step0", 0.25)),
            min_step=float(s.get("min_step", 1e-3)),
            bisection=tuple(s.get("bisection", (-2.0, 2.0))),
            bisection_tol=float(s.get("bisection_tol", 1e-3)),
            target_margin=float(s.get("target_margin", 0.05)),
            search_cover=search,
        )

    @property
    def input_dimension(self) -> int:
        return dynamics_kind(self.dynamics["kind"]).input_dimension(self.dimension)

    def make_dynamics(self):
        return dynamics_kind(self.dynamics["kind"]).build(self.dimension, self.dynamics)

    def weight_matrix(self) -> np.ndarray:
        if self.control_weight is None:
            return np.eye(self.input_dimension)
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
        out = {
            "name": self.name,
            "dimension": self.dimension,
            "t_f": self.t_f,
            "state_bounds": [list(map(float, b)) for b in self.state_bounds],
            "predicates": {k: dict(v) for k, v in self.predicates.items()},
            "formula": self.formula,
            "min_radius": self.min_radius,
            "basis": dict(self.basis),
            "center_box_scale": self.center_box_scale,
            "pin_start": self.pin_start,
            "solver": dict(self.solver),
            "dynamics": dict(self.dynamics),
            "x0_seed": self.x0_seed,
            "dt": self.dt,
            "gain": self.gain,
            "until_convention": self.until_convention,
            "output_dir": self.output_dir,
        }
        for key in ("epsilon", "cover_counts", "search_cover", "radius_max",
                    "start", "x0", "control_weight", "input_bound"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value if not isinstance(value, (list, tuple)) else list(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"name", "dimension", "t_f", "state_bounds", "predicates",
                   "formula"} - set(data)
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
