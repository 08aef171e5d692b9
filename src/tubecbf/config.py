"""Scenario configuration: a YAML-backed description of the workspace,
predicates, task formula, solver budgets, and vehicle."""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .cbf import Barrier
from .dynamics import make_dynamics
from .simulate import RunReport, run_closed_loop, run_settings
from .stl import (
    AffineHalfspace,
    BallNorm2,
    BoxInfNorm,
    Formula,
    FormulaSyntaxError,
    IntervalError,
    UndefinedPredicateError,
    parse,
)
from .synthesis import CoverError, CoverSpec, SOPInstance, SolverSettings
from .tube import read_text


class ConfigError(ValueError):
    """Scenario description is malformed or internally inconsistent."""


def _predicate_from_dict(name: str, spec: dict, dim: int):
    if not isinstance(spec, dict):
        raise ConfigError(f"predicates: {name!r} must be a mapping, got {spec!r}")
    kind = spec.get("kind")

    def number(key, value):
        _check_number(f"predicate {name!r}: {key}", value)
        return float(value)

    if kind in ("box", "ball"):
        center = tuple(number("center", v) for v in spec["center"])
        if len(center) != dim:
            raise ConfigError(f"predicate {name!r}: center has wrong dimension")
        # without a positive size no state satisfies the predicate robustly
        size_key, shape = ("halfwidth", BoxInfNorm) if kind == "box" else ("radius", BallNorm2)
        size = number(size_key, spec[size_key])
        if not size > 0:
            raise ConfigError(f"predicate {name!r}: {size_key} must be positive, got {size}")
        return shape(center, size)
    if kind == "halfspace":
        weights = tuple(number("weights", v) for v in spec["weights"])
        if len(weights) != dim:
            raise ConfigError(f"predicate {name!r}: weights have wrong dimension")
        return AffineHalfspace(weights, number("offset", spec["offset"]))
    raise ConfigError(f"predicate {name!r}: unknown kind {kind!r}")


_COVER_KEYS = {"theta", "lambda", "tau"}


def _owned(block: Optional[str], build, *args, cover_key: Optional[str] = None, **kwargs):
    """build(*args, **kwargs); a ValueError becomes a ConfigError prefixed with block
    (with cover_key, if given, for a CoverError)."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        prefix = cover_key if cover_key is not None and isinstance(e, CoverError) else block
        raise ConfigError(f"{prefix}: {e}" if prefix else str(e)) from None


def _check_block(name: str, block, allowed: set, required: frozenset = frozenset()) -> None:
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
    # YAML reads `dt: fast` as a string, on which a range check would raise
    # TypeError; YAML's .nan and .inf would break the solve or the run later
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        hint = _yaml_float(value) if isinstance(value, str) else None
        raise ConfigError(f"{key} must be a number, got {value!r}"
                          + (f"; write {hint}" if hint else ""))
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")


def _yaml_float(text: str) -> Optional[str]:
    """text with the dot and signed exponent YAML 1.1 needs to read a float
    (1.0e-3 for 1e-3), if it then reads as the finite float Python reads."""
    mantissa, e, exponent = text.strip().lower().partition("e")
    hint = (mantissa if "." in mantissa else mantissa + ".0") + e + (
        "+" + exponent if exponent[:1].isdigit() else exponent)
    try:
        return hint if math.isfinite(float(text)) and yaml.safe_load(hint) == float(text) else None
    except ValueError:
        return None


def _is_list(value) -> bool:
    # np.ndim would raise numpy's own ValueError on a ragged list, which names
    # no key, so only the outer level is checked here and each entry by itself
    return isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray)
                                                and value.ndim >= 1)


def _check_vector(key: str, value, length: int) -> None:
    if not _is_list(value) or len(value) != length:
        raise ConfigError(f"{key} must be a list of {length} numbers, got {value!r}")
    for v in value:
        _check_number(key, v)


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
    min_radius: float = SOPInstance.min_radius
    epsilon: Optional[float] = None
    cover_counts: Optional[dict] = None
    search_cover: Optional[dict] = None
    basis: dict = field(default_factory=dict)
    radius_max: Optional[float] = None
    center_box_scale: float = SOPInstance.center_box_scale
    start: Optional[list] = None
    solver: dict = field(default_factory=dict)
    dynamics: dict = field(default_factory=lambda: {"kind": "omni"})
    x0: Optional[list] = None
    dt: float = 0.05
    gain: float = Barrier.gain
    input_bound: Optional[float] = None
    output_dir: str = "out"

    def __post_init__(self):
        # only what YAML input needs is checked here (types, finite numbers,
        # list shapes, key sets); the library objects built below check ranges
        # name is the stem of every artifact file, so it must not leave --out
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or "/" in self.name or "\\" in self.name):
            raise ConfigError(f"name must be a file stem with no path separator, "
                              f"got {self.name!r}")
        # YAML reads `true` as a bool, which is an int in Python
        if isinstance(self.dimension, bool) or not isinstance(self.dimension, numbers.Integral):
            raise ConfigError(f"dimension must be an integer, got {self.dimension!r}")
        for key in ("t_f", "dt", "min_radius", "epsilon", "center_box_scale",
                    "gain", "input_bound", "radius_max"):
            if getattr(self, key) is not None:
                _check_number(key, getattr(self, key))
        if not _is_list(self.state_bounds) or len(self.state_bounds) != self.dimension:
            raise ConfigError("state_bounds must be one [lo, hi] per dimension")
        for lo_hi in self.state_bounds:
            _check_vector("state_bounds", lo_hi, 2)
        for key in ("x0", "start"):
            if getattr(self, key) is not None:
                _check_vector(key, getattr(self, key), self.dimension)
        if (self.epsilon is None) == (self.cover_counts is None):
            raise ConfigError("the certification cover needs exactly one of epsilon "
                              "and cover_counts")
        for name in ("cover_counts", "search_cover"):
            block = getattr(self, name)
            if block is not None:
                _check_block(name, block, _COVER_KEYS, required=_COVER_KEYS)
                _check_vector(f"{name}: theta", block["theta"], self.dimension - 1)
        if not isinstance(self.predicates, dict):
            raise ConfigError(f"predicates must be a mapping, got {self.predicates!r}")
        self.instance()
        self.solver_settings()
        if not isinstance(self.dynamics, dict):
            raise ConfigError("dynamics must be a mapping")
        try:
            self.make_dynamics()
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from None
        _owned(None, run_settings, self.t_f, self.dt, self.input_bound)
        # a barrier checks its gain when built; each run brings its tube
        _owned(None, Barrier, None, self.gain)

    # not a key; perfbench/workloads.py reads it until ROADMAP item 3 drops it
    until_convention = property(lambda self: "paper")

    # -- domain objects ----------------------------------------------------

    def build_formula(self) -> Formula:
        try:
            return parse(self.formula, {name: _predicate_from_dict(name, spec, self.dimension)
                                        for name, spec in self.predicates.items()})
        except (FormulaSyntaxError, IntervalError, UndefinedPredicateError):
            raise
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad predicate declaration: {e}")

    def _from_counts(self, block: str) -> CoverSpec:
        counts = getattr(self, block)
        return _owned(block, CoverSpec.from_counts, counts["theta"], counts["lambda"],
                      counts["tau"], self.t_f)

    def cover_spec(self) -> CoverSpec:
        if self.cover_counts is not None:
            return self._from_counts("cover_counts")
        return _owned("epsilon", CoverSpec.for_radius, self.epsilon, self.dimension, self.t_f)

    def instance(self) -> SOPInstance:
        """The synthesis problem; the basis block sets what no top-level key sets."""
        args = dict(formula=self.build_formula(), n=self.dimension, t_f=self.t_f,
                    state_bounds=self.state_bounds, min_radius=self.min_radius,
                    radius_max=self.radius_max, cover=self.cover_spec(),
                    start_center=self.start, center_box_scale=self.center_box_scale)
        _check_block("basis", self.basis,
                     {f.name for f in fields(SOPInstance) if f.init} - set(args))
        cover_key = "epsilon" if self.cover_counts is None else "cover_counts"
        return _owned(None, SOPInstance, **args, **self.basis, cover_key=cover_key)

    def solver_settings(self) -> SolverSettings:
        """The solver block's settings, with the search_cover key's cover."""
        search_cover = None if self.search_cover is None else self._from_counts("search_cover")
        _check_block("solver", self.solver,
                     {f.name for f in fields(SolverSettings)} - {"search_cover"})
        # a CoverError names search_cover, a top-level key, so it takes no prefix
        return _owned("solver", SolverSettings, search_cover=search_cover, cover_key="",
                      **self.solver)

    def make_dynamics(self):
        params = dict(self.dynamics)
        return make_dynamics(params.pop("kind", None), self.dimension, **params)

    # the QP is unweighted; perfbench/workloads.py passes this to run_closed_loop
    # until ROADMAP item 3 drops it
    def weight_matrix(self) -> None:
        return None

    def pick_x0(self, tube, seed: int = 0) -> np.ndarray:
        """Configured start state, or a sample from the r(0)/2 interior ball
        drawn with seed."""
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float)
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=self.dimension)
        direction /= max(math.hypot(*direction), 1e-12)
        rho = tube.radius(0.0) / 2.0 * rng.uniform() ** (1.0 / self.dimension)
        return tube.center(0.0) + rho * direction

    def closed_loop(self, tube, seed: int = 0) -> RunReport:
        """Run the QP-filtered closed loop of this scenario inside tube, from
        the start state pick_x0(tube, seed)."""
        if tube.dimension != self.dimension:
            raise ConfigError(
                f"tube dimension {tube.dimension} does not match config {self.dimension}")
        if abs(tube.t_f - self.t_f) > 1e-9:
            raise ConfigError(f"tube horizon {tube.t_f} does not match config {self.t_f}")
        return run_closed_loop(self.make_dynamics(), Barrier(tube, gain=self.gain),
                               self.pick_x0(tube, seed=seed), self.dt, self.build_formula(),
                               input_bound=self.input_bound)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Every set field as plain YAML data, with float state bounds."""
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)
               if getattr(self, f.name) is not None}
        out["state_bounds"] = [list(map(float, b)) for b in self.state_bounds]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        required = {f.name for f in fields(cls)
                    if f.default is MISSING and f.default_factory is MISSING}
        _check_block("config", data, {f.name for f in fields(cls)}, required)
        return cls(**data)


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = _owned(None, read_text, path, "a config file")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: {e}")
    return ScenarioConfig.from_dict(data)


def save_config(config: ScenarioConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(config.to_dict(), sort_keys=True))
