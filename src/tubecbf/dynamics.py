"""Control-affine vehicle models.

Each model exposes two views: the internal simulation state (integrated by
RK4) and the certified output, a position-level point whose dynamics are
control-affine (drift + input_matrix).  For the holonomic models the two
coincide; the differential drive controls a look-ahead point so its position
loop is square and invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# constant drifts and input matrices, shared by every step
_ZERO_DRIFT = {n: _read_only(np.zeros(n)) for n in (2, 3)}
_IDENTITY = {n: _read_only(np.eye(n)) for n in (2, 3)}


@dataclass(frozen=True)
class OmniRobot:
    """Single integrator: xdot = u, in 2 or 3 dimensions."""

    n: int = 2

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("omnidirectional model supports n in {2, 3}")

    @property
    def m(self) -> int:
        return self.n

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError(f"initial state must have dimension {self.n}")
        return x0.copy()

    def output(self, state: np.ndarray) -> np.ndarray:
        return np.asarray(state, dtype=float)

    def drift(self, t: float, state: np.ndarray) -> np.ndarray:
        return _ZERO_DRIFT[self.n]

    def input_matrix(self, t: float, state: np.ndarray) -> np.ndarray:
        return _IDENTITY[self.n]

    def state_derivative(self, t: float, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float)


@dataclass(frozen=True)
class DiffDrive:
    """Unicycle (px, py, phi) with look-ahead output z = p + l*(cos phi, sin phi).

    Inputs are (v, omega).  The output dynamics are zdot = A(phi) u with
    A(phi) = [[cos phi, -l sin phi], [sin phi, l cos phi]], det A = l, so the
    position loop is fully actuated for l > 0.
    """

    lookahead: float = 0.1
    phi0: float = 0.0
    n: int = field(default=2, init=False)
    m: int = field(default=2, init=False)

    def __post_init__(self):
        if self.lookahead <= 0:
            raise ValueError("look-ahead distance must be positive")

    def initial_state(self, x0: np.ndarray) -> np.ndarray:
        """Internal state whose look-ahead point equals the requested output."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (2,):
            raise ValueError("initial output must be a 2-D point")
        heading = np.array([np.cos(self.phi0), np.sin(self.phi0)])
        p = x0 - self.lookahead * heading
        return np.array([p[0], p[1], self.phi0])

    def output(self, state: np.ndarray) -> np.ndarray:
        px, py, phi = state
        return np.array([px + self.lookahead * np.cos(phi),
                         py + self.lookahead * np.sin(phi)])

    def drift(self, t: float, state: np.ndarray) -> np.ndarray:
        return _ZERO_DRIFT[2]

    def input_matrix(self, t: float, state: np.ndarray) -> np.ndarray:
        phi = state[2]
        c, s = np.cos(phi), np.sin(phi)
        return np.array([[c, -self.lookahead * s],
                         [s, self.lookahead * c]])

    def state_derivative(self, t: float, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        phi = state[2]
        v, omega = u
        return np.array([v * np.cos(phi), v * np.sin(phi), omega])


@dataclass(frozen=True)
class DynamicsKind:
    """A vehicle model a scenario can name."""

    dimensions: tuple             # output dimensions n the model supports
    build: Callable               # (n, params) -> model
    inputs: Optional[int] = None  # input dimension m; None means m = n
    params: tuple = ()            # the parameter names build reads

    def input_dimension(self, n: int) -> int:
        return n if self.inputs is None else self.inputs


def _omni(n: int, params: dict) -> OmniRobot:
    return OmniRobot(n)


def _diffdrive(n: int, params: dict) -> DiffDrive:
    return DiffDrive(lookahead=float(params.get("lookahead", 0.1)),
                     phi0=float(params.get("phi0", 0.0)))


DYNAMICS_KINDS = {
    "omni": DynamicsKind((2, 3), _omni),
    # kinematic position model of a quadrotor: the 3-D single integrator
    "quadrotor": DynamicsKind((3,), _omni),
    "diffdrive": DynamicsKind((2,), _diffdrive, inputs=2, params=("lookahead", "phi0")),
}


def dynamics_kind(kind, n: Optional[int] = None) -> DynamicsKind:
    """Table entry of a kind; ValueError for an unknown kind or for an output
    dimension n the kind does not support."""
    try:
        spec = DYNAMICS_KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown dynamics kind {kind!r}; "
                         f"choose from {sorted(DYNAMICS_KINDS)}") from None
    if n is not None and n not in spec.dimensions:
        dims = " or ".join(str(d) for d in spec.dimensions)
        raise ValueError(f"{kind} dynamics support dimension {dims}")
    return spec


def make_dynamics(kind: str, n: Optional[int] = None, **params):
    """Model of a named kind with output dimension n (default: the smallest
    the kind supports).  A parameter the kind does not read raises
    ValueError."""
    spec = dynamics_kind(kind, n)
    unknown = set(params) - set(spec.params)
    if unknown:
        raise ValueError(f"{kind} dynamics: unknown parameters {sorted(unknown)}; "
                         f"allowed: {sorted(spec.params)}")
    return spec.build(spec.dimensions[0] if n is None else n, params)
