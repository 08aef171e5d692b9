"""Control-affine vehicle models.

Each model exposes two views: the internal simulation state, which `hold`
moves by its exact flow under a held input, and the certified output, a
position-level point with control-affine dynamics (drift + input_matrix).
For the holonomic models the two coincide; the differential drive controls
a look-ahead point so its position loop is square and invertible.

The closed loop calls these terms on every step with states of n <= 3
entries, so states, outputs, inputs, drifts and input-matrix rows are lists
or tuples of Python floats (`math.cos`/`math.sin` for the angles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# constant drifts and input matrices, shared by every step
_ZERO_DRIFT = {n: (0.0,) * n for n in (2, 3)}
_IDENTITY = {n: tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
             for n in (2, 3)}


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

    def initial_state(self, x0) -> list:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError(f"initial state must have dimension {self.n}")
        return x0.tolist()

    def output(self, state) -> list:
        return list(state)

    def drift(self, state) -> tuple:
        return _ZERO_DRIFT[self.n]

    def input_matrix(self, state) -> tuple:
        return _IDENTITY[self.n]

    def hold(self, state, u, dt: float) -> list:
        return [xi + dt * ui for xi, ui in zip(state, u)]


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

    def initial_state(self, x0) -> list:
        """Internal state whose look-ahead point equals the requested output."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (2,):
            raise ValueError("initial output must be a 2-D point")
        px, py = x0.tolist()
        phi0 = float(self.phi0)
        return [px - self.lookahead * math.cos(phi0), py - self.lookahead * math.sin(phi0),
                phi0]

    def output(self, state) -> list:
        px, py, phi = state
        return [px + self.lookahead * math.cos(phi), py + self.lookahead * math.sin(phi)]

    def drift(self, state) -> tuple:
        return _ZERO_DRIFT[2]

    def input_matrix(self, state) -> tuple:
        phi = state[2]
        c, s = math.cos(phi), math.sin(phi)
        return ((c, -self.lookahead * s), (s, self.lookahead * c))

    def hold(self, state, u, dt: float) -> list:
        """State after holding (v, omega) for dt: the heading turns by omega dt
        and the position moves v dt sinc(omega dt / 2) along the mid-arc heading."""
        px, py, phi = state
        v, omega = u
        half = omega * dt / 2
        chord = v * dt * (math.sin(half) / half if half != 0.0 else 1.0)
        mid = phi + half
        return [px + chord * math.cos(mid), py + chord * math.sin(mid), phi + omega * dt]


# each kind's output dimensions (the first is the default) and the
# parameters its model reads
DYNAMICS_KINDS = {
    "omni": ((2, 3), ()),
    # kinematic position model of a quadrotor: the 3-D single integrator
    "quadrotor": ((3,), ()),
    "diffdrive": ((2,), ("lookahead", "phi0")),
}


def make_dynamics(kind: str, n: int | None = None, /, **params):
    """Model of a named kind with output dimension n (default: the smallest
    the kind supports).  ValueError for an unknown kind, for a dimension the
    kind does not support, or for a parameter the kind does not read."""
    try:
        dimensions, names = DYNAMICS_KINDS[kind]
    except (KeyError, TypeError):
        raise ValueError(f"unknown dynamics kind {kind!r}; "
                         f"choose from {sorted(DYNAMICS_KINDS)}") from None
    if n is not None and n not in dimensions:
        dims = " or ".join(str(d) for d in dimensions)
        raise ValueError(f"{kind} dynamics support dimension {dims}")
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(f"{kind} dynamics: unknown parameters {sorted(unknown)}; "
                         f"allowed: {sorted(names)}")
    if kind == "diffdrive":
        return DiffDrive(**{k: float(v) for k, v in params.items()})
    return OmniRobot(dimensions[0] if n is None else n)
