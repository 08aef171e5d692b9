"""Time-varying control barrier function built from a tube, and the per-step
minimum-energy safety QP with its single-constraint closed form."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .tube import SampledTube, Tube


class InfeasibleStepError(RuntimeError):
    """The safety constraint cannot be met: input direction vanished while the
    barrier decay condition is violated (loss of relative degree or a tube
    incompatible with the dynamics), or the tube radius is not positive, so
    the barrier is undefined."""


@dataclass(frozen=True)
class Barrier:
    """b(t, x) = 1 - ||x - center(t)||^2 / radius(t)^2 with linear class-K gain.

    b is 1 at the tube center, 0 on the boundary, and negative outside; it is
    well defined whenever the (certified) radius stays positive.  The tube may
    be a `SampledTube`, whose tabulated answers equal the tube's bit for bit;
    the radius checks below then read its tabulated radius.
    """

    tube: Union[Tube, SampledTube]
    gain: float = 5.0

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("class-K gain must be positive")

    def alpha(self, s: float) -> float:
        return self.gain * s

    @property
    def t_f(self) -> float:
        return self.tube.t_f


def _radius_and_offset(tube, t: float, x: np.ndarray):
    """r(t) and x - c(t); the barrier is undefined unless r(t) > 0."""
    r = tube.radius(t)
    if r <= 0:
        raise InfeasibleStepError(f"tube radius {r} not positive at t={t}; barrier undefined")
    return r, np.asarray(x, dtype=float) - tube.center(t)


def barrier_value(barrier: Barrier, t: float, x: np.ndarray) -> float:
    r, d = _radius_and_offset(barrier.tube, t, x)
    return 1.0 - float(d @ d) / r**2


def barrier_gradients(barrier: Barrier, t: float, x: np.ndarray):
    """Spatial gradient (n,) and time partial of the barrier at (t, x)."""
    tube = barrier.tube
    r, d = _radius_and_offset(tube, t, x)
    db_dx = -2.0 * d / r**2
    db_dt = 2.0 * float(tube.center_dot(t) @ d) / r**2 \
        + 2.0 * tube.radius_dot(t) * float(d @ d) / r**3
    return db_dx, db_dt


def min_norm_input(weight: np.ndarray, a: np.ndarray, psi: float) -> np.ndarray:
    """Closed-form solution of  min u'Wu  s.t.  a.u >= -psi.

    When psi >= 0 the unconstrained optimum u = 0 is feasible.  Otherwise the
    constraint is active and the KKT system gives
    u = W^-1 a' (-psi) / (a W^-1 a').  Raises InfeasibleStepError when a = 0
    while psi < 0.
    """
    if psi >= 0.0:
        return np.zeros(len(a))
    a = np.asarray(a, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if not a.any():
        raise InfeasibleStepError(f"constraint row vanished with psi={psi} < 0")
    w_inv_a = np.linalg.solve(weight, a)
    denom = float(a @ w_inv_a)
    if denom <= 0.0:
        raise ValueError("weight matrix must be positive definite")
    return w_inv_a * (-psi / denom)


@dataclass(slots=True)
class ControlStep:
    """QP input/output at one (t, x): barrier data, Lie derivatives, input."""

    t: float
    x: np.ndarray
    b: float
    db_dx: np.ndarray
    db_dt: float
    lie_f: float
    lie_g: np.ndarray
    psi: float
    u: np.ndarray
    constraint_active: bool


def solve_safety_qp(barrier: Barrier, dynamics, weight: np.ndarray,
                    t: float, state: np.ndarray) -> ControlStep:
    """Minimum-energy input keeping the barrier nonnegative at one step.

    dynamics provides the control-affine terms of the certified output:
    drift(t, state) -> (n,) and input_matrix(t, state) -> (n, m); state is the
    dynamics-internal state, whose output(state) lives in barrier space.
    """
    state = np.asarray(state, dtype=float)
    x = dynamics.output(state)
    b = barrier_value(barrier, t, x)
    db_dx, db_dt = barrier_gradients(barrier, t, x)
    f = dynamics.drift(t, state)
    g = dynamics.input_matrix(t, state)
    lie_f = float(db_dx @ f)
    lie_g = db_dx @ g
    psi = lie_f + db_dt + barrier.alpha(b)
    u = min_norm_input(weight, lie_g, psi)
    return ControlStep(t=t, x=x, b=b, db_dx=db_dx, db_dt=db_dt, lie_f=lie_f,
                       lie_g=lie_g, psi=psi, u=u, constraint_active=psi < 0.0)
