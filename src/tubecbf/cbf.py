"""Time-varying control barrier function built from a tube, and the per-step
minimum-norm safety QP with its single-constraint closed form.

The QP reads the tube once per step, through `barrier_gradients`, on vectors
of n, m <= 3, so points, gradients, Lie rows and inputs are lists of Python
floats.  Each sum runs in index order from 0.0, and no call reaches BLAS or
LAPACK."""

from __future__ import annotations

from dataclasses import dataclass

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
    the radius checks below then read its tabulated radius.  `run_closed_loop`
    takes a barrier over a `Tube` and tabulates it itself.
    """

    tube: Tube | SampledTube
    gain: float = 5.0

    def __post_init__(self):
        if not self.gain > 0:
            raise ValueError(f"gain must be positive, got {self.gain}")

    def alpha(self, s: float) -> float:
        return self.gain * s

    @property
    def t_f(self) -> float:
        return self.tube.t_f


def _radius_and_center(tube, t: float, x) -> tuple:
    """r(t) and c(t) as floats; the barrier is undefined unless r(t) > 0."""
    r = tube.radius(t)
    if r <= 0:
        raise InfeasibleStepError(f"tube radius {r} not positive at t={t}; barrier undefined")
    c = tube.center(t).tolist()
    if len(x) != len(c):
        raise ValueError(f"point of dimension {len(x)} for a tube of dimension {len(c)}")
    return r, c


def barrier_value(barrier: Barrier, t: float, x) -> float:
    r, c = _radius_and_center(barrier.tube, t, x)
    dd = 0.0
    for xi, ci in zip(x, c):
        di = xi - ci
        dd += di * di
    return 1.0 - dd / r**2


def barrier_gradients(barrier: Barrier, t: float, x) -> tuple:
    """Value, spatial gradient (a list of n floats) and time partial of the
    barrier at (t, x); the value has the bits of `barrier_value`'s."""
    tube = barrier.tube
    r, c = _radius_and_center(tube, t, x)
    r2 = r**2
    dd = cd = 0.0
    db_dx = []
    for xi, ci, vi in zip(x, c, tube.center_dot(t).tolist()):
        di = xi - ci
        dd += di * di
        cd += vi * di
        db_dx.append(-2.0 * di / r2)
    return 1.0 - dd / r2, db_dx, 2.0 * cd / r2 + 2.0 * tube.radius_dot(t) * dd / r**3


def min_norm_input(a, psi: float) -> list:
    """Closed-form solution of  min u.u  s.t.  a.u >= -psi.

    When psi >= 0 the unconstrained optimum u = 0 is feasible.  Otherwise the
    constraint is active and the KKT system gives u = -psi a / (a.a), with
    a.a summed in index order.  Raises InfeasibleStepError when a.a is 0
    (a = 0, or a so small that its square underflows) while psi < 0.

    a and the returned u are lists of m floats.
    """
    if psi >= 0.0:
        return [0.0] * len(a)
    denom = 0.0
    for ai in a:
        denom += ai * ai
    if not denom > 0.0:
        raise InfeasibleStepError(f"constraint row {a} vanished with psi={psi} < 0: "
                                  f"a.a = {denom}")
    scale = -psi / denom
    return [ai * scale for ai in a]


@dataclass(slots=True)
class ControlStep:
    """One logged step: time, output x, barrier b, decay margin psi, input u
    (x and u lists of floats) and whether the constraint was active."""

    t: float
    x: list
    b: float
    psi: float
    u: list
    constraint_active: bool


def solve_safety_qp(barrier: Barrier, dynamics, t: float, state) -> ControlStep:
    """Minimum-norm input keeping the barrier nonnegative at one step.

    dynamics provides the control-affine terms of the certified output:
    drift(state) -> n floats and input_matrix(state) -> n rows of m floats
    of the dynamics-internal state, whose output(state) lives in barrier
    space.  The Lie terms are index-order sums on Python floats, as in
    min_norm_input.
    """
    x = dynamics.output(state)
    b, db_dx, db_dt = barrier_gradients(barrier, t, x)
    g = dynamics.input_matrix(state)
    lie_f = 0.0
    lie_g = [0.0] * len(g[0])
    for dbi, fi, gi in zip(db_dx, dynamics.drift(state), g):
        lie_f += dbi * fi
        for j, gij in enumerate(gi):
            lie_g[j] += dbi * gij
    psi = lie_f + db_dt + barrier.alpha(b)
    # positional: keyword arguments cost more than the rest of the record
    return ControlStep(t, x, b, psi, min_norm_input(lie_g, psi), psi < 0.0)
