"""Time-varying control barrier function built from a tube, and the per-step
minimum-energy safety QP with its single-constraint closed form.

The closed loop calls these once or twice per step on vectors of n, m <= 3,
so they compute on Python floats, each sum in index order from 0.0 as a BLAS
without fused multiply-add sums it, and call neither BLAS nor LAPACK."""

from __future__ import annotations

import functools
import math
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


_FLOAT64 = np.dtype(float)


def _floats(v) -> list:
    """v as (nested) lists of Python floats; a float64 array skips
    np.asarray, which costs as much again as tolist."""
    if type(v) is np.ndarray and v.dtype is _FLOAT64:
        return v.tolist()
    return np.asarray(v, dtype=float).tolist()


def _radius_and_center(tube, t: float, x: list):
    """r(t) and c(t) as floats; the barrier is undefined unless r(t) > 0."""
    r = tube.radius(t)
    if r <= 0:
        raise InfeasibleStepError(f"tube radius {r} not positive at t={t}; barrier undefined")
    c = tube.center(t).tolist()
    if len(x) != len(c):
        raise ValueError(f"point of dimension {len(x)} for a tube of dimension {len(c)}")
    return r, c


def barrier_value(barrier: Barrier, t: float, x: np.ndarray) -> float:
    x = _floats(x)
    r, c = _radius_and_center(barrier.tube, t, x)
    dd = 0.0
    for xi, ci in zip(x, c):
        di = xi - ci
        dd += di * di
    return 1.0 - dd / r**2


def _gradients(tube, t: float, x: list):
    """barrier_gradients on a list of floats x, the gradient as a list."""
    r, c = _radius_and_center(tube, t, x)
    r2 = r**2
    dd = cd = 0.0
    db_dx = []
    for xi, ci, vi in zip(x, c, tube.center_dot(t).tolist()):
        di = xi - ci
        dd += di * di
        cd += vi * di
        db_dx.append(-2.0 * di / r2)
    return db_dx, 2.0 * cd / r2 + 2.0 * tube.radius_dot(t) * dd / r**3


def barrier_gradients(barrier: Barrier, t: float, x: np.ndarray):
    """Spatial gradient (n,) and time partial of the barrier at (t, x)."""
    db_dx, db_dt = _gradients(barrier.tube, t, _floats(x))
    return np.array(db_dx), db_dt


def _cholesky(weight, m: int) -> tuple:
    """Lower-triangular L with weight = L L', row i holding its i + 1 leading
    entries as Python floats.  ValueError naming `weight` unless it is a
    finite (m, m) symmetric positive definite matrix."""
    w = np.asarray(weight, dtype=float)
    if w.shape != (m, m):
        raise ValueError(f"weight must be an ({m}, {m}) matrix, got shape {w.shape}")
    return _factor(w.tobytes(), m)


@functools.lru_cache(maxsize=16)
def _factor(entries: bytes, m: int) -> tuple:
    """_cholesky of the matrix with these C-order binary64 entries; a closed
    loop's active steps all factor the same weight."""
    w = np.frombuffer(entries).reshape(m, m)
    if not np.isfinite(w).all():
        raise ValueError("weight must be finite")
    w = w.tolist()
    low = []
    for i, wi in enumerate(w):
        li = []
        for j, lj in enumerate(low):
            if wi[j] != w[j][i]:
                raise ValueError("weight must be symmetric")
            s = wi[j]
            for lik, ljk in zip(li, lj):
                s -= lik * ljk
            li.append(s / lj[j])
        s = wi[i]
        for lik in li:
            s -= lik * lik
        if not s > 0.0:
            raise ValueError("weight must be positive definite")
        li.append(math.sqrt(s))
        low.append(tuple(li))
    return tuple(low)


def _min_norm_input(weight, a: list, psi: float) -> list:
    """min_norm_input on a list of floats a, returning a list."""
    m = len(a)
    if psi >= 0.0:
        return [0.0] * m
    if not any(a):
        raise InfeasibleStepError(f"constraint row vanished with psi={psi} < 0")
    low = _cholesky(weight, m)
    # v = W^-1 a: solve L y = a top down, then L' v = y in place bottom up,
    # each subtracting in index order
    v = []
    for ai, li in zip(a, low):
        for lik, vk in zip(li, v):
            ai -= lik * vk
        v.append(ai / li[-1])
    for i in reversed(range(m)):
        for k in range(i + 1, m):
            v[i] -= low[k][i] * v[k]
        v[i] /= low[i][i]
    denom = 0.0
    for ai, vi in zip(a, v):
        denom += ai * vi
    if not denom > 0.0:
        raise InfeasibleStepError(f"constraint row {a} too small: a W^-1 a' = {denom}")
    scale = -psi / denom
    return [vi * scale for vi in v]


def min_norm_input(weight: np.ndarray, a: np.ndarray, psi: float) -> np.ndarray:
    """Closed-form solution of  min u'Wu  s.t.  a.u >= -psi.

    When psi >= 0 the unconstrained optimum u = 0 is feasible.  Otherwise the
    constraint is active and the KKT system gives
    u = W^-1 a' (-psi) / (a W^-1 a').  Raises InfeasibleStepError when a = 0,
    or a W^-1 a' underflows to 0, while psi < 0, and ValueError naming
    `weight` when an active step meets a W that is not symmetric positive
    definite.

    The arithmetic runs on Python floats, each sum in index order: W gets a
    Cholesky factorization L L' and W^-1 a two triangular sweeps, so no call
    reaches BLAS or LAPACK.
    """
    return np.array(_min_norm_input(weight, _floats(a), psi))


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
    dynamics-internal state, whose output(state) lives in barrier space.  The
    Lie terms are index-order sums on Python floats, as in min_norm_input.
    """
    x = dynamics.output(state)
    b = barrier_value(barrier, t, x)
    db_dx, db_dt = _gradients(barrier.tube, t, _floats(x))
    f = _floats(dynamics.drift(t, state))
    g = _floats(dynamics.input_matrix(t, state))
    lie_f = 0.0
    lie_g = [0.0] * len(g[0])
    for dbi, fi, gi in zip(db_dx, f, g):
        lie_f += dbi * fi
        for j, gij in enumerate(gi):
            lie_g[j] += dbi * gij
    psi = lie_f + db_dt + barrier.alpha(b)
    u = np.zeros(len(lie_g)) if psi >= 0.0 else np.array(_min_norm_input(weight, lie_g, psi))
    # positional: keyword arguments cost more than the rest of the record
    return ControlStep(t, x, b, np.array(db_dx), db_dt, lie_f, np.array(lie_g), psi, u,
                       psi < 0.0)
