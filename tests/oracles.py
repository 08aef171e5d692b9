"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python floats, lists, and
direct recursion: no code is shared with the implementation under test beyond
the formula node types themselves.  The exceptions are the two closed-loop
oracles.  oracle_closed_loop is a replay oracle: the closed loop's
step-by-step reference form, which calls the library's QP, barrier,
model flow and monitor on the plain tube.  oracle_numpy_closed_loop keeps the
library's tube table and monitor but does each step in numpy arithmetic:
BLAS products, the minimum-norm input as an array expression and each
model's exact flow on arrays, its arc through np.sinc.
oracle_write_trajectory_log is the trajectory log written field by field
through Python's csv writer.  oracle_bernstein_second_derivatives is the
reference for the basis' control-point bound on the second derivative.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from tubecbf.cbf import Barrier, ControlStep, barrier_value, solve_safety_qp
from tubecbf.simulate import RunReport, SimulationError
from tubecbf.stl import (
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    Predicate,
    Signal,
    TrueFormula,
    Until,
    robustness,
)
from tubecbf.tube import SampledTube


def oracle_bernstein_second_derivatives(count: int, t_f: float, t) -> np.ndarray:
    """Second time derivatives of the count Bernstein polynomials of degree
    d = count - 1 on [0, t_f] at the times t, shape (count, len(t)), or
    (count,) for a scalar t:  d^2/dt^2 B_{k,d}(t/t_f)
    = d(d-1)/t_f^2 (B_{k-2,d-2} - 2 B_{k-1,d-2} + B_{k,d-2})(t/t_f)."""
    d = count - 1

    def lower(k, u):  # B_{k,d-2}(u); zero for k outside 0..d-2
        if not 0 <= k <= d - 2:
            return 0.0
        return math.comb(d - 2, k) * u**k * (1.0 - u) ** (d - 2 - k)

    scale = d * (d - 1) / t_f**2
    ts = [float(s) / t_f for s in np.atleast_1d(t)]
    out = np.array([[scale * (lower(k - 2, u) - 2.0 * lower(k - 1, u) + lower(k, u))
                     for u in ts] for k in range(count)])
    return out[:, 0] if np.ndim(t) == 0 else out


def _interp_state(times, states, t):
    if t <= times[0]:
        return list(states[0])
    if t >= times[-1]:
        return list(states[-1])
    for i in range(len(times) - 1):
        if times[i] <= t <= times[i + 1]:
            w = (t - times[i]) / (times[i + 1] - times[i])
            return [(1 - w) * a + w * b for a, b in zip(states[i], states[i + 1])]
    raise AssertionError("unreachable")


def _window_times(times, lo, hi):
    if hi == lo:
        return [lo]
    inner = [g for g in times if lo < g < hi]
    return [lo] + inner + [hi]


def _pred_value(fn, x):
    # re-derive h(x) from the predicate parameters with plain arithmetic
    kind = type(fn).__name__
    if kind == "AffineHalfspace":
        return sum(w * xi for w, xi in zip(fn.weights, x)) + fn.offset
    if kind == "BoxInfNorm":
        return fn.halfwidth - max(abs(xi - ci) for xi, ci in zip(x, fn.center))
    if kind == "BallNorm2":
        return fn.radius - math.sqrt(sum((xi - ci) ** 2 for xi, ci in zip(x, fn.center)))
    raise TypeError(f"oracle cannot evaluate predicate kind {kind}")


def oracle_robustness(f: Formula, times, states, t: float = 0.0) -> float:
    """Direct recursive min/max robustness over the sample grid."""
    times = [float(v) for v in np.asarray(times).tolist()]
    states_arr = np.asarray(states, dtype=float)
    if states_arr.ndim == 1:
        states_arr = states_arr[:, None]
    states = [list(row) for row in states_arr.tolist()]
    memo = {}

    def ev(node, tq):
        key = (id(node), tq)
        if key in memo:
            return memo[key]
        if isinstance(node, TrueFormula):
            val = math.inf
        elif isinstance(node, Predicate):
            val = _pred_value(node.fn, _interp_state(times, states, tq))
        elif isinstance(node, Not):
            val = -ev(node.child, tq)
        elif isinstance(node, And):
            val = min(ev(node.left, tq), ev(node.right, tq))
        elif isinstance(node, Or):
            val = max(ev(node.left, tq), ev(node.right, tq))
        elif isinstance(node, Eventually):
            val = max(ev(node.child, u) for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Always):
            val = min(ev(node.child, u) for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Until):
            cands = _window_times(times, tq + node.start, tq + node.end)
            best = -math.inf
            for t1 in cands:
                point = ev(node.left, t1)
                run = min(ev(node.right, u) for u in _window_times(times, tq + node.start, t1))
                best = max(best, min(point, run))
            val = best
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = val
        return val

    return ev(f, t)


def oracle_boolean(f: Formula, times, states, t: float = 0.0) -> bool:
    """Boolean satisfaction on the same grid (h >= 0 at predicates)."""
    times = [float(v) for v in np.asarray(times).tolist()]
    states_arr = np.asarray(states, dtype=float)
    if states_arr.ndim == 1:
        states_arr = states_arr[:, None]
    states = [list(row) for row in states_arr.tolist()]
    memo = {}

    def ev(node, tq):
        key = (id(node), tq)
        if key in memo:
            return memo[key]
        if isinstance(node, TrueFormula):
            val = True
        elif isinstance(node, Predicate):
            val = _pred_value(node.fn, _interp_state(times, states, tq)) >= 0.0
        elif isinstance(node, Not):
            val = not ev(node.child, tq)
        elif isinstance(node, And):
            val = ev(node.left, tq) and ev(node.right, tq)
        elif isinstance(node, Or):
            val = ev(node.left, tq) or ev(node.right, tq)
        elif isinstance(node, Eventually):
            val = any(ev(node.child, u)
                      for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Always):
            val = all(ev(node.child, u)
                      for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Until):
            cands = _window_times(times, tq + node.start, tq + node.end)
            val = False
            for t1 in cands:
                ok = ev(node.left, t1) and all(
                    ev(node.right, u) for u in _window_times(times, tq + node.start, t1))
                if ok:
                    val = True
                    break
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = val
        return val

    return ev(f, t)


def oracle_min_norm_qp(a, psi):
    """Single-constraint QP by explicit active-set enumeration.

    min u.u  s.t.  a.u >= -psi.  Tries the inactive candidate u=0 and the
    active candidate from the equality KKT system, returns the cheapest
    feasible one, or None when neither exists.
    """
    a = np.asarray(a, dtype=float)
    m = len(a)
    candidates = []
    if 0.0 >= -psi - 1e-12:
        candidates.append(np.zeros(m))
    # active constraint: solve [2I  -a'; a  0] [u; mu] = [0; -psi], require mu >= 0
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * np.eye(m)
    kkt[:m, m] = -a
    kkt[m, :m] = a
    rhs = np.zeros(m + 1)
    rhs[m] = -psi
    try:
        sol = np.linalg.solve(kkt, rhs)
        if sol[m] >= -1e-12:
            candidates.append(sol[:m])
    except np.linalg.LinAlgError:
        pass
    if not candidates:
        return None
    return min(candidates, key=lambda u: float(u @ u))


def oracle_pattern_search(func, x0, lb, ub, *, step, min_step, budget, target=None):
    """Coordinate pattern search polled one trial per call, + before -.

    func maps one point (a list of floats) to its value.  A trial is accepted
    on strict improvement, which ends that coordinate's poll; a trial that
    clips back onto x[j] and an axis with lb == ub are skipped.  Returns
    (x, fx, evals, accepted points in order).
    """
    x = [float(v) for v in x0]
    lb = [float(v) for v in lb]
    ub = [float(v) for v in ub]
    scale = [u - l for l, u in zip(lb, ub)]
    fx = func(x)
    evals = 1
    accepted = []
    cur = step
    while evals < budget and cur >= min_step:
        if target is not None and fx <= target:
            break
        improved = False
        for j in range(len(x)):
            if scale[j] == 0.0 or evals >= budget:
                continue
            for sgn in (1.0, -1.0):
                trial = min(max(x[j] + sgn * cur * scale[j], lb[j]), ub[j])
                if trial == x[j]:
                    continue
                xt = list(x)
                xt[j] = trial
                ft = func(xt)
                evals += 1
                if ft < fx:
                    x, fx = xt, ft
                    accepted.append(xt)
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            cur /= 2.0
    return x, fx, evals, accepted


def oracle_closed_loop(dynamics, barrier: Barrier, x0, dt: float, formula: Formula, *,
                       input_bound=None) -> RunReport:
    """The closed loop evaluated step by step: every barrier, gradient and
    QP term asks barrier.tube for its basis rows at that step's time.  A step
    whose input leaves [-input_bound, input_bound] raises SimulationError."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_f = barrier.t_f
    n_steps = int(round(t_f / dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    times = np.linspace(0.0, t_f, n_steps + 1)

    x0 = np.asarray(x0, dtype=float)
    state = dynamics.initial_state(x0)
    b0 = barrier_value(barrier, 0.0, dynamics.output(state))
    if b0 < 0.0:
        raise SimulationError(f"initial state outside the tube: b(0, x0) = {b0}")

    steps: list[ControlStep] = []
    outputs = np.empty((n_steps + 1, dynamics.n))
    for k, t in enumerate(times):
        t = float(t)
        h = float(times[k + 1] - t) if k < n_steps else 0.0
        qp = solve_safety_qp(barrier, dynamics, t + h / 2.0, state)
        u = qp.u
        if input_bound is not None and np.max(np.abs(u)) > input_bound:
            raise SimulationError(f"input {u} at t={t} exceeds input_bound {input_bound}")
        # the logged row carries the true barrier at the sample instant and
        # the input applied over the hold interval
        x = dynamics.output(state)
        steps.append(ControlStep(t=t, x=x, b=barrier_value(barrier, t, x), psi=qp.psi, u=u,
                                 constraint_active=qp.constraint_active))
        outputs[k] = x
        if k < n_steps:
            state = dynamics.hold(state, u, h)

    trajectory = Signal(times, outputs)
    b_vals = np.array([s.b for s in steps])
    report = robustness(formula, trajectory, 0.0)
    return RunReport(
        x0=x0,
        trajectory=trajectory,
        steps=steps,
        min_b=float(b_vals.min()),
        tube_violations=int(np.sum(b_vals < 0.0)),
        final_robustness=report.value,
        satisfied=report.satisfied,
    )


def _numpy_model(dynamics):
    """initial_state, output, drift, input_matrix and hold of one of the
    package's models, in numpy arithmetic on arrays."""
    if type(dynamics).__name__ == "DiffDrive":
        look, phi0 = dynamics.lookahead, dynamics.phi0

        def initial(x0):
            p = x0 - look * np.array([np.cos(phi0), np.sin(phi0)])
            return np.array([p[0], p[1], phi0])

        def output(state):
            px, py, phi = state
            return np.array([px + look * np.cos(phi), py + look * np.sin(phi)])

        def input_matrix(state):
            c, s = np.cos(state[2]), np.sin(state[2])
            return np.array([[c, -look * s], [s, look * c]])

        def hold(state, u, h):
            # the chord of the arc turned by omega h: np.sinc(x) = sin(pi x)/(pi x)
            v, omega = u
            mid = state[2] + omega * h / 2
            chord = v * h * np.sinc(omega * h / (2 * np.pi))
            return state + np.array([chord * np.cos(mid), chord * np.sin(mid), omega * h])

        return initial, output, np.zeros(2), input_matrix, hold
    # the single integrator, in 2-D or 3-D (the quadrotor)
    n = dynamics.n
    return (np.array, np.asarray, np.zeros(n), lambda state: np.eye(n),
            lambda state, u, h: state + h * np.asarray(u, dtype=float))


def oracle_numpy_closed_loop(dynamics, barrier: Barrier, x0, dt: float, formula: Formula, *,
                             input_bound=None) -> RunReport:
    """run_closed_loop with every step in numpy arithmetic: d @ d, the Lie
    terms and a @ a as BLAS products, and the model's flow on arrays.  The
    tube is read through the same SampledTube table."""
    initial, output, drift, input_matrix, hold = _numpy_model(dynamics)
    t_f = barrier.t_f
    n_steps = int(round(t_f / dt))
    sample_ts = np.linspace(0.0, t_f, n_steps + 1).tolist()
    holds = [hi - lo for lo, hi in zip(sample_ts, sample_ts[1:])] + [0.0]
    control_ts = [t + h / 2.0 for t, h in zip(sample_ts, holds)]
    tube = SampledTube(barrier.tube, [0.0, *sample_ts, *control_ts])

    def value(t, x):
        d = x - tube.center(t)
        return 1.0 - float(d @ d) / tube.radius(t) ** 2

    def qp(t, state):
        x = output(state)
        r = tube.radius(t)
        d = x - tube.center(t)
        db_dx = -2.0 * d / r**2
        db_dt = 2.0 * float(tube.center_dot(t) @ d) / r**2 \
            + 2.0 * tube.radius_dot(t) * float(d @ d) / r**3
        lie_f = float(db_dx @ drift)
        lie_g = db_dx @ input_matrix(state)
        psi = lie_f + db_dt + barrier.gain * value(t, x)
        u = np.zeros(len(lie_g))
        if psi < 0.0:
            u = lie_g * (-psi / float(lie_g @ lie_g))
        return ControlStep(t=t, x=x, b=0.0, psi=psi, u=u, constraint_active=psi < 0.0)

    state = initial(np.asarray(x0, dtype=float))
    steps = []
    for k, (t, h, t_ctrl) in enumerate(zip(sample_ts, holds, control_ts)):
        step = qp(t_ctrl, state)
        if input_bound is not None and np.max(np.abs(step.u)) > input_bound:
            raise SimulationError(f"input {step.u} at t={t} exceeds input_bound {input_bound}")
        step.t, step.b = t, value(t, step.x)
        steps.append(step)
        if k < n_steps:
            state = hold(state, step.u, h)

    trajectory = Signal(np.array(sample_ts), np.array([s.x for s in steps]))
    b_vals = np.array([s.b for s in steps])
    report = robustness(formula, trajectory, 0.0)
    return RunReport(x0=np.asarray(x0, dtype=float), trajectory=trajectory, steps=steps,
                     min_b=float(b_vals.min()), tube_violations=int(np.sum(b_vals < 0.0)),
                     final_robustness=report.value, satisfied=report.satisfied)


def oracle_write_trajectory_log(path, report: RunReport) -> None:
    """The trajectory log, each field formatted with %.17g (the active flag as
    1 or 0) and each row written by csv.writer."""
    steps = report.steps
    n = len(steps[0].x)
    m = len(steps[0].u)
    header = (["t"] + [f"x_{i+1}" for i in range(n)] + [f"u_{j+1}" for j in range(m)]
              + ["b", "psi", "active"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in steps:
            row = [f"{s.t:.17g}"]
            row += [f"{v:.17g}" for v in s.x]
            row += [f"{v:.17g}" for v in s.u]
            row += [f"{s.b:.17g}", f"{s.psi:.17g}", "1" if s.constraint_active else "0"]
            writer.writerow(row)
