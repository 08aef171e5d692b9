"""Closed-loop simulation under the QP safety filter, with trajectory logging
and post-hoc robustness monitoring.

A run knows every time it will ask the tube about before its first step: the
sample instants, the control instants and 0 for the start check.  It
tabulates the tube's curves at those times once (`SampledTube`), so each step
reads stored values instead of evaluating the basis polynomials.  The table
is filled by stacked per-time products, each the `coeffs @ row` product the
tube makes, which keeps every barrier value, input and log byte equal to a
per-step evaluation of the tube.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cbf import Barrier, ControlStep, barrier_value, solve_safety_qp
from .stl import Formula, Signal, robustness
from .tube import SampledTube


class SimulationError(RuntimeError):
    """Closed-loop run cannot proceed (bad initial state or diverged state)."""


def step_rk4(dynamics, t: float, state: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """Classical 4th-order Runge-Kutta step holding u constant over [t, t+dt]."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float)
    u = np.asarray(u, dtype=float)
    half = dt / 2
    k1 = dynamics.state_derivative(t, state, u)
    k2 = dynamics.state_derivative(t + half, state + half * k1, u)
    k3 = dynamics.state_derivative(t + half, state + half * k2, u)
    k4 = dynamics.state_derivative(t + dt, state + dt * k3, u)
    out = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.isfinite(out).all():
        raise SimulationError(f"non-finite state after step at t={t}")
    return out


@dataclass
class RunReport:
    """Everything observed during one closed-loop run."""

    x0: np.ndarray          # requested initial output
    trajectory: Signal
    steps: list
    min_b: float
    tube_violations: int
    final_robustness: float
    satisfied: bool
    saturated_steps: int = 0


def run_closed_loop(dynamics, barrier: Barrier, x0: np.ndarray, dt: float,
                    formula: Formula, *, weight: Optional[np.ndarray] = None,
                    input_bound: Optional[float] = None,
                    until_convention: str = "paper") -> RunReport:
    """Iterate the safety QP and RK4 over [0, t_f] and monitor the result.

    x0 is the initial certified output and must satisfy b(0, x0) >= 0.  The
    input is held constant over each step, and the QP's time-varying terms
    are evaluated at the step's midpoint t + dt/2, so the hold tracks a
    moving tube without the O(dt) lag of sampling at the interval start.
    When input_bound is given, inputs are clamped per component and the
    saturation count reported; the invariance argument assumes no clamping.

    The barrier is rebuilt once per run, with the same gain, over a
    `SampledTube` of its tube at 0 and every sample and control instant.  Its
    table holds one `coeffs @ row` product per time, on rows equal to the
    per-step basis rows; a flat product over the whole table would round
    differently and change the log.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_f = barrier.t_f
    n_steps = int(round(t_f / dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    times = np.linspace(0.0, t_f, n_steps + 1)
    sample_ts = times.tolist()
    holds = [hi - lo for lo, hi in zip(sample_ts, sample_ts[1:])] + [0.0]
    control_ts = [t + h / 2.0 for t, h in zip(sample_ts, holds)]
    barrier = Barrier(SampledTube(barrier.tube, [0.0, *sample_ts, *control_ts]),
                      gain=barrier.gain)
    weight = np.eye(dynamics.m) if weight is None else np.asarray(weight, dtype=float)

    x0 = np.asarray(x0, dtype=float)
    state = dynamics.initial_state(x0)
    b0 = barrier_value(barrier, 0.0, dynamics.output(state))
    if b0 < 0.0:
        raise SimulationError(f"initial state outside the tube: b(0, x0) = {b0}")

    steps: list[ControlStep] = []
    outputs = np.empty((n_steps + 1, dynamics.n))
    saturated = 0
    for k, (t, h, t_ctrl) in enumerate(zip(sample_ts, holds, control_ts)):
        qp = solve_safety_qp(barrier, dynamics, weight, t_ctrl, state)
        u = qp.u
        if input_bound is not None:
            clamped = np.clip(u, -input_bound, input_bound)
            if not np.array_equal(clamped, u):
                saturated += 1
                u = clamped
        # the logged row carries the true barrier at the sample instant and
        # the input actually applied over the hold interval; qp.x is
        # output(state), as the state has not moved since the QP
        x = qp.x
        steps.append(ControlStep(t=t, x=x, b=barrier_value(barrier, t, x),
                                 db_dx=qp.db_dx, db_dt=qp.db_dt, lie_f=qp.lie_f,
                                 lie_g=qp.lie_g, psi=qp.psi, u=u,
                                 constraint_active=qp.constraint_active))
        outputs[k] = x
        if k < n_steps:
            state = step_rk4(dynamics, t, state, u, h)

    trajectory = Signal(times, outputs)
    b_vals = np.array([s.b for s in steps])
    report = robustness(formula, trajectory, 0.0, until_convention=until_convention)
    return RunReport(
        x0=x0,
        trajectory=trajectory,
        steps=steps,
        min_b=float(b_vals.min()),
        tube_violations=int(np.sum(b_vals < 0.0)),
        final_robustness=report.value,
        satisfied=report.satisfied,
        saturated_steps=saturated,
    )


# ---------------------------------------------------------------------------
# trajectory log I/O
# ---------------------------------------------------------------------------

def write_trajectory_log(path, report: RunReport) -> None:
    """CSV log: t, x_1..x_n, u_1..u_m, b, psi, active; %.17g round-trips binary64.

    Each row is one `%` format of its floats and the active flag, with the
    `\r\n` line ends of Python's csv writer; no field needs quoting."""
    steps = report.steps
    n = len(steps[0].x)
    m = len(steps[0].u)
    header = (["t"] + [f"x_{i+1}" for i in range(n)] + [f"u_{j+1}" for j in range(m)]
              + ["b", "psi", "active"])
    row = ",".join(["%.17g"] * (n + m + 3) + ["%d"]) + "\r\n"
    lines = [",".join(header) + "\r\n"]
    lines += [row % (s.t, *s.x.tolist(), *s.u.tolist(), s.b, s.psi, s.constraint_active)
              for s in steps]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_trajectory_signal(path) -> Signal:
    """Rebuild the trajectory from a log using only the t and x_* columns.

    Deliberately ignores every other column so verification stays independent
    of the simulator's own barrier and robustness bookkeeping.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "t":
            raise ValueError(f"{path}: not a trajectory log (missing t column)")
        x_cols = [i for i, name in enumerate(header) if name.startswith("x_")]
        if not x_cols:
            raise ValueError(f"{path}: no state columns found")
        times, states = [], []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"not {len(header)}")
            times.append(float(row[0]))
            states.append([float(row[i]) for i in x_cols])
    return Signal(np.asarray(times), np.asarray(states))
