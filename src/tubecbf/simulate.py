"""Closed-loop simulation under the QP safety filter, with trajectory logging
and post-hoc robustness monitoring.

A run knows every time it will ask the tube about before its first step: the
sample instants, the control instants and 0 for the start check.  It
tabulates the tube's curves at those times once (`SampledTube`), so each step
reads stored values instead of evaluating the basis polynomials.  The table
is filled by `basis.combine`, which sums each time alone in index order as
the tube's own evaluation does, so every barrier value, input and log byte
equals a per-step evaluation of the tube.

The steps themselves run on Python floats: the model's state, output and
input are lists of floats from `initial_state` to the log row, and the
barrier, its gradients, the Lie terms, the QP (a Cholesky factorization of
the weight and two triangular sweeps) and the RK4 stages sum in index order.
No step calls BLAS or LAPACK.  With n <= 3 the numpy call overhead
outweighed the arithmetic many times over.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cbf import Barrier, ControlStep, _cholesky, barrier_value, solve_safety_qp
from .stl import Formula, Signal, robustness
from .tube import SampledTube


# a recorded step takes 0.7-1.5 kB (tracemalloc of its ControlStep and log row
# on the reference tubes), so a run of MAX_STEPS steps stays under 1.5 GB
MAX_STEPS = 1_000_000


class SimulationError(RuntimeError):
    """Closed-loop run cannot proceed (bad initial state or diverged state)."""


def step_rk4(dynamics, t: float, state: list, u: list, dt: float) -> list:
    """Classical 4th-order Runge-Kutta step holding u constant over [t, t+dt].

    state, u and what `dynamics.state_derivative(t, state, u)` returns are
    lists (or tuples) of floats; the stages are combined on Python floats and
    the next state is returned as a list."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rate = dynamics.state_derivative
    half = dt / 2
    k1 = rate(t, state, u)
    k2 = rate(t + half, [xi + half * ki for xi, ki in zip(state, k1)], u)
    k3 = rate(t + half, [xi + half * ki for xi, ki in zip(state, k2)], u)
    k4 = rate(t + dt, [xi + dt * ki for xi, ki in zip(state, k3)], u)
    sixth = dt / 6
    out = [xi + sixth * (a + 2 * b + 2 * c + d)
           for xi, a, b, c, d in zip(state, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise SimulationError(f"non-finite state after step at t={t}")
    return out


@dataclass
class RunReport:
    """Everything observed during one closed-loop run."""

    x0: np.ndarray          # requested initial output
    trajectory: Signal
    steps: list             # one ControlStep per sample instant
    min_b: float
    tube_violations: int
    final_robustness: float
    satisfied: bool
    saturated_steps: int = 0


def run_settings(m: int, t_f: float, dt: float, weight=None, input_bound=None) -> tuple:
    """Step count, (m, m) weight (None: identity) and float input bound of a
    closed-loop run over [0, t_f]; ValueError naming a setting out of range."""
    steps = t_f / dt if dt > 0 else 0.0
    if not 0.5 < steps <= MAX_STEPS:  # so round(steps) is from 1 to MAX_STEPS
        raise ValueError(f"dt must be positive and make 1 to {MAX_STEPS} steps in t_f {t_f}, "
                         f"got {dt}")
    n_steps = int(round(steps))
    weight = np.eye(m) if weight is None else np.asarray(weight, dtype=float)
    _cholesky(weight, m)
    if input_bound is not None:
        input_bound = float(input_bound)
        if not input_bound > 0:
            raise ValueError(f"input_bound must be positive, got {input_bound}")
    return n_steps, weight, input_bound


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
    The weight (identity by default) must be symmetric positive definite.
    `run_settings` checks every setting before the first step.  The barrier
    is rebuilt once per run, with the same gain, over a `SampledTube` of its
    tube (see the module docstring).
    """
    # only for perfbench/workloads.py, until the next benchmark change (ROADMAP item 3)
    if until_convention != "paper":
        raise ValueError(f"until_convention must be 'paper', got {until_convention!r}")
    t_f = barrier.t_f
    n_steps, weight, input_bound = run_settings(dynamics.m, t_f, dt, weight, input_bound)
    times = np.linspace(0.0, t_f, n_steps + 1)
    sample_ts = times.tolist()
    holds = [hi - lo for lo, hi in zip(sample_ts, sample_ts[1:])] + [0.0]
    control_ts = [t + h / 2.0 for t, h in zip(sample_ts, holds)]
    barrier = Barrier(SampledTube(barrier.tube, [0.0, *sample_ts, *control_ts]),
                      gain=barrier.gain)

    x0 = np.asarray(x0, dtype=float)
    state = dynamics.initial_state(x0)
    b0 = barrier_value(barrier, 0.0, dynamics.output(state))
    if b0 < 0.0:
        raise SimulationError(f"initial state outside the tube: b(0, x0) = {b0}")

    steps: list[ControlStep] = []
    saturated = 0
    for k, (t, h, t_ctrl) in enumerate(zip(sample_ts, holds, control_ts)):
        step = solve_safety_qp(barrier, dynamics, weight, t_ctrl, state)
        if input_bound is not None:
            clamped = [min(max(v, -input_bound), input_bound) for v in step.u]
            if clamped != step.u:
                saturated += 1
                step.u = clamped
        # the record carries the true barrier at the sample instant and the
        # input actually applied over the hold interval; step.x is
        # output(state), as the state has not moved since the QP
        step.t, step.b = t, barrier_value(barrier, t, step.x)
        steps.append(step)
        if k < n_steps:
            state = step_rk4(dynamics, t, state, step.u, h)

    trajectory = Signal(times, np.array([s.x for s in steps]))
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
    lines += [row % (s.t, *s.x, *s.u, s.b, s.psi, s.constraint_active)
              for s in steps]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_trajectory_signal(path) -> Signal:
    """Rebuild the trajectory from a log using only the t and x_* columns.

    Deliberately ignores every other column so verification stays independent
    of the simulator's own barrier and robustness bookkeeping.
    """
    try:
        fh = open(path, newline="")
    except IsADirectoryError:
        raise ValueError(f"{path} is a directory, not a trajectory log") from None
    with fh:
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
