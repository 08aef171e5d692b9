import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from gen import power_tube
from oracles import oracle_closed_loop, oracle_numpy_closed_loop, oracle_write_trajectory_log
from tubecbf import cbf, simulate
from tubecbf.basis import BernsteinBasis
from tubecbf.cbf import Barrier, ControlStep, InfeasibleStepError
from tubecbf.config import load_config
from tubecbf.dynamics import DiffDrive, OmniRobot, make_dynamics
from tubecbf.simulate import (
    SimulationError,
    read_trajectory_signal,
    run_closed_loop,
    step_rk4,
    write_trajectory_log,
)
from tubecbf.stl import Always, BoxInfNorm, Predicate
from tubecbf.tube import SampledTube, load_tube

ROOT = Path(__file__).resolve().parent.parent
REF_SCENARIOS = ("omni_reach_avoid", "diffdrive_sequential", "stlcg_1", "stlcg_2",
                 "quadrotor_cycle")


def _static_tube(center, radius, t_f=2.0):
    center = np.asarray(center, dtype=float)
    return power_tube(np.column_stack([center, np.zeros(len(center))]), [radius, 0.0], t_f)


def _drifting_tube(v, radius, t_f=4.0):
    # center moves at constant velocity v from the origin
    v = np.asarray(v, dtype=float)
    return power_tube(np.column_stack([np.zeros(len(v)), v]), [radius, 0.0], t_f)


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------

def test_rk4_exact_for_linear_dynamics():
    robot = OmniRobot(2)
    out = step_rk4(robot, 0.0, np.zeros(2), np.array([1.0, 0.0]), 0.05)
    assert np.allclose(out, [0.05, 0.0], atol=1e-15)


def test_rk4_zero_input_fixed_point():
    robot = OmniRobot(2)
    x = np.array([0.7, -0.3])
    out = step_rk4(robot, 0.0, x, np.zeros(2), 0.1)
    assert np.array_equal(out, x)


class _ScalarExponential:
    """Test dynamics xdot = x (input ignored)."""

    n = 1
    m = 1

    def state_derivative(self, t, state, u):
        return np.asarray(state, dtype=float)


def test_rk4_matches_exponential():
    dyn = _ScalarExponential()
    x = np.array([1.0])
    out = step_rk4(dyn, 0.0, x, np.zeros(1), 0.1)
    assert out[0] == pytest.approx(math.exp(0.1), abs=1e-7)


def test_rk4_rejects_bad_steps():
    robot = OmniRobot(2)
    with pytest.raises(ValueError):
        step_rk4(robot, 0.0, np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(SimulationError):
        step_rk4(robot, 0.0, np.array([np.inf, 0.0]), np.zeros(2), 0.1)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

IN_BALL = Predicate("ball", BoxInfNorm((0.0, 0.0), 5.0))
STAY = Always(0.0, 2.0, IN_BALL)


def test_closed_loop_static_center_start():
    barrier = Barrier(_static_tube([0.0, 0.0], 1.0))
    report = run_closed_loop(OmniRobot(2), barrier, np.zeros(2), 0.05, STAY)
    assert report.min_b == pytest.approx(1.0)
    assert report.tube_violations == 0
    assert all(np.array_equal(s.u, np.zeros(2)) for s in report.steps)
    assert np.allclose(report.trajectory.states, 0.0)
    assert report.satisfied


def test_closed_loop_rejects_outside_start():
    barrier = Barrier(_static_tube([0.0, 0.0], 1.0))
    with pytest.raises(SimulationError):
        run_closed_loop(OmniRobot(2), barrier, np.array([2.0, 0.0]), 0.05, STAY)


def test_closed_loop_boundary_start_slack():
    # start exactly on the boundary of a gently drifting tube
    tube = _drifting_tube([0.2, 0.0], 1.0, t_f=4.0)
    barrier = Barrier(tube, gain=5.0)
    formula = Always(0.0, 4.0, Predicate("ball", BoxInfNorm((0.0, 0.0), 20.0)))
    x0 = np.array([-1.0, 0.0])  # b(0, x0) = 0, trailing edge
    report = run_closed_loop(OmniRobot(2), barrier, x0, 0.05, formula)
    assert report.min_b >= -1e-6
    assert report.satisfied


def test_closed_loop_membership_barrier_sign_agree():
    tube = _drifting_tube([0.4, -0.2], 1.2, t_f=4.0)
    barrier = Barrier(tube)
    formula = Always(0.0, 4.0, Predicate("ball", BoxInfNorm((0.0, 0.0), 20.0)))
    report = run_closed_loop(OmniRobot(2), barrier, np.array([0.5, 0.5]), 0.05, formula)
    for s in report.steps:
        inside = np.linalg.norm(s.x - tube.center(s.t)) <= tube.radius(s.t)
        assert (s.b >= 0) == inside
    assert report.tube_violations == int(sum(s.b < 0 for s in report.steps))


def test_diffdrive_lookahead_obeys_effective_dynamics():
    robot = DiffDrive(lookahead=0.1, phi0=0.3)
    rng = np.random.default_rng(9)
    state = robot.initial_state(np.array([0.5, 0.5]))
    dt = 0.01
    for _ in range(200):
        u = rng.uniform(-1, 1, size=2)
        z0 = robot.output(state)
        zdot = robot.input_matrix(0.0, state) @ u
        state_next = step_rk4(robot, 0.0, state, u, dt)
        z1 = robot.output(state_next)
        # first-order prediction of the look-ahead point within RK4 error
        assert np.linalg.norm(z1 - (z0 + dt * zdot)) <= 5e-4 * max(1.0, np.linalg.norm(u)) * dt / 0.01
        state = state_next


def test_diffdrive_initial_state_matches_output():
    robot = DiffDrive(lookahead=0.2, phi0=1.1)
    x0 = np.array([1.0, 2.0])
    assert np.allclose(robot.output(robot.initial_state(x0)), x0, atol=1e-12)


def test_diffdrive_closed_loop_tracks_tube():
    tube = _drifting_tube([0.3, 0.2], 0.8, t_f=4.0)
    barrier = Barrier(tube, gain=5.0)
    formula = Always(0.0, 4.0, Predicate("ball", BoxInfNorm((0.0, 0.0), 20.0)))
    robot = DiffDrive(lookahead=0.1, phi0=0.0)
    report = run_closed_loop(robot, barrier, np.array([0.2, 0.1]), 0.05, formula)
    assert report.min_b >= -1e-3
    assert report.satisfied


def test_quadrotor_is_3d_integrator():
    q = make_dynamics("quadrotor")
    assert q.n == 3 and q.m == 3
    assert np.allclose(q.input_matrix(0.0, np.zeros(3)), np.eye(3))


def test_make_dynamics_unknown():
    with pytest.raises(ValueError):
        make_dynamics("boat")


def test_make_dynamics_rejects_parameters_the_kind_does_not_read():
    # a misspelt look-ahead would otherwise build the default 0.1 model
    with pytest.raises(ValueError, match="lookahed"):
        make_dynamics("diffdrive", lookahed=0.3)
    with pytest.raises(ValueError, match="lookahead"):
        make_dynamics("omni", lookahead=0.3)
    assert make_dynamics("diffdrive", lookahead=0.3).lookahead == 0.3


# ---------------------------------------------------------------------------
# tabulated tube against the step-by-step loop
# ---------------------------------------------------------------------------

def _reference(name):
    return (load_config(ROOT / "configs" / f"{name}.yaml"),
            load_tube(ROOT / "perfbench" / "ref" / f"{name}_tube.json"))


def _loop_args(config, tube, x0_seed):
    """Positional and keyword arguments of the CLI's closed loop for one
    scenario config and tube."""
    args = (config.make_dynamics(), Barrier(tube, gain=config.gain),
            config.pick_x0(tube, seed=x0_seed), config.dt, config.build_formula())
    kwargs = dict(weight=config.weight_matrix(), input_bound=config.input_bound)
    return args, kwargs


def _ref_loop_args(name, x0_seed):
    """_loop_args for one shipped config and its reference tube."""
    return _loop_args(*_reference(name), x0_seed)


_CURVES = ("center", "center_dot", "radius", "radius_dot")


def _curve_bytes(tube, t):
    return [np.asarray(getattr(tube, name)(t), dtype=float).tobytes() for name in _CURVES]


@pytest.mark.parametrize("name", REF_SCENARIOS)
def test_tabulated_tube_is_bit_exact_at_every_time_the_loop_asks(monkeypatch, name):
    config, tube = _reference(name)
    tables = []

    def recording(tube, times):
        tables.append((list(times), SampledTube(tube, times)))
        return tables[-1][1]
    monkeypatch.setattr(simulate, "SampledTube", recording)
    config.closed_loop(tube, seed=0)
    ((times, table),) = tables
    # 0, then every sample instant and every control instant at the config's dt
    n_steps = int(round(config.t_f / config.dt))
    sample = np.linspace(0.0, config.t_f, n_steps + 1).tolist()
    control = [t + (u - t) / 2.0 for t, u in zip(sample, sample[1:])] + [sample[-1]]
    assert sorted(set(times)) == sorted({0.0, *sample, *control})
    for t in times:
        assert _curve_bytes(table, t) == _curve_bytes(tube, t), t
    for t in (config.dt / 3.0, config.t_f / 2.0 + 1e-7):
        for curve in _CURVES:
            with pytest.raises(KeyError):
                getattr(table, curve)(t)
    for t in (-1e-3, config.t_f + 1e-3):
        with pytest.raises(ValueError) as want:
            tube.center(t)
        with pytest.raises(ValueError) as got:
            SampledTube(tube, [0.0, t, config.t_f])
        assert str(got.value) == str(want.value)


def _assert_same_run(tmp_path, got, want):
    write_trajectory_log(tmp_path / "got.csv", got)
    write_trajectory_log(tmp_path / "want.csv", want)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (got.min_b, got.tube_violations, got.final_robustness, got.saturated_steps) \
        == (want.min_b, want.tube_violations, want.final_robustness, want.saturated_steps)


@pytest.mark.parametrize("x0_seed", [0, 3])
@pytest.mark.parametrize("name", REF_SCENARIOS)
def test_closed_loop_replays_step_by_step_oracle(tmp_path, name, x0_seed):
    args, kwargs = _ref_loop_args(name, x0_seed)
    _assert_same_run(tmp_path, run_closed_loop(*args, **kwargs),
                     oracle_closed_loop(*args, **kwargs))


class _ListIntegrator:
    """A 2-D single integrator written against the model contract alone:
    every state, output, input, drift and input-matrix row a list of floats."""

    n = m = 2

    def initial_state(self, x0):
        return [float(v) for v in x0]

    def output(self, state):
        return list(state)

    def drift(self, t, state):
        return [0.0, 0.0]

    def input_matrix(self, t, state):
        return [[1.0, 0.0], [0.0, 1.0]]

    def state_derivative(self, t, state, u):
        return list(u)


# an integer bound, as YAML reads `input_bound: 1`, must still clamp to floats
@pytest.mark.parametrize("input_bound", [None, 1])
def test_closed_loop_runs_any_model_of_float_lists(tmp_path, input_bound):
    (omni, *args), kwargs = _ref_loop_args("omni_reach_avoid", 0)
    kwargs["input_bound"] = input_bound
    got = run_closed_loop(_ListIntegrator(), *args, **kwargs)
    want = run_closed_loop(omni, *args, **kwargs)
    _assert_same_run(tmp_path, got, want)
    assert any(s.constraint_active for s in got.steps)
    assert (got.saturated_steps > 0) == (input_bound is not None)
    for report in (got, want):
        for s in report.steps:
            values = [s.t, *s.x, s.b, *s.db_dx, s.db_dt, s.lie_f, *s.lie_g, s.psi, *s.u]
            assert all(type(v) is float for v in values), s


@pytest.mark.parametrize("name, weight", [
    ("omni_reach_avoid", None),
    ("omni_reach_avoid", [1.0, 4.0]),
    ("diffdrive_sequential", None),
    ("diffdrive_sequential", [1.0, 4.0]),
    ("quadrotor_cycle", None),
], ids=["omni", "omni-diag-1-4", "diffdrive", "diffdrive-diag-1-4", "quadrotor"])
def test_closed_loop_input_bound_and_weight_replay_oracle(tmp_path, name, weight):
    # no shipped config bounds or weights the input; these runs clamp tens to
    # hundreds of steps (the quadrotor's on both signs), and the weighted ones
    # solve the QP in the diag(1, 4) metric, which the oracle is handed
    # directly rather than by the config
    config, tube = _reference(name)
    config = dataclasses.replace(config, input_bound=1.5, control_weight=weight)
    args, kwargs = _loop_args(config, tube, 0)
    kwargs["weight"] = None if weight is None else np.diag(weight)
    got = config.closed_loop(tube, seed=0)
    _assert_same_run(tmp_path, got, oracle_closed_loop(*args, **kwargs))
    assert got.saturated_steps > 0
    _assert_runs_agree(got, oracle_numpy_closed_loop(*args, **kwargs), 1e-7, relative=True)


def _assert_runs_agree(got, want, tol, relative=False):
    """Same steps, active flags and clamp count; x, u, b, psi, min_b and the
    robustness within tol, absolute or relative to max(1, |want|)."""
    assert [s.t for s in got.steps] == [s.t for s in want.steps]
    assert [s.constraint_active for s in got.steps] == \
        [s.constraint_active for s in want.steps]
    assert got.saturated_steps == want.saturated_steps
    pairs = [(np.array([getattr(s, f) for s in got.steps]),
              np.array([getattr(s, f) for s in want.steps])) for f in ("x", "u", "b", "psi")]
    pairs += [(got.min_b, want.min_b), (got.final_robustness, want.final_robustness)]
    for g, w in pairs:
        scale = np.maximum(1.0, np.abs(w)) if relative else 1.0
        assert np.all(np.abs(np.asarray(g) - w) <= tol * scale)


@pytest.mark.parametrize("name", REF_SCENARIOS)
def test_closed_loop_matches_numpy_step_arithmetic(name):
    # the float steps sum in index order, as a BLAS without FMA does, so they
    # differ from the numpy steps only where BLAS fuses multiply and add
    config, tube = _reference(name)
    for x0_seed in range(20):
        args, kwargs = _loop_args(config, tube, x0_seed)
        _assert_runs_agree(run_closed_loop(*args, **kwargs),
                           oracle_numpy_closed_loop(*args, **kwargs), 1e-12)


@pytest.mark.parametrize("settings, named", [
    (dict(input_bound=-1.0), "input_bound"),
    (dict(input_bound=0.0), "input_bound"),
    (dict(until_convention="standard"), "until_convention"),
    (dict(dt=0.0), "dt"),
    (dict(dt=1e-9), "dt"),
], ids=["negative-bound", "zero-bound", "unknown-convention", "zero-dt", "too-many-steps"])
def test_closed_loop_checks_its_settings_before_the_first_step(monkeypatch, settings, named):
    # a negative bound would clamp every input to it, an Until semantics other
    # than the paper's would only fail in the monitor after the whole run, and
    # 10**9 steps would run for hours
    calls = []
    monkeypatch.setattr(simulate, "solve_safety_qp",
                        lambda *a: calls.append(a) or cbf.solve_safety_qp(*a))
    args = {"dt": 0.05, **settings}
    dt = args.pop("dt")
    with pytest.raises(ValueError, match=named):
        run_closed_loop(OmniRobot(2), Barrier(_static_tube([0.0, 0.0], 1.0)), np.zeros(2),
                        dt, STAY, **args)
    assert calls == []


@pytest.mark.parametrize("weight", [np.eye(3), -np.eye(2), np.zeros((2, 2)),
                                    np.array([[1.0, 0.5], [0.0, 1.0]])],
                         ids=["3x3", "minus-identity", "zero", "asymmetric"])
def test_closed_loop_checks_the_weight_before_the_first_step(monkeypatch, weight):
    # started at the center of a static tube no step is active, so no step's
    # QP would ever read the weight
    calls = []
    monkeypatch.setattr(simulate, "solve_safety_qp",
                        lambda *a: calls.append(a) or cbf.solve_safety_qp(*a))
    barrier = Barrier(_static_tube([0.0, 0.0], 1.0))
    with pytest.raises(ValueError, match="weight"):
        run_closed_loop(OmniRobot(2), barrier, np.zeros(2), 0.05, STAY, weight=weight)
    assert calls == []
    report = run_closed_loop(OmniRobot(2), barrier, np.zeros(2), 0.05, STAY,
                             weight=np.diag([1.0, 4.0]))
    assert len(report.steps) == 41 and not any(s.constraint_active for s in report.steps)


def test_closed_loop_call_shape(monkeypatch):
    """One QP and two barrier values per step plus the start check, and a
    fixed number of basis evaluations, however many steps the run takes."""
    counts = {}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*a, **k):
            counts[key] = counts.get(key, 0) + 1
            return original(*a, **k)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(simulate, "solve_safety_qp", "qp")
    counting(simulate, "barrier_value", "barrier")
    counting(cbf, "barrier_value", "barrier")
    counting(BernsteinBasis, "values", "basis")
    counting(BernsteinBasis, "derivatives", "basis")

    (dynamics, barrier, x0, dt, formula), kwargs = _ref_loop_args("omni_reach_avoid", 0)
    basis_calls = []
    for step in (dt, dt / 2):
        counts.clear()
        report = run_closed_loop(dynamics, barrier, x0, step, formula, **kwargs)
        steps = len(report.steps)
        assert counts["qp"] == steps
        assert counts["barrier"] == 2 * steps + 1
        basis_calls.append(counts["basis"])
    assert basis_calls[0] == basis_calls[1] <= 4


def test_closed_loop_vanishing_radius_raises_like_step_by_step_loop():
    # r(t) = 1 - 0.5 t reaches zero at t = 2; the first control instant past
    # it is 2.025 (2.0250000000000004 in binary64), and the tabulated radius
    # must still be checked there
    tube = power_tube([[4.5, 0.0], [4.5, 0.0]], [1.0, -0.5], 4.0)
    args = (OmniRobot(2), Barrier(tube), np.array([4.5, 4.5]), 0.05, STAY)
    with pytest.raises(InfeasibleStepError) as want:
        oracle_closed_loop(*args)
    with pytest.raises(InfeasibleStepError) as got:
        run_closed_loop(*args)
    assert str(got.value) == str(want.value) == (
        "tube radius -0.012500000000000178 not positive at t=2.0250000000000004; "
        "barrier undefined")


# ---------------------------------------------------------------------------
# log round trip
# ---------------------------------------------------------------------------

def test_trajectory_log_round_trip(tmp_path):
    tube = _drifting_tube([0.4, 0.0], 1.0, t_f=2.0)
    barrier = Barrier(tube)
    formula = Always(0.0, 2.0, Predicate("ball", BoxInfNorm((0.0, 0.0), 20.0)))
    report = run_closed_loop(OmniRobot(2), barrier, np.array([0.3, 0.1]), 0.05, formula)
    path = tmp_path / "log.csv"
    write_trajectory_log(path, report)
    sig = read_trajectory_signal(path)
    assert np.array_equal(sig.times, report.trajectory.times)
    assert np.array_equal(sig.states, report.trajectory.states)


@pytest.mark.parametrize("name", ["omni_reach_avoid", "diffdrive_sequential", "quadrotor_cycle"])
def test_trajectory_log_bytes_match_csv_writer(tmp_path, name):
    config, tube = _reference(name)
    report = config.closed_loop(tube, seed=0)
    write_trajectory_log(tmp_path / "got.csv", report)
    oracle_write_trajectory_log(tmp_path / "want.csv", report)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_trajectory_log_bytes_match_csv_writer_at_extreme_values(tmp_path):
    def step(t, x, u, b, psi):
        x, u = np.array(x), np.array(u)
        return ControlStep(t=t, x=x, b=b, db_dx=np.zeros(2), db_dt=0.0, lie_f=0.0,
                           lie_g=np.zeros(2), psi=psi, u=u, constraint_active=psi < 0.0)
    steps = [step(0.0, [-0.0, 1e-300], [1e300, -1e300], 1.0, 0.5),
             step(0.1, [0.1 + 0.2, -1e-300], [-0.0, 0.0], -0.0, -1e-300),
             step(0.2, [math.pi, -math.e], [5e-324, 1.7976931348623157e308], 1e-300, -1e300)]
    report = simulate.RunReport(x0=steps[0].x, trajectory=None, steps=steps, min_b=-0.0,
                                tube_violations=0, final_robustness=0.0, satisfied=True)
    write_trajectory_log(tmp_path / "got.csv", report)
    oracle_write_trajectory_log(tmp_path / "want.csv", report)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == 4 and b",-0," in got
    assert [line.rsplit(b",", 1)[1] for line in got.splitlines()[1:]] == [b"0", b"1", b"1"]


def test_read_trajectory_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_trajectory_signal(path)
