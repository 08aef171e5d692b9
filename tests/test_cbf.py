import dataclasses

import numpy as np
import pytest

from tubecbf import cbf
from tubecbf.basis import BernsteinBasis
from tubecbf.cbf import (
    Barrier,
    ControlStep,
    InfeasibleStepError,
    barrier_gradients,
    barrier_value,
    min_norm_input,
    solve_safety_qp,
)
from tubecbf.dynamics import OmniRobot
from tubecbf.tube import SampledTube, Tube

from gen import power_tube
from oracles import oracle_min_norm_qp


def _static_tube(center, radius, t_f=10.0):
    center = np.asarray(center, dtype=float)
    n = len(center)
    return power_tube(np.column_stack([center, np.zeros(n)]), [radius, 0.0], t_f)


def _moving_tube(t_f=6.0, n=2, seed=0):
    rng = np.random.default_rng(seed)
    q_c = rng.uniform(-1.5, 1.5, size=(n, 5))
    q_r = rng.uniform(0.5, 2.0, size=4)
    return Tube(q_c, q_r, BernsteinBasis(5, t_f), BernsteinBasis(4, t_f))


# ---------------------------------------------------------------------------
# barrier values
# ---------------------------------------------------------------------------

def test_barrier_value_levels():
    barrier = Barrier(_static_tube([1.0, 2.0], 2.0))
    c = np.array([1.0, 2.0])
    assert barrier_value(barrier, 0.0, c) == pytest.approx(1.0)
    assert barrier_value(barrier, 3.0, c + [2.0, 0.0]) == pytest.approx(0.0)
    assert barrier_value(barrier, 3.0, c + [4.0, 0.0]) == pytest.approx(-3.0)


def test_barrier_level_set_equivalence():
    barrier = Barrier(_moving_tube())
    rng = np.random.default_rng(1)
    for _ in range(300):
        t = float(rng.uniform(0, 6.0))
        x = rng.uniform(-4, 4, size=2)
        b = barrier_value(barrier, t, x)
        inside = np.linalg.norm(x - barrier.tube.center(t)) <= barrier.tube.radius(t)
        assert (b >= 0) == inside


def test_barrier_horizon_of_a_sampled_tube():
    # Barrier admits a SampledTube, and its horizon is the tube's
    tube = _moving_tube()
    assert Barrier(SampledTube(tube, [0.0, 1.0])).t_f == tube.t_f == 6.0


def test_barrier_requires_positive_radius():
    tube = _static_tube([0.0, 0.0], -1.0)
    with pytest.raises(InfeasibleStepError):
        barrier_value(Barrier(tube), 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_at_center_vanishes():
    barrier = Barrier(_moving_tube())
    t = 2.0
    x = barrier.tube.center(t)
    b, db_dx, db_dt = barrier_gradients(barrier, t, x)
    assert b == 1.0
    assert np.allclose(db_dx, 0.0, atol=1e-12)
    assert db_dt == pytest.approx(0.0, abs=1e-12)


def test_gradient_static_tube_no_time_drift():
    barrier = Barrier(_static_tube([1.0, -1.0], 1.5))
    _, _, db_dt = barrier_gradients(barrier, 4.0, np.array([1.5, -0.5]))
    assert db_dt == pytest.approx(0.0, abs=1e-12)


def test_gradients_match_finite_differences():
    barrier = Barrier(_moving_tube(seed=3))
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(200):
        t = float(rng.uniform(0.1, 5.9))
        x = rng.uniform(-3, 3, size=2)
        b, db_dx, db_dt = barrier_gradients(barrier, t, x)
        # the value is barrier_value's to the bit
        assert b.hex() == barrier_value(barrier, t, x).hex()
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (barrier_value(barrier, t, x + e) - barrier_value(barrier, t, x - e)) / (2 * h)
            assert db_dx[i] == pytest.approx(fd, abs=1e-5)
        fd_t = (barrier_value(barrier, t + h, x) - barrier_value(barrier, t - h, x)) / (2 * h)
        assert db_dt == pytest.approx(fd_t, abs=1e-5)


# ---------------------------------------------------------------------------
# QP closed form
# ---------------------------------------------------------------------------

def test_qp_inactive_when_psi_nonnegative():
    u = min_norm_input([1.0, 0.0], 0.3)
    assert np.array_equal(u, np.zeros(2))
    assert np.array_equal(min_norm_input([0.0, 0.0], 0.0), np.zeros(2))


def test_qp_identity_weight_example():
    # the QP is unweighted: its cost is u.u, the identity metric
    assert min_norm_input([1.0, 0.0], -1.0) == [1.0, 0.0]
    assert min_norm_input([3.0, 4.0], -5.0) == [0.6000000000000001, 0.8]


def test_qp_infeasible_step():
    with pytest.raises(InfeasibleStepError):
        min_norm_input([0.0, 0.0], -0.5)
    # a.a underflows to 0 although a is not 0
    with pytest.raises(InfeasibleStepError):
        min_norm_input([1e-200, 0.0], -0.5)


def test_qp_matches_enumeration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        a = rng.normal(size=m)
        psi = float(rng.normal())
        u = min_norm_input(a.tolist(), psi)
        want = oracle_min_norm_qp(a, psi)
        assert want is not None
        assert np.allclose(u, want, atol=1e-8)
        # constraint holds, with equality when active
        assert float(a @ u) + psi >= -1e-9
        if psi < 0:
            assert abs(float(a @ u) + psi) <= 1e-9


def test_qp_optimality_against_perturbations():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = 3
        a = rng.normal(size=m)
        psi = float(-abs(rng.normal()) - 0.1)
        u = np.array(min_norm_input(a.tolist(), psi))
        cost = float(u @ u)
        for _ in range(20):
            v = u + rng.normal(scale=0.1, size=m)
            if float(v @ v) < cost - 1e-12:
                assert float(a @ v) + psi < -1e-12  # cheaper points are infeasible


# ---------------------------------------------------------------------------
# full QP step
# ---------------------------------------------------------------------------

def test_solve_safety_qp_constraint_residual():
    barrier = Barrier(_moving_tube(seed=7), gain=5.0)
    robot = OmniRobot(2)
    rng = np.random.default_rng(8)
    for _ in range(100):
        t = float(rng.uniform(0, 6.0))
        # start inside the tube so the barrier stays meaningful
        c = barrier.tube.center(t)
        r = barrier.tube.radius(t)
        x = c + rng.uniform(-1, 1, size=2) * r
        step = solve_safety_qp(barrier, robot, t, x)
        # the constraint row a = db_dx G and psi = db_dx f + db_dt + alpha(b),
        # recomputed from the barrier and the model
        b, db_dx, db_dt = barrier_gradients(barrier, t, x)
        a = np.asarray(db_dx) @ np.asarray(robot.input_matrix(x))
        psi = float(np.asarray(db_dx) @ np.asarray(robot.drift(x))) + db_dt + barrier.alpha(b)
        assert step.b == b and step.psi == pytest.approx(psi, abs=1e-12)
        residual = float(a @ np.asarray(step.u)) + psi
        assert residual >= -1e-9
        if step.constraint_active:
            assert abs(residual) <= 1e-9
        else:
            assert np.array_equal(step.u, np.zeros(2))


def test_solve_safety_qp_reads_the_tube_once(monkeypatch):
    # b, its gradient and its time partial come from one read of r(t) and c(t)
    calls = []
    original = cbf._radius_and_center
    monkeypatch.setattr(cbf, "_radius_and_center",
                        lambda *a: calls.append(a) or original(*a))
    barrier = Barrier(_moving_tube(seed=7))
    robot = OmniRobot(2)
    for k, t in enumerate([0.0, 1.5, 6.0], start=1):
        solve_safety_qp(barrier, robot, t, [0.1, -0.2])
        assert len(calls) == k


def test_control_step_holds_only_its_log_row():
    assert [f.name for f in dataclasses.fields(ControlStep)] == [
        "t", "x", "b", "psi", "u", "constraint_active"]
