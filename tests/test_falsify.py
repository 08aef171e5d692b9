"""Falsification of freshly synthesized certified tubes in continuous time.

The certificate's cover scores only trajectories c(t) + lam r(t) s(theta)
whose direction is fixed over time, but a certified tube promises the task
for every trajectory that stays inside its ball.  This searches, on a fine
time grid, for a trajectory inside the tube that violates the task: random
fixed directions, the leaf-adversarial directions (for each predicate, at
each time, the boundary point that moves it most, one way or the other), and
random switches between those, blended across the ball, and then a local
descent from the worst of them over per-time directions.  It uses neither the
monitor's Lipschitz bound nor the pruned re-check.  The library monitor ranks
the trajectories, and the oracle confirms the worst ones and the descent's
end point.

Each scenario's tube is the one `solve_sop` returns for its config, and must
be certified.  Against 200 fixed directions, the leaf-adversarial ones lower
the minimum on omni_reach_avoid (+0.80 against +1.17), stlcg_1, stlcg_2,
stlfrag_1 and stlfrag_2, and not on diffdrive_sequential.  The descent lowers
diffdrive_sequential's minimum from +0.53 to +0.47 and leaves the other five
where the families put them; every tube stays above zero.
"""

from pathlib import Path

import numpy as np
import pytest

from tubecbf.config import load_config
from tubecbf.stl import AffineHalfspace, BallNorm2, BoxInfNorm, iter_predicates, robustness_batch
from tubecbf.synthesis import solve_sop

from oracles import oracle_robustness

ROOT = Path(__file__).resolve().parents[1]
POINTS = 601
CONFIRMED = 10
DESCENT_ROUNDS, DESCENT_TRIALS = 30, 32


def _leaf_directions(formula, center: np.ndarray) -> list:
    """Unit directions (T, n) that move each predicate leaf most from the
    center (T, n): 'away' lowers the predicate, 'toward' its opposite."""
    dirs = []
    for fn in dict.fromkeys(p.fn for p in iter_predicates(formula)):
        if isinstance(fn, AffineHalfspace):
            w = np.asarray(fn.weights) / np.linalg.norm(fn.weights)
            away = np.broadcast_to(-w, center.shape)
        else:
            offset = center - np.asarray(fn.center)
            if isinstance(fn, BoxInfNorm):
                # along the axis of the largest |c - p| component
                axis = np.argmax(np.abs(offset), axis=1)
                away = np.zeros_like(center)
                sign = np.sign(offset[np.arange(len(center)), axis])
                away[np.arange(len(center)), axis] = np.where(sign == 0.0, 1.0, sign)
            else:
                assert isinstance(fn, BallNorm2)
                norm = np.linalg.norm(offset, axis=1, keepdims=True)
                away = np.where(norm > 0.0, offset / np.where(norm > 0.0, norm, 1.0),
                                np.eye(center.shape[1])[0])
        dirs += [away, -away]
    return dirs


def _switching(rng, dirs: list, times: np.ndarray, count: int) -> np.ndarray:
    """count direction paths (count, T, n) that switch between the given
    directions at random times, each switch a linear blend over a random
    ramp; a blend of two unit vectors stays inside the ball."""
    out = np.empty((count,) + dirs[0].shape)
    span = times[-1] - times[0]
    for k in range(count):
        switches = np.sort(rng.uniform(times[0], times[-1], size=rng.integers(1, 6)))
        picks = rng.integers(len(dirs), size=len(switches) + 1)
        path = dirs[picks[0]].copy()
        for s, pick in zip(switches, picks[1:]):
            ramp = rng.uniform(0.01, 0.1) * span
            a = np.clip((times - s) / ramp, 0.0, 1.0)[:, None]
            path = (1.0 - a) * path + a * dirs[pick]
        out[k] = path
    return out


def _descend(rho_of, path: np.ndarray, rng) -> tuple:
    """Local descent of rho from the direction path (T, n).  Each round bends
    copies of the path towards random vectors over random windows of time,
    with a tent-shaped weight, pulls every row back into the unit ball, and
    keeps the copy of lowest rho if it lowers rho.  Returns (path, rho)."""
    length, n = path.shape
    best = rho_of(path[None])[0]
    for _ in range(DESCENT_ROUNDS):
        mid = rng.integers(length, size=DESCENT_TRIALS)
        width = rng.integers(2, length // 8, size=DESCENT_TRIALS)
        tent = np.clip(1.0 - np.abs(np.arange(length) - mid[:, None]) / width[:, None],
                       0.0, None)
        v = rng.normal(size=(DESCENT_TRIALS, n))
        v *= rng.uniform(size=(DESCENT_TRIALS, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        trials = path + tent[:, :, None] * v[:, None, :]
        trials /= np.maximum(1.0, np.linalg.norm(trials, axis=2, keepdims=True))
        rho = rho_of(trials)
        k = int(np.argmin(rho))
        if rho[k] < best:
            best, path = rho[k], trials[k]
    return path, best


@pytest.mark.parametrize("name", ["omni_reach_avoid", "stlcg_1", "stlcg_2",
                                  "diffdrive_sequential", "stlfrag_1", "stlfrag_2"])
def test_certified_tube_holds_for_time_varying_directions(name):
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    formula = config.build_formula()
    result = solve_sop(config.instance(), config.solver_settings())
    assert result.certificate_ok, (name, result.margin)
    tube = result.tube
    times = np.linspace(0.0, tube.t_f, POINTS)
    center = (tube.center_coeffs @ tube.center_basis.values(times)).T       # (T, n)
    radius = (tube.radius_coeffs @ tube.radius_basis.values(times))[:, None]  # (T, 1)
    n = tube.dimension
    rng = np.random.default_rng(sum(map(ord, name)))

    # random fixed directions, anywhere in the ball
    s = rng.normal(size=(200, n))
    fixed = (s / np.linalg.norm(s, axis=1, keepdims=True)
             * rng.uniform(0.0, 1.0, size=(200, 1)) ** (1.0 / n))[:, None, :]
    leaves = _leaf_directions(formula, center)
    paths = np.concatenate([np.broadcast_to(fixed, (200,) + center.shape),
                            np.stack(leaves), _switching(rng, leaves, times, 300)])
    assert np.all(np.linalg.norm(paths, axis=2) <= 1.0 + 1e-12)

    def rho_of(directions):
        return robustness_batch(formula, times, center + radius * directions)

    rho = rho_of(paths)
    for k in np.argsort(rho, kind="stable")[:CONFIRMED]:
        want = oracle_robustness(formula, times, center + radius * paths[k])
        assert rho[k] == pytest.approx(want, abs=1e-9)
        assert want > 0.0, (name, int(k), want)

    worst = int(np.argmin(rho))
    path, low = _descend(rho_of, paths[worst], rng)
    assert np.all(np.linalg.norm(path, axis=1) <= 1.0 + 1e-12)
    assert low <= rho[worst]
    want = oracle_robustness(formula, times, center + radius * path)
    assert low == pytest.approx(want, abs=1e-9)
    assert want > 0.0, (name, "descent", want)
