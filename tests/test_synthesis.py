import builtins
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from tubecbf import load_tube, synthesis
from tubecbf.basis import BernsteinBasis, combine
from tubecbf.config import load_config
from tubecbf.stl import (
    AffineHalfspace,
    BallNorm2,
    BoxInfNorm,
    horizon,
    parse,
    robustness_batch,
)
from tubecbf.synthesis import (
    Cover,
    CoverError,
    CoverSpec,
    SOPInstance,
    SolverSettings,
    SynthesisResult,
    axis_midpoints,
    build_cover,
    pattern_search,
    recheck_constraints,
    solve_sop,
    sop_objective,
    warm_start,
)
from tubecbf.synthesis import _ObjectiveGrid
from tubecbf.tube import (LipschitzInfo, combine_constants, sphere_map_many, tube_lipschitz,
                           tube_to_record)

from gen import point_pairs, random_formula
from oracles import oracle_pattern_search


ROOT = Path(__file__).resolve().parent.parent
BIG_BOX = {"B": BoxInfNorm((0.0, 0.0), 10.0)}


def _instance(formula_text, table, t_f, bounds, *, cover=None, start=None,
              min_radius=0.25, radius_max=None, center_count=4, radius_count=4):
    """A 2-D instance; cover defaults to a small one of its own t_f."""
    f = parse(formula_text, table)
    return SOPInstance(f, n=2, t_f=t_f, state_bounds=bounds,
                       cover=cover if cover is not None else CoverSpec.from_counts([6], 2, 4, t_f),
                       min_radius=min_radius,
                       center_count=center_count, radius_count=radius_count,
                       radius_max=radius_max, start_center=start)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_axis_midpoints_one_dimensional_example():
    assert np.allclose(axis_midpoints(0.0, 1.0, 2), [0.25, 0.75])
    pts = axis_midpoints(0.0, 1.0, 2)
    probe = np.linspace(0, 1, 1001)
    dist = np.min(np.abs(probe[:, None] - pts[None, :]), axis=1)
    assert dist.max() <= 0.25 + 1e-12


def test_cover_radius_must_be_positive():
    # a nan or inf radius once gave an instance whose certificate slack L*eps
    # was nan or inf, so its solve ended uncertified without an error
    for radius in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(CoverError, match=f"radius must be positive and finite, got {radius}"):
            CoverSpec.for_radius(radius, 2, 1.0)
        with pytest.raises(CoverError, match=f"radius must be positive and finite, got {radius}"):
            CoverSpec(radius=radius, theta_counts=(10,), lambda_count=3, tau_count=12, t_f=1.0)


def test_cover_sample_budget():
    # a spec only counts samples; the instance and the solver settings, whose
    # covers a solve scores in full, refuse one over the budget
    bounds = [[-5, 5], [-5, 5]]
    huge = CoverSpec.for_radius(1e-4, 2, 10.0)
    assert huge.sample_count > 4 * 10**13
    edge = CoverSpec.from_counts([500], 100, 1000, 10.0)
    over = CoverSpec.from_counts([500], 100, 1001, 10.0)
    assert edge.sample_count == synthesis.COVER_SAMPLE_BUDGET < over.sample_count
    for spec in (huge, over):
        with pytest.raises(CoverError, match=f"^cover needs {spec.sample_count} samples"):
            _instance("G[0,2] B", BIG_BOX, 10.0, bounds, cover=spec)
        with pytest.raises(CoverError, match=f"^search_cover needs {spec.sample_count}"):
            SolverSettings(search_cover=spec)
    _instance("G[0,2] B", BIG_BOX, 10.0, bounds, cover=edge)
    SolverSettings(search_cover=edge)
    # the refined covers recheck_constraints builds stay outside the budget
    assert edge.refined(10).sample_count == 1000 * synthesis.COVER_SAMPLE_BUDGET


def test_objective_rejects_cover_of_another_dimension():
    # a 3-D cover's directions must not be reshaped into 2-D trajectories
    inst = _instance("G[0,2] B", BIG_BOX, 2.0, [[-5, 5], [-5, 5]])
    cover = build_cover(CoverSpec.from_counts([4, 3], 2, 4, 2.0))
    with pytest.raises(ValueError, match="dimension"):
        sop_objective(inst, np.zeros((2, 4)), np.full(4, 0.5), cover=cover)


def test_cover_invariant_validation():
    # 1 sample per axis cannot cover a tight radius
    with pytest.raises(CoverError):
        CoverSpec(radius=0.1, theta_counts=(1,), lambda_count=1, tau_count=1, t_f=1.0)


def test_cover_counts_and_random_point_soundness():
    spec = CoverSpec.for_radius(0.5, 2, 1.0)
    cover = build_cover(spec)
    assert spec.sample_count == len(cover.thetas) * len(cover.lams) * len(cover.taus)

    rng = np.random.default_rng(0)
    w = np.column_stack([
        rng.uniform(0, 2 * math.pi, size=100_000),
        rng.uniform(0, 1, size=100_000),
        rng.uniform(0, 1.0, size=100_000),
    ])
    axes = [cover.thetas[:, 0], cover.lams, cover.taus]
    d2 = np.zeros(len(w))
    for j, grid in enumerate(axes):
        gaps = np.min(np.abs(w[:, j][:, None] - np.asarray(grid)[None, :]), axis=1)
        d2 += gaps**2
    assert np.sqrt(d2).max() <= spec.radius + 1e-12


def test_cover_3d_angles():
    spec = CoverSpec.for_radius(0.8, 3, 2.0)
    cover = build_cover(spec)
    assert cover.thetas.shape[1] == 2
    assert cover.directions.shape[1] == 3
    assert np.max(np.abs(np.linalg.norm(cover.directions, axis=1) - 1.0)) <= 1e-12
    # first angle spans [0, pi], second [0, 2*pi]
    assert cover.thetas[:, 0].max() < math.pi
    assert cover.thetas[:, 1].max() > math.pi


def test_cover_refined_shrinks_radius():
    spec = CoverSpec.for_radius(0.5, 2, 1.0)
    fine = spec.refined(10)
    assert fine.sample_count == spec.sample_count * 1000
    assert fine.radius <= spec.radius / 9.9


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_radius_constraint_active_at_equality():
    # a degree-0 radius is its one control point exactly; higher degrees sum
    # the control points' weights to 1 only up to rounding
    inst = _instance("G[0,2] B", BIG_BOX, 2.0, [[-5, 5], [-5, 5]],
                     cover=CoverSpec.for_radius(0.4, 2, 2.0), radius_count=1)
    q_c = np.zeros((2, 4))
    q_r = np.array([0.25])  # radius identically at the floor
    eta, worst = sop_objective(inst, q_c, q_r)
    assert eta == 0.0
    assert worst.startswith("radius@")


def test_objective_detects_planted_violation():
    table = {"B": BoxInfNorm((0.0, 0.0), 10.0), "O": BoxInfNorm((2.0, 0.0), 1.0)}
    inst = _instance("G[0,2] B & G[0,2] !O", table, 2.0, [[-5, 5], [-5, 5]],
                     cover=CoverSpec.for_radius(0.4, 2, 2.0))
    q_c = np.zeros((2, 4))
    q_c[0] = 2.0  # park the tube inside the obstacle
    q_r = np.full(4, 0.5)
    eta, worst = sop_objective(inst, q_c, q_r)
    assert eta >= 0.5  # at least the center's violation depth
    assert worst.startswith("robustness@")


def test_objective_affine_in_radius_floor():
    cover = CoverSpec.for_radius(0.4, 2, 2.0)
    delta = 0.3
    inst1 = _instance("G[0,2] B", BIG_BOX, 2.0, [[-5, 5], [-5, 5]], cover=cover)
    inst2 = _instance("G[0,2] B", BIG_BOX, 2.0, [[-5, 5], [-5, 5]], cover=cover,
                      min_radius=0.25 + delta)
    q_c = np.zeros((2, 4))
    q_r = np.full(4, 0.25)
    eta1, _ = sop_objective(inst1, q_c, q_r)
    eta2, _ = sop_objective(inst2, q_c, q_r)
    assert eta2 - eta1 == pytest.approx(delta, abs=1e-12)


@pytest.mark.parametrize("formula", ["F[0,3] A & G[0,4] !O & G[0,4] H", "H U[0.5,3] A"],
                         ids=lambda text: f"{text}-paper")
def test_objective_batch_matches_single_evaluations(formula, monkeypatch):
    table = {"A": BoxInfNorm((1.0, 1.0), 0.8), "O": BallNorm2((-1.0, 0.5), 0.6),
             "H": AffineHalfspace((0.3, -1.0), 2.5)}
    inst = SOPInstance(parse(formula, table), n=2, t_f=4.0,
                       state_bounds=[[-3, 3], [-3, 3]],
                       cover=CoverSpec.from_counts([12], 3, 17, 4.0))
    grid = _ObjectiveGrid(inst, build_cover(inst.cover))
    rng = np.random.default_rng(3)
    m = 6
    q_c = rng.uniform(inst.center_box[..., 0], inst.center_box[..., 1], size=(m, 2, 5))
    q_r = rng.uniform(inst.radius_box[:, 0], inst.radius_box[:, 1], size=(m, 4))
    # the batch's curves are each candidate's own curve sums, bit for bit
    center, radii = grid._centers(q_c), grid._radii(q_r)
    for i in range(m):
        assert (combine(q_c[i], grid.p_center).tobytes()
                == np.ascontiguousarray(center[..., i]).tobytes())
        assert (combine(q_r[i], grid.p_radius).tobytes()
                == np.ascontiguousarray(radii[:, i]).tobytes())
    single = [grid.evaluate(q_c[i:i + 1], q_r[i:i + 1]) for i in range(m)]
    eta_1 = np.concatenate([eta for eta, _ in single])
    idx_1 = [int(idx[0]) for _, idx in single]
    assert len(set(idx_1)) > 1
    # blocks that put all six candidates in one monitor call, two candidates
    # per call, ten trajectories of one candidate per call, and one
    # trajectory per call
    t, k = len(grid.times), grid.trajectory_count
    for block, calls in ((m * k * t, 1), (2 * k * t, 3), (10 * t, m * math.ceil(k / 10)),
                         (t, m * k)):
        grid._BLOCK_FLOATS = block
        shapes = _monitor_calls(monkeypatch)
        eta, idx = grid.evaluate(q_c, q_r)
        assert len(shapes) == calls
        assert eta.tobytes() == eta_1.tobytes()
        assert idx.tolist() == idx_1


def _monitor_calls(monkeypatch) -> list:
    """Record the (K, T, n) shape of every monitor call the objective makes."""
    shapes = []

    def recording(f, times, states, *args, **kwargs):
        shapes.append(states.shape)
        return robustness_batch(f, times, states, *args, **kwargs)

    monkeypatch.setattr(synthesis, "robustness_batch", recording)
    return shapes


def _reference(name):
    """Shipped config's instance and its committed seed-0 reference tube."""
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    return config, load_tube(ROOT / "perfbench" / "ref" / f"{name}_tube.json")


def test_objective_monitor_calls_stay_within_the_block(monkeypatch):
    block = _ObjectiveGrid._BLOCK_FLOATS
    # a re-check sends full blocks: each holds as many trajectories as fit
    for name in ("omni_reach_avoid", "stlcg_2"):
        config, tube = _reference(name)
        shapes = _monitor_calls(monkeypatch)
        recheck_constraints(config.instance(), tube, factor=3)
        k, t, n = shapes[0]
        assert len(shapes) > 1 and k == block // t
        assert all(k * t <= block and n == config.dimension for k, t, n in shapes)
    # the full evaluation of two candidates on the search cover fits one
    # call; the finer certificate cover is split into blocks
    for name in ("stlcg_1", "quadrotor_cycle"):
        config, tube = _reference(name)
        instance = config.instance()
        q_c = np.stack([tube.center_coeffs, tube.center_coeffs])
        q_r = np.stack([tube.radius_coeffs, tube.radius_coeffs + 0.01])
        search = config.solver_settings().search_cover
        shapes = _monitor_calls(monkeypatch)
        _ObjectiveGrid(instance, build_cover(search)).evaluate(q_c, q_r)
        assert len(shapes) == 1 and shapes[0][0] * shapes[0][1] <= block
        shapes = _monitor_calls(monkeypatch)
        _ObjectiveGrid(instance, build_cover(instance.cover)).evaluate(q_c, q_r)
        assert len(shapes) > 1 and all(k * t <= block for k, t, _ in shapes)


def test_dense_recheck_values_and_memory():
    # the 10x re-check of two certified reference tubes gives the values the
    # monitor gave on one multi-megabyte block per call, bit for bit; it
    # holds no array over the refined cover (the 36,800 scaled directions of
    # omni_reach_avoid alone take 0.56 MiB), so its traced heap peak stays
    # under 1 MiB
    expected = {"omni_reach_avoid": "-0x1.e666666666662p-1",
                "stlcg_2": "-0x1.3333333333330p-1"}
    for name, want in expected.items():
        config, tube = _reference(name)
        instance = config.instance()
        tracemalloc.start()
        try:
            value = recheck_constraints(instance, tube, factor=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value.hex() == want
        assert peak < 2**20, (name, peak)


REFERENCE = sorted(path.stem[:-len("_tube")]
                   for path in (ROOT / "perfbench" / "ref").glob("*_tube.json"))


def _exhaustive_and_pruned(instance, q_c, q_r, factor):
    """Value of the full refined cover and of its pruned re-check."""
    cover = build_cover(instance.cover.refined(factor))
    eta, _ = _ObjectiveGrid(instance, cover).evaluate(q_c[None], q_r[None])
    return float(eta[0]), _ObjectiveGrid(instance, cover).cell_max(q_c, q_r, factor)


@pytest.mark.parametrize("name", REFERENCE)
def test_pruned_recheck_matches_exhaustive_on_reference_tubes(name):
    config, tube = _reference(name)
    instance = config.instance()
    cover = build_cover(instance.cover.refined(3))
    want, _ = sop_objective(instance, tube.center_coeffs, tube.radius_coeffs, cover=cover)
    assert recheck_constraints(instance, tube, factor=3).hex() == want.hex()


def test_pruned_recheck_refines_a_cell_whose_anchor_misses_an_obstacle(monkeypatch):
    # a still tube of radius 1 about the origin; in the 3x cover, a small
    # ball O sits on a non-anchor trajectory (lambda index 5, theta index 0)
    # and a smaller one P on the anchor of the opposite cell (lambda index 4,
    # theta index 13), which sets the running max at 0.02.  The anchor of O's
    # cell clears O by far more than that, so only the cell's Lipschitz
    # bound sends it to be refined, where the max 0.05 lies.
    cover = CoverSpec.from_counts([8], 2, 4, 2.0)
    fine = build_cover(cover.refined(3))
    table = {"O": BallNorm2(tuple(fine.lams[5] * fine.directions[0]), 0.05),
             "P": BallNorm2(tuple(fine.lams[4] * fine.directions[13]), 0.02)}
    inst = SOPInstance(parse("G[0,2] !O & G[0,2] !P", table), n=2, t_f=2.0,
                       state_bounds=[[-5, 5], [-5, 5]], radius_max=2.0, cover=cover)
    q_c, q_r = np.zeros((2, 5)), np.ones(4)
    eta, idx = _ObjectiveGrid(inst, fine).evaluate(q_c[None], q_r[None])
    assert eta[0] == pytest.approx(0.05) and idx[0] == fine.spec.tau_count + 5 * 24
    shapes = _monitor_calls(monkeypatch)
    pruned = _ObjectiveGrid(inst, fine).cell_max(q_c, q_r, 3)
    assert pruned == float(eta[0])
    # the 16 anchors, then some of the 216 trajectories, not all
    assert 16 < sum(k for k, _, _ in shapes) < len(fine.lams) * len(fine.directions)


def test_pruned_recheck_of_an_infinite_margin():
    # under !true every trajectory scores +inf, so every cell bound is +inf
    # and the anchors alone already hold the max
    inst = SOPInstance(parse("!true"), n=2, t_f=2.0, state_bounds=[[-5, 5], [-5, 5]],
                       cover=CoverSpec.from_counts([4], 2, 3, 2.0))
    exhaustive, pruned = _exhaustive_and_pruned(inst, np.zeros((2, 5)), np.ones(4), 3)
    assert exhaustive == math.inf
    assert pruned == exhaustive


def test_pruned_recheck_rounding_allowance_at_large_coordinates(monkeypatch):
    # far from the origin, with a radius of 1.8 ulps of the coordinates, a
    # state's rounding moves its robustness by more than the Lipschitz bound
    # of its cell; without the rounding allowance the pruned re-check misses
    # the max, with it the value is exhaustive's
    c = np.array([1e6, -1e6])
    r = 1.8 * np.spacing(1e6)
    inst = SOPInstance(parse("G[0.13,1.71] !O", {"O": BallNorm2(tuple(c), 1.0)}), n=2,
                       t_f=2.0, state_bounds=np.column_stack([c - 5, c + 5]), min_radius=r / 4, radius_max=2 * r,
                       cover=CoverSpec.from_counts([6], 2, 4, 2.0))
    q_c = c[:, None] + np.array([[1.1, 1.2, 0.9, 1.0, 0.9], [0.0, 0.1, -0.3, -0.3, 0.0]])
    q_r = np.full(4, r)
    exhaustive, pruned = _exhaustive_and_pruned(inst, q_c, q_r, 3)
    assert pruned == exhaustive
    monkeypatch.setattr(_ObjectiveGrid, "_rounding_tol", lambda self, center, radii: 0.0)
    assert _ObjectiveGrid(inst, build_cover(inst.cover.refined(3))).cell_max(
        q_c, q_r, 3) < exhaustive


def test_pruned_recheck_matches_exhaustive_on_random_formulas():
    # random formulas (Until, Or, true, halfspaces, boxes and balls) about
    # random tubes: the pruned re-check's bits are sop_objective's on the
    # refined cover, whether or not a cell is refined
    rng = np.random.default_rng(35)
    for case in range(200):
        n = int(rng.integers(2, 4))
        formula = random_formula(rng, 3, n, max_window=2.0)
        t_f = max(horizon(formula), 1.0)
        inst = SOPInstance(formula, n=n, t_f=t_f, state_bounds=[[-5, 5]] * n,
                           cover=CoverSpec.from_counts([4, 3][:n - 1], 2, 3, t_f))
        q_c = rng.uniform(-2, 2, size=(n, inst.center_count))
        q_r = rng.uniform(0.05, 1.5, size=inst.radius_count)
        want, _ = sop_objective(inst, q_c, q_r, cover=build_cover(inst.cover.refined(3)))
        got = recheck_constraints(inst, inst.make_tube(q_c, q_r), factor=3)
        assert got.hex() == want.hex(), (case, formula)


def test_omni_dense_recheck_scores_only_the_anchors(monkeypatch):
    # at 10x, every robustness term of the omni_reach_avoid reference tube
    # is provably below its max radius term, so only the 368 anchors (one per
    # cell of the 16,192-sample cover, 46 directions by 8 radial fractions)
    # of the 36,800 trajectories are scored
    config, tube = _reference("omni_reach_avoid")
    shapes = _monitor_calls(monkeypatch)
    assert recheck_constraints(config.instance(), tube, factor=10).hex() == \
        "-0x1.e666666666662p-1"
    assert sum(k for k, _, _ in shapes) <= 368


SHIPPED = sorted(path.stem for path in (ROOT / "configs").glob("*.yaml"))


def _neg_rho(grid, center, radii, dirs):
    """-rho of every candidate and trajectory, assembled from _rho's blocks."""
    out = np.empty((radii.shape[1], dirs.shape[1]))
    for cs, ks, rho in grid._rho(center, radii, dirs):
        out[cs, ks] = -rho
    return out


@pytest.mark.parametrize("name", SHIPPED)
def test_bounded_screen_matches_full_batch(name):
    # on each shipped search grid, -rho on a subset of the trajectories is
    # byte-identical to those columns of the full batch.  A bounded evaluate
    # returns a prefix of the candidates that ends at the first one whose
    # margin (plus slack) is below the bound, or all of them: that last value
    # is the exact margin with its argmax, and each earlier one is at or
    # above the bound and never above the margin: the max of the radius
    # terms and the witness columns where that reaches the bound, else the
    # margin itself
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    instance = config.instance()
    spec = config.solver_settings().search_cover or instance.cover
    grid = _ObjectiveGrid(instance, build_cover(spec))
    m, k = 12, grid.trajectory_count
    rng = np.random.default_rng(5)
    q_c0, q_r0 = warm_start(instance)
    lo, hi = instance.center_box[..., 0], instance.center_box[..., 1]
    q_c = np.clip(q_c0 + rng.normal(scale=0.2, size=(m,) + q_c0.shape) * (hi - lo), lo, hi)
    # radii across the whole box, so that trajectories bind, not the floor
    q_r = rng.uniform(instance.radius_box[:, 0], instance.radius_box[:, 1], size=(m,) + q_r0.shape)
    radius_max = (instance.min_radius - grid._radii(q_r)[1:-1].T).max(axis=1)
    # the candidate whose trajectories bind most, its margin farthest above
    # its radius terms, goes first, so that every prefix holds it
    eta, _ = grid.evaluate(q_c, q_r)
    first = int(np.argmax(eta - radius_max))
    order = np.r_[first, np.delete(np.arange(m), first)]
    q_c, q_r, radius_max = q_c[order], q_r[order], radius_max[order]
    center, radii = grid._centers(q_c), grid._radii(q_r)
    neg_rho = _neg_rho(grid, center, radii, grid.scaled_dirs)
    eta, idx = grid.evaluate(q_c, q_r)
    # random trajectories plus the argmax ones of the candidates, as the
    # witnesses a search collects
    argmax = idx[idx >= grid.tau_count] - grid.tau_count
    subset = np.union1d(rng.choice(k, size=max(1, k // 5), replace=False), argmax)
    part = _neg_rho(grid, center, radii, grid.scaled_dirs[:, subset])
    assert part.tobytes() == neg_rho[:, subset].tobytes()

    # a block one trajectory short of a candidate never lets evaluate skip the
    # witness screen, and splits every candidate's trajectories over calls
    grid._BLOCK_FLOATS = len(grid.times) * (k - 1)
    # the second bound splits the first candidate between its radius terms
    # and its margin, so a witness column rejects it; no margin is below the
    # third, so the prefix holds every candidate
    exact = witness_rejects = 0
    lengths = set()
    for slack in (None, rng.uniform(0.0, 0.5, size=m)):
        shift = np.zeros(m) if slack is None else slack
        margin = eta + shift
        for bound in (np.median(margin), (radius_max[0] + eta[0]) / 2 + shift[0], margin.min()):
            grid.witnesses = set(subset.tolist())
            values, screened_idx = grid.evaluate(q_c, q_r, float(bound), slack)
            below = np.flatnonzero(margin < bound)
            earlier = below[0] if len(below) else m
            cut = earlier + 1 if len(below) else m
            assert len(values) == len(screened_idx) == cut
            lengths.add(cut)
            if len(below):
                assert values[-1] == margin[earlier] and screened_idx[-1] == idx[earlier]
            for i, v in enumerate(values[:earlier]):
                lower = radius_max[i] + shift[i]
                if lower < bound:
                    lower = max(radius_max[i], neg_rho[i, subset].max()) + shift[i]
                # a candidate the screen leaves below the bound is evaluated;
                # one it stops has no argmax
                expected = margin[i] if lower < bound else lower
                assert bound <= v == expected <= margin[i]
                assert screened_idx[i] == (idx[i] if lower < bound else -1)
                witness_rejects += radius_max[i] + shift[i] < bound <= lower
            exact += values[-1] < bound
    assert exact > 0 and witness_rejects > 0
    assert m in lengths and min(lengths) < m
    # with every trajectory a witness, the screen of a candidate below the
    # bound leaves no trajectory to evaluate, and is its margin
    grid.witnesses = set(range(k))
    values = np.concatenate([grid.evaluate(q_c[i:i + 1], q_r[i:i + 1], float(eta.max()) + 1.0)[0]
                             for i in range(m)])
    assert values.tobytes() == eta.tobytes()


@pytest.mark.parametrize("name", ["stlcg_1", "diffdrive_sequential", "quadrotor_cycle"])
def test_solve_keeps_evals_with_fewer_monitor_calls(name, monkeypatch):
    # the solve consumes the same trials as a one-trial-per-call poll, but
    # screens them in sweeps and scores a sweep only up to its accepted
    # trial.  It makes 281, 164 and 135 monitor calls; without the witness
    # screen it makes 343, 241 and 199, so each ceiling catches its loss
    evals, calls = {"stlcg_1": (1400, 310), "diffdrive_sequential": (852, 200),
                    "quadrotor_cycle": (1624, 165)}[name]
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    shapes = _monitor_calls(monkeypatch)
    result = solve_sop(config.instance(), config.solver_settings())
    assert result.diagnostics["objective_evals"] == evals
    assert len(shapes) <= calls


@pytest.mark.parametrize("name, tube_bounds", [("stlcg_1", 2411), ("quadrotor_cycle", 826)])
def test_solve_reuses_the_instance_bases_and_robustness_constant(name, tube_bounds,
                                                                 monkeypatch):
    # the instance derives its bases and the formula's constant once, so a
    # solve constructs no BernsteinBasis and never re-derives l_rho; it still
    # bounds one tube per certificate-polish trial plus the result's, but the
    # trials of a sweep in one batched pass, and the result's in a pass of
    # its own
    passes = {"stlcg_1": 128, "quadrotor_cycle": 26}[name]
    config = load_config(ROOT / "configs" / f"{name}.yaml")
    instance = config.instance()
    calls, pass_sizes = Counter(), []
    for attr in ("BernsteinBasis", "robustness_lipschitz", "tube_lipschitz"):
        def counting(*args, _attr=attr, _original=getattr(synthesis, attr), **kwargs):
            calls[_attr] += 1
            if _attr == "tube_lipschitz":
                pass_sizes.append(len(args[0]))
            return _original(*args, **kwargs)
        monkeypatch.setattr(synthesis, attr, counting)
    solve_sop(instance, config.solver_settings())
    assert calls["BernsteinBasis"] == 0
    assert calls["robustness_lipschitz"] == 0
    assert len(pass_sizes) == passes and pass_sizes[-1] == 1
    assert sum(pass_sizes) == tube_bounds


def test_stlcg_1_solve_does_not_import_numpy_ma():
    # numpy.ma costs a solve process about 1 MB of resident memory, and
    # np.setdiff1d imports it on its first call
    config = ROOT / "configs" / "stlcg_1.yaml"
    code = ("import sys\n"
            "from tubecbf.config import load_config\n"
            "from tubecbf.synthesis import solve_sop\n"
            f"config = load_config({str(config)!r})\n"
            "solve_sop(config.instance(), config.solver_settings())\n"
            "print('numpy.ma' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# pattern search
# ---------------------------------------------------------------------------

def _quantized_bowl(rng, d):
    """A quadratic bowl rounded to steps of 1/8, so that ties, which reject a
    trial, are common."""
    a = rng.uniform(0.5, 3.0, size=d).tolist()
    c = rng.uniform(-1.0, 1.0, size=d).tolist()
    return lambda x: math.floor(8 * sum(ai * (xi - ci) ** 2
                                        for ai, xi, ci in zip(a, x, c))) / 8


def _batched(f, x0, lb, ub, rng=None, prefix=False, **kw):
    """pattern_search on f, with the log of every batch it sent and its values.

    With rng, a value at or above the bound is replaced by a random lower
    bound of it that is still >= bound (often the bound itself, a tie), as
    the contract lets func return.  With prefix, func returns the values only
    up to the first one below the bound, as the contract also lets it."""
    log = []

    def func(points, bound=math.inf):
        values = []
        for p in points:
            v = f(p.tolist())
            if rng is not None and v >= bound:
                v = float(rng.choice([bound, v, rng.uniform(bound, v)]))
            values.append(v)
            if prefix and v < bound:
                break
        values = np.array(values)
        log.append((points.copy(), values))
        return values

    return pattern_search(func, np.asarray(x0, dtype=float), np.asarray(lb, dtype=float),
                          np.asarray(ub, dtype=float), **kw), log


def _sweep(x, lb, ub, cur, first):
    """The trials of a sequential poll's sweep from coordinate first at x,
    + before -, without collapsed axes and trials that clip onto x[j]."""
    trials = []
    for j in range(first, len(x)):
        if lb[j] == ub[j]:
            continue
        for sgn in (1.0, -1.0):
            t = min(max(x[j] + sgn * cur * (ub[j] - lb[j]), lb[j]), ub[j])
            if t != x[j]:
                trials.append(x[:j] + [t] + x[j + 1:])
    return trials


def _consumed(log, lb, ub, step, budget):
    """The logged points in the order a one-trial-per-call poll consumes
    them, and the accepted ones: a batch ends at its first strict improvement
    on the best value so far.  Checks that each batch is a suffix of one
    sweep at the incumbent, cut to the budget left."""
    lb, ub = lb.tolist(), ub.tolist()
    (x0,), (best,) = log[0]
    x = x0.tolist()
    points, accepted = [x], []
    steps = [step / 2 ** k for k in range(12)]
    for batch, values in log[1:]:
        batch = batch.tolist()
        assert any(batch == sweep[:len(batch)] and len(batch) in (len(sweep), budget - len(points))
                   for cur in steps for first in range(len(x))
                   for sweep in [_sweep(x, lb, ub, cur, first)])
        for p, v in zip(batch, values):
            points.append(p)
            if v < best:
                best, x = v, p
                accepted.append(p)
                break
    return points, accepted


def test_pattern_search_matches_sequential_oracle():
    rng = np.random.default_rng(11)
    target_stops = 0
    multi_sweeps = 0
    cut_sweeps = 0
    for case in range(600):
        d = int(rng.integers(1, 5))
        lb = rng.uniform(-2.0, 0.0, size=d)
        ub = lb + rng.uniform(0.5, 3.0, size=d)
        collapsed = rng.random(d) < 0.2
        ub[collapsed] = lb[collapsed]
        x0 = rng.uniform(lb, ub)
        # coordinates started on a bound clip their first trial onto x0
        on_bound = rng.random(d) < 0.3
        x0[on_bound] = np.where(rng.random(d) < 0.5, lb, ub)[on_bound]
        f = _quantized_bowl(rng, d)
        kw = dict(step=float(rng.choice([0.25, 0.5, 1.0])), min_step=1e-2,
                  budget=int(rng.integers(1, 40)),
                  target=float(rng.uniform(0.0, 1.0)) if rng.random() < 0.4 else None)
        polled = []

        def one(x):
            polled.append(list(x))
            return f(x)

        x_ref, f_ref, evals_ref, accepted_ref = oracle_pattern_search(one, x0, lb, ub, **kw)
        # even cases get exact values, odd ones random lower bounds
        (x, fx, evals), log = _batched(f, x0, lb, ub, rng=rng if case % 2 else None, **kw)
        points, accepted = _consumed(log, lb, ub, kw["step"], kw["budget"])
        assert (x.tolist(), fx, evals) == (x_ref, f_ref, evals_ref)
        assert points == polled
        assert accepted == accepted_ref
        # a func that returns each sweep only up to its first value below the
        # bound takes the same path and count
        (x_p, fx_p, evals_p), log_p = _batched(f, x0, lb, ub, prefix=True, **kw)
        assert (x_p.tolist(), fx_p, evals_p) == (x.tolist(), fx, evals)
        assert _consumed(log_p, lb, ub, kw["step"], kw["budget"]) == (points, accepted)
        cut_sweeps += any(len(values) < len(batch) for batch, values in log_p)
        multi_sweeps += any(len(batch) > 2 for batch, _ in log)
        target_stops += kw["target"] is not None and fx <= kw["target"] and evals < kw["budget"]
    assert target_stops > 0 and multi_sweeps > 0 and cut_sweeps > 0


def test_pattern_search_trials_match_a_scalar_poll_bit_for_bit():
    # a sweep's trials are built with array operations; each consumed one
    # must carry the bits of the scalar min(max(x[j] + sgn * cur * scale[j],
    # lb[j]), ub[j]) that a one-trial-per-call poll computes, signed zeros
    # included.  Dyadic boxes and starts put many trials exactly on a bound
    # or back on x[j]
    rng = np.random.default_rng(13)
    on_bound = 0
    for _ in range(300):
        d = int(rng.integers(1, 6))
        lb = rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0], size=d)
        ub = lb + rng.choice([0.0, 0.5, 1.0, 3.0], size=d)
        x0 = lb + (ub - lb) * rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=d)
        x0[rng.random(d) < 0.3] = -0.0
        x0 = np.clip(x0, lb, ub)
        f = _quantized_bowl(rng, d)
        kw = dict(step=float(rng.choice([0.25, 0.5, 1.0])), min_step=1e-2,
                  budget=int(rng.integers(1, 60)))
        polled = []

        def one(x):
            polled.append(list(x))
            return f(x)

        x_ref, _, evals_ref, _ = oracle_pattern_search(one, x0.tolist(), lb, ub, **kw)
        (x, _, evals), log = _batched(f, x0, lb, ub, **kw)
        points, _ = _consumed(log, lb, ub, kw["step"], kw["budget"])
        assert evals == evals_ref and len(points) == len(polled)
        assert np.array(points).tobytes() == np.array(polled).tobytes()
        assert x.tobytes() == np.array(x_ref).tobytes()
        on_bound += sum(v in (lo, hi) for p in points[1:] for v, lo, hi in zip(p, lb, ub))
    assert on_bound > 0


def test_pattern_search_pairs_budget_clipping_and_target():
    lb, ub = [0.0, 1.0], [1.0, 1.0]  # axis 1 is collapsed and never polled

    def flat(x):
        return 1.0  # no trial improves, so every trial is consumed

    # one eval of budget left after x0: the pair is cut to its + trial
    (_, _, evals), log = _batched(flat, [0.5, 1.0], lb, ub, step=0.25, min_step=0.1,
                                  budget=2)
    assert evals == 2
    assert [b.tolist() for b, _ in log] == [[[0.5, 1.0]], [[0.75, 1.0]]]
    # x0 on the upper bound: + clips onto x0 and only - is polled
    (_, _, evals), log = _batched(flat, [1.0, 1.0], lb, ub, step=0.25, min_step=0.1,
                                  budget=3)
    assert evals == 3
    assert [b.tolist() for b, _ in log] == [[[1.0, 1.0]], [[0.75, 1.0]], [[0.875, 1.0]]]
    # + is accepted: - was computed in the same batch but is not counted, and
    # the search stops once the target is met
    (x, fx, evals), log = _batched(lambda x: -x[0], [0.5, 1.0], lb, ub, step=0.25,
                                   min_step=0.1, budget=50, target=-0.6)
    assert (x.tolist(), fx, evals) == ([0.75, 1.0], -0.75, 2)
    assert [b.tolist() for b, _ in log] == [[[0.5, 1.0]], [[0.75, 1.0], [0.25, 1.0]]]


# ---------------------------------------------------------------------------
# combined lipschitz constant
# ---------------------------------------------------------------------------

def test_combine_constants_mu_formula():
    info = combine_constants(l_rho=1.0, l_center=0.5, l_radius=0.2,
                             radius_max=2.0, n=2)
    assert info.sphere == pytest.approx(math.sqrt(2.0))
    assert info.mu == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)


def test_combine_constants_static_tube():
    info = combine_constants(l_rho=1.0, l_center=0.0, l_radius=0.0,
                             radius_max=1.0, n=2)
    assert info.combined == pytest.approx(math.sqrt(3.0), abs=1e-12)


def test_combine_constants_monotone_in_radius_max():
    prev = 0.0
    for r_max in (0.5, 1.0, 2.0, 4.0):
        info = combine_constants(1.0, 1.0, 0.5, r_max, 3)
        assert info.combined >= prev
        prev = info.combined


def test_combined_lipschitz_uses_tube_bounds():
    inst = _instance("G[0,2] B", BIG_BOX, 2.0, [[-5, 5], [-5, 5]])
    q_c, q_r = np.zeros((1, 2, 4)), np.full((1, 4), 2.0)
    [info] = inst.lipschitz(q_c, q_r)
    assert info == tube_lipschitz(q_c, q_r, inst.center_basis, inst.radius_basis,
                                  math.sqrt(2.0))[0]
    assert info.radius_max == pytest.approx(2.0)
    assert info.robustness == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("name", ["omni_reach_avoid", "quadrotor_cycle"])
def test_mu_bounds_the_robustness_difference_quotient(name):
    # mu bounds |rho(x_a) - rho(x_b)| / |a - b| over (theta, lambda), where
    # x_(theta, lam)(t) = c(t) + lam r(t) s(theta) on the time grid the
    # objective reads on the certification cover.  The states are under 100
    # in magnitude, so rho rounds by under 1e-12, and steps are at least 1e-6
    # long: a quotient may read up to 1e-6 above the true one
    config, tube = _reference(name)
    instance = config.instance()
    [info] = instance.lipschitz(tube.center_coeffs[None], tube.radius_coeffs[None])
    taus = _ObjectiveGrid(instance, build_cover(instance.cover)).times
    center = combine(tube.center_coeffs, tube.center_basis.values(taus)).T
    radius = combine(tube.radius_coeffs, tube.radius_basis.values(taus))
    hi = [math.pi] * (instance.n - 2) + [2 * math.pi, 1.0]
    a, b = point_pairs(np.random.default_rng(1), hi, 2000)

    def rho(points):
        offsets = points[:, -1:] * sphere_map_many(points[:, :-1])
        states = center + radius[:, None] * offsets[:, None, :]
        return robustness_batch(instance.formula, taus, states)

    ratios = np.abs(rho(a) - rho(b)) / np.linalg.norm(a - b, axis=1)
    assert ratios.max() <= info.mu + 1e-6


def _compensated_sum(iterable, start=0, _sum=builtins.sum):
    """sum() as Python 3.12 computes it: floats with Neumaier's compensation."""
    items = list(iterable)
    if start != 0 or not items or any(type(x) is not float for x in items):
        return _sum(items, start)
    total = comp = 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_cover_radius_and_tube_constants_keep_their_bits_under_a_compensated_sum(monkeypatch):
    # the cover radius and the center curve's constant are 2-norms; summed
    # by sum() they would take other bits under Python 3.12 for this cover
    # and this tube
    halves = [math.pi / 2, math.pi, 0.5, 4.0 / 48]
    assert _compensated_sum(h * h for h in halves) != builtins.sum(h * h for h in halves)
    rng = np.random.default_rng(564)
    q_c, q_r = rng.normal(size=(1, 3, 5)), rng.uniform(0.5, 2.0, size=(1, 4))
    cb, rb = BernsteinBasis(5, 4.0), BernsteinBasis(4, 4.0)

    def bits():
        [info] = tube_lipschitz(q_c, q_r, cb, rb, 1.0)
        radius = CoverSpec.from_counts([1, 1], 1, 24, 4.0).radius
        return [v.hex() for v in (radius, *astuple(info))]

    want = bits()
    # the radius, then LipschitzInfo's robustness and center
    assert want[0] == "0x1.c63eeed8fbb34p+1" and want[2] == (3.8912314712786853).hex()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert bits() == want


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def _result_with(eta, combined, eps):
    # build a LipschitzInfo with the requested combined constant
    info = LipschitzInfo(robustness=1.0, center=0.0, radius=0.0, radius_max=1.0,
                         sphere=1.0, mu=1.0, combined=combined)
    inst = _instance("G[0,1] B", BIG_BOX, 1.0, [[-5, 5], [-5, 5]])
    tube = inst.make_tube(np.zeros((2, 4)), np.full(4, 1.0))
    return SynthesisResult(tube=tube, eta_star=eta, lipschitz=info, epsilon=eps,
                           worst_constraint="radius@tau[0]", diagnostics={})


def test_verify_certificate_threshold():
    assert _result_with(-0.5, 2.0, 0.1).certificate_ok is True
    assert _result_with(-0.1, 2.0, 0.1).certificate_ok is False


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

def test_warm_start_respects_boxes_and_pin():
    table = {
        "S": BoxInfNorm((0.15, 0.15), 0.15),
        "T1": BoxInfNorm((7.5, 7.5), 1.5),
        "T2": BoxInfNorm((13.5, 7.5), 1.5),
        "Gl": BoxInfNorm((19.5, 16.5), 1.5),
        "O": BoxInfNorm((10.5, 7.5), 1.5),
    }
    inst = _instance("S => F[6,7] (T1 | T2) & F[14,15] Gl & G[0,15] !O",
                     table, 15.0, [[-1, 22], [-1, 19]], start=(0.15, 0.15),
                     center_count=5)
    q_c, q_r = warm_start(inst)
    assert np.all(q_c >= inst.center_box[..., 0] - 1e-12)
    assert np.all(q_c <= inst.center_box[..., 1] + 1e-12)
    assert np.all(q_r >= inst.radius_box[:, 0] - 1e-12)
    tube = inst.make_tube(q_c, q_r)
    assert np.allclose(tube.center(0.0), [0.15, 0.15], atol=1e-9)  # pinned
    # the path heads through the first reach target, then toward the goal
    assert np.linalg.norm(tube.center(6.5) - [7.5, 7.5]) <= 2.5
    assert np.linalg.norm(tube.center(15.0) - [19.5, 16.5]) <= 2.5


def test_warm_start_dwell_scheduling():
    table = {
        "R": BoxInfNorm((2.5, 2.5), 1.75),
        "Gn": BoxInfNorm((6.5, 2.5), 1.75),
    }
    inst = _instance("F[0,10] G[0,5] R & F[0,10] G[0,5] Gn", table, 15.0,
                     [[0, 9], [0, 9]], start=(2.5, 2.5), center_count=7)
    from tubecbf.synthesis import _reach_items
    items = _reach_items(inst.formula)
    assert len(items) == 2
    assert items[0][3] == pytest.approx(5.0)  # dwell length from the inner window
    q_c, q_r = warm_start(inst)
    tube = inst.make_tube(q_c, q_r)
    # the two dwell segments are scheduled back to back, not on top of each other
    assert np.linalg.norm(tube.center(2.0) - [2.5, 2.5]) <= 2.0
    assert np.linalg.norm(tube.center(9.0) - [6.5, 2.5]) <= 2.0


def test_warm_start_schedules_no_target_under_a_negation():
    # !F[0,6] O says the same as G[0,6] !O: O is avoided, never visited, so
    # both spellings start the search from the same tube and end at the same
    config = load_config(ROOT / "configs" / "omni_reach_avoid.yaml")
    assert config.formula == "F[0,6] T & G[0,6] !O"
    negated = dataclasses.replace(config, formula="F[0,6] T & !F[0,6] O")
    assert len(synthesis._reach_items(negated.build_formula())) == 1
    starts, tubes = [], []
    for c in (config, negated):
        starts.append([q.tobytes() for q in warm_start(c.instance())])
        result = solve_sop(c.instance(), c.solver_settings())
        assert result.certificate_ok
        tubes.append(json.dumps(tube_to_record(result.tube)))
    assert starts[0] == starts[1]
    assert tubes[0] == tubes[1]


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

STAY_TABLE = {"T": BoxInfNorm((4.5, 4.5), 3.5)}


def _stay_instance(cover_radius=0.2):
    # radius_max also caps the combined Lipschitz constant, so it is part of
    # the certification budget together with the cover radius
    return _instance("F[0,4] T & G[0,4] T", STAY_TABLE, 4.0, [[0, 9], [0, 9]],
                     cover=CoverSpec.for_radius(cover_radius, 2, 4.0),
                     start=(4.5, 4.5), radius_max=2.0)


def test_solve_sop_feasible_stay_task_certifies():
    inst = _stay_instance()
    settings = SolverSettings(budget=1200)
    result = solve_sop(inst, settings)
    assert result.eta_star <= 0.0
    assert result.certificate_ok
    # dense re-check: every constraint still clears zero on a 10x finer grid
    assert recheck_constraints(inst, result.tube, factor=10) <= 0.0


def test_solve_sop_reach_task_feasible():
    table = {"T": BoxInfNorm((5.0, 5.0), 2.5)}
    inst = _instance("F[0,4] T", table, 4.0, [[0, 8], [0, 8]],
                     cover=CoverSpec.for_radius(0.35, 2, 4.0), start=(1.5, 1.5),
                     radius_max=1.5, center_count=5)
    result = solve_sop(inst, SolverSettings(budget=1500))
    assert result.eta_star <= 0.0
    # the sampled solution is feasible well beyond the sampled grid
    assert recheck_constraints(inst, result.tube, factor=5) <= max(0.0, result.margin)


def test_solve_sop_contradiction_stays_infeasible():
    table = {"T": BoxInfNorm((2.0, 2.0), 1.0)}
    inst = _instance("F[0,1] T & G[0,1] !T", table, 1.0, [[0, 4], [0, 4]],
                     cover=CoverSpec.for_radius(0.4, 2, 1.0))
    result = solve_sop(inst, SolverSettings(budget=400))
    assert result.eta_star > 0.0
    assert not result.certificate_ok


def test_solve_sop_never_spends_more_than_its_budget():
    # the pattern search and the certificate polish share the budget
    inst = _stay_instance()
    for budget in range(1, 401):
        result = solve_sop(inst, SolverSettings(budget=budget))
        assert result.diagnostics["objective_evals"] <= budget, budget


@pytest.mark.parametrize("settings, named", [
    (dict(budget=0), "budget"),
    (dict(budget=2.5), "budget"),
    (dict(budget=True), "budget"),
], ids=["zero-budget", "fractional-budget", "bool-budget"])
def test_solver_settings_check_their_ranges(settings, named):
    with pytest.raises(ValueError, match=named):
        SolverSettings(**settings)


@pytest.mark.parametrize("arguments, named", [
    (dict(radius_max=0.1), "radius_max"),
    (dict(min_radius=0.0), "min_radius"),
    (dict(center_box_scale=0), "center_box_scale"),
    (dict(start_center=(20, 20)), "start_center"),
    (dict(start_center=(4.5, 4.5, 4.5)), "start_center"),
    (dict(center_count=2.5), "center_count"),
    (dict(radius_count=0), "radius_count"),
    (dict(center_count=1031),
     "basis center_count must be an integer of at least 1 and at most 1030"),
    (dict(state_bounds=[[0, 9], [9, 0]]), "state_bounds"),
    (dict(t_f=3.0, cover=CoverSpec.from_counts([6], 2, 4, 3.0)), "t_f"),
    (dict(cover=CoverSpec.from_counts([6], 2, 4, 1.0)), "cover"),
    (dict(cover=CoverSpec.from_counts([6], 2, 4, 5.0)), "cover"),
    (dict(cover=CoverSpec.from_counts([4, 3], 2, 4, 4.0)), "cover"),
], ids=["radius-max-below-floor", "zero-floor", "zero-box-scale", "start-outside",
        "start-of-another-dimension", "fractional-center-count", "zero-radius-count",
        "center-count-past-float-binomials", "empty-bounds", "horizon-past-t-f",
        "shorter-cover", "longer-cover", "cover-of-another-dimension"])
def test_sop_instance_checks_its_ranges(arguments, named):
    # what a scenario config checks through SOPInstance, a direct caller gets
    # too: a ValueError naming the argument, not a silently changed box.  A
    # cover of [0, 1] under t_f = 4 speaks only of [0, 1], so the tube it
    # certifies may violate the task after t = 1
    args = dict(formula=parse("F[0,4] T & G[0,4] T", STAY_TABLE), n=2, t_f=4.0,
                state_bounds=[[0, 9], [0, 9]], cover=CoverSpec.from_counts([6], 2, 4, 4.0),
                radius_max=2.0)
    with pytest.raises(ValueError, match=named):
        SOPInstance(**{**args, **arguments})


@pytest.mark.parametrize("counts, named", [
    (([0], 3, 12), "theta_counts"),
    (([10], 2.5, 12), "lambda_count"),
    (([10], 3, -4), "tau_count"),
], ids=["zero-theta", "fractional-lambda", "negative-tau"])
def test_cover_spec_checks_its_counts(counts, named):
    with pytest.raises(CoverError, match=named):
        CoverSpec.from_counts(*counts, 4.0)


@pytest.mark.parametrize("build", [lambda t_f: CoverSpec.for_radius(0.2, 2, t_f),
                                   lambda t_f: CoverSpec.from_counts([10], 3, 12, t_f)],
                         ids=["for-radius", "from-counts"])
def test_cover_spec_checks_t_f(build):
    # an infinite t_f once gave radius inf and taus [nan, inf, inf] from
    # from_counts, and an OverflowError from for_radius
    for t_f in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(CoverError, match="t_f must be positive and finite"):
            build(t_f)


def test_solve_sop_requires_a_cover():
    # the certification cover is part of the problem: no instance lacks one
    args = dict(formula=parse("F[0,4] T & G[0,4] T", STAY_TABLE), n=2, t_f=4.0,
                state_bounds=[[0, 9], [0, 9]], start_center=(4.5, 4.5))
    for cover in ({}, {"cover": None}):
        with pytest.raises(TypeError, match="cover"):
            SOPInstance(**args, **cover)


def test_solve_sop_refuses_a_search_cover_of_another_horizon(monkeypatch):
    # a search cover of [0, 1] under t_f = 4 is refused before the search
    # makes its first monitor call
    settings = SolverSettings(budget=100,
                              search_cover=CoverSpec.from_counts([10], 3, 12, 1.0))
    shapes = _monitor_calls(monkeypatch)
    with pytest.raises(ValueError, match="cover"):
        solve_sop(_stay_instance(), settings)
    assert shapes == []


def test_solve_sop_draws_no_random_number(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_sop drew a random number")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert solve_sop(_stay_instance(), SolverSettings(budget=600)).certificate_ok


def test_solve_sop_deterministic_and_serializable(tmp_path):
    inst = _stay_instance()
    settings = SolverSettings(budget=600)
    r1 = solve_sop(inst, settings)
    r2 = solve_sop(inst, settings)
    assert r1.eta_star == r2.eta_star
    assert np.array_equal(r1.tube.center_coeffs, r2.tube.center_coeffs)
    assert np.array_equal(r1.tube.radius_coeffs, r2.tube.radius_coeffs)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    r1.save(p1)
    r2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = SynthesisResult.load(p1)
    assert back.eta_star == r1.eta_star
    assert np.array_equal(back.tube.center_coeffs, r1.tube.center_coeffs)
    assert back.certificate_ok == r1.certificate_ok


def test_eta_shift_bounded_between_covers():
    inst = _stay_instance()
    rng = np.random.default_rng(5)
    q_c = np.clip(rng.uniform(3.5, 5.5, size=(2, 4)),
                  inst.center_box[..., 0], inst.center_box[..., 1])
    q_r = rng.uniform(0.5, 1.5, size=4)
    coarse_spec = inst.cover
    fine_spec = CoverSpec.from_counts([c * 2 for c in coarse_spec.theta_counts],
                                      coarse_spec.lambda_count * 2,
                                      coarse_spec.tau_count * 2, coarse_spec.t_f)
    eta_coarse, _ = sop_objective(inst, q_c, q_r, cover=build_cover(coarse_spec))
    eta_fine, _ = sop_objective(inst, q_c, q_r, cover=build_cover(fine_spec))
    lip = inst.lipschitz(q_c[None], q_r[None])[0].combined
    delta = coarse_spec.radius - fine_spec.radius
    assert eta_fine >= eta_coarse - lip * delta - 1e-9
    assert eta_fine <= eta_coarse + lip * coarse_spec.radius + 1e-9


def test_instance_compares_and_hashes_by_identity():
    config = load_config(ROOT / "configs" / "stlcg_1.yaml")
    inst = config.instance()
    assert inst == inst
    assert config.instance() != config.instance()
    assert hash(inst) == hash(inst)
    assert {inst: 1}[inst] == 1


def test_instance_validation():
    with pytest.raises(ValueError):
        _instance("G[0,5] B", BIG_BOX, 2.0, [[-5, 5], [-5, 5]])  # horizon > t_f
    with pytest.raises(ValueError):
        _instance("G[0,1] B", BIG_BOX, 1.0, [[-5, 5], [-5, 5]], min_radius=0.0)
