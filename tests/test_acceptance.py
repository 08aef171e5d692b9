"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines inline.  The heavy pipeline stages (synthesis, simulation) run once in
module-scoped fixtures and are shared across criteria.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from tubecbf.cbf import Barrier, barrier_gradients, barrier_value, min_norm_input
from tubecbf.cli import main
from tubecbf.config import load_config
from tubecbf.simulate import read_trajectory_signal
from tubecbf.stl import robustness
from tubecbf.synthesis import SynthesisResult, recheck_constraints
from tubecbf.tube import Tube, sphere_map, sphere_map_many
from tubecbf.basis import BernsteinBasis

from gen import formula_and_signal, power_tube
from oracles import oracle_min_norm_qp, oracle_robustness

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion: int, ok: bool, details: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {details}")


def _run_pipeline(config_name: str, out_dir: Path, seed=None):
    """synthesize + simulate + verify via the CLI; returns artifacts and times."""
    cfg_path = CONFIG_DIR / f"{config_name}.yaml"
    config = load_config(cfg_path)
    args_seed = [] if seed is None else ["--seed", str(seed)]

    t0 = time.perf_counter()
    synth_code = main(["synthesize", "--config", str(cfg_path), "--out", str(out_dir)])
    synth_s = time.perf_counter() - t0
    tube_path = out_dir / f"{config.name}_tube.json"
    result = SynthesisResult.load(out_dir / f"{config.name}_result.json")

    t1 = time.perf_counter()
    sim_code = main(["simulate", "--config", str(cfg_path), "--tube",
                     str(tube_path), "--out", str(out_dir)] + args_seed)
    sim_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    log_path = out_dir / f"{config.name}_trajectory.csv"
    verify_code = main(["verify", "--config", str(cfg_path), "--log", str(log_path)])
    verify_s = time.perf_counter() - t2

    return {
        "config": config,
        "config_path": cfg_path,
        "result": result,
        "log_path": log_path,
        "synth_code": synth_code,
        "sim_code": sim_code,
        "verify_code": verify_code,
        "synth_s": synth_s,
        "sim_s": sim_s,
        "verify_s": verify_s,
        "total_s": synth_s + sim_s + verify_s,
    }


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def omni_run(out_root):
    return _run_pipeline("omni_reach_avoid", out_root)


@pytest.fixture(scope="module")
def diffdrive_run(out_root):
    return _run_pipeline("diffdrive_sequential", out_root)


@pytest.fixture(scope="module")
def quadrotor_run(out_root):
    return _run_pipeline("quadrotor_cycle", out_root)


BENCH_TASKS = ("stlcg_1", "stlcg_2", "stlfrag_1", "stlfrag_2")


@pytest.fixture(scope="module")
def bench_runs(out_root):
    """One cmd_bench invocation over all four tasks, plus independent verify."""
    bench_dir = out_root / "bench"
    paths = [str(CONFIG_DIR / f"{name}.yaml") for name in BENCH_TASKS]
    exit_code = main(["bench", *paths, "--out", str(bench_dir)])

    rows = {}
    table = (bench_dir / "bench.txt").read_text().strip().splitlines()
    for line in table[1:]:
        cells = [c.strip() for c in line.split("|")]
        rows[cells[0]] = {"synth_s": float(cells[1]), "sim_s": float(cells[2]),
                          "eta_star": float(cells[3]), "certified": cells[4] == "yes",
                          "robustness": float(cells[5])}

    runs = {}
    for name in BENCH_TASKS:
        cfg_path = CONFIG_DIR / f"{name}.yaml"
        log_path = bench_dir / f"{name}_trajectory.csv"
        verify_code = main(["verify", "--config", str(cfg_path), "--log", str(log_path)])
        runs[name] = {
            "config": load_config(cfg_path),
            "result": SynthesisResult.load(bench_dir / f"{name}_result.json"),
            "log_path": log_path,
            "verify_code": verify_code,
            **rows[name],
        }
    return {"exit_code": exit_code, "runs": runs}


# ---------------------------------------------------------------------------
# criterion 1: robustness oracle equivalence, 500 cases under 10 s
# ---------------------------------------------------------------------------

def test_criterion_1_robustness_oracle_equivalence():
    rng = np.random.default_rng(20_250_101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=50)
        got = float(robustness(f, x).value)
        want = oracle_robustness(f, x.times, x.states, 0.0)
        if math.isinf(want):
            assert math.isinf(got) and got == want
        else:
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(1, ok, f"500 cases, max |diff| {worst:.2e}, {elapsed:.2f} s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: sphere map norm and axis cases
# ---------------------------------------------------------------------------

def test_criterion_2_sphere_map():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (2, 3, 4):
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=(10_000, n - 1))
        norms = np.linalg.norm(sphere_map_many(thetas), axis=1)
        worst = max(worst, float(np.max(np.abs(norms - 1.0))))
    assert worst <= 1e-12

    assert np.array_equal(sphere_map([0.0]), [1.0, 0.0])          # exact
    assert np.array_equal(sphere_map([0.0, 0.0]), [1.0, 0.0, 0.0])
    axis_gap = max(
        float(np.max(np.abs(sphere_map([math.pi / 2]) - [0.0, 1.0]))),
        float(np.max(np.abs(sphere_map([math.pi / 2, 0.0]) - [0.0, 1.0, 0.0]))),
        float(np.max(np.abs(sphere_map([math.pi / 2, math.pi / 2]) - [0.0, 0.0, 1.0]))),
    )
    ok = axis_gap <= 1e-12
    _report(2, ok, f"norm error {worst:.2e}, axis error {axis_gap:.2e} over 3x10^4 draws")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: barrier gradients vs central differences
# ---------------------------------------------------------------------------

def _test_tubes():
    rng = np.random.default_rng(3)
    control = Tube(rng.uniform(-1.5, 1.5, size=(2, 5)), rng.uniform(0.6, 1.8, size=4),
                   BernsteinBasis(5, 4.0), BernsteinBasis(4, 4.0))
    # curves drawn in power form, scaled so each term stays of order one on [0, 4]
    q_c = rng.uniform(-1.5, 1.5, size=(2, 5)) / np.array([1.0, 4.0, 16.0, 64.0, 256.0])
    q_r = rng.uniform(0.6, 1.8, size=4) / np.array([1.0, 4.0, 16.0, 64.0]) + 0.4
    return [control, power_tube(q_c, q_r, 4.0)]


def test_criterion_3_gradient_checks():
    h = 1e-6
    worst = 0.0
    for tube in _test_tubes():
        barrier = Barrier(tube)
        rng = np.random.default_rng(33)
        for _ in range(1000):
            t = float(rng.uniform(h, 4.0 - h))
            x = rng.uniform(-3.0, 3.0, size=2)
            db_dx, db_dt = barrier_gradients(barrier, t, x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (barrier_value(barrier, t, x + e)
                      - barrier_value(barrier, t, x - e)) / (2 * h)
                worst = max(worst, abs(db_dx[i] - fd))
            fd_t = (barrier_value(barrier, t + h, x)
                    - barrier_value(barrier, t - h, x)) / (2 * h)
            worst = max(worst, abs(db_dt - fd_t))
    ok = worst <= 1e-5
    _report(3, ok, f"2000 points, max gradient error {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: QP closed form vs KKT enumeration oracle
# ---------------------------------------------------------------------------

def test_criterion_4_qp_closed_form():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        root = rng.normal(size=(m, m))
        weight = root @ root.T + 0.1 * np.eye(m)
        a = rng.normal(size=m)
        psi = float(rng.normal())
        u = min_norm_input(weight, a, psi)
        want = oracle_min_norm_qp(weight, a, psi)
        assert want is not None
        worst = max(worst, float(np.max(np.abs(u - want))))
        if psi >= 0.0:
            assert np.array_equal(u, np.zeros(m))  # exactly zero
    ok = worst <= 1e-8
    _report(4, ok, f"1000 cases, max |u - oracle| {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: certified syntheses survive a 10x finer constraint re-check
# ---------------------------------------------------------------------------

def test_criterion_5_certificate_soundness(omni_run, diffdrive_run, bench_runs):
    runs = {"omni_reach_avoid": omni_run, "diffdrive_sequential": diffdrive_run}
    runs.update(bench_runs["runs"])
    checked = []
    worst = -math.inf
    for name, run in runs.items():
        result = run["result"]
        if not result.certificate_ok:
            continue
        instance = run["config"].instance()
        value = recheck_constraints(instance, result.tube, factor=10)
        checked.append(name)
        worst = max(worst, value)
        assert value <= 0.0, f"{name}: dense re-check violated by {value}"
    ok = len(checked) >= 1 and worst <= 0.0
    _report(5, ok, f"{len(checked)} certified runs re-checked 10x finer, "
                   f"max constraint {worst:.4g}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: omnidirectional reach-avoid end to end
# ---------------------------------------------------------------------------

def test_criterion_6_omni_reach_avoid(omni_run):
    result = omni_run["result"]
    log = read_trajectory_signal(omni_run["log_path"])
    config = omni_run["config"]
    rep = robustness(config.build_formula(), log)
    min_b = _min_b_from_log(omni_run["log_path"])
    ok = (omni_run["synth_code"] == 0 and result.certificate_ok
          and min_b >= -1e-3 and rep.value > 0.0
          and omni_run["total_s"] < 120.0)
    _report(6, ok, f"certified margin {result.margin:.3f}, min_b {min_b:.4g}, "
                   f"robustness {rep.value:.3f}, total {omni_run['total_s']:.1f} s")
    assert omni_run["synth_code"] == 0 and result.certificate_ok
    assert min_b >= -1e-3
    assert rep.value > 0.0
    assert omni_run["total_s"] < 120.0


def _min_b_from_log(log_path) -> float:
    import csv
    with open(log_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        b_col = header.index("b")
        return min(float(row[b_col]) for row in reader)


# ---------------------------------------------------------------------------
# criterion 7: differential-drive sequential task
# ---------------------------------------------------------------------------

def test_criterion_7_diffdrive_sequential(diffdrive_run):
    assert diffdrive_run["total_s"] < 600.0
    assert diffdrive_run["sim_code"] == 0
    # the independent verifier (reads only t and x columns) must agree
    assert diffdrive_run["verify_code"] == 0

    log = read_trajectory_signal(diffdrive_run["log_path"])
    t, x = log.times, log.states
    in_box = lambda center, hw, pts: np.max(np.abs(pts - center), axis=1) < hw
    w1 = (t >= 6.0) & (t <= 7.0)
    hit_t1t2 = np.any(in_box([7.5, 7.5], 1.5, x[w1]) | in_box([13.5, 7.5], 1.5, x[w1]))
    w2 = (t >= 14.0) & (t <= 15.0)
    hit_goal = np.any(in_box([19.5, 16.5], 1.5, x[w2]))
    never_obstacle = not np.any(in_box([10.5, 7.5], 1.5, x))
    ok = hit_t1t2 and hit_goal and never_obstacle
    _report(7, ok, f"T1|T2 in [6,7]: {hit_t1t2}, G in [14,15]: {hit_goal}, "
                   f"O avoided: {never_obstacle}, total {diffdrive_run['total_s']:.1f} s, "
                   f"margin {diffdrive_run['result'].margin:+.3f} "
                   f"({'certified' if diffdrive_run['result'].certificate_ok else 'uncertified'})")
    assert hit_t1t2 and hit_goal and never_obstacle


# ---------------------------------------------------------------------------
# criterion 8: benchmark batch completes with fast control phases
# ---------------------------------------------------------------------------

def test_criterion_8_benchmarks(bench_runs):
    assert bench_runs["exit_code"] == 0, "cmd_bench did not complete cleanly"
    details = []
    ok = True
    for name, run in bench_runs["runs"].items():
        completed = run["robustness"] > 0.0 and run["verify_code"] == 0
        sim_fast = run["sim_s"] < 5.0
        ok = ok and completed and sim_fast
        details.append(f"{name} synth {run['synth_s']:.2f}s sim {run['sim_s']:.2f}s")
        if name.startswith("stlfrag"):
            within_minute = run["synth_s"] + run["sim_s"] < 60.0
            ok = ok and within_minute
            assert within_minute, f"{name} exceeded 60 s"
        assert completed, f"{name} did not complete"
        assert sim_fast, f"{name} simulation phase too slow"
    _report(8, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: quadrotor patrol cycle at reduced horizon
# ---------------------------------------------------------------------------

def test_criterion_9_quadrotor_cycle(quadrotor_run):
    log = read_trajectory_signal(quadrotor_run["log_path"])
    rep = robustness(quadrotor_run["config"].build_formula(), log)
    completed = quadrotor_run["sim_code"] == 0 and quadrotor_run["verify_code"] == 0
    ok = completed and rep.value > 0.0
    _report(9, ok, f"completed, robustness {rep.value:.3f}, "
                   f"total {quadrotor_run['total_s']:.1f} s "
                   f"(reduced horizon; full 50 s task ships as quadrotor_full.yaml)")
    assert completed
    assert rep.value > 0.0
