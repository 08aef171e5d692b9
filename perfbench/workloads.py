"""The four benchmark workloads, driven through tubecbf's public API.

Each workload has a ``setup`` (what a command-line user pays before the first
solver or simulator call) and a ``job``: one closed-loop client, so the next
job starts only when the previous one returned.  A job's inputs depend only on
the workload seed and the job index.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
REF = Path(__file__).resolve().parent / "ref"

MIN_B_FLOOR = -1e-3        # closed loop may graze the tube boundary, no more
VERIFY_TOL = 1e-9          # the log round-trips binary64, so verify is exact
RECHECK_FACTOR = 10

# Benchmark timings are CPU seconds of this single-threaded process: on a
# shared host, wall time also counts the time other tenants hold the core.
clock = time.process_time


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Context:
    """Output directory plus the tracer, when the run is traced."""

    def __init__(self, out: Path, tracer=None):
        self.out = out
        self.tracer = tracer

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def solving(self):
        return self.tracer.solving() if self.tracer else nullcontext()

    def rechecking(self):
        return self.tracer.rechecking() if self.tracer else nullcontext()


@dataclass
class JobResult:
    """Phase CPU times (s), outcomes and correctness failures of one job."""

    times: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def add_time(self, key: str, seconds: float) -> None:
        self.times[key] = self.times.get(key, 0.0) + seconds

    def add(self, key: str, value) -> None:
        self.values[key] = self.values.get(key, 0) + value

    def lowest(self, key: str, value: float) -> None:
        self.values[key] = min(self.values.get(key, value), value)

    def highest(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, value), value)


@dataclass
class Scenario:
    """A shipped scenario config with its parsed formula and reference data."""

    config: object
    formula: object
    expected_certified: bool
    instance: object = None
    tube: object = None


def _load(tc, ctx, name: str, *, instance: bool, tube: bool) -> Scenario:
    with ctx.span("config.load"):
        config = tc.load_config(CONFIGS / f"{name}.yaml")
        formula = config.build_formula()
    scen = Scenario(config=config, formula=formula,
                    expected_certified=json.loads(
                        (REF / f"{name}_result.json").read_text())["certificate_ok"])
    if instance:
        with ctx.span("config.instance"):
            scen.instance = config.instance()
    if tube:
        with ctx.span("cli.tube_load"):
            scen.tube = tc.load_tube(REF / f"{name}_tube.json")
        if scen.tube.dimension != config.dimension or abs(scen.tube.t_f - config.t_f) > 1e-9:
            raise ValueError(f"reference tube {name} does not match its config")
    return scen


def _x0_seeds(seed: int, job: int, count: int) -> list[int]:
    return [int(v) for v in np.random.SeedSequence([seed, job]).generate_state(count)]


def _save_checked(path: Path, ref: Path, res: JobResult) -> None:
    """Count artifacts byte-identical to the reference made at the seed commit."""
    if sha256(path) == sha256(ref):
        res.add("artifact_digest_match", 1)


def _drive(tc, ctx, scen: Scenario, tube, x0_seed: int, res: JobResult) -> None:
    """simulate -> trajectory log -> read back -> verify, as the CLI does."""
    config = scen.config
    name = config.name
    x0 = config.pick_x0(tube, seed=x0_seed)
    t0 = clock()
    with ctx.span("simulate.run_closed_loop"):
        report = tc.run_closed_loop(config.make_dynamics(),
                                    tc.Barrier(tube, gain=config.gain), x0, config.dt,
                                    scen.formula, weight=config.weight_matrix(),
                                    input_bound=config.input_bound,
                                    until_convention=config.until_convention)
    t1 = clock()
    log = ctx.out / f"{name}_trajectory.csv"
    with ctx.span("cli.log_write"):
        tc.write_trajectory_log(log, report)
    with ctx.span("cli.artifact_write"):
        summary = {"x0": [float(v) for v in x0], "steps": len(report.steps),
                   "min_b": report.min_b, "final_robustness": report.final_robustness,
                   "satisfied": report.satisfied,
                   "saturated_steps": report.saturated_steps}
        (ctx.out / f"{name}_report.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")
    t2 = clock()
    with ctx.span("cli.log_read"):
        signal = tc.read_trajectory_signal(log)
    with ctx.span("stl.verify_monitor"):
        check = tc.robustness(scen.formula, signal, 0.0,
                              until_convention=config.until_convention)
    t3 = clock()

    res.add_time("sim_cpu_s", t1 - t0)
    res.add_time("verify_cpu_s", t3 - t2)
    res.add("steps", len(report.steps))
    res.add("saturated_steps", report.saturated_steps)
    res.add("log_bytes", log.stat().st_size)
    res.lowest("robustness_min", report.final_robustness)
    res.lowest("min_b", report.min_b)
    if report.final_robustness <= 0.0:
        res.failures.append(f"{name}: closed-loop robustness "
                            f"{report.final_robustness:.6g} <= 0 from x0 seed {x0_seed}")
    if report.min_b < MIN_B_FLOOR:
        res.failures.append(f"{name}: min_b {report.min_b:.6g} < {MIN_B_FLOOR}")
    if abs(check.value - report.final_robustness) > VERIFY_TOL \
            or check.satisfied != report.satisfied:
        res.failures.append(f"{name}: verify {check.value!r} disagrees with "
                            f"simulate {report.final_robustness!r}")


class SynthWorkload:
    """Full pipeline on one scenario: solve_sop, write the artifacts, then
    simulate, log, read back and verify from one seeded x0 draw.

    The solver runs at the scenario's configured seed.  On stlcg_1, solver
    seeds 0-6 take 2515 to 4333 objective evaluations and seed 2 does not
    certify, so a per-run solver seed would measure the seed, not the program.
    """

    def __init__(self, scenario: str, job_seconds: float):
        self.scenario = scenario
        self.job_seconds = job_seconds

    def setup(self, tc, ctx):
        scen = _load(tc, ctx, self.scenario, instance=True, tube=False)
        return scen, scen.config.solver_settings()

    def job(self, tc, ctx, state, seed: int, index: int) -> JobResult:
        scen, settings = state
        res = JobResult()
        t0 = clock()
        with ctx.span("synthesis.solve_sop"), ctx.solving():
            result = tc.solve_sop(scen.instance, settings)
        res.add_time("synth_cpu_s", clock() - t0)
        name = self.scenario
        with ctx.span("cli.artifact_write"):
            tc.save_tube(result.tube, ctx.out / f"{name}_tube.json")
            result.save(ctx.out / f"{name}_result.json")
        for kind in ("tube", "result"):
            _save_checked(ctx.out / f"{name}_{kind}.json", REF / f"{name}_{kind}.json", res)
        diag = result.diagnostics
        res.values.update(objective_evals=diag["objective_evals"],
                          bisection_rounds=diag["bisection_rounds"],
                          cover_samples=diag["cover_samples"],
                          margin=result.margin, certified=int(result.certificate_ok))
        if result.certificate_ok != scen.expected_certified:
            res.failures.append(f"{name}: certificate {result.certificate_ok}, "
                                f"expected {scen.expected_certified}")
        _drive(tc, ctx, scen, result.tube, _x0_seeds(seed, index, 1)[0], res)
        return res


class ClosedLoopWorkload:
    """Simulate, log, read back and verify on committed reference tubes, one
    seeded x0 draw per tube per job; synthesis is bypassed."""

    def __init__(self, scenarios: tuple, job_seconds: float):
        self.scenarios = scenarios
        self.job_seconds = job_seconds

    def setup(self, tc, ctx):
        return [_load(tc, ctx, name, instance=False, tube=True) for name in self.scenarios]

    def job(self, tc, ctx, state, seed: int, index: int) -> JobResult:
        res = JobResult()
        for scen, x0_seed in zip(state, _x0_seeds(seed, index, len(state))):
            _drive(tc, ctx, scen, scen.tube, x0_seed, res)
            name = scen.config.name
            with ctx.span("cli.artifact_write"):
                tc.save_tube(scen.tube, ctx.out / f"{name}_tube.json")
            _save_checked(ctx.out / f"{name}_tube.json", REF / f"{name}_tube.json", res)
        return res


class RecheckWorkload:
    """recheck_constraints on a 10x finer cover of committed certified tubes.
    The inputs are fixed, so the seed changes nothing here."""

    def __init__(self, scenarios: tuple, job_seconds: float):
        self.scenarios = scenarios
        self.job_seconds = job_seconds

    def setup(self, tc, ctx):
        state = [_load(tc, ctx, name, instance=True, tube=True) for name in self.scenarios]
        if not all(s.expected_certified for s in state):
            raise ValueError("recheck_dense needs certified reference tubes")
        return state

    def job(self, tc, ctx, state, seed: int, index: int) -> JobResult:
        res = JobResult()
        for scen in state:
            t0 = clock()
            with ctx.span("synthesis.recheck"), ctx.rechecking():
                value = tc.recheck_constraints(scen.instance, scen.tube,
                                               factor=RECHECK_FACTOR)
            res.add_time("recheck_cpu_s", clock() - t0)
            res.highest("recheck_max", value)
            if value > 0.0:
                res.failures.append(f"{scen.config.name}: certified tube rechecks "
                                    f"to {value:.6g} > 0")
        return res


# job_seconds: the nominal CPU seconds of one job on the 2-vCPU Xeon VM the
# baseline was measured on; a run of S seconds makes round(S / job_seconds) jobs
WORKLOADS = {
    "synth_nested": SynthWorkload("stlcg_1", job_seconds=30.0),
    "synth_3d": SynthWorkload("quadrotor_cycle", job_seconds=10.0),
    "closed_loop": ClosedLoopWorkload(("omni_reach_avoid", "diffdrive_sequential",
                                       "stlcg_2"), job_seconds=0.55),
    "recheck_dense": RecheckWorkload(("omni_reach_avoid", "stlcg_2"), job_seconds=19.0),
}
