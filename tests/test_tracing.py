"""The traced benchmark wraps tubecbf attributes by name from outside; a
rename or removal of one of them must fail here, not mid-benchmark."""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import tubecbf
from gen import power_tube
from tubecbf.cbf import Barrier
from tubecbf.dynamics import OmniRobot
from tubecbf.simulate import run_closed_loop
from tubecbf.stl import BoxInfNorm, parse
from tubecbf.synthesis import CoverSpec, SOPInstance, SolverSettings, solve_sop

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_attribute():
    modules = (tubecbf.synthesis, tubecbf.simulate, tubecbf.cbf)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(tubecbf)
        assert [dict(vars(m)) for m in modules] != before
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_tracer_sees_every_layer_a_solve_calls_through():
    # a solve that bypassed one of the wrapped attributes would drop that
    # layer, or the search/certificate split of the covers, from the trace
    table = {"T": BoxInfNorm((4.5, 4.5), 3.5)}
    instance = SOPInstance(parse("F[0,4] T & G[0,4] T", table), n=2, t_f=4.0,
                           state_bounds=[[0, 9], [0, 9]], radius_max=2.0,
                           cover=CoverSpec.for_radius(0.2, 2, 4.0),
                           start_center=(4.5, 4.5))
    tracer = _load_tracing().Tracer()
    tracer.install(tubecbf)
    try:
        with tracer.solving():
            solve_sop(instance, SolverSettings(budget=100))
    finally:
        tracer.uninstall()
    names = Counter(span[0] for span in tracer.spans)
    assert names["synthesis.build_cover"] == 2
    assert names["synthesis.warm_start"] == 1
    assert names["tube.lipschitz"] > 0 and names["stl.robustness_batch"] > 0
    tags = {span[5]["tag"] for span in tracer.spans if span[0] == "stl.robustness_batch"}
    assert tags == {"search", "certificate"}


def test_tracer_sees_the_recheck_layers():
    # the dense re-check lives in its own module but must build its cover and
    # call the monitor through the synthesis attributes the tracer wraps
    table = {"T": BoxInfNorm((4.5, 4.5), 3.5)}
    instance = SOPInstance(parse("G[0,4] T", table), n=2, t_f=4.0,
                           state_bounds=[[0, 9], [0, 9]], radius_max=2.0,
                           cover=CoverSpec.from_counts([6], 2, 4, 4.0))
    tube = instance.make_tube(*tubecbf.warm_start(instance))
    tracer = _load_tracing().Tracer()
    tracer.install(tubecbf)
    try:
        with tracer.rechecking():
            tubecbf.recheck_constraints(instance, tube, factor=3)
    finally:
        tracer.uninstall()
    names = Counter(span[0] for span in tracer.spans)
    assert names["synthesis.build_cover"] == 1 and names["stl.robustness_batch"] > 0
    tags = {span[5]["tag"] for span in tracer.spans if span[0] == "stl.robustness_batch"}
    assert tags == {"recheck"}


def test_tracer_sees_every_closed_loop_step():
    # the closed loop must call the QP, the integrator, the barrier and the
    # final monitor through the simulate attributes the tracer wraps
    tube = power_tube([[4.5, 0.2], [4.5, -0.1]], [1.0, 0.0], 2.0)
    formula = parse("G[0,2] T", {"T": BoxInfNorm((4.5, 4.5), 3.5)})
    tracer = _load_tracing().Tracer()
    tracer.install(tubecbf)
    try:
        report = run_closed_loop(OmniRobot(2), Barrier(tube), np.array([4.7, 4.4]), 0.1,
                                 formula)
    finally:
        tracer.uninstall()
    steps = len(report.steps)
    assert steps == 21
    names = Counter(span[0] for span in tracer.spans)
    assert names["cbf.qp"] == steps
    assert names["simulate.rk4"] == steps - 1
    assert names["stl.final_monitor"] == 1
    assert tracer.counts[(-1, "cbf.barrier_value")] == steps + 1
