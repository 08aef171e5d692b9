"""The benchmark drives tubecbf through perfbench/workloads.py; a change to an
API it calls (a keyword, a report field, a re-check factor) must fail here,
not as a failed benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import tubecbf

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["closed_loop", "recheck_dense"])
def test_workload_setup_and_one_job_run_clean(monkeypatch, tmp_path, name):
    workloads = _load_workloads(monkeypatch)
    workload = workloads.WORKLOADS[name]
    ctx = workloads.Context(tmp_path)
    state = workload.setup(tubecbf, ctx)
    result = workload.job(tubecbf, ctx, state, 0, 0)
    assert result.failures == []
    if name == "closed_loop":
        # each reference tube written back byte for byte, each run logged
        assert result.values["artifact_digest_match"] == len(state)
        assert result.values["steps"] > 0
        assert sorted(p.name for p in tmp_path.glob("*_trajectory.csv")) == sorted(
            f"{scen.config.name}_trajectory.csv" for scen in state)
    else:
        assert result.values["recheck_max"] <= 0.0


@pytest.mark.parametrize("name", ["synth_nested", "synth_3d"])
def test_synth_workload_setup_and_one_job_run_clean(monkeypatch, tmp_path, name):
    # the synth workloads build their SOPInstance and SolverSettings through
    # config.instance() and config.solver_settings(), then solve and simulate
    workloads = _load_workloads(monkeypatch)
    workload = workloads.WORKLOADS[name]
    ctx = workloads.Context(tmp_path)
    state = workload.setup(tubecbf, ctx)
    result = workload.job(tubecbf, ctx, state, 0, 0)
    assert result.failures == []
    assert result.values["objective_evals"] <= state[1].budget
    assert result.values["steps"] > 0
