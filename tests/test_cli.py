import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from tubecbf.cli import main
from tubecbf.config import ConfigError, ScenarioConfig, load_config, save_config
from tubecbf.simulate import read_trajectory_signal
from tubecbf.stl import horizon, iter_predicates
from tubecbf.synthesis import SolverSettings, SynthesisResult
from tubecbf.tube import load_tube, tube_to_record

from gen import power_tube


BASE = {
    "name": "stay",
    "dimension": 2,
    "t_f": 4.0,
    "state_bounds": [[0.0, 9.0], [0.0, 9.0]],
    "predicates": {"T": {"kind": "box", "center": [4.5, 4.5], "halfwidth": 3.5}},
    "formula": "F[0,4] T & G[0,4] T",
    "min_radius": 0.25,
    "epsilon": 0.2,
    "search_cover": {"theta": [10], "lambda": 3, "tau": 12},
    "basis": {"center_count": 5, "radius_count": 4},
    "radius_max": 2.0,
    "start": [4.5, 4.5],
    "solver": {"budget": 800},
    "dynamics": {"kind": "omni"},
    "dt": 0.05,
    "gain": 5.0,
    "output_dir": "out",
}


ROOT = Path(__file__).resolve().parent.parent
INF, NAN = float("inf"), float("nan")


def _write_config(tmp_path, overrides=None, name="scenario.yaml"):
    data = dict(BASE)
    if overrides:
        data.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


# ---------------------------------------------------------------------------
# config round trip and validation
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = ScenarioConfig.from_dict(dict(BASE))
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    again = load_config(path)
    assert again.to_dict() == cfg.to_dict()
    assert again == cfg


def test_config_built_with_tuples_dumps_and_round_trips():
    data = {**BASE, "start": (4.5, 4.5), "x0": (4.0, 5.0),
            "predicates": {"T": {"kind": "box", "center": (4.5, 4.5), "halfwidth": 3.5}}}
    cfg = ScenarioConfig(**data)
    text = yaml.safe_dump(cfg.to_dict(), sort_keys=True)
    assert "!!python" not in text
    again = ScenarioConfig.from_dict(yaml.safe_load(text))
    assert again.to_dict() == cfg.to_dict()
    assert again == ScenarioConfig.from_dict(cfg.to_dict())
    assert again.start == [4.5, 4.5] and again.predicates["T"]["center"] == [4.5, 4.5]


def test_config_rejects_unknown_and_missing_keys(tmp_path):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "mystery": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({k: v for k, v in BASE.items() if k != "formula"})


def test_config_validates_dimensions():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "x0": [1.0, 2.0, 3.0]})
    bad_pred = {"T": {"kind": "box", "center": [4.5], "halfwidth": 3.5}}
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "predicates": bad_pred})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "dynamics": {"kind": "quadrotor"}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "dynamics": {"kind": "boat"}})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({**BASE, "formula": "G[0,9] T"})  # horizon > t_f


def test_config_formula_errors_surface():
    from tubecbf.stl import UndefinedPredicateError
    with pytest.raises(UndefinedPredicateError):
        ScenarioConfig.from_dict({**BASE, "formula": "F[0,4] MISSING"})


# ---------------------------------------------------------------------------
# cmd_check
# ---------------------------------------------------------------------------

def test_check_happy_path(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "horizon: 4" in out
    assert "lipschitz" in out


def test_check_prints_the_tree_of_every_node_kind(tmp_path, capsys):
    # one formula with every node kind: !, &, |, F, G, U, true, predicates
    # (one of them twice), and => desugared to ! and |
    box = {"kind": "box", "center": [4.5, 4.5], "halfwidth": 3.5}
    formula = "F[0,2] (A U[1,3] B) & (!G[0.5,4] C | true) & (D => F[0,1.5] G[0,1] A)"
    cfg = _write_config(tmp_path, {"t_f": 5.0, "formula": formula,
                                   "predicates": {name: box for name in "ABCD"}})
    assert main(["check", "--config", str(cfg)]) == 0
    tree = "\n".join([
        "And",
        "  And",
        "    Eventually[0,2]",
        "      Until[1,3]",
        "        A",
        "        B",
        "    Or",
        "      Not",
        "        Always[0.5,4]",
        "          C",
        "      true",
        "  Or",
        "    Not",
        "      D",
        "    Eventually[0,1.5]",
        "      Always[0,1]",
        "        A",
    ])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"formula: {formula}"
    assert "\n".join(out[1:-3]) == tree
    assert out[-3] == "horizon: 5 s"
    f = load_config(cfg).build_formula()
    assert horizon(f) == 5.0
    assert [p.name for p in iter_predicates(f)] == ["A", "D", "C", "B", "A"]


def test_check_undeclared_predicate_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"formula": "F[0,4] Q"})
    assert main(["check", "--config", str(cfg)]) == 2
    assert "Q" in capsys.readouterr().err


def test_check_empty_formula_exits_2(tmp_path):
    cfg = _write_config(tmp_path, {"formula": ""})
    assert main(["check", "--config", str(cfg)]) == 2


def test_check_missing_config_exits_2(tmp_path):
    assert main(["check", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_malformed_yaml_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("name: [unclosed\ndimension: 2\n")
    assert main(["check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "Traceback" not in err


@pytest.mark.parametrize("overrides, named", [
    ({"solver": {"budjet": 100}}, "budjet"),
    ({"solver": {"budget": 800, "starts": 3}}, "starts"),
    ({"epsilon": None, "cover_counts": {"theta": [10], "tau": 12}}, "lambda"),
    ({"epsilon": None, "cover_counts": {"theta": [10, 3], "lambda": 3, "tau": 12}}, "theta"),
    ({"search_cover": {"theta": [10], "lambda": 3, "tau": 12, "phi": 2}}, "phi"),
    ({"basis": {"kind": "bezier", "center_count": 5, "radius_count": 4}}, "kind"),
    ({"epsilon": None}, "epsilon"),
    ({"basis": {"kind": "bernstein", "center_count": 5, "radius_count": 4}}, "kind"),
    ({"pin_start": True}, "pin_start"),
    ({"dynamics": {"kind": "diffdrive", "lookahed": 0.3}}, "lookahed"),
    ({"dynamics": {"kind": "omni", "lookahead": 0.3}}, "lookahead"),
    ({"dynamics": {"kind": "omni", "n": 3}}, "['n']"),
    ({"name": "../escaped"}, "name"),
    ({"name": "sub/dir"}, "name"),
    ({"name": ".."}, "name"),
    ({"name": ""}, "name"),
    ({"name": 7}, "name"),
    ({"x0_seed": 0}, "x0_seed"),
    # every Until follows the source paper's rule
    ({"until_convention": "paper"}, "unknown keys ['until_convention']"),
    # the safety QP is unweighted
    ({"control_weight": [1.0, 1.0]}, "unknown keys ['control_weight']"),
], ids=["misspelt-solver-key", "removed-solver-key", "cover-counts-missing-key",
        "cover-counts-wrong-dimension", "search-cover-unknown-key", "unknown-basis-kind",
        "no-cover", "removed-basis-kind", "removed-pin-start",
        "misspelt-dynamics-parameter", "dynamics-parameter-of-another-kind",
        "dynamics-parameter-named-like-an-argument",
        "name-leaves-out-dir", "name-with-separator", "name-parent-dir", "empty-name",
        "name-not-a-string", "removed-x0-seed", "removed-until-convention",
        "removed-control-weight"])
def test_check_bad_nested_block_exits_2(tmp_path, capsys, overrides, named):
    data = {k: v for k, v in {**BASE, **overrides}.items() if v is not None}
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["check", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"min_radius": -0.25}, "min_radius"),
    ({"epsilon": -0.12}, "epsilon"),
    ({"center_box_scale": -1.0}, "center_box_scale"),
    ({"radius_max": -0.5}, "radius_max"),
    ({"gain": -5.0}, "gain"),
    # control_weight is no longer a key, so this and the cases below that set
    # it exit 2 naming it as an unknown key
    ({"control_weight": [0.0, 1.0]}, "control_weight"),
    ({"input_bound": -1.0}, "input_bound"),
    ({"solver": {"budget": -5}}, "budget"),
    ({"x0_seed": -1}, "x0_seed"),
    ({"basis": {"center_count": 0, "radius_count": 4}}, "center_count"),
    ({"search_cover": {"theta": [10], "lambda": 0, "tau": 12}}, "lambda"),
    ({"epsilon": None, "cover_counts": {"theta": [0], "lambda": 3, "tau": 12}}, "theta"),
    ({"epsilon": None, "cover_counts": {"theta": [10], "lambda": 3, "tau": -4}}, "tau"),
    # the solver block has no seed: synthesis draws no random number
    ({"solver": {"seed": -1, "budget": 800}}, "seed"),
    ({"start": [100.0, 100.0]}, "start"),
    ({"start": [4.5, -0.5]}, "start"),
    ({"predicates": {"T": {"kind": "box", "center": [4.5, 4.5], "halfwidth": -1.0}}},
     "halfwidth"),
    ({"predicates": {"T": {"kind": "box", "center": [4.5, 4.5], "halfwidth": 0.0}}},
     "halfwidth"),
    ({"predicates": {"T": {"kind": "ball", "center": [4.5, 4.5], "radius": 0.0}}},
     "radius"),
    # YAML's .nan and .inf are numbers that pass every range check
    ({"t_f": INF}, "t_f"),
    ({"t_f": NAN}, "t_f"),
    ({"dt": NAN}, "dt"),
    ({"min_radius": INF, "radius_max": None}, "min_radius"),
    ({"epsilon": INF}, "epsilon"),
    ({"center_box_scale": INF}, "center_box_scale"),
    ({"radius_max": INF}, "radius_max"),
    ({"gain": INF}, "gain"),
    ({"input_bound": INF}, "input_bound"),
    ({"x0": [NAN, 1.0]}, "x0"),
    ({"control_weight": [1.0, INF]}, "control_weight"),
    ({"state_bounds": [[0.0, INF], [0.0, 9.0]]}, "state_bounds"),
    ({"state_bounds": [[NAN, 9.0], [0.0, 9.0]], "start": None}, "state_bounds"),
    ({"predicates": {"T": {"kind": "box", "center": [4.5, NAN], "halfwidth": 3.5}}},
     "center"),
    ({"predicates": {"T": {"kind": "box", "center": [4.5, 4.5], "halfwidth": INF}}},
     "halfwidth"),
    ({"predicates": {"T": {"kind": "ball", "center": [4.5, 4.5], "radius": INF}}},
     "radius"),
    ({"predicates": {"T": {"kind": "halfspace", "weights": [1.0, INF], "offset": 1.0}}},
     "weights"),
    ({"predicates": {"T": {"kind": "halfspace", "weights": [1.0, 0.0], "offset": NAN}}},
     "offset"),
    # a predicate's numbers are numbers, as every other number of the config
    ({"predicates": {"T": {"kind": "box", "center": ["4.5", 4.5], "halfwidth": 3.5}}},
     "center"),
    ({"predicates": {"T": {"kind": "box", "center": [4.5, 4.5], "halfwidth": True}}},
     "halfwidth"),
    # synthesize refuses this cover before it solves, so check refuses it too
    ({"epsilon": 0.002}, "over the budget"),
])
def test_check_out_of_range_value_exits_2(tmp_path, capsys, overrides, named):
    cfg = _write_config(tmp_path, overrides)
    assert main(["check", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("dt", "fast"),
    ("gain", "five"),
    # counts must be true integers: int() would truncate 4.6 to 4
    ("basis", {"center_count": 4.6, "radius_count": 4}),
    ("basis", {"center_count": True, "radius_count": 4}),
    ("search_cover", {"theta": ["a"], "lambda": 4, "tau": 24}),
    ("solver", {"budget": 10.7}),
    ("solver", {"budget": "2500"}),
    ("x0", ["a", "b"]),
    ("start", ["a", 1.5]),
    ("predicates", [1, 2]),
    ("predicates", {"T": 5}),
    ("x0", 1.5),
    ("start", 1.5),
    ("control_weight", 2.0),
    # state bounds are read as every other number, not cast to float
    ("state_bounds", [["0", 10.0], [0.0, 10.0]]),
    ("state_bounds", [[False, 10.0], [0.0, 10.0]]),
    ("state_bounds", [["1e0", 10.0], [0.0, 10.0]]),
])
def test_check_non_numeric_scalar_exits_2(tmp_path, capsys, key, value):
    data = yaml.safe_load((ROOT / "configs" / "omni_reach_avoid.yaml").read_text())
    data[key] = value
    cfg = tmp_path / "omni_reach_avoid.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("state_bounds", [[0.0, 10.0], [0.0, 10.0, 3.0]]),
    ("x0", [[1.0, 2.0], 3.0]),
    ("start", [2.5, [2.5, 1.0]]),
    ("control_weight", [[1.0, 2.0], 1.0]),
])
def test_check_ragged_vector_exits_2(tmp_path, capsys, key, value):
    # numpy reads a ragged list only to raise its own "inhomogeneous shape"
    # error, which names no key
    data = yaml.safe_load((ROOT / "configs" / "omni_reach_avoid.yaml").read_text())
    data[key] = value
    cfg = tmp_path / "omni_reach_avoid.yaml"
    cfg.write_text(yaml.safe_dump(data))
    assert main(["check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err and "inhomogeneous" not in err


@pytest.mark.parametrize("overrides, named", [
    ({"basis": {"center_count": 1100, "radius_count": 4}},
     "basis center_count must be an integer of at least 1 and at most 1030"),
    ({"dt": 0.000000001}, "dt must be positive and make 1 to 1000000 steps"),
    ({"epsilon": None, "cover_counts": {"theta": [100000], "lambda": 1000, "tau": 1000}},
     "cover_counts: cover needs 100000000000 samples, over the budget 50000000"),
    ({"search_cover": {"theta": [100000], "lambda": 1000, "tau": 1000}},
     "error: search_cover needs 100000000000 samples, over the budget 50000000"),
    ({"epsilon": 0.00001}, "epsilon: cover needs"),
], ids=["basis-binomials-past-float-range", "six-billion-steps", "cover-over-budget",
        "search-cover-over-budget", "epsilon-cover-over-budget"])
def test_check_refuses_what_would_crash_or_run_for_hours(tmp_path, capsys, overrides, named):
    # synthesize or simulate would raise OverflowError, or run for hours, on
    # each of these; check refuses it without building the large object
    data = yaml.safe_load((ROOT / "configs" / "omni_reach_avoid.yaml").read_text())
    data = {k: v for k, v in {**data, **overrides}.items() if v is not None}
    cfg = tmp_path / "omni_reach_avoid.yaml"
    cfg.write_text(yaml.safe_dump(data))
    tracemalloc.start()
    try:
        code = main(["check", "--config", str(cfg)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert named in capsys.readouterr().err
    assert peak < 4 * 2**20


@pytest.mark.parametrize("text, hint", [("12e-2", "12.0e-2"), ("2E-1", "2.0e-1"),
                                        ("2E0", "2.0e+0"), ("'0.12'", "0.12"), ("'7'", "7.0")])
def test_number_yaml_reads_as_a_string_names_its_float_form(tmp_path, capsys, text, hint):
    # YAML 1.1 reads a float only with a dot and a signed exponent
    source = (ROOT / "configs" / "omni_reach_avoid.yaml").read_text()
    cfg = tmp_path / "omni_reach_avoid.yaml"
    cfg.write_text(source.replace("epsilon: 0.12", f"epsilon: {text}"))
    assert main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"got {text.strip(chr(39))!r}; write {hint}")
    cfg.write_text(source.replace("epsilon: 0.12", f"epsilon: {hint}"))
    assert load_config(cfg).epsilon == float(text.strip("'"))
    cfg.write_text(source.replace("epsilon: 0.12", "epsilon: fast"))
    assert main(["check", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.rstrip().endswith("got 'fast'")


@pytest.mark.parametrize("command, extra", [("check", []), ("verify", ["--log", "run.csv"]),
                                            ("synthesize", [])])
def test_only_simulate_and_bench_take_a_seed(tmp_path, command, extra):
    # synthesis draws no random number, so synthesize has no seed to take
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), *extra, "--seed", "1"])
    assert exc.value.code == 2


def test_start_state_draw_defaults_to_seed_0():
    tube = power_tube([[4.5], [4.5]], [1.0], BASE["t_f"])
    config = ScenarioConfig.from_dict(BASE)
    assert np.array_equal(config.pick_x0(tube), config.pick_x0(tube, seed=0))
    assert not np.array_equal(config.pick_x0(tube), config.pick_x0(tube, seed=3))


@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_negative_start_seed_exits_2(tmp_path, capsys, command):
    cfg = _write_config(tmp_path)
    args = (["simulate", "--config", str(cfg), "--tube", "t.json"] if command == "simulate"
            else ["bench", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: must be at least 0" in capsys.readouterr().err


def test_solver_block_takes_every_solver_setting_but_the_search_cover(tmp_path, capsys):
    # the search cover is the top-level search_cover key, not a solver key
    defaults = SolverSettings()
    solver = {f.name: getattr(defaults, f.name) for f in fields(SolverSettings)
              if f.name != "search_cover"}
    assert main(["check", "--config", str(_write_config(tmp_path, {"solver": solver}))]) == 0
    settings = ScenarioConfig.from_dict({**BASE, "solver": solver}).solver_settings()
    assert {key: getattr(settings, key) for key in solver} == solver
    for unknown in ("search_cover", "starts", "seed"):
        cfg = _write_config(tmp_path, {"solver": {**solver, unknown: 1}})
        assert main(["check", "--config", str(cfg)]) == 2
        assert f"solver: unknown keys ['{unknown}']" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"t_f": -1.0}, "t_f"),
    ({"t_f": 0.0}, "t_f"),
    ({"dt": -0.05}, "dt"),
    ({"dt": 0.0}, "dt"),
], ids=["negative-t-f", "zero-t-f", "negative-dt", "zero-dt"])
def test_check_nonpositive_horizon_or_step_exits_2(tmp_path, capsys, overrides, named):
    # the cover reads t_f before any other owner does, and run_settings reads dt
    assert main(["check", "--config", str(_write_config(tmp_path, overrides))]) == 2
    assert f"{named} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("config, dt", [("stlfrag_2", 0.07), ("stlfrag_2", 15.0),
                                        ("omni_reach_avoid", 0.055)])
def test_check_dt_that_does_not_divide_t_f_exits_2(tmp_path, capsys, config, dt):
    # the run would take round(t_f / dt) steps of another length than dt
    # (143 steps of 0.06993 s for 0.07 on t_f = 10, one step of 10 s for 15)
    data = yaml.safe_load((ROOT / "configs" / f"{config}.yaml").read_text())
    cfg = tmp_path / f"{config}.yaml"
    cfg.write_text(yaml.safe_dump({**data, "dt": dt}))
    assert main(["check", "--config", str(cfg)]) == 2
    assert f"dt must divide t_f {float(data['t_f'])} into whole steps, got {dt}" \
        in capsys.readouterr().err


def test_epsilon_beside_cover_counts_is_refused(tmp_path, capsys):
    # either key sets the cover, so a config that sets both is ambiguous
    counts = {"theta": [10], "lambda": 3, "tau": 12}
    cfg = _write_config(tmp_path, {"epsilon": 0.2, "cover_counts": counts})
    assert main(["check", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err and "cover_counts" in err
    cfg = _write_config(tmp_path, {"epsilon": None, "cover_counts": counts})
    assert main(["check", "--config", str(cfg)]) == 0


def test_readme_lists_every_config_key():
    # the backticked keys before each bullet's colon in the README's key list
    text = (ROOT / "README.md").read_text()
    section = text.split("## Scenario configuration", 1)[1].split("\n\n")[2]
    bullets = section.split("\n- ")
    keys = [k for b in bullets for k in re.findall(r"`(\w+)`", b.split(":", 1)[0])]
    assert sorted(keys) == sorted(f.name for f in fields(ScenarioConfig))


def test_check_bad_dynamics_parameter_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"dynamics": {"kind": "diffdrive", "lookahead": 0.0}})
    assert main(["check", "--config", str(cfg)]) == 2
    assert "look-ahead" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# synthesize / simulate / verify / bench
# ---------------------------------------------------------------------------

def test_pipeline_end_to_end(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"

    assert main(["synthesize", "--config", str(cfg), "--out", str(out_dir),
                 "--emit-plot-data"]) == 0
    tube_path = out_dir / "stay_tube.json"
    result_path = out_dir / "stay_result.json"
    assert tube_path.exists() and result_path.exists()
    assert (out_dir / "stay_tube_profile.csv").exists()
    result = SynthesisResult.load(result_path)
    assert result.certificate_ok
    # no wall-clock content in the result file
    assert "wall" not in result_path.read_text()

    assert main(["simulate", "--config", str(cfg), "--tube", str(tube_path),
                 "--out", str(out_dir)]) == 0
    log_path = out_dir / "stay_trajectory.csv"
    report_path = out_dir / "stay_report.json"
    assert log_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["satisfied"] is True
    assert report["min_b"] >= -1e-3

    assert main(["verify", "--config", str(cfg), "--log", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "satisfied" in out


def test_synthesize_repeat_same_seed_byte_identical(tmp_path):
    cfg = _write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "stay_result.json").read_bytes() == (out_b / "stay_result.json").read_bytes()
    assert (out_a / "stay_tube.json").read_bytes() == (out_b / "stay_tube.json").read_bytes()


# seed-0 artifacts of the shipped scenarios: each command's exit code and
# the sha256 of what it writes
REFERENCE_DIGESTS = json.loads((ROOT / "tests" / "reference_digests.json").read_text())


def _assert_digests(out: Path, record: dict) -> None:
    for name, digest in record["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("scenario", ["omni_reach_avoid", "stlcg_2", "stlcg_1",
                                      "quadrotor_cycle", "diffdrive_sequential"])
def test_synthesize_matches_reference_artifacts(tmp_path, scenario):
    # a pure speed-up must reproduce the table's artifacts byte for byte.
    # quadrotor_cycle is uncertified (exit 3) and runs the certificate polish;
    # diffdrive_sequential's search grows the largest witness set.
    record = REFERENCE_DIGESTS["scenarios"][scenario]["synthesize"]
    assert set(record["sha256"]) == {f"{scenario}_tube.json", f"{scenario}_result.json"}
    assert main(["synthesize", "--config", str(ROOT / "configs" / f"{scenario}.yaml"),
                 "--out", str(tmp_path)]) == record["exit"]
    _assert_digests(tmp_path, record)


def test_artifacts_match_reference_on_another_cpu_path(tmp_path):
    # the same bytes whatever kernel OpenBLAS picks and whichever SIMD
    # targets numpy dispatches to: a fresh process on the Haswell kernel,
    # with every AVX-512 target this host would use switched off, runs the
    # CLI's synthesize and simulate commands and writes the table's artifacts
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    avx512 = [f for f in __cpu_dispatch__
              if (f == "X86_V4" or f.startswith("AVX512")) and __cpu_features__.get(f)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Haswell",
           "NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    runs = []
    for scenario in sorted(REFERENCE_DIGESTS["scenarios"]):
        config = str(ROOT / "configs" / f"{scenario}.yaml")
        common = ["--config", config, "--out", str(tmp_path / scenario)]
        runs += [(scenario, "synthesize", ["synthesize", *common]),
                 (scenario, "simulate", ["simulate", *common, "--seed", "0", "--tube",
                                         str(tmp_path / scenario / f"{scenario}_tube.json")])]
    program = ("import json, sys\n"
               "from tubecbf.cli import main\n"
               "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
               "print(json.dumps(codes))\n")
    out = subprocess.run([sys.executable, "-c", program, json.dumps([argv for *_, argv in runs])],
                         capture_output=True, text=True, check=True, timeout=300, env=env)
    codes = json.loads(out.stdout.splitlines()[-1])
    for (scenario, command, _), code in zip(runs, codes, strict=True):
        record = REFERENCE_DIGESTS["scenarios"][scenario][command]
        assert code == record["exit"], (scenario, command)
        _assert_digests(tmp_path / scenario, record)


def test_synthesize_forced_infeasible_exits_3(tmp_path):
    # a radius box collapsed onto the floor leaves no certified tube
    cfg = _write_config(tmp_path, {
        "name": "cramped",
        "radius_max": 0.25,
        "solver": {"budget": 200},
    })
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_bench_uncertified_synthesis_exits_3(tmp_path, capsys):
    # the closed loop of the cramped tube is satisfied, but its synthesis is
    # uncertified, and bench exits with the worse of the two codes
    cfg = _write_config(tmp_path, {
        "name": "cramped",
        "radius_max": 0.25,
        "solver": {"budget": 200},
    })
    assert main(["bench", str(cfg), "--out", str(tmp_path / "o")]) == 3
    row = capsys.readouterr().out.strip().splitlines()[-1]
    cells = [c.strip() for c in row.split("|")]
    assert cells[0] == "cramped" and cells[4] == "no" and float(cells[5]) > 0


def test_simulate_dimension_mismatch_exits_2(tmp_path):
    cfg = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out_dir)]) == 0
    other = _write_config(tmp_path, {"t_f": 5.0, "formula": "F[0,5] T"},
                          name="other.yaml")
    assert main(["simulate", "--config", str(other),
                 "--tube", str(out_dir / "stay_tube.json"),
                 "--out", str(out_dir)]) == 2


def test_simulate_bad_start_exits_4(tmp_path):
    cfg = _write_config(tmp_path, {"x0": [0.1, 0.1]})  # far outside the tube
    out_dir = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert main(["simulate", "--config", str(cfg),
                 "--tube", str(out_dir / "stay_tube.json"),
                 "--out", str(out_dir)]) == 4


def test_simulate_vanishing_radius_exits_4(tmp_path, capsys):
    # r(t) = 1 - 0.5 t reaches zero at t = 2, inside the horizon
    tube = power_tube([[4.5, 0.0], [4.5, 0.0]], [1.0, -0.5], 4.0)
    tube_path = tmp_path / "shrinking_tube.json"
    tube_path.write_text(json.dumps(tube_to_record(tube)))
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--tube", str(tube_path),
                 "--out", str(tmp_path / "out")]) == 4
    assert "tube radius" in capsys.readouterr().err


def test_simulate_input_over_its_bound_exits_4(tmp_path, capsys):
    # the reference omni run reaches |u_i| = 2.27; a bound of 2, written as
    # YAML's integer 2, refuses the step that needs more, and no log is left
    tube_path = ROOT / "perfbench" / "ref" / "omni_reach_avoid_tube.json"
    data = yaml.safe_load((ROOT / "configs" / "omni_reach_avoid.yaml").read_text())
    cfg = tmp_path / "omni_reach_avoid.yaml"
    cfg.write_text(yaml.safe_dump({**data, "input_bound": 2}))
    assert isinstance(load_config(cfg).input_bound, int)
    out = tmp_path / "out"
    for argv in (["simulate", "--config", str(cfg), "--tube", str(tube_path)], ["bench", str(cfg)]):
        assert main([*argv, "--seed", "0", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "runtime failure: input" in err and "input_bound" in err and "t=" in err
        assert not (out / "omni_reach_avoid_trajectory.csv").exists()
        assert not (out / "omni_reach_avoid_report.json").exists()
    cfg.write_text(yaml.safe_dump({**data, "input_bound": 2.5}))
    assert main(["simulate", "--config", str(cfg), "--tube", str(tube_path),
                 "--out", str(out)]) == 0


def test_simulate_rejects_a_tube_record_of_another_basis(tmp_path, capsys):
    # a record's q_c and q_r are Bernstein control points; read as such, the
    # power-form coefficients of this static tube would describe another curve
    record = {"n": 2, "t_f": 4.0, "basis": "monomial", "z_c": 2, "z_r": 2,
              "q_c": [4.5, 0.0, 4.5, 0.0], "q_r": [1.0, 0.0]}
    tube_path = tmp_path / "monomial_tube.json"
    tube_path.write_text(json.dumps(record))
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--tube", str(tube_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "monomial" in capsys.readouterr().err


@pytest.mark.parametrize("record, named", [
    ([], "malformed 'basis'"),
    ({"n": None, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 'n'"),
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5]}, "malformed 'q_r'"),
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 3, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 'q_c'"),
    ({"n": -1, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 'n'"),
    ({"n": 2.7, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 'n'"),
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": "2", "z_r": True,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 'z_c'"),
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0, 1.0]}, "malformed 'q_r'"),
    # a NaN control point used to load and fail the run with exit 4
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, NAN, 4.5, 4.5], "q_r": [1.0]}, "malformed 'q_c'"),
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [INF]}, "malformed 'q_r'"),
    ({"n": 2, "t_f": NAN, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 't_f'"),
    ({"n": 2, "t_f": INF, "basis": "bernstein", "z_c": 2, "z_r": 1,
      "q_c": [4.5, 4.5, 4.5, 4.5], "q_r": [1.0]}, "malformed 't_f'"),
    # the basis binomials of 1100 control points leave float range, which
    # raised OverflowError (exit 1) when the basis rows were built
    ({"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 1100, "z_r": 1,
      "q_c": [4.5] * 2200, "q_r": [1.0]},
     "count must be an integer of at least 1 and at most 1030"),
], ids=["list", "null-n", "missing-q_r", "q_c-of-wrong-size", "negative-n", "fractional-n",
        "string-z_c", "q_r-of-wrong-size", "nan-q_c", "inf-q_r", "nan-t_f", "inf-t_f",
        "z_c-past-float-binomials"])
def test_simulate_malformed_tube_record_exits_2(tmp_path, capsys, record, named):
    tube_path = tmp_path / "bad_tube.json"
    tube_path.write_text(json.dumps(record))
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--tube", str(tube_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {tube_path}: " in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["omni_reach_avoid", "quadrotor_cycle"])
def test_tube_profile_holds_the_tubes_own_values(tmp_path, name):
    tube_path = ROOT / "perfbench" / "ref" / f"{name}_tube.json"
    assert main(["simulate", "--config", str(ROOT / "configs" / f"{name}.yaml"),
                 "--tube", str(tube_path), "--seed", "0", "--out", str(tmp_path),
                 "--emit-plot-data"]) == 0
    tube = load_tube(tube_path)
    lines = (tmp_path / f"{name}_tube_profile.csv").read_text().splitlines()
    assert lines[0] == "t," + ",".join(f"c_{i+1}" for i in range(tube.dimension)) + ",r"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == np.linspace(0.0, tube.t_f, 201).tolist()
    for t, *center, radius in rows:
        assert center == tube.center(t).tolist() and radius == tube.radius(t), t


@pytest.mark.parametrize("command", ["check", "simulate", "verify"])
def test_directory_given_as_an_input_path_exits_2(tmp_path, capsys, command):
    # reading a directory raises IsADirectoryError, which is an OSError and
    # not an input error; each reader reports it as one
    cfg = _write_config(tmp_path)
    argv = {"check": ["check", "--config", str(tmp_path)],
            "simulate": ["simulate", "--config", str(cfg), "--tube", str(tmp_path),
                         "--out", str(tmp_path / "out")],
            "verify": ["verify", "--config", str(cfg), "--log", str(tmp_path)]}[command]
    assert main(argv) == 2
    assert f"error: {tmp_path} is a directory" in capsys.readouterr().err


_LOG = "t,x_1,x_2,u_1,u_2,b,psi,active\n0,4.5,4.5,0,0,1,0,0\n4,4.5,4.5,0,0,1,0,0\n"


@pytest.mark.parametrize("text, named", [
    ("", "not a trajectory log"),
    (_LOG + "\n", "line 4"),
    (_LOG + "4.5,4.5,4.5\n", "line 4"),
    (_LOG.replace("\n4,", "\n-1,"), "run.csv: times must be strictly increasing"),
], ids=["empty-file", "trailing-blank-line", "short-row", "decreasing-times"])
def test_verify_malformed_log_exits_2(tmp_path, capsys, text, named):
    log = tmp_path / "run.csv"
    log.write_text(text)
    cfg = _write_config(tmp_path)
    assert main(["verify", "--config", str(cfg), "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "simulate", "verify"])
@pytest.mark.parametrize("fault", ["not-utf-8", "malformed"])
def test_input_file_errors_name_the_file(tmp_path, capsys, command, fault):
    # a non-number in a log row, a tube record that is not JSON, and a
    # config, tube or log that is not UTF-8 each name the file (a log also
    # its line), as a YAML error does
    cfg = _write_config(tmp_path)
    bad = tmp_path / {"check": "bad.yaml", "simulate": "bad_tube.json",
                      "verify": "bad.csv"}[command]
    if fault == "not-utf-8":
        bad.write_bytes(b"name: \xff\n")
        where = f"{bad}: 'utf-8' codec can't decode byte 0xff"
    elif command == "check":
        bad.write_text("name: [unclosed\n")
        where = f"{bad}: "
    elif command == "simulate":
        bad.write_text('{"n": 2,}')
        where = f"{bad}: Expecting property name enclosed in double quotes"
    else:
        bad.write_text(_LOG.replace("4,4.5,4.5", "4,abc,4.5"))
        where = f"{bad}: line 3: could not convert string to float: 'abc'"
    argv = {"check": ["check", "--config", str(bad)],
            "simulate": ["simulate", "--config", str(cfg), "--tube", str(bad),
                         "--out", str(tmp_path / "out")],
            "verify": ["verify", "--config", str(cfg), "--log", str(bad)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {where}" in err and "Traceback" not in err


@pytest.mark.parametrize("text, message", [
    ("t,x_1,x_2\n0,4.5,4.5\n", "formula horizon 6.0 from t=0.0 exceeds signal end 0.0"),
    ("t,x_1,x_2,x_3\n0,4.5,4.5,4.5\n6,4.5,4.5,4.5\n", "log dimension 3 does not match config 2"),
], ids=["ends-before-horizon", "wrong-dimension"])
def test_verify_log_that_does_not_fit_the_config_names_the_log(tmp_path, capsys, text,
                                                                 message):
    log = tmp_path / "short.csv"
    log.write_text(text)
    cfg = ROOT / "configs" / "omni_reach_avoid.yaml"
    assert main(["verify", "--config", str(cfg), "--log", str(log)]) == 2
    assert capsys.readouterr().err == f"error: {log}: {message}\n"


def test_verify_rejects_obstacle_crossing(tmp_path):
    cfg = _write_config(tmp_path, {
        "name": "avoid",
        "predicates": {
            "T": {"kind": "box", "center": [4.5, 4.5], "halfwidth": 3.5},
            "O": {"kind": "box", "center": [2.0, 2.0], "halfwidth": 0.5},
        },
        "formula": "G[0,4] T & G[0,4] !O",
    })
    # hand-built log that cuts straight through the obstacle once
    times = np.linspace(0.0, 4.0, 81)
    xs = np.linspace(4.5, 1.0, 81)
    rows = ["t,x_1,x_2,u_1,u_2,b,psi,active"]
    for t, x in zip(times, xs):
        rows.append(f"{t:.17g},{x:.17g},{x:.17g},0,0,1,0,0")
    log = tmp_path / "bad.csv"
    log.write_text("\n".join(rows) + "\n")
    assert main(["verify", "--config", str(cfg), "--log", str(log)]) == 3


def test_verify_reads_only_state_columns(tmp_path):
    cfg = _write_config(tmp_path)
    times = np.linspace(0.0, 4.0, 41)
    rows = ["t,x_1,x_2,u_1,u_2,b,psi,active"]
    for t in times:
        # nonsense barrier/psi columns must not influence the verdict
        rows.append(f"{t:.17g},4.5,4.5,9e9,nan,-1,nan,1")
    log = tmp_path / "weird.csv"
    log.write_text("\n".join(rows) + "\n")
    assert main(["verify", "--config", str(cfg), "--log", str(log)]) == 0


def test_bench_two_tasks(tmp_path, capsys):
    cfg1 = _write_config(tmp_path, {"name": "task_a"}, name="a.yaml")
    cfg2 = _write_config(tmp_path, {"name": "task_b"}, name="b.yaml")
    out_dir = tmp_path / "bench_out"
    seed = ["--seed", "3"]
    assert main(["bench", str(cfg1), str(cfg2), "--out", str(out_dir)] + seed) == 0
    table = (out_dir / "bench.txt").read_text().strip().splitlines()
    assert table[0].startswith("task |")
    assert len(table) == 3
    assert table[1].startswith("task_a") and table[2].startswith("task_b")
    for line in table[1:]:
        cells = [c.strip() for c in line.split("|")]
        assert float(cells[1]) >= 0 and float(cells[2]) >= 0

    # bench writes exactly what synthesize then simulate write for the same seed
    sep_dir = tmp_path / "separate"
    assert main(["synthesize", "--config", str(cfg1), "--out", str(sep_dir)]) == 0
    assert main(["simulate", "--config", str(cfg1), "--tube", str(sep_dir / "task_a_tube.json"),
                 "--out", str(sep_dir)] + seed) == 0
    for suffix in ("tube.json", "result.json", "trajectory.csv", "report.json"):
        name = f"task_a_{suffix}"
        assert (out_dir / name).read_bytes() == (sep_dir / name).read_bytes(), name


def test_bench_start_seed_leaves_the_synthesis_artifacts_unchanged(tmp_path):
    # the start-state draw is the only thing a seed picks: the solve draws no
    # random number (stlcg_1 was once solved at a solver seed, and seed 2 did
    # not certify it)
    config = str(ROOT / "configs" / "stlcg_1.yaml")
    for seed in ("1", "2"):
        assert main(["bench", config, "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    for suffix in ("tube.json", "result.json"):
        name = f"stlcg_1_{suffix}"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


@pytest.mark.parametrize("command", ["synthesize", "simulate", "bench"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command, under):
    # mkdir's FileExistsError and NotADirectoryError are input errors
    cfg = _write_config(tmp_path)
    tube = tmp_path / "tube.json"
    tube.write_text(json.dumps(tube_to_record(power_tube([[4.5], [4.5]], [1.0], BASE["t_f"]))))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    args = {"synthesize": ["synthesize", "--config", str(cfg)],
            "simulate": ["simulate", "--config", str(cfg), "--tube", str(tube)],
            "bench": ["bench", str(cfg)]}[command]
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"cannot make output directory {out}" in err and "Traceback" not in err


def test_log_round_trip_matches_simulator(tmp_path):
    cfg_path = _write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["synthesize", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert main(["simulate", "--config", str(cfg_path),
                 "--tube", str(out_dir / "stay_tube.json"), "--out", str(out_dir)]) == 0
    sig = read_trajectory_signal(out_dir / "stay_trajectory.csv")
    assert sig.dimension == 2
    assert sig.times[0] == 0.0 and sig.times[-1] == 4.0


def test_shipped_configs_validate_and_round_trip():
    config_dir = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in config_dir.glob("*.yaml"))
    assert len(names) >= 7
    for name in names:
        cfg = load_config(config_dir / name)
        again = ScenarioConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
        assert again == cfg


def test_check_benchmark_horizon(capsys):
    config_dir = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs"
    assert main(["check", "--config", str(config_dir / "stlfrag_2.yaml")]) == 0
    assert "horizon: 10" in capsys.readouterr().out
