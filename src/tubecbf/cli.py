"""Command-line front end: check | synthesize | simulate | verify | bench.

Exit codes are a stable contract: 0 success/certified, 2 input error,
3 infeasible/uncertified/unsatisfied, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .cbf import InfeasibleStepError
from .config import ConfigError, ScenarioConfig, load_config
from .simulate import (
    RunReport,
    SimulationError,
    read_trajectory_signal,
    write_trajectory_log,
)
from .stl import horizon, robustness, robustness_lipschitz
from .synthesis import SynthesisResult, solve_sop
from .tube import SampledTube, Tube, load_tube, save_tube

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNCERTIFIED = 3
EXIT_RUNTIME = 4

# every input error (configs, formulas, tube records, covers, logs) is a ValueError
_INPUT_ERRORS = (ValueError, FileNotFoundError)


def _out_dir(config: ScenarioConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:
        # a file at out or at one of its parents is an input error
        raise ValueError(f"cannot make output directory {out}: {e.strerror}") from None
    return out


def _format_tree(f, indent: int = 0) -> str:
    pad = "  " * indent
    if not f.children:
        return f"{pad}{f}"
    window = f"[{f.start:g},{f.end:g}]" if hasattr(f, "end") else ""
    return "\n".join([f"{pad}{type(f).__name__}{window}"]
                     + [_format_tree(c, indent + 1) for c in f.children])


def _write_tube_profile(tube: Tube, path: Path) -> None:
    """t, c(t) and r(t) at 201 times, the tube's own values, one %.17g row each."""
    ts = np.linspace(0.0, tube.t_f, 201).tolist()
    table = SampledTube(tube, ts)
    n = tube.dimension
    header = "t," + ",".join(f"c_{i+1}" for i in range(n)) + ",r\n"
    row = ",".join(["%.17g"] * (n + 2)) + "\n"
    path.write_text(header + "".join(row % (t, *table.center(t).tolist(), table.radius(t))
                                     for t in ts))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    config = load_config(args.config)
    f = config.build_formula()
    print(f"formula: {config.formula}")
    print(_format_tree(f))
    print(f"horizon: {horizon(f):g} s")
    print(f"robustness lipschitz: {robustness_lipschitz(f):.6g}")
    print(f"dimension: {config.dimension}, t_f: {config.t_f:g} s")
    return EXIT_OK


def _synthesize(config: ScenarioConfig, args, out: Path) -> SynthesisResult:
    """Solve for the tube and write <name>_tube.json and <name>_result.json."""
    result = solve_sop(config.instance(), config.solver_settings())
    save_tube(result.tube, out / f"{config.name}_tube.json")
    result.save(out / f"{config.name}_result.json")
    if args.emit_plot_data:
        _write_tube_profile(result.tube, out / f"{config.name}_tube_profile.csv")
    return result


def _simulate(config: ScenarioConfig, tube: Tube, args, out: Path) -> RunReport:
    """Run the closed loop and write <name>_trajectory.csv and <name>_report.json."""
    report = config.closed_loop(tube, seed=args.seed)
    write_trajectory_log(out / f"{config.name}_trajectory.csv", report)
    summary = {
        "x0": [float(v) for v in report.x0],
        "steps": len(report.steps),
        "min_b": report.min_b,
        "tube_violations": report.tube_violations,
        "final_robustness": report.final_robustness,
        "satisfied": report.satisfied,
        "saturated_steps": report.saturated_steps,
    }
    (out / f"{config.name}_report.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return report


def cmd_synthesize(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config, args)
    result = _synthesize(config, args, out)

    print(f"eta_star: {result.eta_star:.6g}")
    print(f"lipschitz: {result.lipschitz.combined:.6g}")
    print(f"epsilon: {result.epsilon:.6g}")
    print(f"margin eta*+L*eps: {result.margin:.6g}")
    print(f"certificate: {'ok' if result.certificate_ok else 'NOT certified'}")
    print(f"worst constraint: {result.worst_constraint}")
    print(f"synthesis time: {result.wall_time:.3f} s")
    stem = out / config.name
    print(f"wrote {stem}_tube.json and {stem}_result.json")
    return EXIT_OK if result.certificate_ok else EXIT_UNCERTIFIED


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config, args)
    tube = load_tube(args.tube)
    report = _simulate(config, tube, args, out)
    if args.emit_plot_data:
        _write_tube_profile(tube, out / f"{config.name}_tube_profile.csv")

    print(f"steps: {len(report.steps)}, min_b: {report.min_b:.6g}, "
          f"tube violations: {report.tube_violations}")
    print(f"final robustness: {report.final_robustness:.6g} "
          f"({'satisfied' if report.satisfied else 'NOT satisfied'})")
    stem = out / config.name
    print(f"wrote {stem}_trajectory.csv and {stem}_report.json")
    return EXIT_OK if report.satisfied else EXIT_UNCERTIFIED


def cmd_verify(args) -> int:
    config = load_config(args.config)
    signal = read_trajectory_signal(args.log)
    if signal.dimension != config.dimension:
        raise ConfigError(
            f"log dimension {signal.dimension} does not match config {config.dimension}")
    formula = config.build_formula()
    report = robustness(formula, signal, 0.0)
    print(f"robustness: {report.value:.9g}")
    print("verdict: satisfied" if report.satisfied else "verdict: NOT satisfied")
    return EXIT_OK if report.satisfied else EXIT_UNCERTIFIED


def cmd_bench(args) -> int:
    """synthesize + simulate per config, writing what those two subcommands
    write, plus a table of timings and outcomes.  Exits with the worst code
    either subcommand would have returned for any config."""
    lines = ["task | synthesis_s | simulate_s | eta_star | certified | robustness"]
    worst_exit = EXIT_OK
    for cfg_path in args.configs:
        config = load_config(cfg_path)
        out = _out_dir(config, args)
        t0 = time.perf_counter()
        result = _synthesize(config, args, out)
        t1 = time.perf_counter()
        report = _simulate(config, result.tube, args, out)
        t2 = time.perf_counter()
        lines.append(f"{config.name} | {t1 - t0:.3f} | {t2 - t1:.3f} | "
                     f"{result.eta_star:.6g} | {'yes' if result.certificate_ok else 'no'} | "
                     f"{report.final_robustness:.6g}")
        if not (result.certificate_ok and report.satisfied):
            worst_exit = EXIT_UNCERTIFIED

    table = "\n".join(lines)
    print(table)
    (out / "bench.txt").write_text(table + "\n")
    return worst_exit


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubecbf",
        description="Synthesize spatiotemporal-tube barrier controllers for STL tasks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario YAML")

    def outputs(p):
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--emit-plot-data", action="store_true",
                       help="write tube cross-section CSV for external plotting")

    def start_seed(p):
        p.add_argument("--seed", type=_seed, default=0,
                       help="seed of the start-state draw when the config sets no x0 "
                            "(default 0)")

    p_check = sub.add_parser("check", help="parse and report the task formula")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_syn = sub.add_parser("synthesize", help="solve for a certified tube")
    common(p_syn)
    outputs(p_syn)
    p_syn.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="closed-loop run under the safety QP")
    common(p_sim)
    outputs(p_sim)
    start_seed(p_sim)
    p_sim.add_argument("--tube", required=True, help="tube record JSON")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="recompute robustness from a trajectory log")
    common(p_ver)
    p_ver.add_argument("--log", required=True, help="trajectory CSV")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="synthesize+simulate a batch of scenarios")
    p_bench.add_argument("configs", nargs="+", help="scenario YAML files")
    outputs(p_bench)
    start_seed(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (InfeasibleStepError, SimulationError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
