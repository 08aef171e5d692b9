"""Steadiness check: do two sets of runs of one commit agree within the bounds
that BENCHMARK.json fixes?

    python3 perfbench/tests/steadiness.py [--out runs.json]

Run from the repository root.  Each of two sets runs the benchmark command
once per BENCHMARK.json workload and seed (seeds 0..9, tracing off).  For
every end-to-end metric it reports the median and the quartile spread
(Q3 - Q1) / median of each set, as ``statistics.quantiles(values, n=4)`` gives
the quartiles.  The check fails when a run is incorrect, when a spread exceeds
the metric's bound, or when the second set's median differs from the first
set's by more than the bound, either way.  Spreads above a third of the bound
are flagged as not steady.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SETS = 2
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative when better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write every run's result here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    runs = {}   # (set, workload) -> [result]
    for s in range(SETS):
        for name in names:
            for seed in range(SEEDS):
                result = run_once(spec, name, seed)
                runs.setdefault((s, name), []).append(result)
                print(f"set {s} {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    flush=True)

    ok = True
    print(f"\n{'workload':<14} {'metric':<12} {'set':>3} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for name in names:
        bad = [r for s in range(SETS) for r in runs[(s, name)]
               if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print(f"{name}: {len(bad)} runs incorrect or with failed operations")
        for m in metrics:
            key, bound = m["name"], m["bound"]
            first = None
            for s in range(SETS):
                med, spr = spread([r["metrics"][key]["value"] for r in runs[(s, name)]])
                verdict = []
                if spr > bound:
                    verdict.append("SPREAD > BOUND")
                    ok = False
                elif spr > bound / 3:
                    verdict.append("spread > bound/3 (not steady)")
                if first is None:
                    first = med
                elif abs(worse_by(first, med, m["better"])) > bound:
                    verdict.append(f"MEDIAN DIFFERS FROM SET 0 BY "
                                   f"{worse_by(first, med, m['better']):+.3f}")
                    ok = False
                print(f"{name:<14} {key:<12} {s:>3} {med:>12.6g} {spr:>8.4f} {bound:>6}  "
                      + ("; ".join(verdict) or "ok"))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {f"{s}/{name}": rs for (s, name), rs in runs.items()}, indent=1) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
