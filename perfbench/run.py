"""tubecbf benchmark: one closed-loop client driving tubecbf's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

Run from the repository root.  A run sets up the workload, then runs
``round(seconds / job_seconds)`` jobs one after another (at least one), where
``job_seconds`` is the workload's nominal job cost.  It checks every job's
outputs and prints a table followed by one JSON line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
pairs each traced job with an untraced run of the same job, so tracing
overhead is measured, and writes its spans to
``.bench_out/spans-<workload>-<seed>.jsonl``.  ``--workload all`` runs every
workload in its own process and prints one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

# one thread: numpy's BLAS pool would otherwise add a second one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# no madvise(MADV_HUGEPAGE) on numpy arrays: whether the kernel grants huge
# pages depends on the host's memory, and it moved peak RSS by 8%
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
EXIT_SETUP = 2


def _import_tubecbf():
    """tubecbf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tubecbf
    except ImportError as e:
        raise SystemExit(_fail(f"cannot import tubecbf from {src}: {e}"))
    if src not in Path(tubecbf.__file__).resolve().parents:
        raise SystemExit(_fail(f"tubecbf imported from {tubecbf.__file__}, not {src}"))
    return tubecbf


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return EXIT_SETUP


def _setup_seconds(workload: str, count: int) -> list[float]:
    """CPU seconds of `count` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _run_job(tc, workloads, wl, ctx, state, seed, index):
    t0, w0 = workloads.clock(), time.perf_counter()
    try:
        res = wl.job(tc, ctx, state, seed, index)
    except Exception as e:  # a raising job is a failed operation, not a crash
        res = workloads.JobResult(failures=[f"job {index} raised {e!r}"])
        traceback.print_exc(file=sys.stderr)
    res.times["total_cpu_s"] = workloads.clock() - t0
    res.times["total_wall_s"] = time.perf_counter() - w0
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tc = _import_tubecbf()
    import metrics
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[name]
    # a fixed job count, so the host's speed cannot change what is measured
    n_jobs = max(1, round(seconds / wl.job_seconds))
    # the set-up probes are spread over the run, before, between and after the
    # jobs: the host's speed drifts over seconds, so probes taken back to back
    # would all see the same moment
    probes_before = Counter(round(i * n_jobs / (SETUP_PROBES - 1))
                            for i in range(SETUP_PROBES))
    setup_times = _setup_seconds(name, probes_before[0])
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        state = wl.setup(tc, workloads.Context(out, tracer))
        plain, traced = [], []
        for index in range(n_jobs):
            if index:
                setup_times += _setup_seconds(name, probes_before[index])
            plain.append(_run_job(tc, workloads, wl, workloads.Context(out), state,
                                  seed, index))
            if tracer:
                tracer.run = index
                tracer.install(tc)
                try:
                    traced.append(_run_job(tc, workloads, wl,
                                           workloads.Context(out, tracer), state,
                                           seed, index))
                finally:
                    tracer.uninstall()
                    tracer.run = -1
        setup_times += _setup_seconds(name, probes_before[n_jobs])
    finally:
        shutil.rmtree(out, ignore_errors=True)

    jobs = plain + traced
    for j in jobs:
        for f in j.failures:
            print(f"FAILED: {f}", file=sys.stderr)
    report = metrics.job_report(plain)
    report["setup_s"] = (metrics.median(setup_times), "s")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if tracer:
        values = metrics.layer_metrics(tracer, traced, plain)
        spans = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {spans.relative_to(ROOT)}")
    else:
        values = {key: report[key][0] for key in metrics.END_TO_END}
    return {
        "report": report,
        "result": {
            "correct": not any(j.failures for j in jobs),
            "attempted": len(jobs),
            "failed": sum(bool(j.failures) for j in jobs),
            "metrics": metrics.as_json_metrics(values),
        },
    }


def _print_report(name: str, report: dict) -> None:
    print(f"workload {name}")
    for key, (value, unit) in report.items():
        print(f"  {key:<34} {value:>16.6g} {unit}")


def _run_all(args) -> int:
    """One row per workload, each measured in its own process; every metric of
    the table, with its unit, is a column."""
    import workloads
    rows = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        report = next(json.loads(line[len("REPORT "):]) for line in lines
                      if line.startswith("REPORT "))
        rows[name] = (report, json.loads(lines[-1]))
    units = {}
    for report, _result in rows.values():
        units.update((k, unit) for k, (_v, unit) in report.items() if k not in units)
    header = [f"{k} [{u}]" for k, u in units.items()] + ["correct"]
    width = [max(len(h), 12) for h in header]
    print("workload".ljust(14) + " ".join(h.rjust(w) for h, w in zip(header, width)))
    for name, (report, result) in rows.items():
        cells = [f"{report[k][0]:.6g}" if k in report else "-" for k in units]
        cells.append(str(result["correct"]))
        print(name.ljust(14) + " ".join(c.rjust(w) for c, w in zip(cells, width)))
    return 0 if all(res["correct"] for _, res in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ValueError, RuntimeError, KeyError) as e:
        return _fail(f"set-up failed: {e!r}")
    _print_report(args.workload, run["report"])
    print("REPORT " + json.dumps(run["report"]))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
