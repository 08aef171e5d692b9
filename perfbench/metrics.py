"""Statistics and metric derivation for the benchmark.

Timings are medians over the jobs of one run.  The end-to-end metrics come
from the untraced jobs; the per-layer metrics come from the spans and counts
the tracer recorded around the traced jobs.  Exact counts (evaluations,
rounds, steps, calls) are taken from job 0, whose inputs are fixed by the
seed, so they repeat exactly across runs.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

# the metric registry is BENCHMARK.json; names in the order it lists them
_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in _SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}

# report timings at the highest of these percentiles with >= 10 samples beyond it
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


def tail(values):
    """(p, value) for the highest ladder percentile with ten samples beyond it."""
    for p in _LADDER:
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            return p, percentile(values, p)
    return None


def job_report(jobs) -> dict:
    """Human-facing end-to-end figures of the untraced jobs: each phase as
    median (+ tail percentile where the sample allows), result quality, and
    the failure share.  Keys are metric names, values (value, unit)."""
    out = {}
    phases = sorted({k for j in jobs for k in j.times})
    for key in phases:
        xs = [j.times.get(key, 0.0) for j in jobs]
        out[key] = (median(xs), "s")
        t = tail(xs)
        if t:
            out[f"{key}.p{t[0]:g}"] = (t[1], "s")
    per_step = [j.times["sim_cpu_s"] / j.values["steps"] * 1e6
                for j in jobs if j.values.get("steps")]
    if per_step:
        out["sim_cpu_us_per_step"] = (median(per_step), "us")
    for key, unit, pick in (("margin", "1", max), ("certified", "count", min),
                            ("robustness_min", "1", min), ("min_b", "1", min),
                            ("recheck_max", "1", max)):
        vals = [j.values[key] for j in jobs if key in j.values]
        if vals:
            out[key] = (float(pick(vals)), unit)
    out["failed_share"] = (sum(bool(j.failures) for j in jobs) / len(jobs), "share")
    out["jobs"] = (len(jobs), "count")
    return out


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per-layer metrics from the spans of the traced jobs (and set-up)."""
    self_t = tracer.self_times()
    rows = defaultdict(list)   # name -> [(run, duration, self, attrs)]
    for i, (name, start, end, _parent, run, attrs) in enumerate(tracer.spans):
        rows[name].append((run, end - start, self_t[i], attrs))
    runs = range(len(traced))

    def durations(name, tag=None):
        return [d for _r, d, _s, a in rows[name] if tag is None or a.get("tag") == tag]

    def per_job(name, tag=None, use_self=False):
        sums = defaultdict(float)
        for r, d, s, a in rows[name]:
            if r >= 0 and (tag is None or a.get("tag") == tag):
                sums[r] += s if use_self else d
        return median([sums[r] for r in runs])

    def calls0(name, tag=None):
        return sum(1 for r, _d, _s, a in rows[name]
                   if r == 0 and (tag is None or a.get("tag") == tag))

    def ns_per_sample(tag):
        spans = [(d, a) for _r, d, _s, a in rows["stl.robustness_batch"] if a["tag"] == tag]
        samples = sum(a["K"] * a["T"] for _d, a in spans)
        return sum(d for d, _a in spans) / samples * 1e9 if samples else 0.0

    job0 = traced[0].values
    steps0 = job0.get("steps", 0)
    evals0 = job0.get("objective_evals", 0)
    search = durations("stl.robustness_batch", "search")
    qp = durations("cbf.qp")
    m = {
        "stl.search_calls": calls0("stl.robustness_batch", "search"),
        "stl.search_us_per_call.p50": percentile(search, 50) * 1e6,
        "stl.search_us_per_call.p99": percentile(search, 99) * 1e6,
        "stl.search_ns_per_sample": ns_per_sample("search"),
        "stl.search_self_s": per_job("stl.robustness_batch", "search", use_self=True),
        "stl.final_monitor_ms": per_job("stl.final_monitor") * 1e3,
        "stl.verify_monitor_ms": per_job("stl.verify_monitor") * 1e3,
        "stl.recheck_calls": calls0("stl.robustness_batch", "recheck"),
        "stl.recheck_ns_per_sample": ns_per_sample("recheck"),
        "stl.recheck_chunk_ms": median(durations("stl.robustness_batch", "recheck")) * 1e3,
        "stl.recheck_max": job0.get("recheck_max", 0.0),
        "synthesis.objective_evals": evals0,
        "synthesis.bisection_rounds": job0.get("bisection_rounds", 0),
        "synthesis.cover_samples": job0.get("cover_samples", 0),
        "synthesis.eval_us": (per_job("synthesis.solve_sop") / evals0 * 1e6) if evals0 else 0.0,
        "synthesis.self_s": per_job("synthesis.solve_sop", use_self=True),
        "synthesis.build_cover_ms": per_job("synthesis.build_cover") * 1e3,
        "synthesis.warm_start_ms": per_job("synthesis.warm_start") * 1e3,
        "synthesis.margin": job0.get("margin", 0.0),
        "synthesis.certified": job0.get("certified", 0),
        "tube.lipschitz_calls": calls0("tube.lipschitz"),
        "tube.lipschitz_us.p50": percentile(durations("tube.lipschitz"), 50) * 1e6,
        "cbf.qp_calls": calls0("cbf.qp"),
        "cbf.qp_us.p50": percentile(qp, 50) * 1e6,
        "cbf.qp_us.p99": percentile(qp, 99) * 1e6,
        "cbf.active_share": (tracer.counts[(0, "cbf.qp_active")] / calls0("cbf.qp")
                             if calls0("cbf.qp") else 0.0),
        "cbf.barrier_evals_per_step": (tracer.counts[(0, "cbf.barrier_value")] / steps0
                                       if steps0 else 0.0),
        "cbf.min_b": job0.get("min_b", 0.0),
        "simulate.rk4_us.p50": percentile(durations("simulate.rk4"), 50) * 1e6,
        "simulate.steps": steps0,
        "simulate.self_s": per_job("simulate.run_closed_loop", use_self=True),
        "simulate.saturated_steps": job0.get("saturated_steps", 0),
        "simulate.robustness_min": job0.get("robustness_min", 0.0),
        "cli.log_write_ms": per_job("cli.log_write") * 1e3,
        "cli.log_read_ms": per_job("cli.log_read") * 1e3,
        "cli.log_bytes": job0.get("log_bytes", 0),
        "cli.artifact_write_ms": per_job("cli.artifact_write") * 1e3,
        "cli.artifact_digest_match": job0.get("artifact_digest_match", 0),
        "config.load_ms": sum(durations("config.load")) * 1e3,
        "config.instance_ms": sum(durations("config.instance")) * 1e3,
        "trace.overhead_share": (sum(j.times["total_cpu_s"] for j in traced)
                                 / sum(j.times["total_cpu_s"] for j in untraced) - 1.0),
        "trace.spans_per_job": sum(1 for s in tracer.spans if s[4] == 0),
    }
    assert list(m) == PER_LAYER
    return m


def as_json_metrics(values: dict) -> dict:
    out = {}
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
        out[name] = {"value": value, "unit": UNITS[name]}
    return out
