"""In-memory span and count recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: around the calls the
benchmark makes into each layer, and by replacing the module attributes the
layers call through (``tubecbf.synthesis.robustness_batch`` and so on) with
thin wrappers.  Nothing inside ``tubecbf`` is edited; ``uninstall`` restores
every attribute it replaced.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans are lists [name, start, end, parent, run, attrs]: start and end
    are process CPU times, parent the index of the enclosing span or -1, run
    the job index the span belongs to (-1 for set-up)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()   # (run, name) -> count
        self.run = -1
        self.phase = ""
        self._stack: list[int] = []
        self._covers_in_solve = 0
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), 0.0, parent, self.run, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield attrs
        finally:
            self._close(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.run, name)] += n

    # -- wrapping module attributes ------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, tubecbf) -> None:
        """Wrap the attributes synthesis, simulate and cbf call through."""
        syn, sim, cbf = tubecbf.synthesis, tubecbf.simulate, tubecbf.cbf
        tracer = self

        def spanned(module, attr, name, before=None, after=None):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                attrs = before(*args, **kwargs) if before else {}
                idx = tracer._open(name, attrs)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if after:
                    after(out)
                return out
            self._replace(module, attr, wrapper)

        def counted(module, attr, name):
            original = getattr(module, attr)

            def wrapper(*args, **kwargs):
                tracer.count(name)
                return original(*args, **kwargs)
            self._replace(module, attr, wrapper)

        def batch_attrs(f, times, states, *a, **k):
            # K trajectories x T grid times; the phase says which cover is in use
            return {"K": int(states.shape[0]), "T": int(len(times)), "tag": tracer.phase}

        def cover_attrs(spec):
            if tracer.phase in ("search", "certificate"):
                tracer._covers_in_solve += 1
                tracer.phase = "search" if tracer._covers_in_solve == 1 else "certificate"
            return {"samples": int(spec.sample_count)}

        def qp_done(step):
            if step.constraint_active:
                tracer.count("cbf.qp_active")

        spanned(syn, "robustness_batch", "stl.robustness_batch", before=batch_attrs)
        spanned(syn, "build_cover", "synthesis.build_cover", before=cover_attrs)
        spanned(syn, "warm_start", "synthesis.warm_start")
        spanned(syn, "tube_lipschitz", "tube.lipschitz")
        spanned(sim, "solve_safety_qp", "cbf.qp", after=qp_done)
        spanned(sim, "step_rk4", "simulate.rk4")
        spanned(sim, "robustness", "stl.final_monitor")
        counted(sim, "barrier_value", "cbf.barrier_value")
        counted(cbf, "barrier_value", "cbf.barrier_value")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @contextmanager
    def solving(self):
        """Mark a solve_sop call: its first cover is the search cover, the
        second the certificate cover."""
        self.phase, self._covers_in_solve = "search", 0
        try:
            yield
        finally:
            self.phase = ""

    @contextmanager
    def rechecking(self):
        self.phase = "recheck"
        try:
            yield
        finally:
            self.phase = ""

    # -- derived views -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        """One JSON object per span, then one per count."""
        self_t = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "self": self_t[i], "parent": parent, "run": run,
                                     **attrs}) + "\n")
            for (run, name), n in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "run": run, "n": n}) + "\n")
