"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python floats, lists, and
direct recursion: no code is shared with the implementation under test beyond
the formula node types themselves.
"""

from __future__ import annotations

import math

import numpy as np

from tubecbf.stl import (
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    Predicate,
    TrueFormula,
    Until,
)


def _interp_state(times, states, t):
    if t <= times[0]:
        return list(states[0])
    if t >= times[-1]:
        return list(states[-1])
    for i in range(len(times) - 1):
        if times[i] <= t <= times[i + 1]:
            w = (t - times[i]) / (times[i + 1] - times[i])
            return [(1 - w) * a + w * b for a, b in zip(states[i], states[i + 1])]
    raise AssertionError("unreachable")


def _window_times(times, lo, hi):
    if hi == lo:
        return [lo]
    inner = [g for g in times if lo < g < hi]
    return [lo] + inner + [hi]


def _pred_value(fn, x):
    # re-derive h(x) from the predicate parameters with plain arithmetic
    kind = type(fn).__name__
    if kind == "AffineHalfspace":
        return sum(w * xi for w, xi in zip(fn.weights, x)) + fn.offset
    if kind == "BoxInfNorm":
        return fn.halfwidth - max(abs(xi - ci) for xi, ci in zip(x, fn.center))
    if kind == "BallNorm2":
        return fn.radius - math.sqrt(sum((xi - ci) ** 2 for xi, ci in zip(x, fn.center)))
    raise TypeError(f"oracle cannot evaluate predicate kind {kind}")


def oracle_robustness(f: Formula, times, states, t: float = 0.0,
                      convention: str = "paper") -> float:
    """Direct recursive min/max robustness over the sample grid."""
    times = [float(v) for v in np.asarray(times).tolist()]
    states_arr = np.asarray(states, dtype=float)
    if states_arr.ndim == 1:
        states_arr = states_arr[:, None]
    states = [list(row) for row in states_arr.tolist()]
    memo = {}

    def ev(node, tq):
        key = (id(node), tq)
        if key in memo:
            return memo[key]
        if isinstance(node, TrueFormula):
            val = math.inf
        elif isinstance(node, Predicate):
            val = _pred_value(node.fn, _interp_state(times, states, tq))
        elif isinstance(node, Not):
            val = -ev(node.child, tq)
        elif isinstance(node, And):
            val = min(ev(node.left, tq), ev(node.right, tq))
        elif isinstance(node, Or):
            val = max(ev(node.left, tq), ev(node.right, tq))
        elif isinstance(node, Eventually):
            val = max(ev(node.child, u) for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Always):
            val = min(ev(node.child, u) for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Until):
            cands = _window_times(times, tq + node.start, tq + node.end)
            best = -math.inf
            for t1 in cands:
                if convention == "paper":
                    point = ev(node.left, t1)
                    run = min(ev(node.right, u)
                              for u in _window_times(times, tq + node.start, t1))
                else:
                    point = ev(node.right, t1)
                    run = min(ev(node.left, u) for u in _window_times(times, tq, t1))
                best = max(best, min(point, run))
            val = best
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = val
        return val

    return ev(f, t)


def oracle_boolean(f: Formula, times, states, t: float = 0.0,
                   convention: str = "paper") -> bool:
    """Boolean satisfaction on the same grid (h >= 0 at predicates)."""
    times = [float(v) for v in np.asarray(times).tolist()]
    states_arr = np.asarray(states, dtype=float)
    if states_arr.ndim == 1:
        states_arr = states_arr[:, None]
    states = [list(row) for row in states_arr.tolist()]
    memo = {}

    def ev(node, tq):
        key = (id(node), tq)
        if key in memo:
            return memo[key]
        if isinstance(node, TrueFormula):
            val = True
        elif isinstance(node, Predicate):
            val = _pred_value(node.fn, _interp_state(times, states, tq)) >= 0.0
        elif isinstance(node, Not):
            val = not ev(node.child, tq)
        elif isinstance(node, And):
            val = ev(node.left, tq) and ev(node.right, tq)
        elif isinstance(node, Or):
            val = ev(node.left, tq) or ev(node.right, tq)
        elif isinstance(node, Eventually):
            val = any(ev(node.child, u)
                      for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Always):
            val = all(ev(node.child, u)
                      for u in _window_times(times, tq + node.start, tq + node.end))
        elif isinstance(node, Until):
            cands = _window_times(times, tq + node.start, tq + node.end)
            val = False
            for t1 in cands:
                if convention == "paper":
                    ok = ev(node.left, t1) and all(
                        ev(node.right, u)
                        for u in _window_times(times, tq + node.start, t1))
                else:
                    ok = ev(node.right, t1) and all(
                        ev(node.left, u) for u in _window_times(times, tq, t1))
                if ok:
                    val = True
                    break
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = val
        return val

    return ev(f, t)


def oracle_min_norm_qp(weight, a, psi):
    """Single-constraint QP by explicit active-set enumeration.

    min u' W u  s.t.  a.u >= -psi.  Tries the inactive candidate u=0 and the
    active candidate from the equality KKT system, returns the cheapest
    feasible one, or None when neither exists.
    """
    weight = np.asarray(weight, dtype=float)
    a = np.asarray(a, dtype=float)
    m = len(a)
    candidates = []
    if 0.0 >= -psi - 1e-12:
        candidates.append(np.zeros(m))
    # active constraint: solve [2W  -a'; a  0] [u; mu] = [0; -psi], require mu >= 0
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * weight
    kkt[:m, m] = -a
    kkt[m, :m] = a
    rhs = np.zeros(m + 1)
    rhs[m] = -psi
    try:
        sol = np.linalg.solve(kkt, rhs)
        if sol[m] >= -1e-12:
            candidates.append(sol[:m])
    except np.linalg.LinAlgError:
        pass
    if not candidates:
        return None
    return min(candidates, key=lambda u: float(u @ weight @ u))


def oracle_pattern_search(func, x0, lb, ub, *, step, min_step, budget, target=None):
    """Coordinate pattern search polled one trial per call, + before -.

    func maps one point (a list of floats) to its value.  A trial is accepted
    on strict improvement, which ends that coordinate's poll; a trial that
    clips back onto x[j] and an axis with lb == ub are skipped.  Returns
    (x, fx, evals, accepted points in order).
    """
    x = [float(v) for v in x0]
    lb = [float(v) for v in lb]
    ub = [float(v) for v in ub]
    scale = [u - l for l, u in zip(lb, ub)]
    fx = func(x)
    evals = 1
    accepted = []
    cur = step
    while evals < budget and cur >= min_step:
        if target is not None and fx <= target:
            break
        improved = False
        for j in range(len(x)):
            if scale[j] == 0.0 or evals >= budget:
                continue
            for sgn in (1.0, -1.0):
                trial = min(max(x[j] + sgn * cur * scale[j], lb[j]), ub[j])
                if trial == x[j]:
                    continue
                xt = list(x)
                xt[j] = trial
                ft = func(xt)
                evals += 1
                if ft < fx:
                    x, fx = xt, ft
                    accepted.append(xt)
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            cur /= 2.0
    return x, fx, evals, accepted
