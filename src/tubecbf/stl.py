"""Signal temporal logic: formula AST, text parser, and robustness monitoring.

Formulas are immutable trees of predicates, Boolean connectives, and bounded
temporal operators.  Robustness is evaluated quantitatively over sampled
signals with linear interpolation between samples.

Window semantics.  An operator window [t+a, t+b] holds its two endpoints and
every grid time strictly between them; an endpoint that falls between samples
is evaluated on the state interpolated as (1-w)*s_i + w*s_j, and times outside
the grid clamp to its ends.  A point window (a == b) holds t+a alone.  Until
phi U[a,b] psi takes, over the members u of its window, the max of min(phi
at u, running min of psi up to u), as the source paper prints it (Maler and
Nickovic's swaps phi and psi and starts the running min at t, not t+a).

Compiled plan.  Which times each node is needed at depends only on the
formula, the time grid and the anchor time, never on the states, so
robustness_batch compiles them once into a plan (after the offline monitor of
Donze, Ferrere and Maler, CAV 2013) and keeps the last few plans in an LRU
keyed on (formula, grid bytes, anchor time).  Every node's
values form a time-major (rows, K) table for the K trajectories: one row per
grid time in a contiguous slice, then one per off-grid time the parent needs.
The states come as n coordinate planes (n, T, K), so a predicate reads each
coordinate of its grid rows as one contiguous (rows, K) block and runs its
inner loop over the trajectories.  Off-grid rows come from interpolation:
each call first interpolates the planes once at every distinct set of
off-grid times the plan's leaves need, gathering the earlier and then the
later neighbour of every time across all n planes and weighting each in
place, so leaves that need the same times, such as the two conjuncts of
F G p & F G q, share one interpolation.  A leaf writes its grid rows, then
the off-grid rows of its set, into one table.
F and G reduce each window as its two endpoint rows plus a doubling table of
min/max over the grid rows, built one level at a time; a lone window reduces
its grid slice directly.  Until sweeps its child's grid rows once from the
end and reduces its windows through the same reducer.  So memory stays
O(rows * K) per node, and nothing is gathered per (query, member, trajectory).

Tables are reused in place within a call: every node returns a fresh table
that its parent may overwrite (Not negates it, And and Or write into their
left child's, a lone F or G window folds its interior into its endpoint
row, Until writes its sweep over phi's grid rows), the states are only
read, and no buffer outlives the call.  Every operation keeps its operands
and their order, so a value does not depend on where it is computed.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Mapping, Optional, Union

import numpy as np


class FormulaSyntaxError(ValueError):
    """Malformed formula text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IntervalError(ValueError):
    """Temporal interval violating 0 <= start <= end."""


class UndefinedPredicateError(ValueError):
    """Formula references predicate names missing from the declaration table."""

    def __init__(self, names):
        self.names = sorted(names)
        super().__init__("undeclared predicate name(s): " + ", ".join(self.names))


class _Record:
    """Immutable value, equal by kind and fields, hashed once when built.

    A kind lists its fields, children last, in ``__slots__ = _fields = (...)``.
    robustness_batch hashes the formula on every call to find its plan, so a
    hash is a slot read.  A record pickles by its arguments and hashes afresh
    when loaded, since str hashes differ between processes.
    """

    __slots__ = ("_key", "_hash")

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes fields {self._fields}, got {args}")
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", (type(self), *args))
        object.__setattr__(self, "_hash", hash(self._key))

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, _Record) else NotImplemented

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key[1:]

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._key[1:])
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"


# ---------------------------------------------------------------------------
# Predicate functions
# ---------------------------------------------------------------------------
# value(planes, out=None) takes the states as their n coordinate arrays
# x_0 .. x_{n-1}, all of one shape, and returns h elementwise in that shape,
# written into out when it is given.  It never writes into the planes, and
# after its first operation every step runs in place on its own array.
# value_scale(b) bounds the magnitude of every intermediate of value, and of
# the result, at states whose coordinates are at most b in magnitude.

class AffineHalfspace(_Record):
    """h(x) = weights . x + offset."""

    __slots__ = _fields = ("weights", "offset")

    def value(self, planes, out=None) -> np.ndarray:
        # summed one coordinate at a time in a fixed order, so a state's value
        # does not depend on the layout of the batch it is evaluated in
        out = np.multiply(planes[0], self.weights[0], out=out)
        term = np.empty_like(out)
        for c in range(1, len(self.weights)):
            np.add(out, np.multiply(planes[c], self.weights[c], out=term), out=out)
        return np.add(out, self.offset, out=out)

    def lipschitz_2norm(self) -> float:
        return math.hypot(*self.weights)

    def value_scale(self, bound: float) -> float:
        return float(np.sum(np.abs(self.weights))) * bound + abs(self.offset)


class BoxInfNorm(_Record):
    """h(x) = halfwidth - ||x - center||_inf (positive inside the cube)."""

    __slots__ = _fields = ("center", "halfwidth")

    def value(self, planes, out=None) -> np.ndarray:
        # a chained maximum reads each coordinate array contiguously
        m = np.abs(np.subtract(planes[0], self.center[0], out=out), out=out)
        d = np.empty_like(m)
        for c in range(1, len(self.center)):
            np.maximum(m, np.abs(np.subtract(planes[c], self.center[c], out=d), out=d), out=m)
        return np.subtract(self.halfwidth, m, out=m)

    def lipschitz_2norm(self) -> float:
        # 1-Lipschitz in the inf-norm; reported in the 2-norm convention via
        # the sqrt(n) conversion factor (conservative upper bound).
        return math.sqrt(len(self.center))

    def value_scale(self, bound: float) -> float:
        return bound + float(np.max(np.abs(self.center))) + abs(self.halfwidth)


class BallNorm2(_Record):
    """h(x) = radius - ||x - center||_2 (positive inside the ball)."""

    __slots__ = _fields = ("center", "radius")

    def value(self, planes, out=None) -> np.ndarray:
        # below eight coordinates, np.linalg.norm(axis=-1) adds the squares
        # in this same left-to-right order, so the values are bit-identical
        d = np.subtract(planes[0], self.center[0])
        total = np.multiply(d, d, out=out)
        for c in range(1, len(self.center)):
            np.subtract(planes[c], self.center[c], out=d)
            np.add(total, np.multiply(d, d, out=d), out=total)
        return np.subtract(self.radius, np.sqrt(total, out=total), out=total)

    def lipschitz_2norm(self) -> float:
        return 1.0

    def value_scale(self, bound: float) -> float:
        # of the distance, not of the sum of squares under its root
        return (math.sqrt(len(self.center)) * (bound + float(np.max(np.abs(self.center))))
                + abs(self.radius))


PredicateFn = Union[AffineHalfspace, BoxInfNorm, BallNorm2]


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

class Formula(_Record):
    """Base class for formula nodes; nodes are immutable and hashable."""

    __slots__ = ()

    @property
    def children(self) -> tuple:
        """Child formulas, in field order (left before right)."""
        return tuple(v for v in self._key[1:] if isinstance(v, Formula))


class TrueFormula(Formula):
    __slots__ = _fields = ()

    def __str__(self) -> str:
        return "true"


TRUE = TrueFormula()


class Predicate(Formula):
    __slots__ = _fields = ("name", "fn")

    def __init__(self, name: str, fn: Optional[PredicateFn] = None):
        super().__init__(name, fn)

    def __str__(self) -> str:
        return self.name


def _check_interval(start: float, end: float) -> None:
    if not (0.0 <= start <= end < math.inf):
        raise IntervalError(f"interval [{start},{end}] violates 0 <= start <= end")


class Not(Formula):
    __slots__ = _fields = ("child",)

    def __str__(self) -> str:
        return f"!{_paren(self.child)}"


class And(Formula):
    __slots__ = _fields = ("left", "right")

    def __str__(self) -> str:
        return f"{_paren(self.left)} & {_paren(self.right)}"


class Or(Formula):
    __slots__ = _fields = ("left", "right")

    def __str__(self) -> str:
        return f"{_paren(self.left)} | {_paren(self.right)}"


class _Window(Formula):
    """A temporal operator: its window [start, end] comes before its children."""

    __slots__ = ()

    def __init__(self, start: float, end: float, *children: Formula):
        _check_interval(start, end)
        super().__init__(start, end, *children)


class Until(_Window):
    __slots__ = _fields = ("start", "end", "left", "right")

    def __str__(self) -> str:
        return f"{_paren(self.left)} U[{self.start:g},{self.end:g}] {_paren(self.right)}"


class Eventually(_Window):
    __slots__ = _fields = ("start", "end", "child")

    def __str__(self) -> str:
        return f"F[{self.start:g},{self.end:g}] {_paren(self.child)}"


class Always(_Window):
    __slots__ = _fields = ("start", "end", "child")

    def __str__(self) -> str:
        return f"G[{self.start:g},{self.end:g}] {_paren(self.child)}"


def _paren(f: Formula) -> str:
    if isinstance(f, (Predicate, TrueFormula, Not, Eventually, Always)):
        return str(f)
    return f"({f})"


def iter_predicates(f: Formula):
    """Yield every Predicate node of the formula (depth-first, with repeats)."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Predicate):
            yield node
        stack.extend(node.children)


def horizon(f: Formula) -> float:
    """Largest lookahead needed to evaluate the formula from its anchor time."""
    return getattr(f, "end", 0.0) + max(map(horizon, f.children), default=0.0)


def robustness_lipschitz(f: Formula) -> float:
    """Upper bound L such that |rho(x) - rho(y)| <= L * max_t ||x(t)-y(t)||_2.

    Min/max/negation compositions preserve Lipschitz constants, so the bound
    is the max over the formula's predicate constants.
    """
    best = 0.0
    for p in iter_predicates(f):
        if p.fn is None or not isinstance(p.fn, (AffineHalfspace, BoxInfNorm, BallNorm2)):
            raise ValueError(f"predicate {p.name!r} has no supported function handle")
        best = max(best, p.fn.lipschitz_2norm())
    return best


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------

_TIME_SLACK = 1e-9

class Signal:
    """Finite sampled trajectory in R^n with linear interpolation semantics."""

    __slots__ = ("times", "states")

    def __init__(self, times: np.ndarray, states: np.ndarray):
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise ValueError("times must be (T,), states (T, n) of matching length")
        if len(times) < 1:
            raise ValueError("signal needs at least one sample")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise ValueError("signal contains non-finite values")
        times.setflags(write=False)
        states.setflags(write=False)
        self.times, self.states = times, states

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


class RobustnessReport(_Record):
    __slots__ = _fields = ("value", "satisfied")


# ---------------------------------------------------------------------------
# Robustness evaluation
# ---------------------------------------------------------------------------

class _Rows:
    """Query times of one formula node, in the row order of its value table:
    the grid times grid[g0:g1], then the sorted off-grid times ``off``."""

    __slots__ = ("g0", "g1", "off")

    def __init__(self, g0: int, g1: int, off: np.ndarray):
        self.g0, self.g1, self.off = g0, g1, off

    @property
    def grid_rows(self) -> int:
        return self.g1 - self.g0

    def times(self, grid: np.ndarray) -> np.ndarray:
        return np.concatenate([grid[self.g0:self.g1], self.off])

    def locate(self, grid: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Row of each time in t; every one is a grid time in [g0, g1) or in off."""
        return np.where(_on_grid(grid, t), np.searchsorted(grid, t) - self.g0,
                        self.grid_rows + np.searchsorted(self.off, t))


def _on_grid(grid: np.ndarray, t: np.ndarray) -> np.ndarray:
    return grid[np.minimum(np.searchsorted(grid, t), len(grid) - 1)] == t


def _rows_for(grid: np.ndarray, points: np.ndarray, starts: np.ndarray,
              stops: np.ndarray) -> _Rows:
    """Rows holding the times ``points`` and the grid slices [starts, stops).

    A point equal to a grid time is that grid time; the grid part is the hull
    of everything on the grid.
    """
    g = np.searchsorted(grid, points)
    on_grid = _on_grid(grid, points)
    used = stops > starts
    lo = np.concatenate([g[on_grid], starts[used]])
    hi = np.concatenate([g[on_grid] + 1, stops[used]])
    g0, g1 = (int(lo.min()), int(hi.max())) if len(lo) else (0, 0)
    # sort and drop repeats rather than np.unique, whose first call imports
    # numpy.ma (0.7 MB of resident memory)
    off = np.sort(points[~on_grid])
    keep = np.ones(len(off), dtype=bool)
    keep[1:] = off[1:] != off[:-1]
    return _Rows(g0, g1, off[keep])


def _windows(grid: np.ndarray, q: np.ndarray, start: float, end: float):
    """Windows [q+start, q+end]: their endpoints lo, hi and the slices
    [s, e) of grid times strictly between them.  A point window (hi == lo)
    holds lo alone."""
    lo = q + start
    hi = q + end
    s = np.searchsorted(grid, lo, side="right")
    e = np.searchsorted(grid, hi, side="left")
    return lo, hi, s, np.where(hi == lo, s, e)


def _window_reducer(op, grid: np.ndarray, rows: _Rows, lo, hi, s, e):
    """Function mapping a child's value table on ``rows`` to op (np.maximum or
    np.minimum) over each window {lo, grid[s:e], hi}.

    The grid interiors go through a doubling table: level k holds op over
    2**k consecutive grid rows, built one level at a time from the previous
    one, and each interior is covered by blocks of the one level 2**k <= the
    shortest interior (overlap is harmless for min and max).  Windows with an
    empty interior read a block of identity rows appended for them.
    """
    rl = rows.locate(grid, lo)
    rh = rows.locate(grid, hi)
    identity = -np.inf if op is np.maximum else np.inf
    if len(lo) == 1:
        # one window: reduce its grid slice directly, no table needed
        a, b = int(s[0] - rows.g0), int(e[0] - rows.g0)
        l0, h0 = int(rl[0]), int(rh[0])

        def reduce_one(child):
            out = op(child[l0:l0 + 1], child[h0:h0 + 1])
            return op(out, op.reduce(child[a:b], axis=0, initial=identity), out=out)

        return reduce_one
    lengths = e - s
    nonempty = lengths > 0
    if not nonempty.any():
        return lambda child: op(child[rl], child[rh])
    width = 1 << (int(lengths[nonempty].min()).bit_length() - 1)
    count = int(-(-lengths.max() // width))
    starts = np.minimum((s - rows.g0)[:, None] + width * np.arange(count),
                        (e - rows.g0 - width)[:, None])
    pad = not nonempty.all()
    tg = rows.grid_rows
    starts[~nonempty] = tg
    blocks = tuple(starts.T.copy())

    def reduce(child):
        out = op(child[rl], child[rh])
        level = child[:tg]
        if pad:
            level = np.concatenate([level, np.full((width, child.shape[1]), identity)])
        del child
        span = 1
        while span < width:
            level = op(level[:-span], level[span:])
            span *= 2
        for b in blocks:
            op(out, level[b], out=out)
        return out

    return reduce


def _compile(node: Formula, grid: np.ndarray, rows: _Rows, interps: dict):
    """Function mapping the state planes (n, T, K) and the interpolated
    off-grid planes to the node's (rows, K) value table.  interps maps the
    bytes of each off-grid time set the leaves need to its interpolator."""
    if isinstance(node, TrueFormula):
        count = rows.grid_rows + len(rows.off)
        return lambda states, off: np.full((count, states.shape[2]), np.inf)
    if isinstance(node, Predicate):
        return _compile_predicate(node, grid, rows, interps)
    # every node's table is fresh and its parent's to overwrite
    if isinstance(node, Not):
        child = _compile(node.child, grid, rows, interps)

        def negate(states, off):
            table = child(states, off)
            return np.negative(table, out=table)

        return negate
    if isinstance(node, (And, Or)):
        left = _compile(node.left, grid, rows, interps)
        right = _compile(node.right, grid, rows, interps)
        op = np.minimum if isinstance(node, And) else np.maximum

        def combine(states, off):
            table = left(states, off)
            return op(table, right(states, off), out=table)

        return combine

    lo, hi, s, e = _windows(grid, rows.times(grid), node.start, node.end)
    child_rows = _rows_for(grid, np.concatenate([lo, hi]), s, e)
    if isinstance(node, (Eventually, Always)):
        child = _compile(node.child, grid, child_rows, interps)
        op = np.maximum if isinstance(node, Eventually) else np.minimum
        reduce = _window_reducer(op, grid, child_rows, lo, hi, s, e)
        return lambda states, off: reduce(child(states, off))
    if not isinstance(node, Until):
        raise TypeError(f"unknown formula node {node!r}")

    # A = left, B = right.  A backward sweep over the grid rows,
    # w_i = min(B_i, max(A_i, w_{i+1})), w = -inf past the end, holds the max
    # over u >= grid_i of min(A(u), min of B over [grid_i, u]).  A window
    # {lo, grid[s:e], hi} takes the larger of min(B(lo), max(A(lo), w_s), M),
    # M the max of A over {lo} and grid[s:e], and min(A(hi), min of B over the
    # window).  Exact, as min distributes over max: a witness of w_s past the
    # window is at most min B over grid[s:e], so clipped by B(lo) and M = A(u)
    # it is at most member u's term; witnesses in grid[s:e] have A <= M.  With
    # an empty interior, M = A(lo) clips whatever w is read.
    point = _compile(node.left, grid, child_rows, interps)
    running = _compile(node.right, grid, child_rows, interps)
    widest = _window_reducer(np.maximum, grid, child_rows, lo, lo, s, e)
    lowest = _window_reducer(np.minimum, grid, child_rows, lo, hi, s, e)
    rl, rh = child_rows.locate(grid, lo), child_rows.locate(grid, hi)
    tg = child_rows.grid_rows
    ws = np.clip(s - child_rows.g0, 0, max(tg - 1, 0))

    def until(states, off):
        a = point(states, off)
        b = running(states, off)
        clip = np.minimum(b[rl], widest(a))
        a_lo, a_hi = a[rl], a[rh]
        # nothing reads A's grid rows after this: w overwrites them in place
        w = np.full(a.shape[1], -np.inf)
        for i in range(tg - 1, -1, -1):
            w = np.minimum(b[i], np.maximum(a[i], w, out=a[i]), out=a[i])
        out = np.minimum(clip, np.maximum(a_lo, a[ws], out=a_lo), out=a_lo)
        del a, clip, w  # free A's table before B's window min is built
        return np.maximum(out, np.minimum(a_hi, lowest(b), out=a_hi), out=out)

    return until


def _interpolator(grid: np.ndarray, off: np.ndarray):
    """Function mapping the state planes (n, T, K) to their n planes at the
    off-grid times off, (n, len(off), K), each value (1-w)*s_i + w*s_j.
    Times outside the grid clamp to its ends (weight 0 on the end sample)."""
    t_c = np.clip(off, grid[0], grid[-1])
    j = np.searchsorted(grid, t_c, side="right")
    i = np.maximum(j - 1, 0)
    exact = grid[i] == t_c
    j = np.where(exact, i, np.minimum(j, len(grid) - 1))
    w = (t_c - grid[i]) / np.where(exact, 1.0, grid[j] - grid[i])
    w_i, w_j = (1.0 - w)[:, None], w[:, None]

    def interpolate(states):
        # the rows s_i of all n planes, weighted in place, plus the rows s_j:
        # at most two arrays of the result's size are alive
        out = states.take(i, axis=1)
        out *= w_i
        other = states.take(j, axis=1)
        other *= w_j
        out += other
        return out

    return interpolate


def _compile_predicate(node: Predicate, grid: np.ndarray, rows: _Rows, interps: dict):
    """Predicate values on the grid rows, then on the off-grid rows, read from
    the planes interpolated at the leaf's off-grid times."""
    fn = node.fn
    if fn is None:
        raise ValueError(f"predicate {node.name!r} is unbound; no function handle")
    g0, g1 = rows.g0, rows.g1
    if len(rows.off) == 0:
        return lambda states, off: fn.value(states[:, g0:g1])
    key = rows.off.tobytes()
    if key not in interps:
        interps[key] = _interpolator(grid, rows.off)
    split, count = rows.grid_rows, rows.grid_rows + len(rows.off)

    def leaf(states, off):
        table = np.empty((count, states.shape[2]))
        fn.value(states[:, g0:g1], out=table[:split])
        fn.value(off[key], out=table[split:])
        return table

    return leaf


@functools.lru_cache(maxsize=8)
def _plan(f: Formula, times_key: bytes, t: float):
    """Compiled evaluation of f at time t on the grid whose float64 bytes are
    times_key; returns a function of the state planes (n, T, K) that
    interpolates each off-grid time set once, then evaluates the tree."""
    grid = np.frombuffer(times_key)
    if t + horizon(f) > grid[-1] + _TIME_SLACK:
        raise ValueError(
            f"formula horizon {horizon(f)} from t={t} exceeds signal end {grid[-1]}")
    if t < grid[0] - _TIME_SLACK:
        raise ValueError(f"evaluation time {t} precedes signal start {grid[0]}")
    none = np.zeros(0, dtype=int)
    interps = {}
    evaluate = _compile(f, grid, _rows_for(grid, np.array([t]), none, none), interps)
    return lambda states: evaluate(
        states, {key: interp(states) for key, interp in interps.items()})


def robustness_batch(f: Formula, times: np.ndarray, states: np.ndarray,
                     t: float = 0.0) -> np.ndarray:
    """Robustness of K trajectories sharing one time grid; states is (K, T, n).

    The monitor reads the states as n coordinate planes (n, T, K), so a
    C-contiguous (n, T, K) buffer passed as its (K, T, n) transpose is used
    without a copy.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    if states.ndim == 2:
        states = states[:, :, None]
    plan = _plan(f, times.tobytes(), float(t))
    return plan(np.ascontiguousarray(states.transpose(2, 1, 0)))[0]


def robustness(f: Formula, x: Signal, t: float = 0.0, *,
               until_convention: str = "paper") -> RobustnessReport:
    """Quantitative satisfaction margin of the formula on the signal at time t.

    Positive robustness means the formula is satisfied (strict inequality).
    """
    # only for perfbench/workloads.py, until the next benchmark change (ROADMAP item 3)
    if until_convention != "paper":
        raise ValueError(f"until_convention must be 'paper', got {until_convention!r}")
    val = float(robustness_batch(f, x.times, x.states[None, :, :], t)[0])
    return RobustnessReport(val, val > 0.0)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<implies>=>)
  | (?P<sym>[&|!()\[\],])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: Optional[Mapping[str, PredicateFn]]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.table = table

    def peek(self, offset: int = 0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def parse(self) -> Formula:
        if self.peek()[0] == "end":
            raise FormulaSyntaxError("empty formula", 0)
        f = self.implies()
        kind, text, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected trailing input {text!r}", pos)
        return f

    def implies(self) -> Formula:
        lhs = self.disjunction()
        if self.peek()[0] == "implies":
            self.next()
            rhs = self.implies()
            return Or(Not(lhs), rhs)
        return lhs

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[1] == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "!":
            self.next()
            return Not(self.unary())
        if kind == "ident" and text in ("F", "G") and self.peek(1)[1] == "[":
            self.next()
            a, b = self.interval()
            child = self.unary()
            return Eventually(a, b, child) if text == "F" else Always(a, b, child)
        return self.postfix()

    def postfix(self) -> Formula:
        left = self.atom()
        kind, text, _ = self.peek()
        if kind == "ident" and text == "U" and self.peek(1)[1] == "[":
            self.next()
            a, b = self.interval()
            right = self.atom()
            return Until(a, b, left, right)
        return left

    def atom(self) -> Formula:
        kind, text, pos = self.next()
        if text == "(":
            f = self.implies()
            self.expect(")")
            return f
        if kind == "ident":
            if text == "true":
                return TRUE
            if self.table is not None:
                if text not in self.table:
                    raise UndefinedPredicateError({text})
                return Predicate(text, self.table[text])
            return Predicate(text)
        raise FormulaSyntaxError(f"expected atom, found {text or 'end of input'!r}", pos)

    def interval(self) -> tuple[float, float]:
        self.expect("[")
        a = self.number()
        self.expect(",")
        b = self.number()
        self.expect("]")
        _check_interval(a, b)
        return a, b

    def number(self) -> float:
        kind, text, pos = self.next()
        if kind != "num":
            raise FormulaSyntaxError(f"expected number, found {text or 'end of input'!r}", pos)
        return float(text)


def parse(text: str, predicates: Optional[Mapping[str, PredicateFn]] = None) -> Formula:
    """Parse formula text into an AST.

    Grammar (loosest to tightest): implies, or, and, unary (!, F[a,b], G[a,b]),
    atom-level Until, atoms.  `A => B` desugars to `!A | B`.  When a predicate
    table is supplied, identifiers are bound to their function handles and
    unknown names raise UndefinedPredicateError.
    """
    return _Parser(text, predicates).parse()
