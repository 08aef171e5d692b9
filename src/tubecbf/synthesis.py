"""Tube synthesis: cover the augmented parameter domain, minimize the sampled
constraint margin over tube coefficients, and certify that the sampled
solution generalizes to the continuous domain via Lipschitz constants."""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .basis import MAX_COUNT, BernsteinBasis, _check_integer, combine, norm_in_order
from .cbf import _cholesky, _cholesky_solve
from .stl import (
    And,
    BallNorm2,
    BoxInfNorm,
    Eventually,
    Formula,
    Not,
    Or,
    Predicate,
    Always,
    horizon,
    iter_predicates,
    robustness_batch,
    robustness_lipschitz,
)
from .tube import (BLOCK_FLOATS, LipschitzInfo, Tube, sphere_map_many, tube_lipschitz,
                   tube_to_record, tube_from_record)


class CoverError(ValueError):
    """Cover cannot be built (bad radius or sample budget exceeded)."""


# SOPInstance and SolverSettings refuse a cover with more samples than this: a
# solve scores each of them in full.  recheck_constraints's refined covers are
# exempt, as it prunes (diffdrive_sequential's 10x cover holds 64,350,000).
COVER_SAMPLE_BUDGET = 50_000_000


def _check_sample_budget(name: str, spec: CoverSpec) -> None:
    if spec.sample_count > COVER_SAMPLE_BUDGET:
        raise CoverError(f"{name} needs {spec.sample_count} samples, over the budget "
                         f"{COVER_SAMPLE_BUDGET}; increase the radius or pin coarser axis counts")


# ---------------------------------------------------------------------------
# covers of the augmented domain W = angles x lambda x tau
# ---------------------------------------------------------------------------

def axis_midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    """Midpoint grid: count cells of equal width, one sample at each center.

    Every point of [lo, hi] is within (hi-lo)/(2*count) of a sample.
    """
    if count < 1:
        raise CoverError("axis needs at least one sample")
    h = (hi - lo) / count
    return lo + h / 2 + h * np.arange(count)


def _axis_ranges(n: int, t_f: float) -> list[tuple[float, float]]:
    """(lo, hi) of each of W's n+1 axes: n-1 angles, the first n-2 spanning
    [0, pi] and the last [0, 2*pi], then lambda in [0, 1] and tau in [0, t_f]."""
    if n < 2:
        raise CoverError("tube dimension must be at least 2")
    if not 0 < t_f < math.inf:
        raise CoverError(f"t_f must be positive and finite, got {t_f}")
    return [(0.0, math.pi)] * (n - 2) + [(0.0, 2.0 * math.pi), (0.0, 1.0), (0.0, t_f)]


def _implied_radius(counts, t_f: float) -> float:
    """Radius covered by the midpoint grid with these counts, one per axis of
    W; CoverError naming the axis of a count not an integer of at least 1."""
    names = ("theta_counts",) * (len(counts) - 2) + ("lambda_count", "tau_count")
    for name, count in zip(names, counts):
        _check_integer(name, count, 1, CoverError)
    halves = [(hi - lo) / (2 * m)
              for (lo, hi), m in zip(_axis_ranges(len(counts) - 1, t_f), counts)]
    return norm_in_order(halves)


def _check_radius(radius: float) -> None:
    # a nan or inf radius would make the certificate's slack L*eps nan or inf
    if not 0 < radius < math.inf:
        raise CoverError(f"cover radius must be positive and finite, got {radius}")


@dataclass(frozen=True)
class CoverSpec:
    """Per-axis sample counts whose midpoint grid is an epsilon-cover of W."""

    radius: float
    theta_counts: tuple
    lambda_count: int
    tau_count: int
    t_f: float

    def __post_init__(self):
        _check_radius(self.radius)
        needed = _implied_radius(self.counts, self.t_f)
        if needed > self.radius + 1e-12:
            raise CoverError(
                f"grid spacing only covers radius {needed:.6g} > requested {self.radius:.6g}")

    @property
    def dimension(self) -> int:
        return len(self.theta_counts) + 1

    @property
    def counts(self) -> tuple:
        """Sample count of each axis of W, in _axis_ranges order."""
        return (*self.theta_counts, self.lambda_count, self.tau_count)

    @property
    def sample_count(self) -> int:
        return math.prod(self.counts)

    @classmethod
    def for_radius(cls, radius: float, n: int, t_f: float) -> "CoverSpec":
        """Equal-contribution split: every axis gets spacing 2*radius/sqrt(d)."""
        _check_radius(radius)
        ranges = _axis_ranges(n, t_f)
        h = 2.0 * radius / math.sqrt(len(ranges))
        *theta, lam, tau = [max(1, math.ceil((hi - lo) / h)) for lo, hi in ranges]
        return cls(radius=radius, theta_counts=tuple(theta), lambda_count=lam,
                   tau_count=tau, t_f=t_f)

    @classmethod
    def from_counts(cls, theta_counts, lambda_count: int, tau_count: int,
                    t_f: float) -> "CoverSpec":
        """Spec with the smallest radius the given counts actually cover."""
        theta_counts = tuple(theta_counts)
        radius = _implied_radius((*theta_counts, lambda_count, tau_count), t_f)
        return cls(radius=radius, theta_counts=theta_counts,
                   lambda_count=lambda_count, tau_count=tau_count, t_f=t_f)

    def refined(self, factor: int) -> "CoverSpec":
        return CoverSpec.from_counts([c * factor for c in self.theta_counts],
                                     self.lambda_count * factor,
                                     self.tau_count * factor, self.t_f)


@dataclass(frozen=True)
class Cover:
    """Materialized cover: one direction per theta combination, plus the radial
    and time grids (the full sample set is their Cartesian product)."""

    spec: CoverSpec
    thetas: np.ndarray      # (K_dir, n-1)
    directions: np.ndarray  # (K_dir, n)
    lams: np.ndarray        # (m_lambda,)
    taus: np.ndarray        # (m_tau,)


def _check_cover(spec: CoverSpec, n: int, t_f: float) -> None:
    """TypeError unless spec is a CoverSpec, ValueError unless it covers W for
    a problem of dimension n on [0, t_f]."""
    if not isinstance(spec, CoverSpec):
        raise TypeError(f"cover must be a CoverSpec, got {spec!r}")
    if spec.dimension != n or not abs(spec.t_f - t_f) <= 1e-9:
        raise ValueError(f"cover of dimension {spec.dimension} on [0, {spec.t_f}] "
                         f"for an instance of dimension {n} on [0, {t_f}]")


def build_cover(spec: CoverSpec) -> Cover:
    *grids, lams, taus = [axis_midpoints(lo, hi, m) for (lo, hi), m
                          in zip(_axis_ranges(spec.dimension, spec.t_f), spec.counts)]
    if len(grids) == 1:
        thetas = grids[0][:, None]
    else:
        mesh = np.meshgrid(*grids, indexing="ij")
        thetas = np.column_stack([g.ravel() for g in mesh])
    return Cover(spec=spec, thetas=thetas, directions=sphere_map_many(thetas),
                 lams=lams, taus=taus)


# ---------------------------------------------------------------------------
# problem instance and objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SOPInstance:
    """Sampled tube-synthesis problem over box-bounded coefficients.

    Instances compare and hash by identity: their fields hold arrays.  An
    argument out of range raises a ValueError that names it.  The
    certification cover is required, and must be of dimension n on [0, t_f].

    The constructor's arguments are the problem's inputs.  From them it
    derives, once, everything a solve reads: the coefficient boxes, the
    bases of the center and radius curves, and the formula's robustness
    constant l_rho, which every Lipschitz bound of a candidate tube reuses.

    The center box bounds the control polygon, not the curve, and control
    points must overshoot interior waypoints, so it is the state bounds
    inflated about their midpoint by center_box_scale; a start_center pins
    its first control point, where the curve starts.  The radius box is
    [min_radius, radius_max], radius_max defaulting to a quarter of the
    narrowest state range, or min_radius if that is larger.
    """

    formula: Formula
    n: int
    t_f: float
    state_bounds: np.ndarray  # (n, 2)
    cover: CoverSpec
    min_radius: float = 0.25
    center_count: int = 5
    radius_count: int = 4
    radius_max: Optional[float] = None
    start_center: Optional[np.ndarray] = None
    center_box_scale: float = 1.5
    center_box: np.ndarray = field(init=False)   # (n, z_c, 2)
    radius_box: np.ndarray = field(init=False)   # (z_r, 2)
    center_basis: BernsteinBasis = field(init=False)
    radius_basis: BernsteinBasis = field(init=False)
    l_rho: float = field(init=False)

    def __post_init__(self):
        if not self.min_radius > 0:
            raise ValueError(f"min_radius must be positive, got {self.min_radius}")
        if self.radius_max is not None and not self.radius_max >= self.min_radius:
            raise ValueError(f"radius_max {self.radius_max} is below min_radius {self.min_radius}")
        if not self.center_box_scale > 0:
            raise ValueError(f"center_box_scale must be positive, got {self.center_box_scale}")
        for name in ("center_count", "radius_count"):
            _check_integer(f"basis {name}", getattr(self, name), 1, most=MAX_COUNT)
        bounds = np.asarray(self.state_bounds, dtype=float)
        if bounds.shape != (self.n, 2) or not np.all(bounds[:, 0] < bounds[:, 1]):
            raise ValueError(f"state_bounds must be {self.n} rows [lo, hi] with lo < hi, "
                             f"got {bounds.tolist()}")
        lo, hi = bounds[:, 0], bounds[:, 1]
        if horizon(self.formula) > self.t_f + 1e-9:
            raise ValueError(f"formula horizon {horizon(self.formula)} exceeds t_f {self.t_f}")
        _check_cover(self.cover, self.n, self.t_f)
        _check_sample_budget("cover", self.cover)
        start = None if self.start_center is None else np.asarray(self.start_center, dtype=float)
        if start is not None and not (start.shape == (self.n,)
                                      and np.all((lo <= start) & (start <= hi))):
            raise ValueError(f"start_center {start.tolist()} lies outside state_bounds")
        mid = bounds.mean(axis=1)
        half = (hi - lo) / 2.0 * self.center_box_scale
        inflated = np.column_stack([mid - half, mid + half])
        center_box = np.repeat(inflated[:, None, :], self.center_count, axis=1)
        if start is not None:
            center_box[:, 0] = start[:, None]
        radius_max = self.radius_max
        if radius_max is None:
            radius_max = max(float(np.min(hi - lo)) / 4.0, self.min_radius)
        radius_box = np.tile([self.min_radius, radius_max], (self.radius_count, 1))
        derived = {
            "state_bounds": bounds, "start_center": start,
            "center_box": center_box, "radius_box": radius_box,
            "center_basis": BernsteinBasis(self.center_count, self.t_f),
            "radius_basis": BernsteinBasis(self.radius_count, self.t_f),
            "l_rho": robustness_lipschitz(self.formula),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def make_tube(self, q_c: np.ndarray, q_r: np.ndarray) -> Tube:
        return Tube(np.asarray(q_c, dtype=float).reshape(self.n, self.center_count),
                    np.asarray(q_r, dtype=float), self.center_basis, self.radius_basis)

    def lipschitz(self, q_c: np.ndarray, q_r: np.ndarray) -> list[LipschitzInfo]:
        """Certificate constants of M tubes of this instance, one LipschitzInfo
        each, from center coefficients (M, n, z_c) and radius coefficients
        (M, z_r)."""
        return tube_lipschitz(q_c, q_r, self.center_basis, self.radius_basis, self.l_rho)


class _ObjectiveGrid:
    """Cover-dependent precomputation for fast evaluation of the sampled
    constraint margin max{ r_d - r(tau_s) } u { -rho(x_s) }.

    evaluate is batch-first: it takes M candidate coefficient vectors and
    sends the trajectories of all of them to one monitor call while they fit
    one block, because a monitor call costs mostly a fixed per-call overhead
    at search-cover sizes.

    A search polls candidates in order and stops at the first one that
    beats a bound, so it passes that bound, and evaluate spends monitor
    calls only where the poll needs them.  It screens all candidates with
    the radius terms, which need no monitor call.  Then, one monitor
    block of candidates at a time and in candidate order, it screens those
    still below the bound with -rho on the witness trajectories (those that
    were the argmax of an exact value the grid has returned), and gives the
    survivors their other trajectories, again one block at a time.  It
    returns after the first block that completes a value below the bound;
    the candidates after it are never scored.  Every term is bit-identical
    whatever batch it is computed in, so a screen value is the max over a
    subset of the full evaluation's terms, and a full value is the one the
    candidate gets alone.

    What a call repeats is kept small: a block's states take one multiply
    and one add into a fresh C-contiguous buffer, and the center curves are
    built only for the candidates the radius screen keeps.  Nothing is kept
    from one call to the next but the witnesses.
    """

    # A monitor call takes at most _BLOCK_FLOATS // len(times) trajectories,
    # so each (T, K) state plane holds at most _BLOCK_FLOATS floats (96 KiB)
    # whatever n is, and the monitor's (rows, K) tables stay of that order.
    # That is under glibc's 128 KiB mmap threshold, so temporaries are reused
    # from the malloc heap call after call instead of being mapped afresh for
    # the kernel to zero.  The calls that need it are full evaluations of
    # large covers, such as eta* on the certificate cover or sop_objective on
    # a refined one.  Evaluating the 36,800 trajectories of the 10x cover of
    # the omni_reach_avoid reference tube took about 500 minor page faults
    # and 0.29 s CPU at this size, and 152k faults and 0.54 s at 65,536
    # floats.
    _BLOCK_FLOATS = BLOCK_FLOATS

    def __init__(self, instance: SOPInstance, cover: Cover):
        _check_cover(cover.spec, instance.n, instance.t_f)
        self.instance = instance
        taus = cover.taus
        self.times = np.concatenate([[0.0], taus, [instance.t_f]])
        self.p_center = instance.center_basis.values(self.times)
        self.p_radius = instance.radius_basis.values(self.times)
        # trajectory k = i_lambda * K_dir + j_dir carries lambda_i * s(theta_j)
        self.lams = cover.lams
        self.directions = cover.directions
        self.theta_counts = cover.spec.theta_counts
        self.dir_count = cover.directions.shape[0]
        self.tau_count = len(taus)
        self.witnesses: set[int] = set()

    @functools.cached_property
    def scaled_dirs(self) -> np.ndarray:
        """Scaled direction of every trajectory, one row of K per coordinate."""
        return np.ascontiguousarray(
            (self.lams[:, None, None] * self.directions[None, :, :])
            .reshape(-1, self.instance.n).T)

    def _dirs(self, ks: np.ndarray) -> np.ndarray:
        """Columns ks of scaled_dirs, with the same bits, without building it."""
        i_lam, j_dir = np.divmod(ks, self.dir_count)
        return self.lams[i_lam] * self.directions[j_dir].T

    @property
    def trajectory_count(self) -> int:
        return len(self.lams) * self.dir_count

    @property
    def _per_call(self) -> int:
        """Trajectories one monitor call takes."""
        return max(1, self._BLOCK_FLOATS // len(self.times))

    def _radii(self, q_r):
        """Radius (T, M) of M candidates on the grid."""
        return combine(q_r, self.p_radius).T

    def _centers(self, q_c):
        """Center (n, T, M) of M candidates on the grid."""
        return combine(q_c, self.p_center).transpose(1, 2, 0)

    def _rho_chunk(self, center, radii, dirs):
        """Robustness of the trajectories of the scaled directions dirs (n, k)
        about every candidate in center (n, T, M) and radii (T, M), as (M, k)."""
        n, t, m = center.shape
        k = dirs.shape[1]
        # built in place, as r * dirs and then center + that, in the
        # C-contiguous (n, T, M, K) layout the monitor reads, and passed as
        # the (M*K, T, n) transpose; no temporary is allocated
        states = np.empty((n, t, m, k))
        np.multiply(radii[:, :, None], dirs[:, None, None, :], out=states)
        np.add(center[..., None], states, out=states)
        rho = robustness_batch(self.instance.formula, self.times,
                               states.reshape(n, t, m * k).transpose(2, 1, 0), 0.0)
        return rho.reshape(m, k)

    def _rho(self, center, radii, dirs):
        """_rho_chunk in block-sized monitor calls, in candidate order: whole
        candidates while they fit the block and slices of one candidate's
        trajectories otherwise.  Yields (candidates, trajectories, rho) slices
        per call, so the caller stores each block where it belongs, holds no
        second buffer, and may stop between calls.  With no trajectories it
        yields one empty slice of every candidate and makes no call."""
        m, k = radii.shape[1], dirs.shape[1]
        if not k:
            yield slice(0, m), slice(0, 0), np.empty((m, 0))
            return
        group = max(1, self._per_call // k)
        span = min(k, self._per_call)
        for c in range(0, m, group):
            cs = slice(c, min(c + group, m))
            for lo in range(0, k, span):
                ks = slice(lo, min(lo + span, k))
                yield cs, ks, self._rho_chunk(center[:, :, cs], radii[:, cs], dirs[:, ks])

    def _radius_terms(self, radii):
        return self.instance.min_radius - radii[1:-1].T

    def evaluate(self, q_c: np.ndarray, q_r: np.ndarray, bound: float = math.inf,
                 slack: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """Margins of a prefix of M candidates, plus slack (M,) when given,
        screened against bound, and their (deterministic, lowest-first)
        argmax constraint indices; q_c is (M, n, z_c) and q_r (M, z_r).

        The prefix ends at the first candidate whose value is below bound;
        with bound=inf, or when no value is below it, it holds all M.  A
        value below bound is exact: the candidate's margin plus slack,
        bit-identical to evaluating it alone.  Any other value is a lower
        bound of it, since the screen's max over a subset of the terms is <=
        their full max and adding slack rounds monotonically; its index is
        -1 if the screen stopped it.  With bound=inf every value is exact.
        Indices 0..m_tau-1 are radius constraints; the rest are robustness
        constraints in trajectory order.  The argmax trajectory of each
        exact value returned joins the witnesses.  Center curves are built
        only for the candidates that pass the radius screen.
        """
        def plus_slack(v, rows):
            return v if slack is None else v + slack[rows]

        radii = self._radii(q_r)
        m, k, t = radii.shape[1], self.trajectory_count, self.tau_count
        # one row of terms per candidate: t radius terms, then k of -rho
        terms = np.empty((m, t + k))
        terms[:, :t] = self._radius_terms(radii)
        values = plus_slack(terms[:, :t].max(axis=1), slice(None))
        idx = np.full(m, -1)
        live = np.flatnonzero(values < bound)
        if not len(live):
            return values, idx
        # position i of center and radii is candidate live[i]
        center, radii = self._centers(np.asarray(q_c)[live]), radii[:, live]
        # a screen costs a monitor call of its own, so it is skipped when the
        # full evaluation of every live candidate fits one call anyway (and
        # with bound=inf, when every candidate is evaluated in full)
        screened = np.zeros(k, dtype=bool)
        if bound < math.inf and len(live) * k > self._per_call:
            screened[list(self.witnesses)] = True
        seen, rest = np.flatnonzero(screened), np.flatnonzero(~screened)
        seen_dirs, rest_dirs = self.scaled_dirs[:, seen], self.scaled_dirs[:, rest]
        # one call's worth of candidates per screen, or all of them unscreened
        batch = max(1, self._per_call // len(seen)) if len(seen) else len(live)
        for lo in range(0, len(live), batch):
            pos = np.arange(lo, min(lo + batch, len(live)))
            if len(seen):
                # the witness screen keeps the candidates still below bound
                for cs, ks, rho in self._rho(center[:, :, pos], radii[:, pos], seen_dirs):
                    terms[live[pos[cs], None], t + seen[ks]] = -rho
                rows = live[pos]
                screen = plus_slack(terms[rows[:, None], t + seen].max(axis=1), rows)
                values[rows] = np.maximum(values[rows], screen)
                pos = pos[values[rows] < bound]
            # the remaining trajectories of the survivors, in candidate order;
            # a block that completes candidates gives them exact values
            for cs, ks, rho in self._rho(center[:, :, pos], radii[:, pos], rest_dirs):
                rows = live[pos[cs]]
                terms[rows[:, None], t + rest[ks]] = -rho
                if ks.stop < len(rest):
                    continue
                idx[rows] = np.argmax(terms[rows], axis=1)
                values[rows] = plus_slack(terms[rows, idx[rows]], rows)
                below = np.flatnonzero(values[rows] < bound) if bound < math.inf else []
                done = rows[:below[0] + 1] if len(below) else rows
                self.witnesses.update((idx[done][idx[done] >= t] - t).tolist())
                if len(below):
                    return values[:done[-1] + 1], idx[:done[-1] + 1]
        return values, idx

    def cell_max(self, q_c: np.ndarray, q_r: np.ndarray, factor: int) -> float:
        """Margin of one candidate (q_c is (n, z_c), q_r (z_r,)) as evaluate
        gives it, scoring the trajectories of a cell of the factor-times-coarser
        cover only while its Lipschitz bound is above the running max (see
        recheck_constraints)."""
        center, radii = self._centers(np.asarray(q_c)[None]), self._radii(np.asarray(q_r)[None])

        # fine index a on each axis lies in coarse cell a // factor, whose
        # anchor is its fine index at offset factor // 2; cell c = i * D + j
        # for lambda cell i and direction cell j, as trajectories are ordered
        coarse = tuple(c // factor for c in self.theta_counts)
        axes = np.unravel_index(np.arange(self.dir_count), self.theta_counts)
        dir_cell = np.ravel_multi_index(tuple(a // factor for a in axes), coarse)
        # members[j]: the fine directions of direction cell j
        members = np.argsort(dir_cell, kind="stable").reshape(-1, factor ** len(coarse))
        d_cells = len(members)
        cell_axes = np.unravel_index(np.arange(d_cells), coarse)
        anchor_dir = np.ravel_multi_index(tuple(a * factor + factor // 2 for a in cell_axes),
                                          self.theta_counts)
        lam_cells = len(self.lams) // factor
        anchors = ((np.arange(lam_cells) * factor + factor // 2)[:, None] * self.dir_count
                   + anchor_dir).ravel()
        anchor_dirs = self._dirs(anchors)
        neg_anchor = np.empty(len(anchors))
        for _, ks, rho in self._rho(center, radii, anchor_dirs):
            neg_anchor[ks] = -rho[0]
        value = float(np.max(neg_anchor, initial=self._radius_terms(radii).max()))

        # max over each cell of ||lambda_k s_k - lambda_a s_a||, one lambda row
        # at a time
        spread = np.zeros((lam_cells, d_cells))
        for i, lam in enumerate(self.lams):
            row = spread[i // factor]
            own = anchor_dirs[:, (i // factor) * d_cells:(i // factor + 1) * d_cells]
            dist = np.linalg.norm(lam * self.directions.T - own[:, dir_cell], axis=0)
            np.maximum(row, dist[members].max(axis=1), out=row)
        bound = (neg_anchor + self.instance.l_rho * float(np.abs(radii).max()) * spread.ravel()
                 + self._rounding_tol(center, radii))

        # refine highest bound first, while a bound is above the running max
        for c in np.argsort(-bound, kind="stable"):
            if not bound[c] > value:
                break
            i, j = divmod(int(c), d_cells)
            cell = ((i * factor + np.arange(factor))[:, None] * self.dir_count
                    + members[j]).ravel()
            for _, _, rho in self._rho(center, radii, self._dirs(cell[cell != anchors[c]])):
                value = float(np.max(-rho, initial=value))
        return value

    def _rounding_tol(self, center, radii) -> float:
        """Rounding allowance of cell_max's bounds (see recheck_constraints)."""
        n, l_rho = self.instance.n, self.instance.l_rho
        x = float(np.max(np.abs(center).max(axis=0) + np.abs(radii)))
        sigma = max((p.fn.value_scale(x) for p in iter_predicates(self.instance.formula)),
                    default=0.0)
        return 16 * (n + 2) * 2.0**-53 * (sigma + math.sqrt(n) * l_rho * x)

    def describe(self, idx: int) -> str:
        if idx < self.tau_count:
            return f"radius@tau[{idx}]"
        k = idx - self.tau_count
        i_lam, j_dir = divmod(k, self.dir_count)
        return f"robustness@theta[{j_dir}],lambda[{i_lam}]"


def sop_objective(instance: SOPInstance, q_c: np.ndarray, q_r: np.ndarray,
                  cover: Optional[Cover] = None):
    """Sampled constraint margin eta of one tube and a label for its worst
    constraint, on the given cover or else the instance's."""
    grid = _ObjectiveGrid(instance, cover if cover is not None else build_cover(instance.cover))
    eta, idx = grid.evaluate(np.asarray(q_c)[None], np.asarray(q_r)[None])
    return float(eta[0]), grid.describe(int(idx[0]))


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

def _region_center(node: Formula) -> Optional[np.ndarray]:
    if isinstance(node, Predicate) and isinstance(node.fn, (BoxInfNorm, BallNorm2)):
        return np.asarray(node.fn.center, dtype=float)
    if isinstance(node, (And, Or)):
        left = _region_center(node.left)
        return left if left is not None else _region_center(node.right)
    return None


def _reach_items(formula: Formula) -> list[tuple[float, float, float, float, np.ndarray]]:
    """(window_start, window_end, dwell_offset, dwell_length, center) for each
    top-level Eventually target, in formula order."""
    items = []

    def visit(node):
        if isinstance(node, (And, Or)):
            visit(node.left)
            visit(node.right)
        elif isinstance(node, Not):
            visit(node.child)
        elif isinstance(node, Eventually):
            inner = node.child
            offset, dwell = 0.0, 0.0
            target = inner
            if isinstance(inner, Always):
                offset, dwell = inner.start, inner.end - inner.start
                target = inner.child
            center = _region_center(target)
            if center is not None:
                items.append((node.start, node.end, offset, dwell, center))

    visit(formula)
    return items


def warm_start(instance: SOPInstance) -> tuple[np.ndarray, np.ndarray]:
    """Initial coefficients: a piecewise-linear visit of the reach targets in
    deadline order, least-squares fitted in the basis, and the radius at
    twice the floor, which constant control points give exactly as the
    Bernstein polynomials sum to one.  Everything is clipped into the
    coefficient boxes."""
    n, t_f = instance.n, instance.t_f
    start = instance.start_center
    if start is None:
        start = instance.state_bounds.mean(axis=1)

    items = _reach_items(instance.formula)
    items.sort(key=lambda it: (it[0] + it[1]) / 2.0)
    # schedule targets in deadline order, spaced by a travel allowance so
    # co-timed targets do not collapse onto one anchor
    sep = 0.1 * t_f
    anchors = [(0.0, np.asarray(start, dtype=float))]
    cursor = -sep
    for a, b, offset, dwell, center in items:
        if dwell > 0:
            entry = min(max(a + offset, cursor + sep), b + offset)
            leave = min(entry + dwell, t_f)
            anchors.append((entry, center))
            anchors.append((leave, center))
            cursor = leave
        else:
            entry = min(max((a + b) / 2.0 + offset, cursor + sep, a + offset),
                        b + offset)
            anchors.append((entry, center))
            cursor = entry
    anchors.sort(key=lambda p: p[0])
    if anchors[-1][0] < t_f:
        anchors.append((t_f, anchors[-1][1]))

    knot_t = np.array([p[0] for p in anchors])
    for i in range(1, len(knot_t)):  # np.interp needs increasing knots
        knot_t[i] = max(knot_t[i], knot_t[i - 1] + 1e-3)
    knot_x = np.stack([p[1] for p in anchors])
    grid = np.linspace(0.0, t_f, 201)
    path = np.stack([np.interp(grid, knot_t, knot_x[:, i]) for i in range(n)])

    cb = instance.center_basis
    # weighted fit: anchor rows force the curve through the waypoints, and a
    # curvature penalty on the control polygon keeps near-interpolating fits
    # from oscillating to huge coefficients; its normal equations A'A q = A'b
    # are solved by Cholesky, for all n coordinates at once
    anchor_w = 30.0
    second_differences = np.diff(np.eye(instance.center_count), n=2, axis=0)
    a = np.vstack([cb.values(grid).T, anchor_w * cb.values(knot_t).T,
                   2.0 * second_differences])
    b = np.vstack([path.T, anchor_w * knot_x, np.zeros((len(second_differences), n))])
    low = _cholesky(combine(a.T, a), instance.center_count)
    q_c = np.array([_cholesky_solve(low, rhs) for rhs in combine(a.T, b).T.tolist()])
    q_r = np.full(instance.radius_count, 2.0 * instance.min_radius)

    q_c = np.clip(q_c, instance.center_box[..., 0], instance.center_box[..., 1])
    q_r = np.clip(q_r, instance.radius_box[:, 0], instance.radius_box[:, 1])
    return q_c, q_r


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

# the pattern search's poll step starts at STEP0 and stops below MIN_STEP
# (fractions of each coefficient's box width)
STEP0 = 0.25
MIN_STEP = 1e-3
# the certificate polish stops once the margin on the search cover reaches
# -POLISH_SLACK, leaving room for the finer certification cover
POLISH_SLACK = 0.05


@dataclass
class SolverSettings:
    """Objective-evaluation budget, and the cover the search iterates on
    (None: the instance's certificate cover).  ValueError naming the field
    unless budget is an integer of at least 1 and the search cover is within
    COVER_SAMPLE_BUDGET."""

    budget: int = 4000
    search_cover: Optional[CoverSpec] = None

    def __post_init__(self):
        _check_integer("budget", self.budget, 1)
        if self.search_cover is not None:
            _check_sample_budget("search_cover", self.search_cover)


def pattern_search(func, x0, lb, ub, *, step: float, min_step: float,
                   budget: int, target: Optional[float] = None):
    """Greedy coordinate search with per-axis scaling and halving steps.

    func(points, bound=inf) maps an (M, d) array of points to values, which
    are minimized: one per point, or one for each point of a prefix that
    ends at the first value below bound.  With bound=inf, or when no value
    is below bound, it must return all M.  A value below bound must be that
    point's exact value; any other value only has to be a lower bound of
    it.  The search takes its decisions as a sequential poll does:
    coordinates in order, + step before - step, each trial accepted on
    strict improvement, which ends that coordinate's poll.  It sends every
    remaining trial of a sweep to func in one call with bound=fx, the
    incumbent's value, and replays the values in order: the first one below
    fx is accepted, every trial before it is consumed, and the sweep
    restarts at the next coordinate from the new point.  So func may stop
    refining a rejected trial at a value >= fx, and need not score the
    trials after an accepted one at all.  The returned count, which budget
    bounds, counts the trials that sequential poll consumes, not the trials
    computed; a sweep is cut to the budget left.  Trials that clip back onto
    x[j], and axes whose box is collapsed to a point, are skipped.  Stops
    early once the value is <= target.
    """
    x = np.asarray(x0, dtype=float).copy()
    scale = ub - lb
    # the axes whose box is not collapsed, each polled + before -
    moving = np.flatnonzero(scale != 0.0)
    signs = np.tile([1.0, -1.0], len(moving))
    fx = float(func(x[None])[0])
    evals = 1
    cur = step
    while evals < budget and cur >= min_step:
        if target is not None and fx <= target:
            break
        improved = False
        first = 0
        while evals < budget:
            # x[j] + (sgn * cur) * scale[j] on each moving axis from first on,
            # clipped as min(max(trial, lb), ub) clips it
            axes = np.repeat(moving[moving >= first], 2)
            trials = x[axes] + signs[:len(axes)] * cur * scale[axes]
            trials = np.where(lb[axes] > trials, lb[axes], trials)
            trials = np.where(ub[axes] < trials, ub[axes], trials)
            moved = trials != x[axes]
            axes, trials = axes[moved][:budget - evals], trials[moved][:budget - evals]
            if not len(trials):
                break
            points = np.repeat(x[None], len(trials), axis=0)
            points[np.arange(len(trials)), axes] = trials
            for j, point, value in zip(axes.tolist(), points, func(points, bound=fx)):
                evals += 1
                if value < fx:
                    x, fx = point.copy(), float(value)
                    improved = True
                    first = j + 1
                    break
            else:
                break
        if not improved:
            cur /= 2.0
    return x, fx, evals


@dataclass
class SynthesisResult:
    """Optimal tube, its certificate data, and solver diagnostics."""

    tube: Tube
    eta_star: float
    lipschitz: LipschitzInfo
    epsilon: float
    worst_constraint: str
    diagnostics: dict
    wall_time: float = 0.0  # informational; never serialized

    @property
    def margin(self) -> float:
        return self.eta_star + self.lipschitz.combined * self.epsilon

    @property
    def certificate_ok(self) -> bool:
        """Sampled margin plus Lipschitz slack must clear zero."""
        return self.margin <= 0.0

    def to_dict(self) -> dict:
        return {
            "tube": tube_to_record(self.tube),
            "eta_star": self.eta_star,
            "lipschitz": asdict(self.lipschitz),
            "epsilon": self.epsilon,
            "certificate_ok": self.certificate_ok,
            "margin": self.margin,
            "worst_constraint": self.worst_constraint,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthesisResult":
        return cls(tube=tube_from_record(d["tube"]), eta_star=d["eta_star"],
                   lipschitz=LipschitzInfo(**d["lipschitz"]), epsilon=d["epsilon"],
                   worst_constraint=d["worst_constraint"], diagnostics=d["diagnostics"])

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SynthesisResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def solve_sop(instance: SOPInstance, settings: SolverSettings) -> SynthesisResult:
    """Minimize the sampled margin over box-bounded tube coefficients.

    One pattern search from warm_start on the sampled margin, then a
    certificate polish on the margin plus the Lipschitz slack; both share
    settings.budget.  The search runs on settings.search_cover, or on the
    instance's epsilon-cover when that is None; eta* and the certificate are
    always evaluated on the instance's cover.  A search cover of another
    dimension or horizon than the instance's raises a ValueError before the
    first evaluation.  Deterministic: the same instance and settings give
    the same result, bit for bit.
    """
    t_start = time.perf_counter()

    q_c0, q_r0 = warm_start(instance)
    cert_spec = instance.cover
    search_spec = settings.search_cover if settings.search_cover is not None else cert_spec
    search_grid = _ObjectiveGrid(instance, build_cover(search_spec))

    nq_c = instance.n * instance.center_count
    lb = np.concatenate([instance.center_box[..., 0].ravel(), instance.radius_box[:, 0]])
    ub = np.concatenate([instance.center_box[..., 1].ravel(), instance.radius_box[:, 1]])

    def unpack(q):
        # one point (d,) or a batch (M, d)
        return (q[..., :nq_c].reshape(q.shape[:-1] + (instance.n, instance.center_count)),
                q[..., nq_c:])

    def objective(qs, bound=math.inf):
        return search_grid.evaluate(*unpack(qs), bound)[0]

    q0 = np.concatenate([q_c0.ravel(), q_r0])
    best, _, evals = pattern_search(objective, q0, lb, ub, step=STEP0, min_step=MIN_STEP,
                                    budget=settings.budget)

    # certificate polish: the search minimizes eta alone, but the
    # certificate needs eta + L(q)*eps <= 0 and L depends on the coefficients;
    # descend on the full margin when eta alone did not close it
    if evals < settings.budget:
        eps_cert = cert_spec.radius

        def margin_objective(qs, bound=math.inf):
            # every trial's L in one batched pass over its curves
            q_c, q_r = unpack(qs)
            lips = np.array([info.combined for info in instance.lipschitz(q_c, q_r)])
            return search_grid.evaluate(q_c, q_r, bound, slack=lips * eps_cert)[0]

        m0 = float(margin_objective(best[None])[0])
        evals += 1
        if m0 > -POLISH_SLACK and evals < settings.budget:
            x, v, used = pattern_search(
                margin_objective, best, lb, ub, step=STEP0 / 4, min_step=MIN_STEP,
                budget=settings.budget - evals, target=-POLISH_SLACK)
            evals += used
            if v < m0:
                best = x

    q_c, q_r = unpack(best)
    tube = instance.make_tube(q_c, q_r)

    lip = instance.lipschitz(q_c[None], q_r[None])[0]
    eta_star, worst = sop_objective(instance, q_c, q_r)

    wall = time.perf_counter() - t_start
    diagnostics = {
        "objective_evals": evals,
        # always 0; perfbench/workloads.py reads it until ROADMAP item 3 drops it
        "bisection_rounds": 0,
        "search_cover": {
            "theta_counts": list(search_spec.theta_counts),
            "lambda_count": search_spec.lambda_count,
            "tau_count": search_spec.tau_count,
        },
        "cover_samples": cert_spec.sample_count,
    }
    return SynthesisResult(tube=tube, eta_star=eta_star, lipschitz=lip,
                           epsilon=cert_spec.radius, worst_constraint=worst,
                           diagnostics=diagnostics, wall_time=wall)


def recheck_constraints(instance: SOPInstance, tube: Tube, factor: int = 10) -> float:
    """Max raw constraint value on a factor-times-finer grid of the instance's
    cover (certified tubes must stay <= 0 everywhere).

    It is sop_objective's value on the refined cover, bit for bit, from far
    fewer trajectories.  Each cell c of the instance's cover holds factor
    refined samples per theta and lambda axis; its anchor a is the one at
    offset factor // 2 on each axis.  M starts as the max of the radius
    terms and the anchors' -rho, all on the refined time grid.  A cell is
    scored in full, highest bound first and with M updated after each
    monitor call, only while its bound

        B_c = -rho(x_a) + l_rho * R * max_{k in c} ||lam_k s_k - lam_a s_a||_2 + tol,

    with R = max_i |r(t_i)| over the grid, is > M.  A pruned cell cannot
    raise the max:

    - States.  Trajectories k and a of one candidate differ at grid time t_i
      by r(t_i) (lam_k s_k - lam_a s_a).  The monitor reads a trajectory only
      at grid samples and at convex combinations of two adjacent ones (the
      off-grid window endpoints), so each state it reads of x_k is within
      R ||lam_k s_k - lam_a s_a||_2 of the one it reads of x_a at that time.
    - Monitor.  Every predicate is l_rho-Lipschitz in the 2-norm.  Not
      negates; And, Or, F and G take the min or max of finitely many values
      read at fixed times; U is a max of mins of such values.  Each keeps
      the constant, so |rho(x_k) - rho(x_a)| <= l_rho R ||lam_k s_k -
      lam_a s_a||_2, and -rho(x_k) <= B_c - tol.
    - Max.  A pruned cell has B_c <= M, so each of its terms is at most
      B_c - tol <= M, and M is itself a term.  So a strict > is enough: the
      cell cannot raise the max, which comes out as sop_objective finds it.
    - Rounding.  With u = 2**-53, every coordinate the monitor reads is at
      most X = max_i (||c(t_i)||_inf + |r(t_i)|) in magnitude, to a factor
      1 + O(u).  Forming c + r lam s and interpolating round it by at most
      5uX, which moves a predicate by at most 5 sqrt(n) l_rho uX.  A
      predicate takes at most 2n + 2 rounded operations on values bounded by
      its value_scale(X) <= sigma; min, max and negation are exact.  Adding
      the rounding of B_c itself (the norm, the products, the sums and l_rho
      as a float) and the off-grid weights' sum of up to 1 + u, all of it
      stays below u ((10 sqrt(n) + 4n + 18) l_rho X + (4n + 6) sigma).  tol
      = 16 (n + 2) u (sigma + sqrt(n) l_rho X) is at least twice that for
      n >= 2.
    """
    grid = _ObjectiveGrid(instance, build_cover(instance.cover.refined(factor)))
    return grid.cell_max(tube.center_coeffs, tube.radius_coeffs, factor)
