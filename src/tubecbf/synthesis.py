"""Tube synthesis: cover the augmented parameter domain, minimize the sampled
constraint margin over tube coefficients, and certify that the sampled
solution generalizes to the continuous domain via Lipschitz constants."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .basis import make_basis
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
    robustness_batch,
    robustness_lipschitz,
)
from .tube import Tube, sphere_map_many, tube_lipschitz, tube_to_record, tube_from_record


class CoverError(ValueError):
    """Cover cannot be built (bad radius or sample budget exceeded)."""


# ---------------------------------------------------------------------------
# covers of the augmented domain W = angles x [0,1] x [0,t_f]
# ---------------------------------------------------------------------------

def axis_midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    """Midpoint grid: count cells of equal width, one sample at each center.

    Every point of [lo, hi] is within (hi-lo)/(2*count) of a sample.
    """
    if count < 1:
        raise CoverError("axis needs at least one sample")
    h = (hi - lo) / count
    return lo + h / 2 + h * np.arange(count)


def _angle_ranges(n: int) -> list[tuple[float, float]]:
    # n-1 angles: the first n-2 span [0, pi], the last spans [0, 2*pi]
    if n < 2:
        raise CoverError("tube dimension must be at least 2")
    return [(0.0, math.pi)] * (n - 2) + [(0.0, 2.0 * math.pi)]


@dataclass(frozen=True)
class CoverSpec:
    """Per-axis sample counts whose midpoint grid is an epsilon-cover of W."""

    radius: float
    theta_counts: tuple
    lambda_count: int
    tau_count: int
    t_f: float

    def __post_init__(self):
        if self.radius <= 0:
            raise CoverError(f"cover radius must be positive, got {self.radius}")
        if self.lambda_count < 1 or self.tau_count < 1 or any(c < 1 for c in self.theta_counts):
            raise CoverError("all axis counts must be at least 1")
        needed = self._implied_radius()
        if needed > self.radius + 1e-12:
            raise CoverError(
                f"grid spacing only covers radius {needed:.6g} > requested {self.radius:.6g}")

    @property
    def dimension(self) -> int:
        return len(self.theta_counts) + 1

    def _implied_radius(self) -> float:
        halves = []
        for (lo, hi), m in zip(_angle_ranges(self.dimension), self.theta_counts):
            halves.append((hi - lo) / (2 * m))
        halves.append(1.0 / (2 * self.lambda_count))
        halves.append(self.t_f / (2 * self.tau_count))
        return math.sqrt(sum(h * h for h in halves))

    @property
    def sample_count(self) -> int:
        return int(np.prod(self.theta_counts)) * self.lambda_count * self.tau_count

    @classmethod
    def for_radius(cls, radius: float, n: int, t_f: float,
                   max_samples: int = 50_000_000) -> "CoverSpec":
        """Equal-contribution split: every axis gets spacing 2*radius/sqrt(d)."""
        if radius <= 0:
            raise CoverError(f"cover radius must be positive, got {radius}")
        ranges = _angle_ranges(n) + [(0.0, 1.0), (0.0, t_f)]
        d = len(ranges)
        h = 2.0 * radius / math.sqrt(d)
        counts = [max(1, math.ceil((hi - lo) / h)) for lo, hi in ranges]
        spec = cls(radius=radius, theta_counts=tuple(counts[:n - 1]),
                   lambda_count=counts[-2], tau_count=counts[-1], t_f=t_f)
        if spec.sample_count > max_samples:
            raise CoverError(
                f"cover needs {spec.sample_count} samples, over the budget {max_samples}; "
                f"increase the radius or pin coarser axis counts")
        return spec

    @classmethod
    def from_counts(cls, theta_counts, lambda_count: int, tau_count: int,
                    t_f: float) -> "CoverSpec":
        """Spec with the smallest radius the given counts actually cover."""
        probe = cls.__new__(cls)
        object.__setattr__(probe, "theta_counts", tuple(theta_counts))
        object.__setattr__(probe, "lambda_count", lambda_count)
        object.__setattr__(probe, "tau_count", tau_count)
        object.__setattr__(probe, "t_f", t_f)
        radius = probe._implied_radius()
        return cls(radius=radius, theta_counts=tuple(theta_counts),
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


def build_cover(spec: CoverSpec) -> Cover:
    n = spec.dimension
    grids = [axis_midpoints(lo, hi, m)
             for (lo, hi), m in zip(_angle_ranges(n), spec.theta_counts)]
    if len(grids) == 1:
        thetas = grids[0][:, None]
    else:
        mesh = np.meshgrid(*grids, indexing="ij")
        thetas = np.column_stack([g.ravel() for g in mesh])
    return Cover(
        spec=spec,
        thetas=thetas,
        directions=sphere_map_many(thetas),
        lams=axis_midpoints(0.0, 1.0, spec.lambda_count),
        taus=axis_midpoints(0.0, spec.t_f, spec.tau_count),
    )


# ---------------------------------------------------------------------------
# combined Lipschitz constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzInfo:
    robustness: float   # of the monitor w.r.t. the signal
    center: float       # of the tube center curve
    radius: float       # of the tube radius curve
    radius_max: float   # max radius over the horizon
    sphere: float       # of the sphere parameterization
    mu: float           # of the per-direction worst robustness
    combined: float     # constant entering the certificate


def combine_constants(l_rho: float, l_center: float, l_radius: float,
                      radius_max: float, n: int) -> LipschitzInfo:
    """Combined constant for the generalization certificate.

    The sphere map is sqrt(n(n-1))-Lipschitz; the per-direction robustness
    inherits l_rho * r_max * sqrt(l_s^2 + 1); time variation adds
    l_rho * (l_c + l_r).  The certificate uses the max against the radius
    constraint's own constant l_r.
    """
    l_s = math.sqrt(n * (n - 1))
    l_mu = l_rho * radius_max * math.sqrt(l_s**2 + 1.0)
    combined = max(l_radius,
                   math.sqrt(l_mu**2 + l_rho**2 * (l_center + l_radius) ** 2))
    return LipschitzInfo(robustness=l_rho, center=l_center, radius=l_radius,
                         radius_max=radius_max, sphere=l_s, mu=l_mu,
                         combined=combined)


def combined_lipschitz(tube: Tube, formula: Formula) -> LipschitzInfo:
    tl = tube_lipschitz(tube)
    return combine_constants(robustness_lipschitz(formula), tl.center, tl.radius,
                             tl.radius_max, tube.dimension)


# ---------------------------------------------------------------------------
# problem instance and objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SOPInstance:
    """Sampled tube-synthesis problem over box-bounded coefficients."""

    formula: Formula
    n: int
    t_f: float
    min_radius: float
    basis_kind: str
    center_count: int
    radius_count: int
    center_box: np.ndarray   # (n, z_c, 2)
    radius_box: np.ndarray   # (z_r, 2)
    state_bounds: np.ndarray  # (n, 2)
    cover: Optional[CoverSpec] = None
    start_center: Optional[np.ndarray] = None
    until_convention: str = "paper"

    def __post_init__(self):
        if self.min_radius <= 0:
            raise ValueError("minimum tube radius must be positive")
        cb = np.asarray(self.center_box, dtype=float)
        rb = np.asarray(self.radius_box, dtype=float)
        if cb.shape != (self.n, self.center_count, 2):
            raise ValueError("center box must be (n, z_c, 2)")
        if rb.shape != (self.radius_count, 2):
            raise ValueError("radius box must be (z_r, 2)")
        if np.any(cb[..., 1] < cb[..., 0]) or np.any(rb[:, 1] < rb[:, 0]):
            raise ValueError("coefficient boxes must be nonempty")
        if horizon(self.formula) > self.t_f + 1e-9:
            raise ValueError(
                f"formula horizon {horizon(self.formula)} exceeds tube horizon {self.t_f}")
        object.__setattr__(self, "center_box", cb)
        object.__setattr__(self, "radius_box", rb)
        object.__setattr__(self, "state_bounds",
                           np.asarray(self.state_bounds, dtype=float))

    @classmethod
    def build(cls, formula: Formula, n: int, t_f: float, state_bounds,
              min_radius: float = 0.25, basis_kind: str = "bernstein",
              center_count: int = 5, radius_count: int = 4,
              radius_max: Optional[float] = None, cover: Optional[CoverSpec] = None,
              start_center=None, pin_start: bool = False,
              center_box_scale: float = 1.5,
              until_convention: str = "paper") -> "SOPInstance":
        """Instance with coefficient boxes derived from the state bounds.

        The center box bounds the control polygon, not the curve, and control
        points must overshoot interior waypoints, so it defaults to the state
        bounds inflated about their midpoint by center_box_scale.
        """
        bounds = np.asarray(state_bounds, dtype=float)
        if bounds.shape != (n, 2):
            raise ValueError("state bounds must be (n, 2)")
        mid = bounds.mean(axis=1)
        half = (bounds[:, 1] - bounds[:, 0]) / 2.0 * center_box_scale
        inflated = np.column_stack([mid - half, mid + half])
        center_box = np.repeat(inflated[:, None, :], center_count, axis=1).copy()
        if radius_max is None:
            radius_max = float(np.min(bounds[:, 1] - bounds[:, 0])) / 4.0
        radius_box = np.tile([min_radius, max(radius_max, min_radius)], (radius_count, 1))
        start = None if start_center is None else np.asarray(start_center, dtype=float)
        if pin_start:
            if start is None:
                raise ValueError("pin_start requires a start center")
            center_box[:, 0, 0] = start
            center_box[:, 0, 1] = start
        return cls(formula=formula, n=n, t_f=t_f, min_radius=min_radius,
                   basis_kind=basis_kind, center_count=center_count,
                   radius_count=radius_count, center_box=center_box,
                   radius_box=radius_box, state_bounds=bounds, cover=cover,
                   start_center=start, until_convention=until_convention)

    def make_tube(self, q_c: np.ndarray, q_r: np.ndarray) -> Tube:
        return Tube(np.asarray(q_c, dtype=float).reshape(self.n, self.center_count),
                    np.asarray(q_r, dtype=float),
                    make_basis(self.basis_kind, self.center_count, self.t_f),
                    make_basis(self.basis_kind, self.radius_count, self.t_f))


class _ObjectiveGrid:
    """Cover-dependent precomputation for fast evaluation of the sampled
    constraint margin max{ r_d - r(tau_s) } u { -rho(x_s) }."""

    # keep per-evaluation state arrays under ~48 MB
    _CHUNK_FLOATS = 6_000_000

    def __init__(self, instance: SOPInstance, cover: Cover):
        self.instance = instance
        taus = cover.taus
        self.times = np.concatenate([[0.0], taus, [instance.t_f]])
        cb = make_basis(instance.basis_kind, instance.center_count, instance.t_f)
        rb = make_basis(instance.basis_kind, instance.radius_count, instance.t_f)
        self.p_center = cb.values(self.times)
        self.p_radius = rb.values(self.times)
        lams = cover.lams
        dirs = cover.directions
        # trajectory k = i_lambda * K_dir + j_dir carries lambda_i * s(theta_j)
        self.scaled_dirs = (lams[:, None, None] * dirs[None, :, :]).reshape(-1, instance.n)
        self.dir_count = dirs.shape[0]
        self.tau_count = len(taus)

    @property
    def trajectory_count(self) -> int:
        return self.scaled_dirs.shape[0]

    def _rho_chunk(self, center_t, radii, lo, hi):
        block = self.scaled_dirs[lo:hi]
        # built time-major (T, K, n), the layout the monitor reads, and passed
        # as its (K, T, n) transpose
        states = center_t[:, None, :] + radii[:, None, None] * block[None, :, :]
        return robustness_batch(self.instance.formula, self.times,
                                states.transpose(1, 0, 2), 0.0,
                                until_convention=self.instance.until_convention)

    def evaluate(self, q_c: np.ndarray, q_r: np.ndarray) -> tuple[float, int]:
        """Margin and the (deterministic, lowest-first) argmax constraint index.

        Indices 0..m_tau-1 are radius constraints; the rest are robustness
        constraints in trajectory order.
        """
        radii = np.asarray(q_r, dtype=float) @ self.p_radius
        center_t = (np.asarray(q_c, dtype=float) @ self.p_center).T  # (T, n)
        radius_terms = self.instance.min_radius - radii[1:-1]

        k_total = self.trajectory_count
        chunk = max(1, self._CHUNK_FLOATS // max(1, len(self.times) * self.instance.n))
        rho = np.concatenate([self._rho_chunk(center_t, radii, lo, min(lo + chunk, k_total))
                              for lo in range(0, k_total, chunk)])

        terms = np.concatenate([radius_terms, -rho])
        idx = int(np.argmax(terms))
        return float(terms[idx]), idx

    def describe(self, idx: int) -> str:
        if idx < self.tau_count:
            return f"radius@tau[{idx}]"
        k = idx - self.tau_count
        i_lam, j_dir = divmod(k, self.dir_count)
        return f"robustness@theta[{j_dir}],lambda[{i_lam}]"


def sop_objective(instance: SOPInstance, q_c: np.ndarray, q_r: np.ndarray,
                  cover: Optional[Cover] = None):
    """Sampled constraint margin eta and a label for the worst constraint."""
    if cover is None:
        if instance.cover is None:
            raise ValueError("instance has no cover; pass one explicitly")
        cover = build_cover(instance.cover)
    grid = _ObjectiveGrid(instance, cover)
    eta, idx = grid.evaluate(q_c, q_r)
    return eta, grid.describe(idx)


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
    deadline order, least-squares fitted in the basis, radius at twice the
    floor.  Everything is clipped into the coefficient boxes."""
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

    cb = make_basis(instance.basis_kind, instance.center_count, t_f)
    rb = make_basis(instance.basis_kind, instance.radius_count, t_f)
    # weighted fit: anchor rows force the curve through the waypoints, and a
    # curvature penalty on the control polygon keeps near-interpolating fits
    # from oscillating to huge coefficients
    anchor_w = 30.0
    rows = [cb.values(grid).T, anchor_w * cb.values(knot_t).T]
    zc = instance.center_count
    if instance.basis_kind == "bernstein" and zc > 2:
        d2 = np.zeros((zc - 2, zc))
        for i in range(zc - 2):
            d2[i, i:i + 3] = [1.0, -2.0, 1.0]
        rows.append(2.0 * d2)
    a_c = np.vstack(rows)
    pad = np.zeros(a_c.shape[0] - len(grid) - len(knot_t))
    q_c = np.stack([
        np.linalg.lstsq(a_c, np.concatenate([path[i], anchor_w * knot_x[:, i], pad]),
                        rcond=None)[0]
        for i in range(n)
    ])
    a_r = rb.values(grid).T
    q_r = np.linalg.lstsq(a_r, np.full(len(grid), 2.0 * instance.min_radius), rcond=None)[0]

    q_c = np.clip(q_c, instance.center_box[..., 0], instance.center_box[..., 1])
    q_r = np.clip(q_r, instance.radius_box[:, 0], instance.radius_box[:, 1])
    return q_c, q_r


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

# an auto-derived search cover is halved per axis until it has at most this
# many samples
MAX_SEARCH_SAMPLES = 150_000
# the certificate polish stops once the margin on the search cover reaches
# -POLISH_SLACK, leaving room for the finer certification cover
POLISH_SLACK = 0.05


@dataclass
class SolverSettings:
    seed: int = 0
    budget: int = 4000
    starts: int = 3
    step0: float = 0.25
    min_step: float = 1e-3
    bisection: tuple = (-2.0, 2.0)
    bisection_tol: float = 1e-3
    target_margin: float = 0.05
    search_cover: Optional[CoverSpec] = None


def pattern_search(func, x0, lb, ub, *, step: float, min_step: float,
                   budget: int, target: Optional[float] = None):
    """Greedy coordinate search with per-axis scaling and halving steps.

    func returns (value, info); only the value is minimized.  Axes whose box
    is collapsed to a point are skipped.  Stops early once value <= target.
    """
    x = np.asarray(x0, dtype=float).copy()
    scale = ub - lb
    fx, _ = func(x)
    evals = 1
    cur = step
    while evals < budget and cur >= min_step:
        if target is not None and fx <= target:
            break
        improved = False
        for j in range(len(x)):
            if scale[j] == 0.0 or evals >= budget:
                continue
            for sgn in (1.0, -1.0):
                trial = float(np.clip(x[j] + sgn * cur * scale[j], lb[j], ub[j]))
                if trial == x[j]:
                    continue
                xt = x.copy()
                xt[j] = trial
                ft, _ = func(xt)
                evals += 1
                if ft < fx:
                    x, fx = xt, ft
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            cur /= 2.0
    return x, fx, evals


def _minimize_margin(func, q0, lb, ub, settings: SolverSettings,
                     rng: np.random.Generator):
    """Outer bisection on the margin level; inner multi-start pattern search."""
    best = np.asarray(q0, dtype=float).copy()
    best_val, _ = func(best)
    evals = 1
    width = ub - lb
    for _ in range(max(0, settings.starts - 1)):
        cand = np.clip(best + rng.normal(scale=0.08, size=len(best)) * width, lb, ub)
        v, _ = func(cand)
        evals += 1
        if v < best_val:
            best, best_val = cand, v

    chunk = max(150, settings.budget // 10)
    x, v, used = pattern_search(func, best, lb, ub, step=settings.step0,
                                min_step=settings.min_step, budget=chunk * 2)
    evals += used
    if v < best_val:
        best, best_val = x, v

    lo, hi = settings.bisection
    hi = min(hi, best_val)
    rounds = 0
    while hi - lo > settings.bisection_tol and evals < settings.budget:
        target = 0.5 * (lo + hi)
        if best_val <= target:
            hi = best_val
            rounds += 1
            continue
        if rounds % 2 == 1:
            start = np.clip(best + rng.normal(scale=0.04, size=len(best)) * width, lb, ub)
        else:
            start = best
        step = max(settings.min_step * 4, settings.step0 / 2 ** min(rounds, 5))
        x, v, used = pattern_search(func, start, lb, ub, step=step,
                                    min_step=settings.min_step,
                                    budget=min(chunk, settings.budget - evals),
                                    target=target)
        evals += used
        if v < best_val:
            best, best_val = x, v
        if best_val <= target:
            hi = best_val
        else:
            lo = target
        rounds += 1
    return best, best_val, evals, rounds


@dataclass
class SynthesisResult:
    """Optimal tube, its certificate data, and solver diagnostics."""

    tube: Tube
    eta_star: float
    lipschitz: LipschitzInfo
    epsilon: float
    certificate_ok: bool
    worst_constraint: str
    diagnostics: dict
    wall_time: float = 0.0  # informational; never serialized

    @property
    def margin(self) -> float:
        return self.eta_star + self.lipschitz.combined * self.epsilon

    def to_dict(self) -> dict:
        return {
            "tube": tube_to_record(self.tube),
            "eta_star": self.eta_star,
            "lipschitz": {
                "robustness": self.lipschitz.robustness,
                "center": self.lipschitz.center,
                "radius": self.lipschitz.radius,
                "radius_max": self.lipschitz.radius_max,
                "sphere": self.lipschitz.sphere,
                "mu": self.lipschitz.mu,
                "combined": self.lipschitz.combined,
            },
            "epsilon": self.epsilon,
            "certificate_ok": self.certificate_ok,
            "margin": self.margin,
            "worst_constraint": self.worst_constraint,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthesisResult":
        lip = LipschitzInfo(**d["lipschitz"])
        return cls(tube=tube_from_record(d["tube"]), eta_star=d["eta_star"],
                   lipschitz=lip, epsilon=d["epsilon"],
                   certificate_ok=d["certificate_ok"],
                   worst_constraint=d["worst_constraint"],
                   diagnostics=d["diagnostics"])

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SynthesisResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def verify_certificate(result: SynthesisResult) -> bool:
    """Sampled margin plus Lipschitz slack must clear zero."""
    return result.margin <= 0.0


def _search_spec(cert: CoverSpec, settings: SolverSettings) -> CoverSpec:
    if settings.search_cover is not None:
        return settings.search_cover
    spec = cert
    while spec.sample_count > MAX_SEARCH_SAMPLES:
        counts = [max(3, c // 2) for c in spec.theta_counts]
        lam = max(2, spec.lambda_count // 2)
        tau = max(8, spec.tau_count // 2)
        shrunk = CoverSpec.from_counts(counts, lam, tau, spec.t_f)
        if shrunk.sample_count == spec.sample_count:
            break
        spec = shrunk
    return spec


def solve_sop(instance: SOPInstance, settings: Optional[SolverSettings] = None,
              warm: Optional[tuple] = None) -> SynthesisResult:
    """Minimize the sampled margin over box-bounded tube coefficients.

    Two-level scheme: an outer bisection on the margin level with an inner
    multi-start pattern search.  The search may run on a coarsened cover, but
    eta* and the certificate are always evaluated on the instance's own
    epsilon-cover.  Deterministic for a fixed seed.
    """
    settings = settings if settings is not None else SolverSettings()
    rng = np.random.default_rng(settings.seed)
    t_start = time.perf_counter()

    q_c0, q_r0 = warm if warm is not None else warm_start(instance)
    q_c0 = np.clip(q_c0, instance.center_box[..., 0], instance.center_box[..., 1])
    q_r0 = np.clip(q_r0, instance.radius_box[:, 0], instance.radius_box[:, 1])

    if instance.cover is not None:
        cert_spec = instance.cover
        pinned = True
    else:
        warm_tube = instance.make_tube(q_c0, q_r0)
        l_warm = combined_lipschitz(warm_tube, instance.formula).combined
        cert_spec = CoverSpec.for_radius(settings.target_margin / max(l_warm, 1e-9),
                                         instance.n, instance.t_f)
        pinned = False

    search_spec = _search_spec(cert_spec, settings)
    search_grid = _ObjectiveGrid(instance, build_cover(search_spec))

    nq_c = instance.n * instance.center_count
    lb = np.concatenate([instance.center_box[..., 0].ravel(), instance.radius_box[:, 0]])
    ub = np.concatenate([instance.center_box[..., 1].ravel(), instance.radius_box[:, 1]])

    def unpack(q):
        return q[:nq_c].reshape(instance.n, instance.center_count), q[nq_c:]

    def objective(q):
        return search_grid.evaluate(*unpack(q))

    q0 = np.concatenate([q_c0.ravel(), q_r0])
    best, _, evals, rounds = _minimize_margin(objective, q0, lb, ub, settings, rng)

    # certificate polish: the bisection minimizes eta alone, but the
    # certificate needs eta + L(q)*eps <= 0 and L depends on the coefficients;
    # descend on the full margin when eta alone did not close it
    if evals < settings.budget:
        l_rho = robustness_lipschitz(instance.formula)
        eps_cert = cert_spec.radius

        def margin_objective(q):
            qc, qr = unpack(q)
            eta, idx = search_grid.evaluate(qc, qr)
            tl = tube_lipschitz(instance.make_tube(qc, qr))
            lip_q = combine_constants(l_rho, tl.center, tl.radius,
                                      tl.radius_max, instance.n).combined
            return eta + lip_q * eps_cert, idx

        m0, _ = margin_objective(best)
        evals += 1
        if m0 > -POLISH_SLACK:
            x, v, used = pattern_search(
                margin_objective, best, lb, ub, step=settings.step0 / 4,
                min_step=settings.min_step,
                budget=max(0, settings.budget - evals),
                target=-POLISH_SLACK)
            evals += used
            if v < m0:
                best = x

    q_c, q_r = unpack(best)
    tube = instance.make_tube(q_c, q_r)

    lip = combined_lipschitz(tube, instance.formula)
    # re-tighten the auto-selected cover once if the final constant outgrew it
    if not pinned and lip.combined * cert_spec.radius > settings.target_margin * (1 + 1e-9):
        cert_spec = CoverSpec.for_radius(settings.target_margin / lip.combined,
                                         instance.n, instance.t_f)
    cert_grid = _ObjectiveGrid(instance, build_cover(cert_spec))
    eta_star, worst_idx = cert_grid.evaluate(q_c, q_r)

    wall = time.perf_counter() - t_start
    diagnostics = {
        "objective_evals": evals,
        "bisection_rounds": rounds,
        "seed": settings.seed,
        "search_cover": {
            "theta_counts": list(search_spec.theta_counts),
            "lambda_count": search_spec.lambda_count,
            "tau_count": search_spec.tau_count,
        },
        "cover_samples": cert_spec.sample_count,
    }
    result = SynthesisResult(tube=tube, eta_star=eta_star, lipschitz=lip,
                             epsilon=cert_spec.radius, certificate_ok=False,
                             worst_constraint=cert_grid.describe(worst_idx),
                             diagnostics=diagnostics, wall_time=wall)
    result.certificate_ok = verify_certificate(result)
    return result


def recheck_constraints(instance: SOPInstance, tube: Tube, factor: int = 10,
                        cover_spec: Optional[CoverSpec] = None) -> float:
    """Max raw constraint value on a factor-times-finer grid (certified tubes
    must stay <= 0 everywhere)."""
    base = cover_spec if cover_spec is not None else instance.cover
    if base is None:
        raise ValueError("no cover to refine")
    grid = _ObjectiveGrid(instance, build_cover(base.refined(factor)))
    value, _ = grid.evaluate(tube.center_coeffs, tube.radius_coeffs)
    return value
