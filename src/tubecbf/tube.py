"""Time-varying spherical tube: basis-expanded center/radius curves, the
unit-sphere parameterization used to enumerate tube trajectories, and the
Lipschitz constants of the certificate that bound them."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BernsteinBasis, _check_integer, combine, norm_in_order

_RANGE_SLACK = 1e-9


@dataclass(frozen=True)
class Tube:
    """Ball-valued tube t -> B(center(t), radius(t)) on [0, t_f].

    Positivity of the radius is not assumed here; it is certified by the
    synthesis layer.
    """

    center_coeffs: np.ndarray  # (n, z_c)
    radius_coeffs: np.ndarray  # (z_r,)
    center_basis: BernsteinBasis
    radius_basis: BernsteinBasis

    def __post_init__(self):
        qc = np.array(self.center_coeffs, dtype=float)
        qr = np.array(self.radius_coeffs, dtype=float)
        if qc.ndim != 2:
            raise ValueError("center coefficients must be (n, z_c)")
        if qr.ndim != 1:
            raise ValueError("radius coefficients must be (z_r,)")
        if qc.shape[1] != self.center_basis.count:
            raise ValueError("center coefficient count does not match basis")
        if qr.shape[0] != self.radius_basis.count:
            raise ValueError("radius coefficient count does not match basis")
        if self.center_basis.t_f != self.radius_basis.t_f:
            raise ValueError("center and radius bases must share t_f")
        qc.setflags(write=False)
        qr.setflags(write=False)
        object.__setattr__(self, "center_coeffs", qc)
        object.__setattr__(self, "radius_coeffs", qr)

    @property
    def dimension(self) -> int:
        return self.center_coeffs.shape[0]

    @property
    def t_f(self) -> float:
        return self.center_basis.t_f

    def _check_time(self, t: float) -> float:
        if t < -_RANGE_SLACK or t > self.t_f + _RANGE_SLACK:
            raise ValueError(f"time {t} outside tube domain [0, {self.t_f}]")
        return min(max(t, 0.0), self.t_f)

    def center(self, t: float) -> np.ndarray:
        return combine(self.center_coeffs, self.center_basis.values(self._check_time(t)))

    def center_dot(self, t: float) -> np.ndarray:
        return combine(self.center_coeffs, self.center_basis.derivatives(self._check_time(t)))

    def radius(self, t: float) -> float:
        return float(combine(self.radius_coeffs, self.radius_basis.values(self._check_time(t))))

    def radius_dot(self, t: float) -> float:
        return float(combine(self.radius_coeffs,
                             self.radius_basis.derivatives(self._check_time(t))))


class SampledTube:
    """A tube's curves tabulated once at fixed times.

    The times are range-checked and clamped in one vectorized pass, as
    `Tube._check_time` does one at a time, and c(t), c'(t), r(t) and r'(t) are
    filled by one `combine` over all the times each.  Its basis rows are
    bit-identical to `basis.values(t)`, and `combine` sums each time alone in
    index order, so the answers are the tube's to the bit.  A lookup returns
    the stored row or float; a time not in the table raises KeyError.  `t_f`
    is the tube's.
    """

    def __init__(self, tube: Tube, times):
        self.t_f = tube.t_f
        self._row = {t: i for i, t in enumerate(dict.fromkeys(float(t) for t in times))}
        ts = np.array(list(self._row), dtype=float)
        bad = np.flatnonzero((ts < -_RANGE_SLACK) | (ts > tube.t_f + _RANGE_SLACK))
        if len(bad):
            tube._check_time(float(ts[bad[0]]))  # raises the tube's ValueError
        # min(max(t, 0.0), t_f) to the sign of zero, which np.maximum drops
        ts = np.where(ts < 0.0, 0.0, ts)
        ts = np.where(ts > tube.t_f, tube.t_f, ts)

        cb, rb = tube.center_basis, tube.radius_basis
        self._center, self._center_dot = (
            np.ascontiguousarray(combine(tube.center_coeffs, fn(ts)).T)
            for fn in (cb.values, cb.derivatives))
        self._center.setflags(write=False)
        self._center_dot.setflags(write=False)
        self._radius, self._radius_dot = (combine(tube.radius_coeffs, fn(ts)).tolist()
                                          for fn in (rb.values, rb.derivatives))

    def center(self, t: float) -> np.ndarray:
        return self._center[self._row[t]]

    def center_dot(self, t: float) -> np.ndarray:
        return self._center_dot[self._row[t]]

    def radius(self, t: float) -> float:
        return self._radius[self._row[t]]

    def radius_dot(self, t: float) -> float:
        return self._radius_dot[self._row[t]]


def sphere_map(theta) -> np.ndarray:
    """Standard spherical coordinates: n-1 angles to a unit vector in R^n.

    s_1 = cos t1, s_2 = sin t1 cos t2, ..., s_n = sin t1 ... sin t_{n-1}.
    """
    return sphere_map_many(theta)[0]


def sphere_map_many(thetas: np.ndarray) -> np.ndarray:
    """Vectorized sphere_map; thetas is (K, n-1), result (K, n)."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    k, m = thetas.shape
    sin_prod = np.cumprod(np.hstack([np.ones((k, 1)), np.sin(thetas)]), axis=1)
    out = np.empty((k, m + 1))
    out[:, :m] = sin_prod[:, :m] * np.cos(thetas)
    out[:, m] = sin_prod[:, m]
    return out


def boundary_point(tube: Tube, theta, lam: float, tau: float) -> np.ndarray:
    """Point center(tau) + lam * radius(tau) * s(theta) of the tube cross-section."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"radial fraction {lam} outside [0, 1]")
    direction = sphere_map(theta)
    if len(direction) != tube.dimension:
        raise ValueError("angle count does not match tube dimension")
    return tube.center(tau) + lam * tube.radius(tau) * direction


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


# tube_lipschitz maximizes the curves' derivatives on this many grid points
LIPSCHITZ_GRID_POINTS = 1000

# Largest float count of one batched working table: tube_lipschitz's
# (M, n, LIPSCHITZ_GRID_POINTS) derivative table, and the monitor's state
# planes (synthesis._ObjectiveGrid, where the size is measured).  96 KiB is
# under glibc's 128 KiB mmap threshold, so such tables are reused from the
# malloc heap instead of being mapped afresh for the kernel to zero.
BLOCK_FLOATS = 12_288


@functools.lru_cache(maxsize=8)
def _lipschitz_tables(center_basis: BernsteinBasis, radius_basis: BernsteinBasis):
    """Read-only center derivatives, radius derivatives and radius values on
    the tube_lipschitz grid; they depend on the bases alone."""
    ts = np.linspace(0.0, center_basis.t_f, LIPSCHITZ_GRID_POINTS)
    tables = (center_basis.derivatives(ts), radius_basis.derivatives(ts),
              radius_basis.values(ts))
    for table in tables:
        table.setflags(write=False)
    return tables


def tube_lipschitz(center_coeffs, radius_coeffs, center_basis: BernsteinBasis,
                   radius_basis: BernsteinBasis, l_rho: float) -> list[LipschitzInfo]:
    """Certificate constants of M tubes on shared bases, one LipschitzInfo
    each, from center coefficients (M, n, z_c), radius coefficients (M, z_r)
    and the formula's robustness constant l_rho.

    Each curve's derivative is maximized on a grid over [0, t_f]; an additive
    slack of (second-derivative bound) * h/2 makes each value a certified
    upper bound for the continuous maximum (any t lies within h/2 of a grid
    point).  A tube's constants are bit-identical in any batch: the curves
    are `combine` sums, and the rest is elementwise or a per-tube reduction.
    Tubes go through in passes whose derivative table holds at most
    BLOCK_FLOATS floats.
    """
    center_coeffs = np.asarray(center_coeffs, dtype=float)
    radius_coeffs = np.asarray(radius_coeffs, dtype=float)
    m, n = center_coeffs.shape[:2]
    h = center_basis.t_f / (LIPSCHITZ_GRID_POINTS - 1)
    c_der, r_der, r_val = _lipschitz_tables(center_basis, radius_basis)
    per = max(1, BLOCK_FLOATS // (n * LIPSCHITZ_GRID_POINTS))
    speed_max, rdot_max, rval_max = np.empty(m), np.empty(m), np.empty(m)
    for lo in range(0, m, per):
        rows = slice(lo, lo + per)
        cdot = combine(center_coeffs[rows], c_der)
        speed_max[rows] = np.max(np.linalg.norm(cdot, axis=-2), axis=-1)
        rdot_max[rows] = np.max(np.abs(combine(radius_coeffs[rows], r_der)), axis=-1)
        rval_max[rows] = np.max(combine(radius_coeffs[rows], r_val), axis=-1)

    c2 = np.array([norm_in_order(row) for row in
                   center_basis.second_derivative_bound(center_coeffs).tolist()])
    l_center = speed_max + c2 * h / 2.0
    r2 = radius_basis.second_derivative_bound(radius_coeffs)
    l_radius = rdot_max + r2 * h / 2.0
    radius_max = rval_max + l_radius * h / 2.0
    return [combine_constants(l_rho, *c, n)
            for c in zip(l_center.tolist(), l_radius.tolist(), radius_max.tolist())]


# ---------------------------------------------------------------------------
# serialization (flat record, bit-exact round trip for binary64)
# ---------------------------------------------------------------------------

def tube_to_record(tube: Tube) -> dict:
    return {
        "n": tube.dimension,
        "t_f": tube.t_f,
        "basis": "bernstein",
        "z_c": tube.center_basis.count,
        "z_r": tube.radius_basis.count,
        "q_c": [float(v) for v in tube.center_coeffs.ravel()],  # row-major
        "q_r": [float(v) for v in tube.radius_coeffs],
    }


def tube_from_record(rec: dict) -> Tube:
    """Inverse of tube_to_record; ValueError names a missing or malformed field."""
    def read(key, convert):
        try:
            return convert(rec[key])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"tube record: missing or malformed {key!r}") from None

    def floats(shape):
        def convert(v):
            q = np.asarray(v, dtype=float)
            if q.shape != shape or not np.isfinite(q).all():
                raise ValueError
            return q
        return convert

    if read("basis", str) != "bernstein":
        raise ValueError(f"unknown tube basis {rec['basis']!r}; "
                         "tube records hold Bernstein control points")
    # int() would truncate 2.7 to 2 and read "2", and reshape would infer a
    # count of -1, so a count must be a true positive integer
    n, z_c, z_r = (read(key, functools.partial(_check_integer, key, least=1))
                   for key in ("n", "z_c", "z_r"))
    q_c = read("q_c", floats((n * z_c,))).reshape(n, z_c)
    q_r = read("q_r", floats((z_r,)))
    t_f = float(read("t_f", floats(())))
    return Tube(q_c, q_r, BernsteinBasis(z_c, t_f), BernsteinBasis(z_r, t_f))


def save_tube(tube: Tube, path) -> None:
    Path(path).write_text(json.dumps(tube_to_record(tube), indent=2, sort_keys=True) + "\n")


def read_text(path, what: str) -> str:
    """The text of a UTF-8 input file; ValueError naming path when it is a
    directory (what says which file was expected) or is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError:
        raise ValueError(f"{path} is a directory, not {what}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from None


def load_tube(path) -> Tube:
    text = read_text(path, "a tube record")
    try:
        return tube_from_record(json.loads(text))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
