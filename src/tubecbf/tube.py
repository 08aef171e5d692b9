"""Time-varying spherical tube: basis-expanded center/radius curves plus the
unit-sphere parameterization used to enumerate tube trajectories."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BernsteinBasis

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
        return self.center_coeffs @ self.center_basis.values(self._check_time(t))

    def center_dot(self, t: float) -> np.ndarray:
        return self.center_coeffs @ self.center_basis.derivatives(self._check_time(t))

    def radius(self, t: float) -> float:
        return float(self.radius_coeffs @ self.radius_basis.values(self._check_time(t)))

    def radius_dot(self, t: float) -> float:
        return float(self.radius_coeffs @ self.radius_basis.derivatives(self._check_time(t)))

    def center_grid(self, ts: np.ndarray) -> np.ndarray:
        """Centers at many times, shape (n, len(ts)); no range check."""
        return self.center_coeffs @ self.center_basis.values(np.asarray(ts, dtype=float))

    def radius_grid(self, ts: np.ndarray) -> np.ndarray:
        return self.radius_coeffs @ self.radius_basis.values(np.asarray(ts, dtype=float))


class SampledTube:
    """A tube's curves tabulated once at fixed times.

    The times are range-checked and clamped in one vectorized pass, as
    `Tube._check_time` does one at a time, and c(t), c'(t), r(t) and r'(t) are
    filled by four stacked products, one `coeffs @ row` product per time on
    basis rows bit-identical to `basis.values(t)`.  Each is the product the
    tube itself makes, so the answers are the tube's to the bit.  (A flat
    `coeffs @ table.T` or `table @ q_r` would sum in another order and differ
    in the last bits.)  A lookup returns the stored row or float; a time not
    in the table raises KeyError.  `t_f` is the tube's.
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

        def center_table(fn):
            rows = np.ascontiguousarray(fn(ts).T)
            table = (tube.center_coeffs @ rows[:, :, None])[..., 0]
            table.setflags(write=False)
            return table

        def radius_values(fn):
            rows = np.ascontiguousarray(fn(ts).T)
            return (rows[:, None, :] @ tube.radius_coeffs[:, None])[:, 0, 0].tolist()

        self._center = center_table(tube.center_basis.values)
        self._center_dot = center_table(tube.center_basis.derivatives)
        self._radius = radius_values(tube.radius_basis.values)
        self._radius_dot = radius_values(tube.radius_basis.derivatives)

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
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    n = len(theta) + 1
    out = np.empty(n)
    sin_prod = 1.0
    for i, th in enumerate(theta):
        out[i] = sin_prod * np.cos(th)
        sin_prod *= np.sin(th)
    out[n - 1] = sin_prod
    return out


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
class TubeLipschitz:
    """Certified upper bounds: max ||center'(t)||, max |radius'(t)|, max
    radius(t); floats for one tube, (M,) arrays for M tubes."""

    center: float
    radius: float
    radius_max: float


# tube_lipschitz maximizes the curves' derivatives on this many grid points
LIPSCHITZ_GRID_POINTS = 1000

# Largest float count of one batched working table: tube_lipschitz_many's
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


def tube_lipschitz(tube: Tube) -> TubeLipschitz:
    """Lipschitz constants of the tube curves over [0, t_f].

    The analytic derivative is maximized on a dense grid; an additive slack of
    (second-derivative bound) * h/2 makes each value a certified upper bound
    for the continuous maximum (any t lies within h/2 of a grid point).
    """
    many = tube_lipschitz_many(tube.center_coeffs[None], tube.radius_coeffs[None],
                               tube.center_basis, tube.radius_basis)
    return TubeLipschitz(center=float(many.center[0]), radius=float(many.radius[0]),
                         radius_max=float(many.radius_max[0]))


def tube_lipschitz_many(center_coeffs, radius_coeffs, center_basis: BernsteinBasis,
                        radius_basis: BernsteinBasis) -> TubeLipschitz:
    """tube_lipschitz of M tubes on shared bases, as (M,) arrays, from center
    coefficients (M, n, z_c) and radius coefficients (M, z_r).

    Each tube's constants are bit-identical to its own tube_lipschitz: the
    products are one (n, z_c) @ (z_c, grid) matrix product and one vector
    product per tube, as for a single tube, and the rest is elementwise or a
    per-tube reduction.  Tubes go through in passes whose derivative table
    holds at most BLOCK_FLOATS floats.
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
        # (k, n, z_c) @ (z_c, grid) runs one matrix product per tube, and a
        # (k, 1, z_r) row stack one vector product per tube
        cdot = center_coeffs[rows] @ c_der
        speed_max[rows] = np.max(np.linalg.norm(cdot, axis=-2), axis=-1)
        radius = radius_coeffs[rows, None, :]
        rdot_max[rows] = np.max(np.abs(radius @ r_der), axis=(-2, -1))
        rval_max[rows] = np.max(radius @ r_val, axis=(-2, -1))

    # a Python float's ** 2 is libm's pow, which differs from b * b in the
    # last bit for about one value in 1300; the constants keep the pow form,
    # so saved results keep their bits
    c2 = np.sqrt([sum(b ** 2 for b in row)
                  for row in center_basis.second_derivative_bound(center_coeffs).tolist()])
    l_center = speed_max + c2 * h / 2.0
    r2 = radius_basis.second_derivative_bound(radius_coeffs)
    l_radius = rdot_max + r2 * h / 2.0
    radius_max = rval_max + l_radius * h / 2.0
    return TubeLipschitz(center=l_center, radius=l_radius, radius_max=radius_max)


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

    if read("basis", str) != "bernstein":
        raise ValueError(f"unknown tube basis {rec['basis']!r}; "
                         "tube records hold Bernstein control points")
    n, z_c, z_r = read("n", int), read("z_c", int), read("z_r", int)
    q_c = read("q_c", lambda v: np.asarray(v, dtype=float).reshape(n, z_c))
    q_r = read("q_r", lambda v: np.asarray(v, dtype=float))
    t_f = read("t_f", float)
    return Tube(q_c, q_r, BernsteinBasis(z_c, t_f), BernsteinBasis(z_r, t_f))


def save_tube(tube: Tube, path) -> None:
    Path(path).write_text(json.dumps(tube_to_record(tube), indent=2, sort_keys=True) + "\n")


def load_tube(path) -> Tube:
    return tube_from_record(json.loads(Path(path).read_text()))
