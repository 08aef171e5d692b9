"""The Bernstein polynomial basis of the tube's center and radius curves.

It exposes values and exact first time derivatives on [0, t_f], plus a
control-point bound on the second derivative used when certifying Lipschitz
constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _check_integer(name: str, value, least: int, error=ValueError):
    """value, if it is an integer of at least least; else error naming name."""
    # a bool is an int, int() would truncate 4.6 to 4, and a plain int is quickest
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return value


def _as_grid(t) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    return arr, np.ndim(t) == 0


def _bernstein_matrix(degree: int, u: np.ndarray) -> np.ndarray:
    """Rows are B_{k,degree}(u) for k = 0..degree; u already scaled to [0,1].
    Powers are repeated products, as np.power's bits depend on the CPU."""
    up, vp = [np.ones_like(u)], [np.ones_like(u)]
    for _ in range(degree):
        up.append(up[-1] * u)
        vp.append(vp[-1] * (1.0 - u))
    return np.stack([math.comb(degree, k) * up[k] * vp[degree - k] for k in range(degree + 1)])


def combine(coeffs, rows) -> np.ndarray:
    """Curve values sum_k coeffs[..., k] * rows[k] of coeffs (..., z) on rows
    (z, T), or (z,) for one time, as (..., T) or (...).  Each value is summed
    alone in index order, on elementwise numpy arithmetic with no BLAS call,
    so its bits do not depend on the batch or on the CPU."""
    rows = np.asarray(rows, dtype=float)
    table = rows if rows.ndim == 2 else rows[:, None]
    if table.shape[1] == 1:
        # einsum sums a lone column in another order, so it sums two copies
        table = np.repeat(table, 2, axis=1)
    # over a C-contiguous table, unoptimized einsum sums each output in index order
    out = np.einsum("...k,kt->...t", np.asarray(coeffs, dtype=float),
                    np.ascontiguousarray(table), optimize=False)
    return out[..., 0] if rows.ndim == 1 else out[..., :rows.shape[1]]


def norm_in_order(values) -> float:
    """2-norm of a sequence of floats, its squares summed from 0.0 in index
    order.  sum() of floats compensates its rounding from Python 3.12 on,
    so its bits would depend on the Python version."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total)


@dataclass(frozen=True)
class BernsteinBasis:
    """Bernstein polynomials of degree count-1 over [0, t_f].

    Coefficients act as control points: the curve interpolates the first and
    last coefficient at t=0 and t=t_f and stays in the coefficient hull.
    """

    count: int
    t_f: float

    def __post_init__(self):
        _check_integer("count", self.count, 1)
        if not 0 < self.t_f < math.inf:
            raise ValueError(f"t_f must be finite and positive, got {self.t_f!r}")

    @property
    def degree(self) -> int:
        return self.count - 1

    def values(self, t) -> np.ndarray:
        ts, scalar = _as_grid(t)
        out = _bernstein_matrix(self.degree, ts / self.t_f)
        return out[:, 0] if scalar else out

    def derivatives(self, t) -> np.ndarray:
        ts, scalar = _as_grid(t)
        d = self.degree
        out = np.zeros((self.count, len(ts)))
        if d >= 1:
            # B'_k = (d / t_f) (B_{k-1,d-1} - B_{k,d-1})
            lower = d / self.t_f * _bernstein_matrix(d - 1, ts / self.t_f)
            out[1:] += lower
            out[:-1] -= lower
        return out[:, 0] if scalar else out

    def second_derivative_bound(self, coeffs) -> np.ndarray:
        """Bound on |f''| over [0, t_f] for coefficients (..., count), one
        per leading index: d(d-1)/t_f^2 times the largest second difference
        of the control points."""
        coeffs = np.asarray(coeffs, dtype=float)
        if self.degree < 2:
            return np.zeros(coeffs.shape[:-1])
        dd = np.diff(coeffs, n=2)
        return self.degree * (self.degree - 1) / self.t_f**2 * np.max(np.abs(dd), axis=-1)

