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
    """Rows are B_{k,degree}(u) for k = 0..degree; u already scaled to [0,1]."""
    out = np.empty((degree + 1, len(u)))
    v = 1.0 - u
    for k in range(degree + 1):
        out[k] = math.comb(degree, k) * u**k * v ** (degree - k)
    return out


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
            lower = _bernstein_matrix(d - 1, ts / self.t_f)
            scale = d / self.t_f
            for k in range(self.count):
                if k >= 1:
                    out[k] += scale * lower[k - 1]
                if k <= d - 1:
                    out[k] -= scale * lower[k]
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

