"""The Bernstein polynomial basis of the tube's center and radius curves.

It exposes values and exact first/second time derivatives on [0, t_f], plus
a control-point bound on the second derivative used when certifying
Lipschitz constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
        if self.count < 1:
            raise ValueError("basis needs at least one function")
        if self.t_f <= 0:
            raise ValueError("t_f must be positive")

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

    def second_derivatives(self, t) -> np.ndarray:
        ts, scalar = _as_grid(t)
        d = self.degree
        out = np.zeros((self.count, len(ts)))
        if d >= 2:
            lower = _bernstein_matrix(d - 2, ts / self.t_f)
            scale = d * (d - 1) / self.t_f**2
            for k in range(self.count):
                if k >= 2:
                    out[k] += scale * lower[k - 2]
                if 1 <= k <= d - 1:
                    out[k] -= 2.0 * scale * lower[k - 1]
                if k <= d - 2:
                    out[k] += scale * lower[k]
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

