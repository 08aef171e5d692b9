"""Seeded random generators for formulas and signals, and tubes given in
power form, shared across test modules."""

from __future__ import annotations

from math import comb

import numpy as np

from tubecbf.basis import BernsteinBasis
from tubecbf.stl import (
    TRUE,
    AffineHalfspace,
    Always,
    And,
    BallNorm2,
    BoxInfNorm,
    Eventually,
    Not,
    Or,
    Predicate,
    Signal,
    Until,
    horizon,
)
from tubecbf.tube import Tube


def random_predicate(rng: np.random.Generator, dim: int) -> Predicate:
    kind = rng.integers(3)
    if kind == 0:
        w = rng.normal(size=dim)
        fn = AffineHalfspace(tuple(w.tolist()), float(rng.uniform(-2, 2)))
    elif kind == 1:
        fn = BoxInfNorm(tuple(rng.uniform(-2, 2, size=dim).tolist()),
                        float(rng.uniform(0.3, 2.0)))
    else:
        fn = BallNorm2(tuple(rng.uniform(-2, 2, size=dim).tolist()),
                       float(rng.uniform(0.3, 2.0)))
    return Predicate(f"p{rng.integers(1_000_000)}", fn)


def random_formula(rng: np.random.Generator, depth: int, dim: int,
                   max_window: float = 3.0):
    """Random formula of the given maximum depth over dim-dimensional signals."""
    if depth == 0:
        if rng.random() < 0.05:
            return TRUE
        return random_predicate(rng, dim)

    def interval():
        a = float(rng.uniform(0.0, 2.0))
        return a, a + float(rng.uniform(0.0, max_window))

    roll = rng.random()
    if roll < 0.25:
        return random_predicate(rng, dim)
    if roll < 0.40:
        return Not(random_formula(rng, depth - 1, dim, max_window))
    if roll < 0.55:
        return And(random_formula(rng, depth - 1, dim, max_window),
                   random_formula(rng, depth - 1, dim, max_window))
    if roll < 0.70:
        return Or(random_formula(rng, depth - 1, dim, max_window),
                  random_formula(rng, depth - 1, dim, max_window))
    if roll < 0.82:
        a, b = interval()
        return Eventually(a, b, random_formula(rng, depth - 1, dim, max_window))
    if roll < 0.94:
        a, b = interval()
        return Always(a, b, random_formula(rng, depth - 1, dim, max_window))
    a, b = interval()
    return Until(a, b, random_formula(rng, depth - 1, dim, max_window),
                 random_formula(rng, depth - 1, dim, max_window))


def random_signal(rng: np.random.Generator, dim: int, span: float,
                  max_len: int = 50) -> Signal:
    """Random-walk signal with jittered sample times covering [0, span]."""
    length = int(rng.integers(max(4, min(8, max_len)), max_len + 1))
    gaps = rng.uniform(0.5, 1.5, size=length - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times = times / times[-1] * span
    steps = rng.normal(scale=0.5, size=(length, dim))
    states = np.cumsum(steps, axis=0) + rng.uniform(-1, 1, size=dim)
    return Signal(times, states)


def formula_and_signal(rng: np.random.Generator, dim: int = 2, depth: int = 3,
                       max_len: int = 50):
    """Formula plus a signal long enough to evaluate it at t=0."""
    f = random_formula(rng, depth, dim)
    span = horizon(f) + float(rng.uniform(1.0, 3.0))
    return f, random_signal(rng, dim, span, max_len=max_len)


def bernstein_points(power_coeffs, t_f: float) -> np.ndarray:
    """Bernstein control points on [0, t_f] of the polynomials sum_k a_k t^k
    whose power-form coefficients a run along the last axis:
    b_j = sum_{k<=j} C(j,k) / C(d,k) * a_k * t_f^k."""
    a = np.asarray(power_coeffs, dtype=float)
    d = a.shape[-1] - 1
    change = np.array([[comb(j, k) / comb(d, k) * t_f**k if k <= j else 0.0
                        for k in range(d + 1)] for j in range(d + 1)])
    return a @ change.T


def power_tube(q_c, q_r, t_f: float) -> Tube:
    """The tube whose center rows and radius are the power-form polynomials
    q_c (n, z_c) and q_r (z_r,), written in the Bernstein basis."""
    q_c = np.atleast_2d(np.asarray(q_c, dtype=float))
    q_r = np.asarray(q_r, dtype=float)
    return Tube(bernstein_points(q_c, t_f), bernstein_points(q_r, t_f),
                BernsteinBasis(q_c.shape[1], t_f), BernsteinBasis(len(q_r), t_f))


def point_pairs(rng: np.random.Generator, hi, count: int):
    """Pairs of points of the box [0, hi], as two (k, d) arrays, for difference
    quotients: of count draws, half are independent pairs and half a point and
    its step of length 10**U(-6, 0) in a random direction, clipped to the box.
    Pairs under 1e-6 apart (clipped steps) are dropped."""
    hi = np.asarray(hi, dtype=float)
    first = rng.uniform(0.0, hi, size=(count, len(hi)))
    steps = rng.normal(size=(count, len(hi)))
    steps *= 10.0 ** rng.uniform(-6.0, 0.0, size=(count, 1)) \
        / np.linalg.norm(steps, axis=1, keepdims=True)
    second = np.clip(first + steps, 0.0, hi)
    half = count // 2
    second[:half] = rng.uniform(0.0, hi, size=(half, len(hi)))
    keep = np.linalg.norm(first - second, axis=1) >= 1e-6
    return first[keep], second[keep]
