import math
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from tubecbf.basis import MAX_COUNT, BernsteinBasis, combine
from tubecbf.tube import (
    SampledTube,
    Tube,
    boundary_point,
    combine_constants,
    load_tube,
    save_tube,
    sphere_map,
    sphere_map_many,
    tube_from_record,
    BLOCK_FLOATS,
    LIPSCHITZ_GRID_POINTS,
    tube_lipschitz,
    tube_to_record,
)

from gen import bernstein_points, point_pairs, power_tube
from oracles import oracle_bernstein_second_derivatives


def _random_tube(rng, n=2, z_c=4, z_r=4, t_f=5.0, power=False):
    # power=True reads the draws as power-form coefficients of the curves,
    # whose Bernstein control points reach far beyond the draws' range
    q_c, q_r = rng.uniform(-2, 2, size=(n, z_c)), rng.uniform(0.3, 2.0, size=z_r)
    if power:
        return power_tube(q_c, q_r, t_f)
    return Tube(q_c, q_r, BernsteinBasis(z_c, t_f), BernsteinBasis(z_r, t_f))


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_bernstein_partition_of_unity():
    b = BernsteinBasis(5, 4.0)
    ts = np.linspace(0.0, 4.0, 17)
    vals = b.values(ts)
    assert np.allclose(vals.sum(axis=0), 1.0)
    assert np.all(vals >= 0.0)
    # derivative rows sum to zero (derivative of a constant)
    assert np.allclose(b.derivatives(ts).sum(axis=0), 0.0, atol=1e-12)


@pytest.mark.parametrize("count, t_f, named", [
    (2.5, 1.0, "count"), (True, 1.0, "count"), (0, 1.0, "count"),
    (3, math.nan, "t_f"), (3, math.inf, "t_f"), (3, 0.0, "t_f"), (3, -1.0, "t_f"),
    (1031, 1.0, "count must be an integer of at least 1 and at most 1030"),
], ids=["fractional-count", "bool-count", "zero-count", "nan-t-f", "infinite-t-f",
        "zero-t-f", "negative-t-f", "count-past-float-binomials"])
def test_bernstein_basis_checks_what_it_reads(count, t_f, named):
    # unchecked, a fractional count would fail only at the first values()
    # call, a bool count would read as 1, and a NaN t_f would give NaN values
    with pytest.raises(ValueError, match=named):
        BernsteinBasis(count, t_f)


def test_bernstein_basis_takes_every_count_whose_binomials_fit_a_float():
    # the first count refused is the first whose binomials leave float range
    float(math.comb(MAX_COUNT - 1, (MAX_COUNT - 1) // 2))
    with pytest.raises(OverflowError):
        float(math.comb(MAX_COUNT, MAX_COUNT // 2))
    b = BernsteinBasis(MAX_COUNT, 2.0)
    ts = np.linspace(0.0, 2.0, 9)
    assert np.allclose(b.values(ts).sum(axis=0), 1.0)
    assert np.isfinite(b.derivatives(ts)).all()


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["no-lead", "one-lead", "two-lead"])
@pytest.mark.parametrize("times", [1, 2, 38, 1000])
def test_combine_sums_in_index_order(times, lead):
    # every curve value is sum_k coeffs[..., k] * rows[k, t] accumulated from
    # k = 0 up, on Python floats here, whatever the batch shape; a lone time,
    # as a column or as a 1-D row, is summed in that order too.  Magnitudes
    # spread over six decades, so another order would show in the last bits.
    rng = np.random.default_rng(times)
    for z in range(1, 14):
        coeffs = rng.normal(size=(*lead, z)) * 10.0 ** rng.uniform(-3, 3, size=(*lead, z))
        rows = rng.normal(size=(z, times)) * 10.0 ** rng.uniform(-3, 3, size=(z, times))
        want = np.empty((*lead, times))
        for i in np.ndindex(*lead):
            c = coeffs[i].tolist()
            for t in range(times):
                total = 0.0
                for k in range(z):
                    total += c[k] * float(rows[k, t])
                want[(*i, t)] = total
        got = combine(coeffs, rows)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), z
        if times == 1:
            assert combine(coeffs, rows[:, 0]).tobytes() == want[..., 0].tobytes(), z


def test_basis_derivative_matches_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    b = BernsteinBasis(5, 7.0)
    for power in (True, False):
        coeffs = rng.uniform(-2, 2, size=5)
        if power:
            coeffs = bernstein_points(coeffs, 7.0)
        for t in rng.uniform(0.1, 6.9, size=20):
            f = lambda u: float(coeffs @ b.values(u))
            fd = (f(t + h) - f(t - h)) / (2 * h)
            an = float(coeffs @ b.derivatives(t))
            assert an == pytest.approx(fd, abs=1e-5, rel=1e-6)
            h2 = 1e-4  # wider step: second differences amplify roundoff by 1/h^2
            fd2 = (f(t + h2) - 2 * f(t) + f(t - h2)) / h2**2
            an2 = float(coeffs @ oracle_bernstein_second_derivatives(b.count, b.t_f, t))
            assert an2 == pytest.approx(fd2, abs=1e-3, rel=1e-4)


def test_basis_bounds_dominate_grid():
    rng = np.random.default_rng(1)
    b = BernsteinBasis(5, 3.0)
    for power in (True, False):
        coeffs = rng.uniform(-2, 2, size=5)
        if power:
            coeffs = bernstein_points(coeffs, 3.0)
        ts = np.linspace(0, 3.0, 500)
        d2 = np.abs(coeffs @ oracle_bernstein_second_derivatives(b.count, b.t_f, ts)).max()
        assert b.second_derivative_bound(coeffs) >= d2 - 1e-12


# ---------------------------------------------------------------------------
# tube evaluation
# ---------------------------------------------------------------------------

def test_center_monomial_examples():
    tube = power_tube([[1.0, 2.0]], [1.0], t_f=10.0)
    assert tube.center(0.0)[0] == pytest.approx(1.0)
    assert tube.center(3.0)[0] == pytest.approx(7.0)


def test_bernstein_constant_coefficients():
    v = 1.7
    basis = BernsteinBasis(3, 5.0)
    tube = Tube(np.full((2, 3), v), np.array([0.5, 0.5, 0.5]), basis, basis)
    for t in np.linspace(0, 5.0, 11):
        assert np.allclose(tube.center(t), v)
        assert tube.radius(t) == pytest.approx(0.5)


def test_radius_and_derivatives():
    tube = power_tube([[0.0, 0.0]], [2.0, 0.0], t_f=10.0)
    assert tube.radius(4.2) == pytest.approx(2.0)
    assert tube.radius_dot(4.2) == pytest.approx(0.0)

    tube2 = power_tube([[0.0, 0.0]], [0.0, 1.0], t_f=10.0)
    assert tube2.radius(5.0) == pytest.approx(5.0)
    assert tube2.radius_dot(5.0) == pytest.approx(1.0)


def test_tube_derivatives_match_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for power in (True, False):
        tube = _random_tube(rng, power=power)
        for t in rng.uniform(0.1, 4.9, size=25):
            cd_fd = (tube.center(t + h) - tube.center(t - h)) / (2 * h)
            assert np.allclose(tube.center_dot(t), cd_fd, atol=1e-5)
            rd_fd = (tube.radius(t + h) - tube.radius(t - h)) / (2 * h)
            assert tube.radius_dot(t) == pytest.approx(rd_fd, abs=1e-5)


def test_time_range_checked():
    tube = power_tube([[0.0, 1.0]], [1.0], t_f=2.0)
    with pytest.raises(ValueError):
        tube.center(2.5)
    with pytest.raises(ValueError):
        tube.radius(-0.1)
    # tolerate float-level overshoot
    tube.center(2.0 + 1e-12)


# ---------------------------------------------------------------------------
# sampled view
# ---------------------------------------------------------------------------

def _closed_loop_query_times(t_f, dt):
    """Every time a closed-loop run asks its tube about, computed as the
    step-by-step loop computes them: 0, then each sample and control instant."""
    n_steps = int(round(t_f / dt))
    times = np.linspace(0.0, t_f, n_steps + 1)
    out = [0.0]
    for k, t in enumerate(times):
        t = float(t)
        h = float(times[k + 1] - t) if k < n_steps else 0.0
        out += [t, t + h / 2.0]
    return out


def _curve_bits(tube, t):
    return [[float(v).hex() for v in np.atleast_1d(getattr(tube, name)(t))]
            for name in ("center", "center_dot", "radius", "radius_dot")]


def _assert_view_matches(view, tube, ts, label=""):
    for t in ts:
        assert _curve_bits(view, t) == _curve_bits(tube, t), (label, t)


def _sampled_view_cases():
    ref = Path(__file__).resolve().parent.parent / "perfbench" / "ref"
    for path in sorted(ref.glob("*_tube.json")):
        yield path.stem, load_tube(path), 0.05
    rng = np.random.default_rng(21)
    for form in ("power", "bernstein"):
        for n in (2, 3):
            for z in range(2, 13):
                t_f = float(rng.uniform(1.0, 30.0))
                tube = _random_tube(rng, n=n, z_c=z, z_r=z, t_f=t_f, power=form == "power")
                yield f"{form}-{n}-{z}", tube, t_f / int(rng.integers(20, 60))


def test_sampled_view_is_bit_identical_at_closed_loop_times():
    for label, tube, dt in _sampled_view_cases():
        ts = _closed_loop_query_times(tube.t_f, dt)
        view = SampledTube(tube, ts)
        _assert_view_matches(view, tube, ts, label)
        # the view answers only at tabulated times
        off = [ts[1] + 0.3 * dt, ts[-1] - 0.7 * dt, tube.t_f / 3.0 + 1e-7, tube.t_f + 1.0]
        for t in off:
            for name in ("center", "center_dot", "radius", "radius_dot"):
                with pytest.raises(KeyError):
                    getattr(view, name)(t)


def test_sampled_view_clamps_like_the_tube():
    rng = np.random.default_rng(5)
    tube = _random_tube(rng)
    ts = [-1e-12, 0.0, 2.5, tube.t_f, tube.t_f + 1e-12]
    _assert_view_matches(SampledTube(tube, ts), tube, ts)
    with pytest.raises(ValueError):
        SampledTube(tube, [0.0, tube.t_f + 1.0])


# ---------------------------------------------------------------------------
# sphere map
# ---------------------------------------------------------------------------

def test_sphere_map_axis_cases():
    assert np.array_equal(sphere_map([0.0]), [1.0, 0.0])
    assert np.allclose(sphere_map([math.pi / 2, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(sphere_map([math.pi / 2, math.pi / 2]), [0.0, 0.0, 1.0], atol=1e-12)


def test_sphere_map_unit_norm():
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        thetas = rng.uniform(0, 2 * math.pi, size=(200, n - 1))
        s = sphere_map_many(thetas)
        assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) <= 1e-12
        # vectorized form agrees with the scalar map
        for row in thetas[:10]:
            assert np.allclose(sphere_map(row), s[list(map(tuple, thetas)).index(tuple(row))])


def test_sphere_map_covers_directions():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 2 * math.pi, 629)  # ~0.01 rad resolution
    dirs = sphere_map_many(grid[:, None])
    for _ in range(1000):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        gap = np.min(np.linalg.norm(dirs - v, axis=1))
        assert gap <= 0.01  # chord <= arc resolution


# ---------------------------------------------------------------------------
# boundary points
# ---------------------------------------------------------------------------

def test_boundary_point_examples():
    tube = power_tube([[0.0, 0.0], [0.0, 0.0]], [2.0], t_f=10.0)
    assert np.allclose(boundary_point(tube, [0.0], 0.0, 1.0), tube.center(1.0))
    assert np.allclose(boundary_point(tube, [0.0], 1.0, 1.0), [2.0, 0.0])
    with pytest.raises(ValueError):
        boundary_point(tube, [0.0], 1.5, 1.0)


def test_boundary_point_distance_identity():
    rng = np.random.default_rng(5)
    tube = _random_tube(rng)
    for _ in range(50):
        theta = rng.uniform(0, 2 * math.pi, size=1)
        lam = float(rng.uniform(0, 1))
        tau = float(rng.uniform(0, 5.0))
        x = boundary_point(tube, theta, lam, tau)
        dist = np.linalg.norm(x - tube.center(tau))
        assert dist == pytest.approx(abs(lam * tube.radius(tau)), abs=1e-12)


def test_boundary_points_cover_ball():
    rng = np.random.default_rng(6)
    tube = power_tube([[1.0, 0.0], [2.0, 0.0]], [1.5], t_f=1.0)
    thetas = np.linspace(0, 2 * math.pi, 126)[:, None]
    lams = np.linspace(0, 1, 40)
    dirs = sphere_map_many(thetas)
    pts = (lams[:, None, None] * 1.5 * dirs[None, :, :]).reshape(-1, 2) + [1.0, 2.0]
    for _ in range(300):
        v = rng.normal(size=2)
        v = v / max(np.linalg.norm(v), 1.0) * rng.uniform(0, 1.5)
        target = np.array([1.0, 2.0]) + v
        gap = np.min(np.linalg.norm(pts - target, axis=1))
        assert gap <= 0.08  # grid resolution bound: 1.5*(2pi/125) + 1.5/39


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_constant_bounds_the_sphere_map_difference_quotient(n):
    # |s(a) - s(b)| / |a - b| over the angle box; the map's coordinates round
    # by a few u = 2**-53, and steps are at least 1e-6 long, so a quotient
    # may read up to ~1e-9 above the true one (the largest seen is 1 + 8e-11)
    a, b = point_pairs(np.random.default_rng(n), [math.pi] * (n - 2) + [2 * math.pi], 20_000)
    ratios = (np.linalg.norm(sphere_map_many(a) - sphere_map_many(b), axis=1)
              / np.linalg.norm(a - b, axis=1))
    assert ratios.max() <= combine_constants(1.0, 0.0, 0.0, 1.0, n).sphere + 1e-8


# ---------------------------------------------------------------------------
# lipschitz bounds
# ---------------------------------------------------------------------------

def _lipschitz(tube, l_rho=1.0):
    return tube_lipschitz(tube.center_coeffs[None], tube.radius_coeffs[None],
                          tube.center_basis, tube.radius_basis, l_rho)[0]


def test_tube_lipschitz_constant_radius():
    tube = power_tube([[0.0, 0.0]], [2.0, 0.0], t_f=10.0)
    tl = _lipschitz(tube)
    assert tl.radius == pytest.approx(0.0, abs=1e-12)
    assert tl.radius_max == pytest.approx(2.0, abs=1e-9)


def test_tube_lipschitz_linear_radius():
    tube = power_tube([[0.0, 0.0]], [0.0, 1.0], t_f=10.0)
    tl = _lipschitz(tube)
    assert tl.radius == pytest.approx(1.0, abs=1e-9)
    assert tl.radius_max == pytest.approx(10.0, rel=1e-3)


def test_tube_lipschitz_upper_bounds_fine_grid():
    rng = np.random.default_rng(7)
    for power in (True, False):
        for _ in range(5):
            tube = _random_tube(rng, z_c=4, z_r=4, power=power)
            tl = _lipschitz(tube)
            ts = np.linspace(0, tube.t_f, 10000)
            speeds = np.linalg.norm(tube.center_coeffs @ tube.center_basis.derivatives(ts), axis=0)
            rdots = np.abs(tube.radius_coeffs @ tube.radius_basis.derivatives(ts))
            rvals = tube.radius_coeffs @ tube.radius_basis.values(ts)
            assert tl.center >= speeds.max() - 1e-12
            assert tl.radius >= rdots.max() - 1e-12
            assert tl.radius_max >= rvals.max() - 1e-12
            # empirical difference quotients never exceed the bound
            dr = np.abs(np.diff(rvals)) / np.diff(ts)
            assert np.all(dr <= tl.radius + 1e-9)


def test_tube_lipschitz_is_bit_identical_in_any_batch():
    # random coefficient batches, drawn as control points and as power-form
    # coefficients, among them batches larger than one pass; the stacked
    # second-derivative bounds match the per-row ones, and every tube's
    # constants match those of the tube alone
    rng = np.random.default_rng(12)
    for form in ("bernstein", "power"):
        for n, z_c, z_r in ((2, 5, 4), (3, 6, 3), (2, 2, 1), (3, 3, 7)):
            per = BLOCK_FLOATS // (n * LIPSCHITZ_GRID_POINTS)
            t_f = float(rng.uniform(1.0, 40.0))
            cb, rb = BernsteinBasis(z_c, t_f), BernsteinBasis(z_r, t_f)
            for m in (1, per + 1, 3 * per + 2):
                q_c = rng.normal(size=(m, n, z_c)) * 10.0 ** rng.uniform(-2, 2, size=(m, 1, 1))
                q_r = rng.uniform(0.1, 3.0, size=(m, z_r))
                if form == "power":
                    q_c, q_r = bernstein_points(q_c, t_f), bernstein_points(q_r, t_f)
                stacked = cb.second_derivative_bound(q_c)
                assert stacked.shape == (m, n)
                assert all(stacked[i, j] == float(cb.second_derivative_bound(q_c[i, j]))
                           for i in range(m) for j in range(n))
                many = tube_lipschitz(q_c, q_r, cb, rb, math.sqrt(n))
                assert len(many) == m
                for i in range(m):
                    one = _lipschitz(Tube(q_c[i], q_r[i], cb, rb), math.sqrt(n))
                    assert [v.hex() for v in astuple(many[i])] == [v.hex() for v in astuple(one)]


def test_tube_lipschitz_caps_its_derivative_table():
    # a pass holds at most BLOCK_FLOATS floats of derivatives; 50 3-D tubes
    # in one pass would hold a 1.2 MB table and as much again in squares
    rng = np.random.default_rng(4)
    cb, rb = BernsteinBasis(5, 8.0), BernsteinBasis(4, 8.0)
    q_c, q_r = rng.normal(size=(50, 3, 5)), rng.uniform(0.1, 3.0, size=(50, 4))
    tube_lipschitz(q_c[:1], q_r[:1], cb, rb, 1.0)  # tabulate the bases
    tracemalloc.start()
    try:
        tube_lipschitz(q_c, q_r, cb, rb, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * BLOCK_FLOATS, peak


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tube_record_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    tube = _random_tube(rng, n=3, z_c=5, z_r=4)
    rec = tube_to_record(tube)
    back = tube_from_record(rec)
    assert np.array_equal(back.center_coeffs, tube.center_coeffs)
    assert np.array_equal(back.radius_coeffs, tube.radius_coeffs)
    assert back.center_basis == tube.center_basis

    path = tmp_path / "tube.json"
    save_tube(tube, path)
    loaded = load_tube(path)
    assert np.array_equal(loaded.center_coeffs, tube.center_coeffs)
    assert np.array_equal(loaded.radius_coeffs, tube.radius_coeffs)
    # writing again is byte-identical
    first = path.read_bytes()
    save_tube(loaded, path)
    assert path.read_bytes() == first


_RECORD = {"n": 2, "t_f": 4.0, "basis": "bernstein", "z_c": 2, "z_r": 1,
           "q_c": [4.5, 0.0, 4.5, 0.0], "q_r": [1.0]}


@pytest.mark.parametrize("field, value", [
    ("n", -1), ("n", 2.7), ("n", 0), ("n", True), ("n", "2"),
    ("z_c", 2.0), ("z_c", -2), ("z_r", False), ("z_r", "1"),
    ("q_c", [4.5, 0.0, 4.5]), ("q_c", [[4.5, 0.0], [4.5, 0.0]]),
    ("q_r", [1.0, 1.0]), ("q_r", []),
    ("q_c", [4.5, math.nan, 4.5, 0.0]), ("q_c", [4.5, 0.0, -math.inf, 0.0]),
    ("q_r", [math.inf]), ("t_f", math.nan), ("t_f", math.inf),
], ids=["negative-n", "fractional-n", "zero-n", "bool-n", "string-n", "float-z_c",
        "negative-z_c", "bool-z_r", "string-z_r", "short-q_c", "nested-q_c", "long-q_r",
        "empty-q_r", "nan-q_c", "inf-q_c", "inf-q_r", "nan-t_f", "inf-t_f"])
def test_tube_record_rejects_malformed_counts(field, value):
    # int() used to read "n": -1 and "n": 2.7 as a 2-D tube (reshape inferred
    # -1, int truncated 2.7); counts are positive integers, the control
    # points are flat lists of exactly n * z_c and z_r finite values, and t_f
    # is finite
    assert tube_from_record(_RECORD).dimension == 2
    with pytest.raises(ValueError, match=f"malformed '{field}'"):
        tube_from_record({**_RECORD, field: value})


def test_tube_shape_validation():
    basis = BernsteinBasis(3, 2.0)
    with pytest.raises(ValueError):
        Tube(np.zeros((2, 4)), np.zeros(3), basis, basis)
    with pytest.raises(ValueError):
        Tube(np.zeros((2, 3)), np.zeros(2), basis, basis)
    with pytest.raises(ValueError):
        Tube(np.zeros((2, 3)), np.zeros(3), basis, BernsteinBasis(3, 3.0))
