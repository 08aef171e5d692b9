import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

from tubecbf.stl import (
    TRUE,
    AffineHalfspace,
    Always,
    And,
    BallNorm2,
    BoxInfNorm,
    Eventually,
    FormulaSyntaxError,
    IntervalError,
    Not,
    Or,
    Predicate,
    RobustnessReport,
    Signal,
    TrueFormula,
    UndefinedPredicateError,
    Until,
    horizon,
    parse,
    robustness,
    robustness_batch,
    robustness_lipschitz,
)
from tubecbf.stl import _interpolator, _plan

from gen import formula_and_signal, random_signal
from oracles import oracle_boolean, oracle_robustness

ROOT = Path(__file__).resolve().parent.parent

T_BOX = BoxInfNorm((3.0, 3.0), 1.0)
O_BOX = BoxInfNorm((1.0, 1.0), 0.5)
TABLE = {"T": T_BOX, "O": O_BOX}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_reach_avoid_task():
    f = parse("F[0,6] T & G[0,6] !O", TABLE)
    assert isinstance(f, And)
    assert f.left == Eventually(0.0, 6.0, Predicate("T", T_BOX))
    assert f.right == Always(0.0, 6.0, Not(Predicate("O", O_BOX)))


def test_parse_true_atom():
    assert parse("true") == TRUE
    assert isinstance(parse("true"), TrueFormula)


def test_parse_reversed_interval_rejected():
    with pytest.raises(IntervalError):
        parse("F[6,0] T", TABLE)


def test_parse_empty_and_garbage():
    with pytest.raises(FormulaSyntaxError):
        parse("")
    with pytest.raises(FormulaSyntaxError):
        parse("F[0,6] T &")
    with pytest.raises(FormulaSyntaxError):
        parse("T ??")
    err = None
    try:
        parse("F[0,6] $")
    except FormulaSyntaxError as e:
        err = e
    assert err is not None and err.position == 7


def test_parse_implies_desugars_lowest_precedence():
    f = parse("S => F[6,7] (T1 | T2) & G[0,15] !O")
    expected = Or(
        Not(Predicate("S")),
        And(
            Eventually(6.0, 7.0, Or(Predicate("T1"), Predicate("T2"))),
            Always(0.0, 15.0, Not(Predicate("O"))),
        ),
    )
    assert f == expected


def test_parse_precedence_not_and_or():
    f = parse("!a & b | c")
    assert f == Or(And(Not(Predicate("a")), Predicate("b")), Predicate("c"))


def test_parse_until_between_atoms():
    f = parse("a U[1,2] b")
    assert f == Until(1.0, 2.0, Predicate("a"), Predicate("b"))
    g = parse("(a & b) U[0,3] c")
    assert g == Until(0.0, 3.0, And(Predicate("a"), Predicate("b")), Predicate("c"))


def test_parse_g_is_contextual():
    # G followed by '[' is the temporal operator, bare G is a predicate name
    f = parse("G[0,10] !G")
    assert f == Always(0.0, 10.0, Not(Predicate("G")))


def test_parse_undeclared_predicate():
    with pytest.raises(UndefinedPredicateError) as exc:
        parse("F[0,6] T & G[0,6] !Q", TABLE)
    assert "Q" in str(exc.value)


def test_interval_constructor_validation():
    with pytest.raises(IntervalError):
        Eventually(-1.0, 2.0, TRUE)
    with pytest.raises(IntervalError):
        Until(3.0, 1.0, TRUE, TRUE)


# ---------------------------------------------------------------------------
# horizon
# ---------------------------------------------------------------------------

def test_horizon_cases():
    p = Predicate("T", T_BOX)
    assert horizon(p) == 0.0
    assert horizon(Always(0.0, 15.0, Not(p))) == 15.0
    assert horizon(Eventually(0.0, 10.0, Always(0.0, 5.0, p))) == 15.0
    assert horizon(Until(1.0, 4.0, Eventually(0.0, 2.0, p), p)) == 6.0
    assert horizon(And(Always(0, 3, p), Eventually(0, 7, p))) == 7.0


def test_horizon_matches_required_signal_length():
    # evaluating F[0,10] G[0,5] p at t=0 needs samples up to t=15
    p = Predicate("p", AffineHalfspace((1.0,), 0.0))
    f = Eventually(0.0, 10.0, Always(0.0, 5.0, p))
    times_ok = np.linspace(0.0, 15.0, 31)
    sig_ok = Signal(times_ok, np.ones((31, 1)))
    assert robustness(f, sig_ok).value == pytest.approx(1.0)
    times_short = np.linspace(0.0, 14.5, 30)
    sig_short = Signal(times_short, np.ones((30, 1)))
    with pytest.raises(ValueError):
        robustness(f, sig_short)


# ---------------------------------------------------------------------------
# robustness basics
# ---------------------------------------------------------------------------

def _constant_signal(value, times):
    value = np.asarray(value, dtype=float)
    return Signal(np.asarray(times, dtype=float),
                  np.tile(value, (len(times), 1)))


def test_robustness_ball_predicate():
    p = Predicate("p", BallNorm2((0.0, 0.0), 1.0))
    x = _constant_signal([0.0, 0.0], [0.0, 1.0])
    rep = robustness(p, x, 0.0)
    assert rep.value == pytest.approx(1.0)
    assert rep.satisfied

    rep_neg = robustness(Not(p), x, 0.0)
    assert rep_neg.value == pytest.approx(-1.0)
    assert not rep_neg.satisfied


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_predicate_planes_match_row_references(n):
    # .value takes the n coordinate planes of the states; it must give the
    # row-wise reference on (..., n) states bit for bit
    rng = np.random.default_rng(60 + n)
    x = rng.normal(size=(37, 23, n)) * 10.0 ** rng.uniform(-3, 3, size=(37, 23, n))
    planes = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    center = tuple(rng.uniform(-2, 2, size=n).tolist())
    weights = tuple(rng.normal(size=n).tolist())
    d = x - np.asarray(center)
    box = BoxInfNorm(center, 1.5).value(planes)
    assert box.tobytes() == (1.5 - np.abs(d).max(-1)).tobytes()
    ball = BallNorm2(center, 1.5).value(planes)
    assert ball.tobytes() == (1.5 - np.linalg.norm(d, axis=-1)).tobytes()
    ordered = x[..., 0] * weights[0]
    for c in range(1, n):
        ordered = ordered + x[..., c] * weights[c]
    half = AffineHalfspace(weights, 0.7).value(planes)
    assert half.tobytes() == (ordered + 0.7).tobytes()


def test_robustness_always_on_grid():
    p = Predicate("p", AffineHalfspace((1.0,), 0.0))
    x = Signal(np.array([0.0, 1.0, 2.0]), np.array([[-1.0], [0.0], [1.0]]))
    rep = robustness(Always(0.0, 2.0, p), x, 0.0)
    assert rep.value == pytest.approx(-1.0)
    assert not rep.satisfied


def test_robustness_strictness_at_zero():
    p = Predicate("p", AffineHalfspace((1.0,), 0.0))
    x = _constant_signal([0.0], [0.0, 1.0])
    rep = robustness(p, x)
    assert rep.value == 0.0
    assert rep.satisfied is False  # strict inequality


def test_robustness_window_endpoint_interpolation():
    # samples at 0 and 2 only; window ends at 1.5 which must be interpolated
    p = Predicate("p", AffineHalfspace((1.0,), 0.0))
    x = Signal(np.array([0.0, 2.0]), np.array([[0.0], [2.0]]))
    rep = robustness(Eventually(0.0, 1.5, p), x, 0.0)
    assert rep.value == pytest.approx(1.5)


def test_robustness_unbound_predicate_raises():
    f = parse("F[0,1] Z")
    x = _constant_signal([0.0], [0.0, 2.0])
    with pytest.raises(ValueError):
        robustness(f, x)


# ---------------------------------------------------------------------------
# signals
# ---------------------------------------------------------------------------

def test_signal_validation():
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Signal(np.array([0.0, 1.0]), np.array([[np.nan], [0.0]]))


# ---------------------------------------------------------------------------
# lipschitz bounds
# ---------------------------------------------------------------------------

def test_lipschitz_box_sqrt_n():
    f = Predicate("b", BoxInfNorm((0.0, 0.0), 1.0))
    assert robustness_lipschitz(f) == pytest.approx(math.sqrt(2.0))


def test_lipschitz_min_preserves_max_constant():
    p1 = Predicate("p1", AffineHalfspace((2.0, 0.0), 0.0))
    p2 = Predicate("p2", AffineHalfspace((0.0, 3.0), 0.0))
    assert robustness_lipschitz(And(p1, p2)) == pytest.approx(3.0)


def test_lipschitz_nested_temporal_ball():
    p = Predicate("p", BallNorm2((0.0, 0.0), 1.0))
    f = Always(0.0, 2.0, Eventually(0.0, 1.0, p))
    assert robustness_lipschitz(f) == pytest.approx(1.0)


def test_lipschitz_unbound_raises():
    with pytest.raises(ValueError):
        robustness_lipschitz(Predicate("z"))


def test_empirical_lipschitz_bound():
    rng = np.random.default_rng(7)
    for _ in range(100):
        f, x = formula_and_signal(rng, dim=2, depth=2, max_len=20)
        lip = robustness_lipschitz(f)
        delta = rng.normal(scale=0.3, size=x.states.shape)
        y = Signal(x.times, x.states + delta)
        gap = float(np.max(np.linalg.norm(delta, axis=1)))
        rx = robustness(f, x).value
        ry = robustness(f, y).value
        if math.isinf(rx) and math.isinf(ry):
            continue
        assert abs(rx - ry) <= lip * gap + 1e-9


def test_batch_lipschitz_in_the_states_read():
    # the pruned dense re-check rests on |rho(x) - rho(y)| <= l_rho *
    # max_i ||x_i - y_i||_2 for two trajectories on one grid, where the
    # compiled monitor also reads states interpolated at off-grid window
    # endpoints (none of these windows has an endpoint on the jittered grid)
    rng = np.random.default_rng(51)
    p = Predicate("p", AffineHalfspace((0.8, -1.3), 0.4))
    q = Predicate("q", BoxInfNorm((0.5, -0.5), 1.5))
    b = Predicate("b", BallNorm2((1.0, 0.0), 2.0))
    formulas = [p, q, b, Not(q), And(p, b), Or(q, Not(b)),
                Eventually(0.3, 2.7, Always(0.15, 1.1, Or(p, Not(q)))),
                Always(0.2, 3.1, Eventually(0.45, 0.45, And(b, q))),
                Until(0.4, 2.3, Not(b), q), Until(0.35, 1.7, Always(0.1, 0.9, p), Or(q, b))]
    times, x = _jittered_batch(rng, 64, 6.0, 41)
    tightest = 0.0
    for f in formulas:
        lip = robustness_lipschitz(f)
        rx = robustness_batch(f, times, x)
        for scale in (1e-6, 1e-2, 0.3):
            y = x + rng.normal(scale=scale, size=x.shape)
            gap = np.linalg.norm(x - y, axis=2).max(axis=1)
            ry = robustness_batch(f, times, y)
            rounding = 64 * np.finfo(float).eps * (1.0 + max(np.abs(x).max(), np.abs(y).max()))
            assert np.all(np.abs(rx - ry) <= lip * gap + rounding)
            tightest = max(tightest, float(np.max(np.abs(rx - ry) / (lip * gap))))
    # the bound is approached, so the check is not vacuous
    assert tightest > 0.5


# ---------------------------------------------------------------------------
# oracle equivalence and semantic properties
# ---------------------------------------------------------------------------

def test_oracle_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(150):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=30)
        got = robustness(f, x).value
        want = oracle_robustness(f, x.times, x.states, 0.0)
        if math.isinf(want):
            assert math.isinf(got) and got == want
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_oracle_equivalence_until():
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(120):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=25)
        if not _contains_until(f):
            continue
        hits += 1
        got = robustness(f, x).value
        want = oracle_robustness(f, x.times, x.states, 0.0)
        assert got == pytest.approx(want, abs=1e-9)
    assert hits >= 5


def _contains_until(f):
    if isinstance(f, Until):
        return True
    if isinstance(f, Not):
        return _contains_until(f.child)
    if isinstance(f, (And, Or)):
        return _contains_until(f.left) or _contains_until(f.right)
    if isinstance(f, (Eventually, Always)):
        return _contains_until(f.child)
    return False


def test_soundness_link_boolean_semantics():
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(200):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=25)
        rep = robustness(f, x)
        if rep.value > 0:
            checked += 1
            assert oracle_boolean(f, x.times, x.states, 0.0)
    assert checked >= 30


def test_negation_antisymmetry():
    rng = np.random.default_rng(45)
    for _ in range(100):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=25)
        a = robustness(f, x).value
        b = robustness(Not(f), x).value
        assert a == -b or (math.isinf(a) and math.isinf(b) and a == -b)


def test_derived_operator_identities():
    from tubecbf.stl import horizon as _horizon
    from gen import random_formula
    rng = np.random.default_rng(46)
    for _ in range(60):
        f = random_formula(rng, 2, 2)
        a = float(rng.uniform(0.0, 1.0))
        b = a + float(rng.uniform(0.0, 2.0))
        span = b + _horizon(f) + float(rng.uniform(1.0, 2.0))
        x = random_signal(rng, 2, span, max_len=25)

        # F[a,b] f = f U[a,b] TRUE: the paper's Until reads its left operand at
        # the witness time and runs the min of its right one, here TRUE
        native_f = robustness(Eventually(a, b, f), x).value
        expanded_f = robustness(Until(a, b, f, TRUE), x).value
        assert abs(native_f - expanded_f) <= 1e-12 or native_f == expanded_f

        native_g = robustness(Always(a, b, f), x).value
        expanded_g = robustness(Not(Eventually(a, b, Not(f))), x).value
        assert abs(native_g - expanded_g) <= 1e-12 or native_g == expanded_g

    # disjunction as negated conjunction of negations
    from gen import random_formula as _rf
    rng2 = np.random.default_rng(47)
    for _ in range(40):
        f1 = _rf(rng2, 1, 2)
        f2 = _rf(rng2, 1, 2)
        span = max(_horizon(f1), _horizon(f2)) + 1.0
        x = random_signal(rng2, 2, span, max_len=20)
        native = robustness(Or(f1, f2), x).value
        expanded = robustness(Not(And(Not(f1), Not(f2))), x).value
        assert native == expanded or abs(native - expanded) <= 1e-12


def test_paper_until_example_values():
    # phi1 U[0,2] phi2 with the printed pairing: phi1 at the witness time,
    # phi2 as the running min from the window start
    p1 = Predicate("p1", AffineHalfspace((1.0,), 0.0))
    p2 = Predicate("p2", AffineHalfspace((-1.0,), 2.0))
    # p1: h=x, p2: h=2-x; x(t) = t on grid {0,1,2}
    x = Signal(np.array([0.0, 1.0, 2.0]), np.array([[0.0], [1.0], [2.0]]))
    f = Until(0.0, 2.0, p1, p2)
    # candidates t1 in {0,1,2}: min(p1(t1), min_{u<=t1} p2(u))
    #   t1=0: min(0, 2) = 0 ; t1=1: min(1, 1) = 1 ; t1=2: min(2, 0) = 0
    assert robustness(f, x).value == pytest.approx(1.0)
    want = oracle_robustness(f, x.times, x.states, 0.0)
    assert robustness(f, x).value == pytest.approx(want)


# ---------------------------------------------------------------------------
# batched monitor: compiled plan against the oracle
# ---------------------------------------------------------------------------

def _jittered_batch(rng, count, span, length, dim=2):
    gaps = rng.uniform(0.5, 1.5, size=length - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times = times / times[-1] * span
    states = np.cumsum(rng.normal(scale=0.5, size=(count, length, dim)), axis=1)
    return times, states


def _assert_bits_match_oracle(f, times, states, t=0.0):
    # the oracle interpolates, applies the predicates and takes min/max with
    # the monitor's operations in the monitor's order, so no bit may differ
    got = robustness_batch(f, times, states, t)
    want = np.array([oracle_robustness(f, times, x, t) for x in states])
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (str(f), t)


def test_batch_oracle_equivalence_random():
    rng = np.random.default_rng(48)
    for _ in range(40):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=25)
        states = x.states[None] + rng.normal(scale=0.5, size=(5,) + x.states.shape)
        _assert_bits_match_oracle(f, x.times, states)


def test_batch_nested_windows_off_grid():
    # no window endpoint of F[0.3,2.7] G[0.15,1.1] falls on the jittered grid,
    # and every inner window holds endpoints of other windows between its own
    rng = np.random.default_rng(49)
    p = Predicate("p", BoxInfNorm((0.5, -0.5), 1.5))
    q = Predicate("q", BallNorm2((1.0, 0.0), 2.0))
    times, states = _jittered_batch(rng, 6, 4.5, 37)
    for f in (Eventually(0.3, 2.7, Always(0.15, 1.1, p)),
              Always(0.3, 2.7, Eventually(0.15, 1.1, Or(p, Not(q))))):
        _assert_bits_match_oracle(f, times, states)
    # p and q sit in two subtrees but need the same off-grid times, which are
    # interpolated once for both; each conjunct's values stay bit-identical
    f_p = Eventually(0.3, 2.7, Always(0.15, 1.1, p))
    f_q = Eventually(0.3, 2.7, Always(0.15, 1.1, Not(q)))
    _assert_bits_match_oracle(And(f_p, f_q), times, states)
    both = robustness_batch(And(f_p, f_q), times, states)
    apart = np.minimum(robustness_batch(f_p, times, states),
                       robustness_batch(f_q, times, states))
    assert both.tobytes() == apart.tobytes()


def test_batch_shared_off_grid_times_interpolated_once(monkeypatch):
    # both conjuncts' leaves need the same off-grid times, and each
    # robustness_batch call interpolates the states there once for both
    calls = []

    def counting(grid, off):
        interpolate = _interpolator(grid, off)

        def run(states):
            calls.append(len(off))
            return interpolate(states)
        return run

    table = {"p": BoxInfNorm((0.5, -0.5), 1.5), "q": BallNorm2((1.0, 0.0), 2.0)}
    f = parse("F[0.3,2.7] G[0.15,1.1] p & F[0.3,2.7] G[0.15,1.1] q", table)
    times, states = _jittered_batch(np.random.default_rng(49), 6, 4.5, 37)
    monkeypatch.setattr("tubecbf.stl._interpolator", counting)
    _plan.cache_clear()
    try:
        robustness_batch(f, times, states)
        assert len(calls) == 1 and calls[0] > 0
        robustness_batch(f, times, states)
        assert len(calls) == 2
    finally:
        _plan.cache_clear()


def test_batch_until_matches_oracle():
    # bit for bit, on the window shapes the sweep treats apart: both ends in
    # one sample gap (an empty interior, and no grid row in the child), point
    # windows on a sample and off one, ends exactly on samples, and Until
    # under F and G and over G, at a grid anchor and one between samples
    rng = np.random.default_rng(50)
    p = Predicate("p", BoxInfNorm((0.0, 0.0), 2.0))
    q = Predicate("q", AffineHalfspace((1.0, -0.5), 0.2))
    times, states = _jittered_batch(rng, 4, 6.0, 30)
    on, between = float(times[4]), float(0.5 * (times[4] + times[5]))
    third = float(times[5] - times[4]) / 3.0
    formulas = (Until(0.4, 2.3, p, q), Until(0.0, 1.7, Always(0.0, 0.9, q), p),
                Eventually(0.2, 1.0, Until(1.1, 1.1, q, p)),
                Until(on + third, on + 2.0 * third, p, q),
                Until(on, on, p, q), Until(between, between, q, p),
                Until(float(times[2]), float(times[9]), p, q),
                Always(0.0, 2.0, Until(float(times[1]), float(times[3]), q, p)),
                Eventually(0.1, 2.5, Until(0.05, 0.15, p, q)),
                Always(0.5, 1.5, Until(0.0, 0.0, p, q)),
                Until(0.3, 1.9, p, Always(0.2, 0.7, q)))
    for f in formulas:
        for t in (0.0, float(times[3]), float(0.5 * (times[7] + times[8]))):
            _assert_bits_match_oracle(f, times, states, t)


def test_unknown_until_convention_raises_without_an_until():
    # robustness accepts only the one Until semantics, for every formula, not
    # only where an Until reads it
    f = Eventually(0.0, 1.0, Predicate("p", BoxInfNorm((0.0, 0.0), 1.0)))
    x = Signal(np.linspace(0.0, 2.0, 11), np.zeros((11, 2)))
    for convention in ("standard", "Paper"):
        with pytest.raises(ValueError, match=f"until_convention must be 'paper', "
                                             f"got '{convention}'"):
            robustness(f, x, until_convention=convention)
    assert robustness(f, x).value == robustness(f, x, until_convention="paper").value == 1.0


def test_batch_anchor_point_windows_and_true():
    rng = np.random.default_rng(51)
    p = Predicate("p", BoxInfNorm((0.0, 0.0), 1.0))
    times, states = _jittered_batch(rng, 3, 5.0, 21)
    formulas = (Always(1.0, 1.0, p), Eventually(0.0, 2.0, Always(0.7, 0.7, p)),
                And(TRUE, Eventually(0.5, 1.5, p)), Or(p, Not(TRUE)),
                Always(0.0, 2.0, TRUE))
    for f in formulas:
        # t = 0, a grid time, and a time between samples
        for t in (0.0, float(times[3]), 0.5 * float(times[5] + times[6])):
            _assert_bits_match_oracle(f, times, states, t)
    assert np.all(robustness_batch(Always(0.0, 2.0, TRUE), times, states) == math.inf)


def test_batch_cached_plan_repeats():
    rng = np.random.default_rng(52)
    p = Predicate("p", BoxInfNorm((0.0, 0.0), 1.0))
    f = Eventually(0.0, 2.0, Always(0.0, 1.0, p))
    times, states = _jittered_batch(rng, 4, 3.5, 25)
    first = robustness_batch(f, times, states)
    hits = _plan.cache_info().hits
    second = robustness_batch(f, times.copy(), states)
    assert _plan.cache_info().hits == hits + 1
    assert np.array_equal(first, second)


def _python(code: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          check=True, timeout=120, env=env).stdout


def test_batch_equal_formulas_share_a_plan():
    # nodes hash once when built; an equal but distinct formula still finds
    # the plan, and a pickled copy hashes afresh, also in a process whose str
    # hashes differ
    text = "F[0,2] G[0,1] (T & !O)"
    f1, f2 = parse(text, TABLE), parse(text, TABLE)
    assert f1 == f2 and f1 is not f2 and hash(f1) == hash(f2)
    times, states = _jittered_batch(np.random.default_rng(54), 3, 3.5, 20)
    first = robustness_batch(f1, times, states)
    info = _plan.cache_info()
    assert np.array_equal(robustness_batch(f2, times, states), first)
    assert (_plan.cache_info().hits, _plan.cache_info().misses) == (info.hits + 1, info.misses)
    copy = pickle.loads(pickle.dumps(f1))
    assert copy == f1 and hash(copy) == hash(f1)
    build = ("import pickle, sys\n"
             "from tubecbf.stl import BoxInfNorm, parse\n"
             f"f1 = parse({text!r}, {{'T': BoxInfNorm((3.0, 3.0), 1.0), "
             "'O': BoxInfNorm((1.0, 1.0), 0.5)})\n")
    pickled = _python(build + "sys.stdout.buffer.write(pickle.dumps(f1))\n", hash_seed=1)
    load = "copy = pickle.loads(sys.stdin.buffer.read())\nprint(copy == f1, hash(copy) == hash(f1))\n"
    assert _python(build + load, hash_seed=2, stdin=pickled).split() == [b"True", b"True"]


def test_batch_kinds_with_equal_fields_get_their_own_plans():
    # the two formulas of each pair are built from equal fields; the kind of
    # each node is part of the plan's key
    c = (0.5, -0.5)
    p = Predicate("p", BoxInfNorm(c, 1.0))
    q = Predicate("q", BallNorm2((1.0, 0.0), 2.0))
    pairs = ((Eventually(0.0, 1.0, p), Always(0.0, 1.0, p)), (And(p, q), Or(p, q)),
             (Predicate("p", BoxInfNorm(c, 1.0)), Predicate("p", BallNorm2(c, 1.0))))
    times, states = _jittered_batch(np.random.default_rng(58), 4, 3.0, 20)
    for pair in pairs:
        assert pair[0] != pair[1]
        values = []
        for f in pair:
            misses = _plan.cache_info().misses
            values.append(robustness_batch(f, times, states))
            assert _plan.cache_info().misses == misses + 1
            want = [oracle_robustness(f, times, x) for x in states]
            assert values[-1] == pytest.approx(want, abs=1e-9)
        assert not np.array_equal(*values)


def test_records_are_immutable_values():
    f = parse("F[0,2] G[0,1] (T & !O) | (T U[0.5,1] (!O))", TABLE)
    records = [RobustnessReport(0.5, True), T_BOX, BallNorm2((0.0, 0.0), 1.0),
               AffineHalfspace((1.0, 0.0), 0.5)]
    stack = [f]
    while stack:
        records.append(stack.pop())
        stack.extend(records[-1].children)
    for record in records:
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    twin = deepcopy(f)
    assert twin == f and twin is not f and hash(twin) == hash(f)
    # an unhashable field, or a missing one, fails when the record is built
    with pytest.raises(TypeError):
        BoxInfNorm([0.0, 0.0], 1.0)
    with pytest.raises(TypeError):
        BoxInfNorm((0.0, 0.0))


def test_batch_state_layouts_agree():
    # a C-contiguous (K, T, n) batch is copied into planes; the (K, T, n)
    # transpose of a (n, T, K) plane buffer is read in place
    rng = np.random.default_rng(55)
    table = {"p": BoxInfNorm((0.5, -0.5, 0.0), 1.5), "q": BallNorm2((1.0, 0.0, 0.5), 2.0),
             "h": AffineHalfspace((0.3, -1.0, 0.2), 2.5)}
    f = parse("F[0.3,2.7] G[0.15,1.1] (p | !q) & G[0,3] h", table)
    times, states = _jittered_batch(rng, 7, 4.5, 37, dim=3)
    planes = np.ascontiguousarray(states.transpose(2, 1, 0))
    view = planes.transpose(2, 1, 0)
    assert np.shares_memory(view, planes) and not view.flags.c_contiguous
    assert robustness_batch(f, times, view).tobytes() == \
        robustness_batch(f, times, np.ascontiguousarray(states)).tobytes()


def test_batch_memory_stays_linear_in_table():
    # a (query, window, trajectory) gather would need ~270 x 130 x K floats,
    # and a (query, window member) table for the Until ~6700 x 3300 at 10,001
    # samples
    p = Predicate("p", AffineHalfspace((1.0,), 0.0))
    q = Predicate("q", AffineHalfspace((-1.0,), 0.5))
    formulas = (Eventually(0.0, 10.0, Always(0.0, 5.0, p)),
                Always(0.0, 10.0, Until(0.0, 5.0, p, q)))
    for count, length, bound in ((2000, 400, 6 * 2000 * 400 * 8), (1, 10_001, 4e6)):
        times = np.linspace(0.0, 15.0, length)
        rng = np.random.default_rng(53)
        states = np.cumsum(rng.normal(scale=0.1, size=(length, count, 1)), axis=0)
        for f in formulas:
            tracemalloc.start()
            try:
                robustness_batch(f, times, states.transpose(1, 0, 2))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (str(f), count, length, peak)


# ---------------------------------------------------------------------------
# in-place plan: fresh tables only, and the oracle's operations bit for bit
# ---------------------------------------------------------------------------

_INPLACE_TABLE = {"p": BoxInfNorm((0.5, -0.5, 0.0), 1.5), "q": BallNorm2((1.0, 0.0, 0.5), 2.0),
                  "h": AffineHalfspace((0.3, -1.0, 0.2), 2.5)}
# nested windows whose endpoints fall between samples, Not over windows, and
# Until inside and around windows
_INPLACE_FORMULAS = (
    "F[0.3,2.7] G[0.15,1.1] (p | !q) & G[0,3] h",
    "G[0.2,2.9] F[0.35,0.95] (h & p) | !q",
    "!F[0.25,1.3] (p & !G[0.1,0.7] q)",
    "!G[0.45,2.05] !F[0.3,0.3] h",
    "(p U[0.4,2.3] (!q)) & G[0.1,1.2] (h U[0.3,0.8] (F[0.2,0.6] p))",
    "!(q U[0,1.7] (G[0.05,0.9] h))",
)


def test_batch_never_writes_the_states():
    # every node overwrites only tables the plan allocated; a read-only
    # (n, T, K) buffer, read in place through its (K, T, n) transpose, and a
    # read-only (K, T, n) batch, copied into planes, give the same bytes
    rng = np.random.default_rng(56)
    times, states = _jittered_batch(rng, 9, 4.5, 41, dim=3)
    planes = np.ascontiguousarray(states.transpose(2, 1, 0))
    frozen = states.copy()
    before = planes.tobytes()
    planes.setflags(write=False)
    frozen.setflags(write=False)
    for text in _INPLACE_FORMULAS:
        f = parse(text, _INPLACE_TABLE)
        want = robustness_batch(f, times, states.copy())
        for batch in (planes.transpose(2, 1, 0), frozen):
            got = robustness_batch(f, times, batch)
            assert got.tobytes() == want.tobytes()
    assert planes.tobytes() == before and np.array_equal(frozen, states)


def test_batch_in_place_plan_matches_oracle_bits():
    rng = np.random.default_rng(57)
    times, states = _jittered_batch(rng, 6, 6.0, 43, dim=3)
    for text in _INPLACE_FORMULAS:
        _assert_bits_match_oracle(parse(text, _INPLACE_TABLE), times, states)
    for _ in range(30):
        f, x = formula_and_signal(rng, dim=2, depth=3, max_len=25)
        batch = x.states[None] + rng.normal(scale=0.5, size=(4,) + x.states.shape)
        _assert_bits_match_oracle(f, x.times, batch)
