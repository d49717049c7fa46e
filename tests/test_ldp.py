import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from longrun import (
    EmptyDeviationSet,
    EnumerationTooLarge,
    GammaNotAllowed,
    GammaOutOfRange,
    HyperbolicSchedule,
    InvalidModel,
    Model,
    StationaryPolicy,
    TabulatedSchedule,
    UnitSchedule,
    deviation_rate_infimum,
    dv_supermartingale_check,
    exact_event_probability,
    ldp_upper_bound_check,
    near_optimality_margin,
    phi_partial_sum,
    rate_function,
    stationary_distribution,
    weighted_empirical,
)

from longrun.cli import gen_model

from conftest import deviation_kernel, random_model

REF_P = np.array([[0.75, 0.25], [0.5, 0.5]])


def grid_rate_oracle(P, nu, hi, step=2e-5):
    """Independent dense scan of the 2-state objective over g = (0, t)."""
    with np.errstate(divide="ignore"):
        logP = np.log(np.asarray(P, dtype=float))
    ts = np.arange(-hi, hi + step / 2, step)
    vals = nu[1] * ts - (
        nu[0] * np.logaddexp(logP[0, 0], logP[0, 1] + ts)
        + nu[1] * np.logaddexp(logP[1, 0], logP[1, 1] + ts)
    )
    return float(vals.max())


def bounded_rate_reference(P, nu, hi):
    """Supremum of the concave 2-state objective over g = (0, t), t in [-hi, hi].

    Candidates are both endpoints and the root of the derivative
    nu1 expit(-t - a1) - nu0 expit(t + a0), a = ln P[:, 1] - ln P[:, 0], which
    keeps its relative accuracy on flat slopes; each is valued in 30-digit
    arithmetic, so the reference carries no rounding of its own."""
    P = np.asarray(P, dtype=float)
    a = np.log(P[:, 1]) - np.log(P[:, 0])

    def slope(t):
        return nu[1] * special.expit(-t - a[1]) - nu[0] * special.expit(t + a[0])

    ts = [-hi, hi]
    if slope(-hi) > 0.0 > slope(hi):
        ts.append(optimize.brentq(slope, -hi, hi, xtol=1e-14))
    with mpmath.workdps(30):
        Pm, n = mpmath.matrix(P.tolist()), [mpmath.mpf(x) for x in nu]
        values = [
            n[1] * t - n[0] * mpmath.log(Pm[0, 0] + Pm[0, 1] * mpmath.exp(t))
            - n[1] * mpmath.log(Pm[1, 0] + Pm[1, 1] * mpmath.exp(t))
            for t in map(mpmath.mpf, ts)
        ]
        return float(max(values))


# ------------------------------------------------------------------ measures


def test_weighted_empirical_point_mass(hyperbolic):
    wm = weighted_empirical([1, 1, 1], hyperbolic, 0, n_states=3)
    assert np.allclose(wm.nu, [0.0, 1.0, 0.0])


def test_weighted_empirical_unit_is_frequency(unit):
    wm = weighted_empirical([0, 1, 1, 0], unit, 2, n_states=2)
    assert np.allclose(wm.nu, [0.5, 0.5])


def test_weighted_empirical_hyperbolic_weights(hyperbolic):
    wm = weighted_empirical([0, 1], hyperbolic, 0)
    assert np.allclose(wm.nu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_weighted_empirical_concatenation(hyperbolic):
    # a concatenated trajectory mixes the pieces with their phi masses
    a = [0, 1, 0]
    b = [1, 1]
    full = weighted_empirical(a + b, hyperbolic, 0, n_states=2)
    part_a = weighted_empirical(a, hyperbolic, 0, n_states=2)
    part_b = weighted_empirical(b, hyperbolic, len(a), n_states=2)
    sa = phi_partial_sum(hyperbolic, 0, len(a))
    sb = phi_partial_sum(hyperbolic, len(a), len(b))
    mixed = (sa * part_a.nu + sb * part_b.nu) / (sa + sb)
    assert np.allclose(full.nu, mixed, atol=1e-15)


# -------------------------------------------------------------- rate function


def test_rate_zero_at_invariant_measure():
    mu = stationary_distribution(REF_P)
    rep = rate_function(REF_P, mu)
    assert 0.0 <= rep.value <= 1e-6


def test_rate_zero_at_invariant_random_kernels():
    for seed in range(8):
        m = random_model(seed)
        P = m.policy_kernel(StationaryPolicy([0] * m.n_states))
        mu = stationary_distribution(P)
        assert rate_function(P, mu).value <= 1e-6


def test_rate_point_mass_uniform_chain():
    P = np.full((2, 2), 0.5)
    rep = rate_function(P, [1.0, 0.0])
    assert rep.value == pytest.approx(math.log(2.0), abs=1e-9)


def test_rate_positive_away_from_invariant():
    mu = stationary_distribution(REF_P)
    nu = mu + np.array([0.05, -0.05])
    rep = rate_function(REF_P, nu)
    assert rep.value >= 1e-4


def test_rate_value_attained_by_reported_maximizer():
    nu = np.array([0.9, 0.1])
    rep = rate_function(REF_P, nu)
    f = rep.maximizer
    assert f.min() == pytest.approx(1.0)
    direct = float(nu @ (np.log(f) - np.log(REF_P @ f)))
    assert rep.value == pytest.approx(direct, abs=1e-10)


def test_rate_ratio_constraint_ordering():
    nu = np.array([0.85, 0.15])
    vals = [rate_function(REF_P, nu, d=d).value for d in (2.0, 10.0, 100.0)]
    full = rate_function(REF_P, nu).value
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    assert vals[2] <= full + 1e-12
    assert vals[2] == pytest.approx(full, abs=1e-9)
    report = rate_function(REF_P, nu, d=2.0)
    assert report.maximizer.max() <= 2.0 * report.maximizer.min() + 1e-12


def test_rate_matches_independent_grid():
    for nu in ([0.9, 0.1], [0.5, 0.5], [0.2, 0.8]):
        got = rate_function(REF_P, np.array(nu)).value
        want = grid_rate_oracle(REF_P, nu, hi=40.0)
        assert got == pytest.approx(want, abs=1e-6)
        got_d = rate_function(REF_P, np.array(nu), d=10.0).value
        want_d = grid_rate_oracle(REF_P, nu, hi=math.log(10.0))
        assert got_d == pytest.approx(want_d, abs=1e-6)


def test_rate_two_state_stays_inside_the_ratio_box():
    # a chain and measure on which a grid whose last point lies outside
    # [-ln d, ln d] returned a ratio of 10.0003 and a value above the supremum
    P = gen_model({"n_states": 2, "n_actions": 1, "min_entry": 0.02, "seed": 28}).kernel[0]
    nu = np.array([0.02, 0.98])
    rep = rate_function(P, nu, d=10.0)
    ref = bounded_rate_reference(P, nu, math.log(10.0))
    assert rep.maximizer.max() / rep.maximizer.min() <= 10.0 * (1.0 + 1e-12)
    assert ref - 1e-12 <= rep.value <= ref + 1e-14


@st.composite
def chains(draw):
    """A random kernel with 2 to 4 states and entries at least 0.01, a measure
    on its states, and a ratio bound (None for none)."""
    s = draw(st.integers(2, 4))
    unit = st.floats(0.0, 1.0)
    rows = np.array(draw(st.lists(st.lists(unit, min_size=s, max_size=s), min_size=s, max_size=s)))
    P = 0.01 + (1.0 - 0.01 * s) * (rows + 1e-3) / (rows + 1e-3).sum(axis=1, keepdims=True)
    w = np.array(draw(st.lists(unit, min_size=s, max_size=s))) + 1e-9
    return P, w / w.sum(), draw(st.sampled_from([None, 2.0, 10.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(chains())
def test_rate_property_random_chains(case):
    P, nu, d = case
    rep = rate_function(P, nu, d=d)
    f = rep.maximizer
    if d is not None:
        assert f.max() / f.min() <= d
    assert rep.value == pytest.approx(float(nu @ np.log(f) - nu @ np.log(P @ f)), abs=1e-13)
    if P.shape[0] == 2:
        hi = math.log(d) if d is not None else 40.0
        ref = bounded_rate_reference(P, nu, hi)
        # the value is a float sum of terms as large as the box: allow two of
        # their ulps of rounding above the exact supremum
        assert ref - 1e-12 <= rep.value <= ref + 1e-14 + 2.0 * np.spacing(hi)


def test_rate_rejects_bad_inputs():
    with pytest.raises(InvalidModel):
        rate_function(REF_P, [0.7, 0.7])
    with pytest.raises(InvalidModel):
        rate_function(REF_P, [0.5, 0.5], d=0.5)
    with pytest.raises(InvalidModel):
        rate_function(REF_P, [math.nan, math.nan])
    with pytest.raises(InvalidModel):
        rate_function(REF_P, [0.5, 0.5], d=math.inf)


@pytest.mark.parametrize(
    "nu", [[3.3e-11, 0.514, 0.486], [6.0e-10, 6.2e-9, 0.896, 0.104]], ids=["3-states", "4-states"]
)
def test_rate_tiny_entry_reaches_the_supremum(nu):
    # the flat direction of the tiny entry is ill-conditioned against the
    # others; a concave objective is at its supremum over the box within the
    # Frank-Wolfe gap sum_i max(grad_i (0 - g_i), grad_i (hi - g_i))
    nu = np.array(nu) / sum(nu)
    P = gen_model({"n_states": nu.size, "n_actions": 1, "min_entry": 0.02, "seed": 1}).kernel[0]
    f = rate_function(P, nu).maximizer
    g = np.log(f)
    grad = nu - f * (P.T @ (nu / (P @ f)))
    assert np.maximum(grad * -g, grad * (40.0 - g)).sum() <= 1e-13


# ----------------------------------------------- exponential-martingale bound


def test_supermartingale_constant_f(unit):
    chk = dv_supermartingale_check(REF_P, np.array([3.0, 3.0]), unit, 0, 10, 0)
    assert chk.lhs == pytest.approx(1.0, abs=1e-12)
    assert chk.passed


def test_supermartingale_single_step_hand_value(hyperbolic):
    f = np.array([2.0, 1.0])
    chk = dv_supermartingale_check(REF_P, f, hyperbolic, 4, 1, 0)
    expected = (f[0] / (REF_P[0] @ f)) ** hyperbolic.phi(4)
    assert chk.lhs == pytest.approx(expected, abs=1e-13)
    assert chk.lhs <= chk.d_f


def test_supermartingale_reference(hyperbolic):
    chk = dv_supermartingale_check(REF_P, np.array([2.0, 1.0]), hyperbolic, 0, 30, 0)
    assert chk.passed


def test_supermartingale_requires_f_at_least_one(unit):
    with pytest.raises(InvalidModel):
        dv_supermartingale_check(REF_P, np.array([2.0, 0.5]), unit, 0, 5, 0)


def test_supermartingale_random_f_all_schedules():
    rng = np.random.default_rng(42)
    schedules = [UnitSchedule(), HyperbolicSchedule(1.0, 1.0), HyperbolicSchedule(2.0, 0.5)]
    for seed in range(3):
        m = random_model(seed)
        P = m.policy_kernel(StationaryPolicy([0] * m.n_states))
        for _ in range(25):
            f = 1.0 + 9.0 * rng.random(m.n_states)
            f[rng.integers(m.n_states)] = 1.0
            for sched in schedules:
                chk = dv_supermartingale_check(P, f, sched, 0, 1000, int(rng.integers(m.n_states)))
                assert chk.passed


# --------------------------------------------------------- exact probabilities


def test_event_probability_trivial_thresholds(hyperbolic):
    f = np.array([2.0, 1.0])
    r = np.log(f) - np.log(REF_P @ f)
    assert exact_event_probability(REF_P, hyperbolic, 0, 10, f, r.max() + 0.1, 0) == 0.0
    assert exact_event_probability(REF_P, hyperbolic, 0, 10, f, r.min() - 0.1, 0) == 1.0


def test_event_probability_hand_value_two_steps(unit):
    # n = 2 from state 0: paths (0,0), (0,1) with r-sums r0+r0 and r0+r1
    f = np.array([2.0, 1.0])
    r = np.log(f) - np.log(REF_P @ f)
    kappa = (r[0] + 0.5 * (r[0] + r[1])) / 2.0  # between the two path means
    got = exact_event_probability(REF_P, unit, 0, 2, f, kappa, 0)
    assert got == pytest.approx(REF_P[0, 0], abs=1e-15)


def test_event_probability_guard():
    P3 = random_model(0).policy_kernel(StationaryPolicy([0, 0, 0]))
    with pytest.raises(EnumerationTooLarge):
        exact_event_probability(P3, UnitSchedule(), 0, 21, np.ones(3), 0.0, 0)
    # 2-state chains get a slightly longer window
    q = exact_event_probability(REF_P, UnitSchedule(), 0, 21, np.array([2.0, 1.0]), 0.05, 0)
    assert 0.0 <= q <= 1.0


class RecordingSchedule(UnitSchedule):
    """The unit schedule, recording every window phi is asked for."""

    def __init__(self):
        self.windows = []

    def phi_array(self, start, count):
        self.windows.append((start, count))
        return super().phi_array(start, count)


def test_every_row_is_guarded_before_any_phi_work():
    # a horizon of 3e7 used to read phi over [0, 3e7) for its partial sum,
    # about 240 MB, before its guard refused it
    sched = RecordingSchedule()
    with pytest.raises(EnumerationTooLarge):
        ldp_upper_bound_check(REF_P, np.array([2.0, 1.0]), 0.02, sched, 0, [8, 30_000_000])
    assert sched.windows == []
    assert ldp_upper_bound_check(REF_P, np.array([2.0, 1.0]), 0.02, sched, 0, [8]).passed
    assert sched.windows


@pytest.mark.parametrize(
    "k, n, x",
    [(0, "5", 0), (0, 25.5, 0), (0, True, 0), (0, 0, 0), (-1, 25, 0), (0.5, 25, 0), (0, 25, 2), (0, 25, True),
     (0, 25, 0.5)],
)
def test_event_probability_checks_window_and_start_before_the_guard(k, n, x):
    # n = "5" used to raise a bare TypeError, and n = 25.5 EnumerationTooLarge
    sched = RecordingSchedule()
    with pytest.raises(InvalidModel):
        exact_event_probability(REF_P, sched, k, n, np.array([2.0, 1.0]), 0.02, x)
    assert sched.windows == []


def test_event_probability_matches_monte_carlo(hyperbolic):
    f = np.array([2.0, 1.0])
    q = exact_event_probability(REF_P, hyperbolic, 0, 14, f, 0.05, 0)
    rng = np.random.default_rng(2024)
    reps = 1_000_000
    r = np.log(f) - np.log(REF_P @ f)
    phi = hyperbolic.phi_array(0, 14)
    states = np.zeros(reps, dtype=int)
    totals = np.full(reps, phi[0] * r[0])
    for j in range(1, 14):
        u = rng.random(reps)
        states = (u > REF_P[states, 0]).astype(int)
        totals += phi[j] * r[states]
    est = float((totals >= 0.05 * phi.sum()).mean())
    stderr = math.sqrt(est * (1.0 - est) / reps)
    assert abs(est - q) <= 4.0 * stderr


def test_upper_bound_check_reference(hyperbolic):
    f = np.array([2.0, 1.0])
    rep = ldp_upper_bound_check(REF_P, f, 0.05, hyperbolic, 0, range(8, 15))
    assert rep.passed
    assert rep.d == pytest.approx(2.0)
    # the exact-bound envelope ln(d)/sum_phi - kappa decreases toward -kappa
    env = [math.log(rep.d) / row.sum_phi - rep.kappa for row in rep.rows]
    assert all(b <= a + 1e-15 for a, b in zip(env, env[1:]))
    for row, e in zip(rep.rows, env):
        assert row.normalized_log_q <= e + 1e-12


def test_upper_bound_check_kappa_zero(unit):
    f = np.array([2.0, 1.0])
    rep = ldp_upper_bound_check(REF_P, f, 0.0, unit, 0, [5, 8])
    assert rep.passed
    for row in rep.rows:
        assert row.bound >= 1.0


@pytest.mark.parametrize("copy", range(3))
def test_upper_bound_check_binds_on_the_deviation_kernels(unit, copy):
    # the deviation benchmark's seed-7 kernels at a kappa where the bound
    # d exp(-kappa sum phi) is below 1 (0.899 at kappa 0.1, n = 8, down to
    # 0.0815 at kappa 0.2, n = 16), so each row can fail; Q reads 0.0019
    # to 0.33
    P = deviation_kernel(7, copy)
    for kappa in (0.1, 0.2):
        rep = ldp_upper_bound_check(P, np.array([2.0, 1.0, 1.0]), kappa, unit, 0, [8, 12, 16])
        assert rep.passed and all(0.0 < row.q_exact <= row.bound < 0.9 for row in rep.rows)


@pytest.mark.parametrize("copy", [1, 2])
def test_upper_bound_check_needs_the_ratio_d(hyperbolic, copy):
    # on the deviation benchmark's seed-7 copies 1 and 2 a start's whole
    # mass reaches the threshold at n = 16, so Q = 1.0 exceeds
    # exp(-kappa sum phi) = 0.9346: the bound holds only with its factor d
    P = deviation_kernel(7, copy)
    (row,) = ldp_upper_bound_check(P, np.array([2.0, 1.0, 1.0]), 0.02, hyperbolic, 0, [16]).rows
    assert row.q_exact == 1.0 > math.exp(-0.02 * row.sum_phi)
    assert row.bound == 2.0 * math.exp(-0.02 * row.sum_phi)


def test_upper_bound_check_requires_f_at_least_one(unit):
    with pytest.raises(InvalidModel):
        ldp_upper_bound_check(REF_P, np.array([0.5, 0.25]), 0.0, unit, 0, [4])


def test_upper_bound_check_requires_finite_nonnegative_kappa(unit):
    # a NaN kappa would fail every row with a NaN bound, and a large
    # negative one would overflow exp in the bound
    for kappa in (float("nan"), float("inf"), -float("inf"), -1e-3, -1000.0):
        with pytest.raises(InvalidModel):
            ldp_upper_bound_check(REF_P, np.array([2.0, 1.0]), kappa, unit, 0, [4])


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), "x", True])
def test_event_probability_reads_kappa_as_a_finite_number(unit, kappa):
    # kappa = nan gave probability 0.0, and kappa = "x" raised a bare TypeError
    with pytest.raises(InvalidModel, match="kappa"):
        exact_event_probability(REF_P, unit, 0, 4, np.array([2.0, 1.0]), kappa, 0)


def test_event_probability_takes_a_negative_kappa(unit):
    # every path sum of ln(f/Pf) is above -4 * 0.41, so all paths count
    assert exact_event_probability(REF_P, unit, 0, 4, np.array([2.0, 1.0]), -1.0, 0) == 1.0


@pytest.mark.parametrize("f", [[2.0], [2.0, float("nan")], [2.0, 0.0], "x", [[2.0], [1.0, 1.0]]],
                         ids=["short", "nan", "zero", "text", "ragged"])
def test_one_rule_for_the_test_function(unit, f):
    for call in (
        lambda: dv_supermartingale_check(REF_P, f, unit, 0, 4, 0),
        lambda: exact_event_probability(REF_P, unit, 0, 4, f, 0.02, 0),
        lambda: ldp_upper_bound_check(REF_P, f, 0.02, unit, 0, [4]),
    ):
        with pytest.raises(InvalidModel, match="one value per state"):
            call()
    # the floor is the caller's: 0.5 is a positive f, below the floor 1 of the checks
    assert 0.0 <= exact_event_probability(REF_P, unit, 0, 4, [2.0, 0.5], 0.02, 0) <= 1.0
    with pytest.raises(InvalidModel, match="at least 1.0"):
        ldp_upper_bound_check(REF_P, [2.0, 0.5], 0.02, unit, 0, [4])


def test_upper_bound_check_needs_a_horizon(unit):
    # an empty grid would pass without a single row
    with pytest.raises(InvalidModel, match="at least one horizon"):
        ldp_upper_bound_check(REF_P, np.array([2.0, 1.0]), 0.02, unit, 0, [])


def test_upper_bound_check_refuses_an_empty_f(unit):
    # f.min() of an empty f used to raise a bare ValueError
    with pytest.raises(InvalidModel, match="one value per state"):
        ldp_upper_bound_check(REF_P, np.array([]), 0.02, unit, 0, [4])


@pytest.mark.parametrize("grid", [["x"], [4.7], [4, 4.0], [True]], ids=["text", "fraction", "float", "bool"])
def test_upper_bound_check_refuses_non_integer_horizons(unit, grid):
    # ["x"] used to raise a bare ValueError, and 4.7 was truncated to 4
    with pytest.raises(InvalidModel, match="integer horizons"):
        ldp_upper_bound_check(REF_P, np.array([2.0, 1.0]), 0.02, unit, 0, grid)


def test_upper_bound_check_takes_numpy_integer_horizons(unit):
    f = np.array([2.0, 1.0])
    assert ldp_upper_bound_check(REF_P, f, 0.02, unit, 0, np.arange(3, 6)).rows == \
        ldp_upper_bound_check(REF_P, f, 0.02, unit, 0, [3, 4, 5]).rows


# ------------------------------------------------ deviation rates and margins


def test_deviation_rate_empty_set():
    with pytest.raises(EmptyDeviationSet):
        deviation_rate_infimum(REF_P, np.array([1.0, 0.0]), 0.9)


def test_deviation_rate_requires_finite_eps():
    for eps in (float("nan"), float("inf"), 0.0, -0.1):
        with pytest.raises(InvalidModel):
            deviation_rate_infimum(REF_P, np.array([1.0, 0.0]), eps)
    # a non-finite reward is a bad input, not an empty deviation set
    P3 = random_model(1).policy_kernel(StationaryPolicy([0, 0, 0]))
    for P, cu in ((REF_P, [math.nan, 0.0]), (REF_P, [math.inf, 0.0]), (P3, [math.nan, 0.0, 1.0])):
        with pytest.raises(InvalidModel):
            deviation_rate_infimum(P, np.array(cu), 0.1)


def test_deviation_rate_reference_value():
    cu = np.array([1.0, 0.0])
    e = deviation_rate_infimum(REF_P, cu, 0.1)
    assert e > 0.0
    # convexity puts the infimum at the nearest boundary of the deviation band
    mu0 = stationary_distribution(REF_P)[0]
    lo = rate_function(REF_P, np.array([mu0 - 0.1, 1.0 - mu0 + 0.1])).value
    hi = rate_function(REF_P, np.array([mu0 + 0.1, 1.0 - mu0 - 0.1])).value
    assert e == pytest.approx(min(lo, hi), abs=1e-8)


def test_deviation_rate_below_the_bracket_resolution_is_zero():
    # a rate of order eps^2 under the relative resolution of the
    # Collatz-Wielandt bracket leaves 0, still a lower bound, not an error
    cu = np.array([1.0, 0.0])
    assert deviation_rate_infimum(REF_P, cu, 1e-8) == 0.0
    assert 0.0 <= deviation_rate_infimum(REF_P, cu, 1e-7) <= deviation_rate_infimum(REF_P, cu, 1e-6)


def test_deviation_rate_shrinks_with_eps():
    cu = np.array([1.0, 0.0])
    vals = [deviation_rate_infimum(REF_P, cu, eps) for eps in (0.2, 0.1, 0.02)]
    assert vals[0] >= vals[1] >= vals[2] > 0.0


def test_deviation_rate_three_states():
    m = random_model(1)
    u = StationaryPolicy([0, 0, 0])
    P = m.policy_kernel(u)
    cu = m.policy_reward(u)
    e = deviation_rate_infimum(P, cu, 0.05)
    assert e > 0.0
    # sanity: boundary distributions on the one-dimensional cut achieve ~e
    mu = stationary_distribution(P)
    m0 = float(mu @ cu)
    probe = min(
        rate_function(P, nu).value
        for nu in _boundary_probes(P, cu, m0, 0.05, mu)
    )
    assert e <= probe + 1e-6


@pytest.mark.parametrize(
    "seed, pinned",
    [
        (0, "0x1.9a7759094bdb8p-7"),
        (1, "0x1.160d8a1b9bbb8p-6"),
        (2, "0x1.350610fe64680p-4"),
        (3, "0x1.8d38d7bd565e8p-6"),
    ],
)
def test_deviation_rate_of_an_f_ordered_kernel_is_pinned(seed, pinned):
    # the gemv's bits depend on the matrix layout, so a one-class bracket may
    # skip its C-ordered class copy only when the tilt is C-ordered itself;
    # pinned as computed with that copy always made
    m = random_model(seed, n_states=4)
    P = m.policy_kernel(StationaryPolicy([0] * 4))
    assert deviation_rate_infimum(np.asfortranarray(P), m.reward[:, 0], 0.05).hex() == pinned


def _plane_simplex_segment(cu, target, steps=120):
    """Grid of simplex points with nu.cu = target (3 states): the infimum of a
    convex rate over either half-space sits on this slice."""
    verts = []
    for i in range(3):
        for j in range(3):
            if i == j or cu[i] == cu[j]:
                continue
            t = (target - cu[j]) / (cu[i] - cu[j])
            if 0.0 <= t <= 1.0:
                v = np.zeros(3)
                v[i], v[j] = t, 1.0 - t
                verts.append(v)
    pts = []
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            for lam in np.linspace(0.0, 1.0, steps):
                pts.append((1.0 - lam) * verts[a] + lam * verts[b])
    return pts


def test_deviation_rate_three_states_boundary_oracle():
    m = random_model(4)
    u = StationaryPolicy([0, 0, 0])
    P = m.policy_kernel(u)
    cu = m.policy_reward(u)
    eps = 0.04
    e = deviation_rate_infimum(P, cu, eps)
    mu = stationary_distribution(P)
    m0 = float(mu @ cu)
    oracle = math.inf
    for target in (m0 + eps, m0 - eps):
        for nu in _plane_simplex_segment(cu, target):
            oracle = min(oracle, rate_function(P, nu).value)
    assert e == pytest.approx(oracle, abs=2e-4)


def _boundary_probes(P, cu, m0, eps, mu):
    """A few simplex points with |nu.cu - m0| = eps, mixing mu toward vertices."""
    out = []
    for sign in (1.0, -1.0):
        target = m0 + sign * eps
        vtx = int(np.argmax(sign * cu))
        point = np.zeros_like(mu)
        point[vtx] = 1.0
        denom = float((point - mu) @ cu)
        if abs(denom) < 1e-12:
            continue
        t = (target - m0) / denom
        if 0.0 <= t <= 1.0:
            out.append(mu + t * (point - mu))
    return out


def test_zero_schedule_mass_is_refused(reference_model, reference_policy):
    # phi vanishes on the window [1, 4): the margin's slack and the decay
    # column of the deviation bound divided by zero
    sched = TabulatedSchedule([1.0, 0.0, 0.0, 0.0], tail_divergent=True)
    with pytest.raises(InvalidModel, match="schedule mass"):
        near_optimality_margin(reference_model, reference_policy, sched, 0.1, -0.001, 1, 3)
    with pytest.raises(InvalidModel, match="schedule mass"):
        ldp_upper_bound_check(REF_P, np.array([2.0, 1.0]), 0.02, sched, 1, [3])


def test_margin_constant_reward_any_gamma(hyperbolic):
    m = Model(np.array([REF_P]), np.full((2, 1), 0.7))
    u = StationaryPolicy([0, 0])
    for gamma in (-0.01, -1.0, -10.0):
        rep = near_optimality_margin(m, u, hyperbolic, 0.1, gamma, 0, 100)
        assert rep.passed
        assert rep.slack == 0.0
        assert rep.margin >= 0.1 - 1e-12  # value = lam_u, floor = lam_u - eps


def test_margin_reference_passes(reference_model, reference_policy, hyperbolic):
    e = deviation_rate_infimum(REF_P, np.array([1.0, 0.0]), 0.1)
    gamma = -min(0.01, e / 4.0)
    rep = near_optimality_margin(reference_model, reference_policy, hyperbolic, 0.1, gamma, 0, 1000)
    assert rep.passed
    assert rep.lam_u == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rep.margin >= 0.0


def test_margin_gamma_too_large(reference_model, reference_policy, hyperbolic):
    with pytest.raises(GammaOutOfRange):
        near_optimality_margin(reference_model, reference_policy, hyperbolic, 0.1, -10.0, 0, 100)


def test_margin_below_the_rate_resolution_names_the_threshold(reference_model, reference_policy, hyperbolic):
    with pytest.raises(GammaOutOfRange, match="rate threshold 0.0$"):
        near_optimality_margin(reference_model, reference_policy, hyperbolic, 1e-8, -0.01, 0, 100)


def test_margin_requires_negative_gamma(reference_model, reference_policy, hyperbolic):
    with pytest.raises(GammaNotAllowed):
        near_optimality_margin(reference_model, reference_policy, hyperbolic, 0.1, 0.5, 0, 100)
