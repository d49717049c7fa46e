import dataclasses
import itertools
import math

import numpy as np
import pytest

import longrun.evaluator
from longrun import (
    CheckFailed,
    GammaNotAllowed,
    InvalidModel,
    Model,
    StationaryPolicy,
    TimeVaryingPolicy,
    UnitSchedule,
    discounted_optimality_check,
    exact_discounted_value,
    exact_risk_value,
    perron_oracle,
    poisson_solve,
    random_policy_panel,
    relative_value_iteration,
    risk_relative_value_iteration,
    risk_upper_bound_check,
    sandwich_check,
    simulate,
)


# ----------------------------------------------------------- exact evaluators


def test_constant_reward_any_schedule(hyperbolic, unit):
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 3.3))
    u = StationaryPolicy([0, 0])
    for sched in (hyperbolic, unit):
        for n in (1, 7, 40):
            res = exact_discounted_value(m, u, sched, 0, n, 1)
            assert res.value == pytest.approx(3.3, abs=1e-12)


def test_single_step_value(reference_model, reference_policy, hyperbolic):
    res = exact_discounted_value(reference_model, reference_policy, hyperbolic, 3, 1, 0)
    assert res.value == pytest.approx(1.0)
    assert res.normalizer == pytest.approx(hyperbolic.phi(3))


def test_two_step_hand_computation(reference_model, hyperbolic):
    # J_2 = [phi(0) c(0) + phi(1) sum_y P(0,y) c(y)] / (phi(0)+phi(1))
    u = StationaryPolicy([0, 0])
    res = exact_discounted_value(reference_model, u, hyperbolic, 0, 2, 0)
    expected = (1.0 * 1.0 + 0.5 * 0.75) / 1.5
    assert res.value == pytest.approx(expected, abs=1e-14)


def test_time_varying_policy_hand_computation(two_action_model, unit):
    # slice 0 plays action 0 everywhere, slice 1 plays action 1 everywhere
    pol = TimeVaryingPolicy(0, [StationaryPolicy([0, 0]), StationaryPolicy([1, 1])])
    res = exact_discounted_value(two_action_model, pol, unit, 0, 2, 0)
    step0 = two_action_model.reward[0, 0]
    step1 = two_action_model.kernel[0, 0] @ two_action_model.reward[:, 1]
    assert res.value == pytest.approx((step0 + step1) / 2.0, abs=1e-14)


def test_a_window_past_int64_plays_the_clamped_rows(two_action_model, unit):
    # k + n runs past 2**63 - 1: every step plays the last row, as from k = 0 under that row alone
    k = 2**63 - 5
    pol = TimeVaryingPolicy(0, [StationaryPolicy([0, 0]), StationaryPolicy([1, 0])])
    res = exact_discounted_value(two_action_model, pol, unit, k, 10, 1)
    assert res.value == exact_discounted_value(two_action_model, StationaryPolicy([1, 0]), unit, 0, 10, 1).value
    # a window before a late start plays the first row throughout
    late = TimeVaryingPolicy(k, [StationaryPolicy([1, 1]), StationaryPolicy([0, 0])])
    res = exact_discounted_value(two_action_model, late, unit, 0, 10, 1)
    assert res.value == exact_discounted_value(two_action_model, StationaryPolicy([1, 1]), unit, 0, 10, 1).value


def test_unit_schedule_matches_plain_average(reference_model, reference_policy, unit):
    # the undiscounted truncation is the plain running mean of expected rewards
    n = 23
    P = reference_model.policy_kernel(reference_policy)
    c = reference_model.policy_reward(reference_policy)
    dist = np.array([1.0, 0.0])
    acc = 0.0
    for _ in range(n):
        acc += dist @ c
        dist = dist @ P
    res = exact_discounted_value(reference_model, reference_policy, unit, 0, n, 0)
    assert res.value == pytest.approx(acc / n, abs=1e-13)


def test_discounted_value_approaches_gain(reference_model, reference_policy, hyperbolic):
    sol = poisson_solve(reference_model, reference_policy, tol=1e-12)
    n = 10_000
    res = exact_discounted_value(reference_model, reference_policy, hyperbolic, 0, n, 0)
    bound = 2.0 * sol.w.max() / res.normalizer
    assert abs(res.value - sol.lam) <= bound


def test_risk_value_trivials(reference_model, reference_policy, hyperbolic):
    m = Model(reference_model.kernel, np.full((2, 1), 0.4))
    for gamma in (2.0, -2.0):
        res = exact_risk_value(m, reference_policy, hyperbolic, gamma, 0, 9, 1)
        assert res.value == pytest.approx(0.4, abs=1e-12)
    res = exact_risk_value(reference_model, reference_policy, hyperbolic, 1.7, 2, 1, 0)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(GammaNotAllowed):
        exact_risk_value(reference_model, reference_policy, hyperbolic, 0.0, 0, 5, 0)


def _enumerated_values(model, policy, schedule, gamma, k, n, x):
    """Discounted and risk values by enumerating every path of length n."""
    phi = schedule.phi_array(k, n)
    slices = [policy.entry_at(k + j) if isinstance(policy, TimeVaryingPolicy) else policy for j in range(n)]
    disc = risk = 0.0
    for tail in itertools.product(range(model.n_states), repeat=n - 1):
        path = (x,) + tail
        acts = [u.actions[y] for u, y in zip(slices, path)]
        prob = math.prod(model.kernel[a, y, z] for a, y, z in zip(acts, path, path[1:]))
        tot = sum(p * model.reward[y, a] for p, y, a in zip(phi, path, acts))
        disc += prob * tot
        risk += prob * math.exp(gamma * tot)
    return disc / phi.sum(), math.log(risk) / (gamma * phi.sum())


def test_risk_value_brute_force_small_horizon(reference_model, reference_policy, two_action_model, hyperbolic):
    # oracle: enumerate all 2^2 paths of length 3 starting at state 0
    gamma = 0.9
    P = np.array([[0.75, 0.25], [0.5, 0.5]])
    c = np.array([1.0, 0.0])
    phi = hyperbolic.phi_array(0, 3)
    acc = 0.0
    for y in range(2):
        for z in range(2):
            prob = P[0, y] * P[y, z]
            tot = phi[0] * c[0] + phi[1] * c[y] + phi[2] * c[z]
            acc += prob * math.exp(gamma * tot)
    expected = math.log(acc) / (gamma * phi.sum())
    res = exact_risk_value(reference_model, reference_policy, hyperbolic, gamma, 0, 3, 0)
    assert res.value == pytest.approx(expected, abs=1e-13)
    # both evaluators against enumeration; the window [1, 5) of the
    # time-varying policy starts before its first slice and runs past its last
    varying = TimeVaryingPolicy(2, [[0, 1], [1, 0]])
    cases = [(varying, 1, 4), (varying, 2, 2), (varying, 0, 1), (StationaryPolicy([1, 0]), 3, 4)]
    for policy, k, n in cases:
        for gamma in (0.9, -2.5):
            for x in range(2):
                disc, risk = _enumerated_values(two_action_model, policy, hyperbolic, gamma, k, n, x)
                res = exact_discounted_value(two_action_model, policy, hyperbolic, k, n, x)
                assert res.value == pytest.approx(disc, abs=1e-13)
                res = exact_risk_value(two_action_model, policy, hyperbolic, gamma, k, n, x)
                assert res.value == pytest.approx(risk, abs=1e-13)


def test_random_policy_panel_follows_the_seed(two_action_model):
    panel = random_policy_panel(two_action_model, n_slices=7, size=3, seed=5, start=2)
    rng = np.random.default_rng(5)
    for policy in panel:
        assert policy.start == 2
        assert np.array_equal(policy.table, rng.integers(0, 2, size=(7, 2)))


def test_risk_value_converges_to_perron(reference_model, reference_policy, unit):
    lam = perron_oracle(reference_model, reference_policy, 1.0)
    res = exact_risk_value(reference_model, reference_policy, unit, 1.0, 0, 1000, 0)
    assert abs(res.value - lam) <= 1.0 / 1000


def test_risk_value_large_gamma_no_overflow(reference_model, reference_policy, unit):
    res = exact_risk_value(reference_model, reference_policy, unit, 200.0, 0, 60, 0)
    assert np.isfinite(res.value)
    assert res.value <= 1.0 + 1e-9


def test_risk_value_gamma_beyond_the_float_range_refused(reference_model, reference_policy, unit):
    # |gamma| * sum phi * max|c| overflows: refused instead of a NaN value and
    # an overflow warning
    for gamma in (1e308, -1e308, 1e307):
        with pytest.raises(GammaNotAllowed):
            exact_risk_value(reference_model, reference_policy, unit, gamma, 0, 60, 0)
        with pytest.raises(GammaNotAllowed):
            simulate(reference_model, reference_policy, unit, 0, 60, 0, seed=0, reps=2, gamma=gamma)
    # up to the float range the value stays finite
    assert math.isfinite(exact_risk_value(reference_model, reference_policy, unit, 1e305, 0, 60, 0).value)


def test_risk_to_discounted_as_gamma_vanishes(reference_model, reference_policy, hyperbolic):
    n = 50
    base = exact_discounted_value(reference_model, reference_policy, hyperbolic, 0, n, 0).value
    ratios = []
    for g in (1e-1, 1e-2, 1e-3, 1e-4):
        val = exact_risk_value(reference_model, reference_policy, hyperbolic, g, 0, n, 0).value
        ratios.append(abs(val - base) / g)
    # |risk - discounted| ~ C gamma with a stable constant
    assert max(ratios) <= 2.0 * min(r for r in ratios if r > 0) + 1e-9


# -------------------------------------------------------------- monte carlo


def test_simulate_constant_reward(unit):
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 2.0))
    sim = simulate(m, StationaryPolicy([0, 0]), unit, 0, 12, 0, seed=1, reps=40)
    assert sim.discounted_estimate == pytest.approx(2.0, abs=1e-12)
    assert sim.discounted_stderr == pytest.approx(0.0, abs=1e-12)
    assert sim.risk_estimate == pytest.approx(2.0, abs=1e-12)


def test_simulate_single_rep_single_step(reference_model, reference_policy, hyperbolic):
    sim = simulate(reference_model, reference_policy, hyperbolic, 0, 1, 0, seed=5, reps=1)
    assert sim.discounted_estimate == pytest.approx(1.0)
    assert sim.risk_estimate == pytest.approx(1.0)


def test_simulate_rejects_start_state_out_of_range(hyperbolic):
    from conftest import random_model

    m = random_model(0)
    u = StationaryPolicy([0, 1, 0])
    for x0 in (3, -1):
        with pytest.raises(InvalidModel, match="start state out of range"):
            simulate(m, u, hyperbolic, 0, 5, x0, seed=1, reps=2)


def test_simulate_deterministic(reference_model, reference_policy, hyperbolic):
    a = simulate(reference_model, reference_policy, hyperbolic, 0, 30, 0, seed=9, reps=200)
    b = simulate(reference_model, reference_policy, hyperbolic, 0, 30, 0, seed=9, reps=200)
    assert a == b
    c = simulate(reference_model, reference_policy, hyperbolic, 0, 30, 0, seed=10, reps=200)
    assert c.discounted_estimate != a.discounted_estimate


def _scalar_simulated_sums(model, policy, schedule, k, n, x0, seed, reps):
    """The per-replicate phi-weighted reward sums, one path at a time: the
    reference of the blocked simulator."""
    phi = schedule.phi_array(k, n)
    cum = model.kernel.cumsum(axis=2)
    weighted = np.empty(reps)
    for r in range(reps):
        draws = np.random.default_rng([seed, r]).random(max(n - 1, 0))
        state, total = x0, 0.0
        for j in range(n):
            u = policy.entry_at(k + j).actions[state]
            total += phi[j] * model.reward[state, u]
            if j < n - 1:
                state = min(int(np.searchsorted(cum[u, state], draws[j], side="right")), model.n_states - 1)
        weighted[r] = total
    return weighted


@pytest.mark.parametrize("seed", range(5))
def test_blocked_simulation_equals_the_scalar_loop(seed, hyperbolic):
    from conftest import random_model

    m = random_model(seed, 4, 3)
    policy = TimeVaryingPolicy(1, np.random.default_rng(seed).integers(0, 3, (6, 4)))
    for n in (1, 2, 8, 50):
        norm = hyperbolic.partial_sum(2, n)
        weighted = _scalar_simulated_sums(m, policy, hyperbolic, 2, n, 1, seed, 300)
        sim = simulate(m, policy, hyperbolic, 2, n, 1, seed=seed, reps=300, gamma=0.7)
        assert sim.discounted_estimate == float((weighted / norm).mean())
        assert sim.discounted_stderr == float((weighted / norm).std(ddof=1) / math.sqrt(300))
        logs = 0.7 * weighted
        assert sim.risk_estimate == (logs.max() + math.log(float(np.exp(logs - logs.max()).mean()))) / (0.7 * norm)


def test_simulation_blocks_do_not_change_the_result(monkeypatch, hyperbolic):
    from conftest import random_model

    m = random_model(3, 4, 3)
    policy = TimeVaryingPolicy(0, np.random.default_rng(3).integers(0, 3, (5, 4)))
    whole = simulate(m, policy, hyperbolic, 1, 8, 2, seed=3, reps=30)
    # blocks of 50 // 7 = 7 replicates, the last one of 2
    monkeypatch.setattr(longrun.evaluator, "_SIM_BLOCK", 50)
    assert simulate(m, policy, hyperbolic, 1, 8, 2, seed=3, reps=30) == whole


def test_a_draw_above_the_rounded_row_mass_lands_in_the_last_state(monkeypatch, unit):
    # a row may sum to 1 - 1e-13, below the largest draws of a generator
    m = Model(np.array([[[0.5, 0.5 - 1e-13], [0.5, 0.5 - 1e-13]]]), np.array([[0.0], [1.0]]))

    class LargestDraws:
        def __init__(self, seed):
            pass

        def random(self, size):
            return np.full(size, 1.0 - 2.0**-53)

    monkeypatch.setattr(np.random, "default_rng", LargestDraws)
    sim = simulate(m, StationaryPolicy([0, 0]), unit, 0, 5, 0, seed=0, reps=3)
    assert sim.discounted_estimate == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize(
    "field, value", [("reps", 2.5), ("reps", True), ("reps", 0), ("reps", "3"), ("seed", -1), ("seed", 1.0),
                     ("seed", True)]
)
def test_simulate_refuses_fractional_bool_and_negative_counts(reference_model, reference_policy, hyperbolic,
                                                              field, value):
    # reps = 2.5 and reps = True raised a bare TypeError, seed = -1 a bare ValueError
    kwargs = {"seed": 1, "reps": 3, field: value}
    with pytest.raises(InvalidModel, match=field if field == "seed" else "replicate count"):
        simulate(reference_model, reference_policy, hyperbolic, 0, 5, 0, **kwargs)


@pytest.mark.parametrize("field, value", [("size", 2.5), ("size", True), ("size", 0), ("seed", -1), ("seed", 0.5),
                                          ("n_slices", 2.0), ("n_slices", True), ("n_slices", 0), ("n_slices", -1)])
def test_policy_panel_refuses_fractional_bool_and_negative_counts(two_action_model, field, value):
    # size = 2.5 raised a TypeError, seed = -1 a ValueError; n_slices = 2.0
    # and True raised a TypeError, 0 an index error, -1 a ValueError
    kwargs = {"n_slices": 4, "size": 3, "seed": 1, field: value}
    match = {"size": "policy panel size", "seed": "seed", "n_slices": "panel slice count"}[field]
    with pytest.raises(InvalidModel, match=match):
        random_policy_panel(two_action_model, **kwargs)


def test_seeds_have_no_upper_limit(two_action_model, reference_model, reference_policy):
    assert len(random_policy_panel(two_action_model, 4, 2, seed=2**70)) == 2
    assert simulate(reference_model, reference_policy, UnitSchedule(), 0, 5, 0, seed=2**70, reps=2).reps == 2


def test_simulate_matches_exact_within_stderr(unit):
    # memoryless kernel: every scheduled state is an independent draw
    kernel = np.array([[[0.3, 0.7], [0.3, 0.7]]])
    m = Model(kernel, np.array([[1.0], [0.0]]))
    u = StationaryPolicy([0, 0])
    exact = exact_discounted_value(m, u, unit, 0, 25, 0).value
    sim = simulate(m, u, unit, 0, 25, 0, seed=123, reps=4000)
    assert abs(sim.discounted_estimate - exact) <= 4.0 * sim.discounted_stderr


def test_simulate_error_scales_like_sqrt_reps(unit):
    kernel = np.array([[[0.3, 0.7], [0.3, 0.7]]])
    m = Model(kernel, np.array([[1.0], [0.0]]))
    u = StationaryPolicy([0, 0])
    exact = exact_discounted_value(m, u, unit, 0, 8, 0).value
    reps_grid = [100, 1000, 10000]
    seeds = range(16)
    rmse = []
    for reps in reps_grid:
        errs = [
            simulate(m, u, unit, 0, 8, 0, seed=s, reps=reps).discounted_estimate - exact
            for s in seeds
        ]
        rmse.append(math.sqrt(np.mean(np.square(errs))))
    slope = np.polyfit(np.log(reps_grid), np.log(rmse), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.1)


# ------------------------------------------------------------------- checks


def test_discounted_optimality_check_passes(reference_model, hyperbolic):
    rep = discounted_optimality_check(
        reference_model, hyperbolic, 0, [100, 1000], panel_size=20, panel_seed=3
    )
    assert rep.passed
    assert rep.context["lambda"] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_discounted_optimality_check_two_actions(two_action_model, hyperbolic):
    rep = discounted_optimality_check(
        two_action_model, hyperbolic, 2, [50, 500], panel_size=20, panel_seed=3
    )
    assert rep.passed


def test_discounted_optimality_check_needs_a_horizon(reference_model, hyperbolic):
    # an empty grid used to raise a bare ValueError from max()
    with pytest.raises(InvalidModel, match="at least one horizon"):
        discounted_optimality_check(reference_model, hyperbolic, 0, [], panel_size=2)


@pytest.mark.parametrize("grid", [[4.7], ["5"], [True]], ids=["fraction", "text", "bool"])
def test_discounted_optimality_check_refuses_non_integer_horizons(reference_model, hyperbolic, grid):
    # 4.7 used to check n = 4, "5" n = 5 and True n = 1
    with pytest.raises(InvalidModel, match="integer horizons"):
        discounted_optimality_check(reference_model, hyperbolic, 0, grid, panel_size=2)


def test_adversarial_policy_stays_below_gain(reference_model, hyperbolic):
    # with c = (1, 0) the empirical value of any policy is below the gain plus slack;
    # a reward-minimizing kernel row keeps it strictly below
    sol = relative_value_iteration(reference_model, tol=1e-12)
    res = exact_discounted_value(reference_model, StationaryPolicy([0, 0]), hyperbolic, 0, 2000, 1)
    assert res.value < sol.lam + sol.w.max() / res.normalizer


def test_reward_minimizing_policy_strictly_below_gain(two_action_model, hyperbolic):
    q = two_action_model.reward
    adversary = StationaryPolicy(np.argmin(q, axis=1))
    sol = relative_value_iteration(two_action_model, tol=1e-12)
    res = exact_discounted_value(two_action_model, adversary, hyperbolic, 0, 5000, 0)
    assert res.value < sol.lam


def test_unit_risk_truncation_matches_direct_form(reference_model, reference_policy, unit):
    # phi == 1: the truncation must equal (1/(n gamma)) ln E[exp(gamma sum c)],
    # here recomputed by brute-force path enumeration
    gamma, n = 1.3, 6
    P = np.array([[0.75, 0.25], [0.5, 0.5]])
    c = np.array([1.0, 0.0])
    acc = 0.0
    for bits in range(2 ** (n - 1)):
        path = [0]
        for j in range(n - 1):
            path.append((bits >> j) & 1)
        prob = math.prod(P[a, b] for a, b in zip(path, path[1:]))
        acc += prob * math.exp(gamma * sum(c[s] for s in path))
    expected = math.log(acc) / (gamma * n)
    res = exact_risk_value(reference_model, reference_policy, unit, gamma, 0, n, 0)
    assert res.value == pytest.approx(expected, abs=1e-13)


def test_constant_reward_check_has_zero_slack(unit):
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 1.0))
    rep = discounted_optimality_check(m, unit, 0, [10, 100], panel_size=5, panel_seed=0)
    for row in rep.rows[:2]:
        assert row.value <= 1e-12


def test_risk_upper_bound_check(reference_model, hyperbolic):
    panel = random_policy_panel(reference_model, n_slices=300, size=30, seed=11)
    rep = risk_upper_bound_check(reference_model, hyperbolic, 0.5, 0, 300, panel)
    assert rep.passed


def test_risk_upper_bound_check_includes_optimal_policy(two_action_model, hyperbolic):
    gamma = 0.5
    sol = risk_relative_value_iteration(two_action_model, gamma, tol=1e-12)
    panel = random_policy_panel(two_action_model, n_slices=200, size=20, seed=2)
    panel.append(sol.policy)
    rep = risk_upper_bound_check(two_action_model, hyperbolic, gamma, 0, 200, panel)
    assert rep.passed
    # the optimal stationary policy sits within the slack of the gain
    last = rep.rows[-1]
    assert last.value <= last.bound
    assert last.value >= sol.lam - 0.05


def test_risk_upper_bound_needs_positive_gamma(reference_model, hyperbolic):
    with pytest.raises(GammaNotAllowed):
        risk_upper_bound_check(reference_model, hyperbolic, -0.5, 0, 10, [])


def test_sandwich_check(reference_model, reference_policy, hyperbolic):
    for gamma in (0.1, 1.0, 5.0):
        rep = sandwich_check(reference_model, reference_policy, hyperbolic, gamma, 0, 50, 0)
        assert rep.passed


def test_sandwich_spread_widens_with_gamma(reference_model, reference_policy, hyperbolic):
    spreads = []
    for gamma in (0.5, 1.0, 5.0, 20.0):
        rep = sandwich_check(reference_model, reference_policy, hyperbolic, gamma, 0, 40, 0)
        spreads.append(rep.context["upper"] - rep.context["lower"])
    assert all(b >= a - 1e-12 for a, b in zip(spreads, spreads[1:]))


def test_sandwich_constant_reward_degenerate(unit):
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 0.6))
    rep = sandwich_check(m, StationaryPolicy([0, 0]), unit, 1.0, 0, 20, 0)
    assert rep.context["upper"] == pytest.approx(rep.context["lower"], abs=1e-12)


def test_check_failure_raises_with_report(reference_model, hyperbolic):
    # an impossible bound must surface as CheckFailed carrying the report
    panel = random_policy_panel(reference_model, n_slices=10, size=1, seed=0)
    try:
        risk_upper_bound_check(reference_model, hyperbolic, 0.5, 0, 10, panel, tol=1e-10)
    except CheckFailed:
        pytest.fail("well-posed check should pass")


def test_checks_never_fail_on_random_ergodic_models(hyperbolic, unit):
    # the inequality audits restate solved facts with explicit slack, so any
    # model passing the preconditions must sail through
    from conftest import random_model

    for seed in range(5):
        m = random_model(seed * 31)
        for sched in (hyperbolic, unit):
            rep = discounted_optimality_check(m, sched, 1, [30, 120], panel_size=10, panel_seed=seed)
            assert rep.passed
            panel = random_policy_panel(m, n_slices=100, size=10, seed=seed)
            for gamma in (0.3, 1.0):
                rep = risk_upper_bound_check(m, sched, gamma, 1, 100, panel)
                assert rep.passed


# ------------------------------------------------------- rounding bounds


def longdouble_values(model, actions, schedule, gamma, k, n, x):
    """The discounted (gamma = 0) or risk value by the plain forward
    recursion in extended precision (np.longdouble, 64-bit significand on
    x86), with the same phi and normalizer as the evaluators."""
    ld = np.longdouble
    phi = schedule.phi_array(k, n).astype(ld)
    norm = ld(schedule.partial_sum(k, n))
    c = model.reward[np.arange(model.n_states), actions].astype(ld)
    K = model.kernel[actions, np.arange(model.n_states)].astype(ld)
    v = np.zeros(model.n_states, dtype=ld)
    v[x] = 1
    total = ld(0)
    for j in range(n):
        if j:
            v = v @ K
        if gamma == 0.0:
            total += phi[j] * (v * c).sum()
        else:
            v = v * np.exp(ld(gamma) * phi[j] * c)
    return total / norm if gamma == 0.0 else np.log(v.sum()) / (ld(gamma) * norm)


@pytest.mark.parametrize("gamma", [0.0, 1e-8, -1e-6, 0.5, -2.0])
@pytest.mark.parametrize("seed", range(4))
def test_rounding_bounds_the_distance_to_an_extended_precision_recursion(seed, gamma, hyperbolic, unit):
    from conftest import random_model

    m = random_model(seed)
    actions = np.array([seed % 2, 0, 1])
    for sched, n in itertools.product((hyperbolic, unit), (10, 300)):
        if gamma == 0.0:
            [(res, rounding)] = longrun.evaluator._discounted(m, [StationaryPolicy(actions)], sched, 0, [n], [0])
            assert res == exact_discounted_value(m, StationaryPolicy(actions), sched, 0, n, 0)
        else:
            [(res, rounding)] = longrun.evaluator._risk(m, [StationaryPolicy(actions)], sched, [gamma], 0, n, [0])
            assert res == exact_risk_value(m, StationaryPolicy(actions), sched, gamma, 0, n, 0)
        want = longdouble_values(m, actions, sched, gamma, 0, n, 0)
        assert abs(np.longdouble(res.value) - want) <= rounding()


@pytest.mark.parametrize("gamma, seeds", [(1e-6, 20), (1e-8, 5)])
def test_sandwich_holds_at_small_gamma(gamma, seeds):
    # with the flat slack alone, gamma = 1e-6 failed 13 of the 160 cases of
    # 20 seeds (worst excess 1.26e-8) and gamma = 1e-8 140 of them, though
    # the ordering holds exactly; the rounding of the risk values grows
    # like 1 / gamma
    from longrun import HyperbolicSchedule
    from longrun.cli import gen_model

    for seed in range(seeds):
        m = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": seed})
        for sched in (HyperbolicSchedule(1.0, 1.0), UnitSchedule()):
            for n in (10, 50, 100, 1000):
                assert sandwich_check(m, StationaryPolicy([0, 0, 0]), sched, gamma, 0, n, 0).passed


@pytest.mark.parametrize("row", [0, 1])
@pytest.mark.parametrize("gamma", [1e-6, 0.5])
def test_sandwich_fails_an_ordering_broken_by_more_than_its_bound(monkeypatch, reference_model, reference_policy,
                                                                  unit, gamma, row):
    # the discounted value moved to a row's bound still passes; one ulp
    # beyond it, the ordering is broken by more than the bound and fails
    rep = sandwich_check(reference_model, reference_policy, unit, gamma, 0, 100, 0)
    inner = longrun.evaluator._discounted
    lower, upper = rep.context["lower"], rep.context["upper"]
    [(true_mid, rounding)] = inner(reference_model, [reference_policy], unit, 0, [100], [0])
    # row 0 bounds lower by mid + slack, row 1 bounds mid by upper + slack
    slack = rep.rows[row].bound - (rep.context["mid"] if row == 0 else upper)
    edge = lower - slack if row == 0 else upper + slack
    for moved, passes in ((edge, True), (math.nextafter(edge, -math.inf if row == 0 else math.inf), False)):
        monkeypatch.setattr(longrun.evaluator, "_discounted",
                            lambda *args: [(dataclasses.replace(true_mid, value=moved), rounding)])
        if passes:
            assert sandwich_check(reference_model, reference_policy, unit, gamma, 0, 100, 0).passed
        else:
            with pytest.raises(CheckFailed):
                sandwich_check(reference_model, reference_policy, unit, gamma, 0, 100, 0)


def test_sandwich_fails_with_the_risk_values_swapped(monkeypatch, reference_model, reference_policy, unit):
    # a mis-signed gamma breaks both orderings by about gamma * variance,
    # far beyond the rounding bound at gamma = 0.5
    inner = longrun.evaluator._risk
    monkeypatch.setattr(longrun.evaluator, "_risk", lambda m, p, s, g, *rest: inner(m, p, s, [-v for v in g], *rest))
    with pytest.raises(CheckFailed) as exc:
        sandwich_check(reference_model, reference_policy, unit, 0.5, 0, 100, 0)
    assert not any(r.passed for r in exc.value.report.rows)


def test_panel_refuses_more_entries_than_its_cap_before_drawing(two_action_model):
    import tracemalloc

    cap = longrun.evaluator._PANEL_ENTRIES
    n_slices = cap // 2 + 1  # two states: one entry over the cap per policy
    tracemalloc.start()
    try:
        with pytest.raises(InvalidModel, match="exceeds"):
            random_policy_panel(two_action_model, n_slices, 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_discounted_check_refuses_an_oversized_panel_before_solving(monkeypatch, unit):
    # an identity kernel is not ergodic, so the solve would raise NotErgodic;
    # the panel is drawn first, so its cap wins and no value is computed
    calls = []
    inner = longrun.evaluator._forward
    monkeypatch.setattr(longrun.evaluator, "_forward", lambda *args: calls.append(args) or inner(*args))
    frozen = Model(np.array([np.eye(2), np.eye(2)]), np.zeros((2, 2)))
    with pytest.raises(InvalidModel, match="exceeds"):
        discounted_optimality_check(frozen, unit, 0, [67109], panel_size=1000)
    assert not calls


# ------------------------------------------------- one batched recursion


def one_row_forward(model, actions, x, tilt):
    """The forward recursion of one member on its own, a vector-matrix
    product per step: the floats every batched member must reproduce."""
    n, s = actions.shape
    z, log_scale, mass, shift = np.empty((n, s)), np.empty(n), np.zeros(s), 0.0
    mass[x] = 1.0
    with np.errstate(divide="ignore"):
        for j in range(n):
            e = np.log(mass) + tilt[j]
            shift += e.max()
            z[j], log_scale[j] = np.exp(e - e.max()), shift
            mass = z[j] @ model.kernel[actions[j], np.arange(s)]
    return z, log_scale


def batch_case(s, zeros, size=7, n_slices=30):
    """A seeded two-action model on s states (a third of its kernel entries
    zero if zeros), a panel of time-varying policies and mixed start states."""
    rng = np.random.default_rng([s, zeros])
    kernel = rng.random((2, s, s)) + np.eye(s)
    if zeros:
        kernel[rng.random(kernel.shape) < 1 / 3] = 0.0
        kernel += np.eye(s)
    kernel /= kernel.sum(axis=2, keepdims=True)
    model = Model(kernel, rng.normal(size=(s, 2)))
    panel = [TimeVaryingPolicy(1, rng.integers(0, 2, size=(n_slices, s))) for _ in range(size)]
    return model, panel, rng.integers(0, s, size=size).tolist()


def members_of(results):
    """(value, normalizer, horizon, start state, rounding bound) of every
    yielded result."""
    return [(res.value, res.normalizer, res.horizon, res.start_x, rounding()) for res, rounding in results]


@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zero-entries"])
@pytest.mark.parametrize("s", [2, 3, 50])
def test_batched_members_equal_single_member_passes(s, zeros, hyperbolic):
    model, panel, xs = batch_case(s, zeros)
    horizons = [1, 12, 30, 5]
    gammas = [0.5, -0.5, 2.0, -1e-6, 1e-8, -3.0, 0.25]
    discounted = members_of(longrun.evaluator._discounted(model, panel, hyperbolic, 1, horizons, xs))
    assert discounted == [
        members_of(longrun.evaluator._discounted(model, [p], hyperbolic, 1, [n], [x]))[0]
        for p, x in zip(panel, xs) for n in horizons
    ]
    assert [v for v, *_ in discounted] == [
        exact_discounted_value(model, p, hyperbolic, 1, n, x).value for p, x in zip(panel, xs) for n in horizons
    ]
    risk = members_of(longrun.evaluator._risk(model, panel, hyperbolic, gammas, 1, 30, xs))
    assert risk == [
        members_of(longrun.evaluator._risk(model, [p], hyperbolic, [g], 1, 30, [x]))[0]
        for p, g, x in zip(panel, gammas, xs)
    ]
    assert [v for v, *_ in risk] == [
        exact_risk_value(model, p, hyperbolic, g, 1, 30, x).value for p, g, x in zip(panel, gammas, xs)
    ]


@pytest.mark.parametrize("gathered", [None, 1, 4], ids=["default-gather", "gather-1-step", "gather-4-steps"])
@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zero-entries"])
@pytest.mark.parametrize("s", [2, 3, 50])
def test_every_batched_row_is_the_one_member_recursion(s, zeros, gathered, monkeypatch):
    # np.matmul over the batch must give each member the floats of z @ K on
    # its own rows: a change in numpy's matmul dispatch fails here by name.
    # The step kernels are gathered some steps at a time; 4 steps leave a
    # shorter last run of the 29 steps that read a kernel
    model, panel, xs = batch_case(s, zeros)
    if gathered is not None:
        monkeypatch.setattr(longrun.evaluator, "_GATHER_FLOATS", gathered * len(panel) * s * s)
    rng = np.random.default_rng(s)
    actions = np.stack([p.table for p in panel])
    tilt = rng.normal(size=actions.shape) * np.array([0.0, 1e-6, 0.5, 40.0, -2.0, -1e-8, 3.0])[:, None, None]
    z, log_scale = longrun.evaluator._forward(model, actions, np.array(xs), tilt)
    for b in range(len(panel)):
        want_z, want_log_scale = one_row_forward(model, actions[b], xs[b], tilt[b])
        assert np.array_equal(z[b], want_z) and np.array_equal(log_scale[b], want_log_scale)


def counted_forward(monkeypatch):
    """Record the batch size of every _forward call."""
    sizes, inner = [], longrun.evaluator._forward
    monkeypatch.setattr(longrun.evaluator, "_forward", lambda m, actions, *rest: sizes.append(len(actions))
                        or inner(m, actions, *rest))
    return sizes


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_blocks_of_members_match_one_block(monkeypatch, width, hyperbolic):
    # a block holds width members (_SIM_BLOCK floats of z); every row is the
    # same float as in one block, and each block is one _forward call
    model, panel, xs = batch_case(3, True)
    horizons, gammas = [30, 4], [0.5, -0.5, 2.0, -1e-6, 1e-8, -3.0, 0.25]
    whole = (members_of(longrun.evaluator._discounted(model, panel, hyperbolic, 1, horizons, xs)),
             members_of(longrun.evaluator._risk(model, panel, hyperbolic, gammas, 1, 30, xs)))
    monkeypatch.setattr(longrun.evaluator, "_SIM_BLOCK", width * 30 * 3 + 2)
    sizes = counted_forward(monkeypatch)
    assert (members_of(longrun.evaluator._discounted(model, panel, hyperbolic, 1, horizons, xs)),
            members_of(longrun.evaluator._risk(model, panel, hyperbolic, gammas, 1, 30, xs))) == whole
    blocks = [min(width, 7 - lo) for lo in range(0, 7, width)]
    assert sizes == blocks + blocks


def readme_model():
    from longrun.cli import gen_model

    return gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 7})


def test_each_check_makes_one_forward_call(monkeypatch, hyperbolic):
    # the README model and verify's panels: the discounted check evaluates
    # its 101 members at both horizons in one pass, the risk check its 100
    # policies (once 100 calls), the sandwich both signs of gamma and the
    # margin every start state (once one call per state)
    from longrun import near_optimality_margin

    model = readme_model()
    sizes = counted_forward(monkeypatch)
    discounted_optimality_check(model, hyperbolic, 0, [100, 500], panel_size=100, panel_seed=1)
    assert sizes == [101]
    panel = random_policy_panel(model, n_slices=500, size=100, seed=2)
    risk_upper_bound_check(model, hyperbolic, 0.5, 0, 500, panel)
    assert sizes == [101, 100]
    sandwich_check(model, StationaryPolicy([0, 0, 0]), hyperbolic, 0.5, 0, 50, 0)
    assert sizes == [101, 100, 2, 1]
    near_optimality_margin(model, StationaryPolicy([0, 0, 0]), hyperbolic, 0.1, -0.01, 0, 1000)
    assert sizes == [101, 100, 2, 1, 3]


def test_verify_panels_one_forward_call_per_block(monkeypatch, hyperbolic):
    # blocks of 30 members: the 101-member discounted pass takes four calls
    model = readme_model()
    want = discounted_optimality_check(model, hyperbolic, 0, [100, 500], panel_size=100, panel_seed=1)
    monkeypatch.setattr(longrun.evaluator, "_SIM_BLOCK", 30 * 500 * 3)
    sizes = counted_forward(monkeypatch)
    assert discounted_optimality_check(model, hyperbolic, 0, [100, 500], panel_size=100, panel_seed=1) == want
    assert sizes == [30, 30, 30, 11]


@pytest.mark.parametrize("x", [5, -1, True, 1.0, "0"])
def test_risk_upper_bound_check_refuses_a_bad_start_before_solving(monkeypatch, two_action_model, hyperbolic, x):
    # x = 5 and x = 1.0 raised a bare IndexError reading w[x], x = True a TypeError
    monkeypatch.setattr(longrun.evaluator, "risk_relative_value_iteration", None)
    with pytest.raises(InvalidModel, match="start state"):
        risk_upper_bound_check(two_action_model, hyperbolic, 0.5, 0, 10, [StationaryPolicy([0, 1])], x=x)


@pytest.mark.parametrize("panel", [[], (), iter([])], ids=["list", "tuple", "iterator"])
def test_risk_upper_bound_check_refuses_an_empty_panel(monkeypatch, two_action_model, hyperbolic, panel):
    # an empty panel passed with zero rows, vacuously
    monkeypatch.setattr(longrun.evaluator, "risk_relative_value_iteration", None)
    with pytest.raises(InvalidModel, match="policy panel size"):
        risk_upper_bound_check(two_action_model, hyperbolic, 0.5, 0, 10, panel)


def test_risk_upper_bound_check_reads_a_panel_iterator(two_action_model, hyperbolic):
    panel = random_policy_panel(two_action_model, 10, 4, 3)
    assert risk_upper_bound_check(two_action_model, hyperbolic, 0.5, 0, 10, iter(panel)).rows == \
        risk_upper_bound_check(two_action_model, hyperbolic, 0.5, 0, 10, panel).rows


def test_a_block_also_bounds_each_steps_kernel_rows(monkeypatch, hyperbolic):
    # with more states than steps a step gathers B x s x s kernel entries,
    # more than the B x n x s of z: blocks of two members on 50 states
    model, panel, xs = batch_case(50, False)
    whole = members_of(longrun.evaluator._risk(model, panel, hyperbolic, [0.5] * 7, 1, 5, xs))
    monkeypatch.setattr(longrun.evaluator, "_SIM_BLOCK", 2 * 50 * 50 + 1)
    sizes = counted_forward(monkeypatch)
    assert members_of(longrun.evaluator._risk(model, panel, hyperbolic, [0.5] * 7, 1, 5, xs)) == whole
    assert sizes == [2, 2, 2, 1]
