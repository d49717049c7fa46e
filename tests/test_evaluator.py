import itertools
import math

import numpy as np
import pytest

from longrun import (
    CheckFailed,
    GammaNotAllowed,
    Model,
    StationaryPolicy,
    TimeVaryingPolicy,
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


def test_simulate_deterministic(reference_model, reference_policy, hyperbolic):
    a = simulate(reference_model, reference_policy, hyperbolic, 0, 30, 0, seed=9, reps=200)
    b = simulate(reference_model, reference_policy, hyperbolic, 0, 30, 0, seed=9, reps=200)
    assert a == b
    c = simulate(reference_model, reference_policy, hyperbolic, 0, 30, 0, seed=10, reps=200)
    assert c.discounted_estimate != a.discounted_estimate


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
