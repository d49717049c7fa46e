import numpy as np
import pytest

from longrun import (
    EnumerationTooLarge,
    InvalidModel,
    Model,
    NotErgodic,
    StationaryPolicy,
    UnitSchedule,
    cesaro_values,
    ergodicity_coefficient,
    invariant_measure,
    phi_partial_sum,
    poisson_solve,
    policy_enumeration_oracle,
    relative_value_iteration,
    span_seminorm,
    stationary_distribution,
    time_extended_solve,
)

from conftest import random_model


# --------------------------------------------------- relative value iteration


def test_rvi_single_state_picks_best_action():
    m = Model(np.ones((2, 1, 1)), np.array([[0.3, 0.7]]))
    sol = relative_value_iteration(m, tol=1e-12)
    assert sol.lam == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(sol.w, [0.0])
    assert sol.policy.actions == (1,)


def test_rvi_reference_solution(reference_model):
    sol = relative_value_iteration(reference_model, tol=1e-12)
    assert sol.lam == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert np.allclose(sol.w, [4.0 / 3.0, 0.0], atol=1e-9)
    assert sol.w.min() == 0.0
    assert sol.residual <= 1e-12


def test_rvi_constant_reward():
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 5.0))
    sol = relative_value_iteration(m, tol=1e-12)
    assert sol.lam == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(sol.w, 0.0, atol=1e-12)


def test_rvi_requires_ergodicity():
    kernel = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    m = Model(kernel, np.zeros((2, 1)))
    with pytest.raises(NotErgodic):
        relative_value_iteration(m)


def test_rvi_span_bound_invariant():
    for seed in range(10):
        m = random_model(seed)
        sol = relative_value_iteration(m, tol=1e-10)
        delta = ergodicity_coefficient(m)
        assert span_seminorm(sol.w) <= m.reward_span() / (1.0 - delta) + 1e-9


def test_rvi_anchor_independence(two_action_model):
    lams = [relative_value_iteration(two_action_model, tol=1e-12, anchor=a).lam for a in (0, 1)]
    assert lams[0] == pytest.approx(lams[1], abs=1e-11)


def test_rvi_reward_shift_covariance(two_action_model):
    sol = relative_value_iteration(two_action_model, tol=1e-12)
    shifted = Model(two_action_model.kernel, two_action_model.reward + 2.5)
    sol2 = relative_value_iteration(shifted, tol=1e-12)
    assert sol2.lam == pytest.approx(sol.lam + 2.5, abs=1e-10)
    assert sol2.policy.actions == sol.policy.actions


def test_bellman_span_contraction():
    # one sweep contracts span distance by at least the ergodicity coefficient
    from longrun.average_solver import _bellman_values

    rng = np.random.default_rng(3)
    for seed in range(10):
        m = random_model(seed)
        delta = ergodicity_coefficient(m)
        w1 = rng.normal(size=m.n_states)
        w2 = rng.normal(size=m.n_states)
        f1, _ = _bellman_values(m, w1)
        f2, _ = _bellman_values(m, w2)
        assert span_seminorm(f1 - f2) <= delta * span_seminorm(w1 - w2) + 1e-12


# ----------------------------------------------------------- fixed-policy ops


def test_invariant_measure_reference(reference_model, reference_policy):
    mu = invariant_measure(reference_model, reference_policy)
    assert np.allclose(mu, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_invariant_measure_doubly_stochastic():
    kernel = np.array([[[0.3, 0.7], [0.7, 0.3]]])
    m = Model(kernel, np.zeros((2, 1)))
    mu = invariant_measure(m, StationaryPolicy([0, 0]))
    assert np.allclose(mu, [0.5, 0.5], atol=1e-12)


def test_invariant_measure_single_state():
    m = Model(np.ones((1, 1, 1)), np.zeros((1, 1)))
    assert np.allclose(invariant_measure(m, StationaryPolicy([0])), [1.0])


def test_stationary_distribution_fixed_point():
    for seed in range(10):
        m = random_model(seed)
        P = m.policy_kernel(StationaryPolicy([0] * m.n_states))
        mu = stationary_distribution(P)
        assert np.allclose(mu @ P, mu, atol=1e-12)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert (mu >= 0).all()


def test_poisson_reference(reference_model, reference_policy):
    sol = poisson_solve(reference_model, reference_policy, tol=1e-12)
    assert sol.lam == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert np.allclose(sol.w, [4.0 / 3.0, 0.0], atol=1e-9)


def test_poisson_constant_reward():
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 1.5))
    sol = poisson_solve(m, StationaryPolicy([0, 0]), tol=1e-12)
    assert sol.lam == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(sol.w, 0.0, atol=1e-12)


def test_poisson_indicator_reward_uniform_kernel():
    m = Model(np.full((1, 2, 2), 0.5), np.array([[1.0], [0.0]]))
    sol = poisson_solve(m, StationaryPolicy([0, 0]), tol=1e-12)
    assert sol.lam == pytest.approx(0.5, abs=1e-12)


def test_poisson_never_beats_optimum():
    import itertools

    for seed in range(5):
        m = random_model(seed)
        opt = relative_value_iteration(m, tol=1e-11).lam
        for assignment in itertools.product(range(m.n_actions), repeat=m.n_states):
            sol = poisson_solve(m, StationaryPolicy(assignment), tol=1e-11)
            assert sol.lam <= opt + 1e-9


# ------------------------------------------------------------ enumeration


def test_enumeration_single_state():
    m = Model(np.ones((2, 1, 1)), np.array([[0.3, 0.7]]))
    lam, best = policy_enumeration_oracle(m)
    assert lam == pytest.approx(0.7)
    assert best.actions == (1,)


def test_enumeration_single_action(reference_model, reference_policy):
    lam, best = policy_enumeration_oracle(reference_model)
    assert lam == pytest.approx(poisson_solve(reference_model, reference_policy).lam, abs=1e-10)


def test_enumeration_matches_rvi():
    for seed in range(10):
        m = random_model(seed)
        lam_star, _ = policy_enumeration_oracle(m)
        sol = relative_value_iteration(m, tol=1e-12)
        assert abs(sol.lam - lam_star) <= 1e-8


def test_enumeration_guard():
    m = random_model(0, n_states=3, n_actions=2)
    with pytest.raises(EnumerationTooLarge):
        policy_enumeration_oracle(m, max_policies=4)


# ----------------------------------------------------- time-extended solution


def test_time_extended_unit_reproduces_stationary(reference_model):
    sol = relative_value_iteration(reference_model, tol=1e-12)
    ext = time_extended_solve(reference_model, UnitSchedule(), k=0, n_slices=60, tol=1e-12)
    delta = ergodicity_coefficient(reference_model)
    span_c = reference_model.reward_span()
    # the first slice carries the certified truncation error; deeper slices
    # only had fewer backward sweeps, so their error grows geometrically
    assert span_seminorm(ext.w_grid[0] - sol.w) <= ext.truncation_bound + 1e-10
    for j in range(60):
        bound = delta ** (60 - j) * span_c / (1.0 - delta)
        assert span_seminorm(ext.w_grid[j] - sol.w) <= bound + 1e-10
    assert ext.lambda_seq[0] == pytest.approx(sol.lam, abs=1e-10)


def test_time_extended_single_action_is_poisson_recursion(reference_model, reference_policy, hyperbolic):
    # with one action the sup is vacuous: slices must satisfy the fixed-policy
    # recursion w(i,x) + lt(i) phi(i) = phi(i) c(x) + P w(i+1, .) up to the
    # per-slice normalizing shifts
    ext = time_extended_solve(reference_model, hyperbolic, k=0, n_slices=40)
    P = reference_model.policy_kernel(reference_policy)
    c = reference_model.policy_reward(reference_policy)
    phi = hyperbolic.phi_array(0, 41)
    for j in range(39):
        lhs = ext.w_grid[j] + ext.lambda_seq[j] * phi[j]
        rhs = phi[j] * c + P @ ext.w_grid[j + 1]
        assert span_seminorm(lhs - rhs) <= 1e-12


def test_time_extended_constant_reward(hyperbolic):
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 2.0))
    ext = time_extended_solve(m, hyperbolic, k=0, n_slices=30)
    assert np.allclose(ext.lambda_seq, 2.0, atol=1e-12)
    assert np.allclose(ext.w_grid, 0.0, atol=1e-12)


def test_time_extended_slices_are_min_zero(hyperbolic):
    for seed in range(3):
        m = random_model(seed)
        ext = time_extended_solve(m, hyperbolic, k=2, n_slices=25)
        assert np.allclose(ext.w_grid.min(axis=1), 0.0, atol=0.0)
        assert (ext.policy_seq >= 0).all() and (ext.policy_seq < m.n_actions).all()


def test_time_extended_default_window(reference_model):
    ext = time_extended_solve(reference_model, UnitSchedule(), k=0, tol=1e-8)
    assert ext.truncation_bound <= 1e-8
    # the window is derived from tol, which must be a positive finite number
    for tol in (0.0, -1e-8, float("nan"), float("inf")):
        with pytest.raises(InvalidModel):
            time_extended_solve(reference_model, UnitSchedule(), k=0, tol=tol)
        with pytest.raises(InvalidModel):
            relative_value_iteration(reference_model, tol=tol)


def test_cesaro_values(reference_model, hyperbolic):
    ext = time_extended_solve(reference_model, UnitSchedule(), k=0, n_slices=50)
    vals = cesaro_values(ext, UnitSchedule(), [1, 10])
    # unit schedule: plain running means of the increments
    assert vals[0] == pytest.approx(ext.lambda_seq[0])
    assert vals[1] == pytest.approx(ext.lambda_seq[:10].mean())

    m = Model(reference_model.kernel, np.full((2, 1), 3.0))
    ext_c = time_extended_solve(m, hyperbolic, k=0, n_slices=20)
    assert np.allclose(cesaro_values(ext_c, hyperbolic, [5, 20]), 3.0, atol=1e-12)


@pytest.mark.parametrize("grid", [[4.7], ["5"], [True], []], ids=["fraction", "text", "bool", "empty"])
def test_cesaro_values_refuses_bad_grids(reference_model, hyperbolic, grid):
    # 4.7 used to give the n = 4 average, and an empty grid an empty array
    ext = time_extended_solve(reference_model, hyperbolic, k=0, n_slices=10)
    with pytest.raises(InvalidModel, match="integer horizons|at least one horizon"):
        cesaro_values(ext, hyperbolic, grid)


def test_cesaro_approaches_gain(reference_model, hyperbolic):
    # long hyperbolic window: the weighted averages settle near the gain,
    # within the relative-value correction over the accumulated weight
    sol = relative_value_iteration(reference_model, tol=1e-12)
    n = 10_000
    ext = time_extended_solve(reference_model, hyperbolic, k=0, n_slices=n)
    val = cesaro_values(ext, hyperbolic, [n])[0]
    bound = 2.0 * sol.w.max() / phi_partial_sum(hyperbolic, 0, n)
    assert abs(val - sol.lam) <= bound
