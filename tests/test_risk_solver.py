import itertools
import math
import time

import numpy as np
import pytest

from longrun import (
    GammaNotAllowed,
    InvalidModel,
    MarginNotSatisfied,
    Model,
    NoConvergence,
    StationaryPolicy,
    UnitSchedule,
    gamma_sweep,
    multiplicative_poisson_solve,
    perron_oracle,
    poisson_solve,
    relative_value_iteration,
    risk_relative_value_iteration,
    risk_span_bound,
    risk_time_extended_solve,
    span_seminorm,
)
from longrun.risk_solver import CERT_NONE, certificate_for

from conftest import random_model


def closed_form_two_state(P, c, gamma):
    """Perron gain of a 2x2 exp(gamma c)-weighted kernel, by the quadratic formula."""
    Q = np.exp(gamma * np.asarray(c))[:, None] * np.asarray(P)
    tr = Q[0, 0] + Q[1, 1]
    det = Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0]
    rho = (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0
    return math.log(rho) / gamma


REF_P = np.array([[0.75, 0.25], [0.5, 0.5]])
REF_C = np.array([1.0, 0.0])


# ------------------------------------------------------------ solver basics


def test_constant_reward_factors_out():
    m = Model(np.array([REF_P]), np.full((2, 1), 1.7))
    for gamma in (1.0, -1.0, 0.3):
        sol = risk_relative_value_iteration(m, gamma, tol=1e-12)
        assert sol.lam == pytest.approx(1.7, abs=1e-11)
        assert np.allclose(sol.w, 0.0, atol=1e-11)


def test_reference_gamma_one(reference_model, reference_policy):
    expected = closed_form_two_state(REF_P, REF_C, 1.0)
    assert expected == pytest.approx(0.8041, abs=5e-5)
    sol = multiplicative_poisson_solve(reference_model, reference_policy, 1.0, tol=1e-13)
    assert sol.lam == pytest.approx(expected, abs=1e-9)
    assert sol.w.min() == 0.0


def test_reference_gamma_negative(reference_model, reference_policy):
    expected = closed_form_two_state(REF_P, REF_C, -1.0)
    sol = multiplicative_poisson_solve(reference_model, reference_policy, -1.0, tol=1e-13)
    assert sol.lam == pytest.approx(expected, abs=1e-9)


def test_gamma_to_zero_is_linear(reference_model, reference_policy):
    lam0 = 2.0 / 3.0
    gammas = [1e-2, 1e-3, 1e-4]
    slopes = []
    for g in gammas:
        sol = multiplicative_poisson_solve(reference_model, reference_policy, g, tol=1e-13)
        slopes.append((sol.lam - lam0) / g)
    # the slope stabilizes as gamma -> 0
    assert abs(slopes[1] - slopes[2]) <= abs(slopes[0] - slopes[1]) + 1e-9
    assert slopes[2] == pytest.approx(slopes[1], rel=2e-2)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf"), True, "x"])
def test_solvers_and_the_perron_oracle_share_one_tolerance_rule(reference_model, reference_policy, tol):
    # perron_oracle(tol=0.0) ran 1e6 power iterations before NoConvergence,
    # tol=True was a one-iteration solve and tol="x" a bare TypeError
    for call in (
        lambda: perron_oracle(reference_model, reference_policy, 0.5, tol=tol),
        lambda: risk_relative_value_iteration(reference_model, 0.5, tol=tol),
        lambda: relative_value_iteration(reference_model, tol=tol),
    ):
        with pytest.raises(InvalidModel, match="tolerance"):
            call()


def test_gamma_floor_refused(reference_model, reference_policy):
    with pytest.raises(GammaNotAllowed):
        risk_relative_value_iteration(reference_model, 1e-9)
    with pytest.raises(GammaNotAllowed):
        risk_relative_value_iteration(reference_model, 0.0)
    # so is a gamma that is not a finite number
    for gamma in (float("nan"), float("inf"), -float("inf"), 10**400):
        with pytest.raises(InvalidModel):
            risk_relative_value_iteration(reference_model, gamma)
        with pytest.raises(InvalidModel):
            perron_oracle(reference_model, reference_policy, gamma)
        with pytest.raises(InvalidModel):
            risk_time_extended_solve(reference_model, UnitSchedule(), gamma, n_slices=5)
    # a tolerance that is not a positive finite number is refused as well
    for tol in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(InvalidModel):
            risk_relative_value_iteration(reference_model, 1.0, tol=tol)
        with pytest.raises(InvalidModel):
            risk_time_extended_solve(reference_model, UnitSchedule(), 1.0, n_slices=5, tol=tol)


def test_optimizer_beats_every_policy():
    for seed in range(5):
        m = random_model(seed)
        for gamma in (0.5, 1.0):
            opt = risk_relative_value_iteration(m, gamma, tol=1e-12)
            for assignment in itertools.product(range(m.n_actions), repeat=m.n_states):
                sol = multiplicative_poisson_solve(m, StationaryPolicy(assignment), gamma, tol=1e-12)
                assert opt.lam >= sol.lam - 1e-9


def test_reward_shift_covariance():
    for seed in range(3):
        m = random_model(seed)
        shifted = Model(m.kernel, m.reward + 0.8)
        for gamma in (1.0, -0.5):
            a = risk_relative_value_iteration(m, gamma, tol=1e-12)
            b = risk_relative_value_iteration(shifted, gamma, tol=1e-12)
            assert b.lam == pytest.approx(a.lam + 0.8, abs=1e-9)
            assert b.policy.actions == a.policy.actions


# ------------------------------------------------------------- perron oracle


def test_perron_constant_reward(reference_policy):
    m = Model(np.array([REF_P]), np.full((2, 1), 2.2))
    assert perron_oracle(m, reference_policy, 1.3) == pytest.approx(2.2, abs=1e-12)


def test_perron_matches_closed_form(reference_model, reference_policy):
    for gamma in (1.0, -1.0, 0.5, -0.5):
        assert perron_oracle(reference_model, reference_policy, gamma) == pytest.approx(
            closed_form_two_state(REF_P, REF_C, gamma), abs=1e-12
        )


def test_perron_relative_stop_when_the_root_is_tiny():
    # rho(Q) is about 1e-6, far below the old absolute stopping gap tol * max(hi, 1)
    P = np.array([[1e-6, 1.0 - 1e-6], [0.5, 0.5]])
    c = np.array([0.0, -50.0])
    m = Model(P[None, :, :], c[:, None])
    assert perron_oracle(m, StationaryPolicy([0, 0]), 1.0) == pytest.approx(closed_form_two_state(P, c, 1.0), abs=1e-12)


def test_perron_transient_tilt_reads_the_largest_class_root():
    # the transient state's tilted self-loop outweighs the recurrent class, so
    # the Perron vector vanishes there and one power iteration never brackets
    m = Model(np.array([[[0.5, 0.5], [0.0, 1.0]]]), np.array([[10.0], [0.0]]))
    start = time.perf_counter()
    lam = perron_oracle(m, StationaryPolicy([0, 0]), 1.0)
    assert time.perf_counter() - start < 1.0
    assert lam == pytest.approx(10.0 + math.log(0.5), abs=1e-12)


def test_perron_matches_eigvals_on_reducible_tilts():
    rng = np.random.default_rng(5)
    for _ in range(10):
        # two transient states lead into a closed three-state class
        P = np.zeros((5, 5))
        P[:2] = rng.random((2, 5))
        P[2:, 2:] = rng.random((3, 3))
        P /= P.sum(axis=1, keepdims=True)
        c = 3.0 * rng.random(5)
        m = Model(P[None, :, :], c[:, None])
        for gamma in (-0.5, 0.5, 1.0):
            rho = max(abs(np.linalg.eigvals(np.exp(gamma * c)[:, None] * P)))
            assert perron_oracle(m, StationaryPolicy([0] * 5), gamma) == pytest.approx(math.log(rho) / gamma, abs=1e-12)


def test_perron_tiny_gamma_recovers_average(reference_model, reference_policy):
    lam = perron_oracle(reference_model, reference_policy, 1e-6)
    assert lam == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_poisson_agreement_random_models():
    # the two independent routes to the fixed-policy risk gain agree
    for seed in range(8):
        m = random_model(seed)
        u = StationaryPolicy([0] * m.n_states)
        for gamma in (1.0, -1.0, 0.1, -0.1):
            a = multiplicative_poisson_solve(m, u, gamma, tol=1e-12).lam
            b = perron_oracle(m, u, gamma)
            assert abs(a - b) <= 1e-8


# ------------------------------------------------------------- certificates


def test_certificate_prefers_tighter_bound(reference_model):
    cert, bound = certificate_for(reference_model, 1.0)
    # both bounds exist here: span + ln K = 1 + ln 2, margin bound ~ 2.138
    assert cert == "equivalence"
    assert bound == pytest.approx(1.0 + math.log(2.0))


def test_certificate_beyond_exp_overflow():
    # |gamma| span(c) > 709.78 overflows exp in the contraction margin; the
    # margin certificate is then unavailable and the equivalence bound applies
    m = random_model(7, n_states=3, n_actions=2)
    for gamma in (800.0, -1000.0):
        cert, bound = certificate_for(m, gamma)
        assert cert == "equivalence"
        assert math.isfinite(bound)
        sol = risk_relative_value_iteration(m, gamma)
        assert sol.certificate == "equivalence"


def test_gamma_beyond_the_float_range_stops_cleanly():
    # gamma * c overflows: no numpy overflow warning, the solve stops with NoConvergence
    m = Model(np.array([REF_P]), np.array([[5.0], [0.0]]))
    for gamma in (1e308, -1e308):
        with pytest.raises(NoConvergence):
            risk_relative_value_iteration(m, gamma)


def test_certificate_uncertified_when_both_fail():
    # support mismatch kills the ratio bound; a large reward span kills the margin
    kernel = np.array([[[1.0, 0.0], [0.5, 0.5]]])
    m = Model(kernel, np.array([[5.0], [0.0]]))
    cert, bound = certificate_for(m, 1.0)
    assert cert == CERT_NONE
    assert math.isinf(bound)


def test_uncertified_solve_still_attempted():
    # absorbing high-reward state, no certificate: the risk-seeking equation
    # still has a bounded solution and must be found; the risk-averse one has
    # none (never-absorbing paths dominate) and must fail loudly, not hang
    from longrun import NoConvergence

    m = Model(np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.array([[5.0], [0.0]]))
    sol = risk_relative_value_iteration(m, 1.0, tol=1e-12)
    assert sol.certificate == CERT_NONE
    assert sol.lam == pytest.approx(5.0, abs=1e-9)
    with pytest.raises(NoConvergence):
        risk_relative_value_iteration(m, -1.0, tol=1e-12)


def test_solution_respects_certificate_bound():
    for seed in range(6):
        m = random_model(seed)
        for gamma in (1.0, -1.0):
            sol = risk_relative_value_iteration(m, gamma, tol=1e-12)
            assert sol.certificate != CERT_NONE
            assert np.abs(sol.w).max() <= sol.bound + 1e-9


def test_risk_span_bound_values(reference_model):
    # constant reward: bound reduces to -ln(1 - delta)
    m = Model(reference_model.kernel, np.full((2, 1), 4.0))
    assert risk_span_bound(m, 2.0) == pytest.approx(-math.log(0.75))
    assert risk_span_bound(reference_model, 1.0) == pytest.approx(1.0 - math.log(1.0 - 0.25 * math.e))
    with pytest.raises(MarginNotSatisfied):
        risk_span_bound(reference_model, 1.5)


# ------------------------------------------------------------ time-extended


def test_risk_time_extended_unit_reproduces_stationary(reference_model):
    sol = risk_relative_value_iteration(reference_model, 1.0, tol=1e-13)
    ext = risk_time_extended_solve(reference_model, UnitSchedule(), 1.0, k=0, n_slices=120, tol=1e-10)
    assert ext.converged
    assert span_seminorm(ext.w_grid[0] - sol.w) <= 1e-9
    assert ext.lambda_seq[0] == pytest.approx(sol.lam, abs=1e-9)


def test_risk_time_extended_constant_reward(hyperbolic):
    m = Model(np.array([REF_P]), np.full((2, 1), 0.9))
    for gamma in (1.0, -1.0):
        ext = risk_time_extended_solve(m, hyperbolic, gamma, k=0, n_slices=40)
        assert np.allclose(ext.lambda_seq, 0.9, atol=1e-11)
        assert np.allclose(ext.w_grid, 0.0, atol=1e-11)


def test_risk_time_extended_slices_are_min_zero(hyperbolic):
    for seed in range(3):
        m = random_model(seed)
        ext = risk_time_extended_solve(m, hyperbolic, -0.8, k=1, n_slices=25)
        assert np.allclose(ext.w_grid.min(axis=1), 0.0, atol=0.0)


def test_risk_time_extended_single_action_recursion(reference_model, hyperbolic):
    # one action: slices satisfy the fixed-policy multiplicative recursion
    gamma = 0.7
    ext = risk_time_extended_solve(reference_model, hyperbolic, gamma, k=0, n_slices=30)
    phi = hyperbolic.phi_array(0, 31)
    c = REF_C
    for j in range(29):
        lhs = ext.w_grid[j] + gamma * phi[j] * ext.lambda_seq[j]
        rhs = gamma * phi[j] * c + np.log(REF_P @ np.exp(ext.w_grid[j + 1]))
        assert np.allclose(lhs, rhs, atol=1e-11)


# ------------------------------------------------------------------- sweep


def test_gamma_sweep_monotone(reference_model, reference_policy):
    rows = gamma_sweep(reference_model, reference_policy, [-1.0, -0.1, 0.1, 1.0], tol=1e-12)
    gammas = [r.gamma for r in rows]
    assert gammas == sorted(gammas)
    assert 0.0 in gammas
    lams = [r.lam for r in rows]
    for a, b in zip(lams, lams[1:]):
        assert b >= a - 1e-10
    # strict growth on the reference model
    assert lams[-1] > lams[0] + 0.1


def test_gamma_sweep_constant_reward(reference_policy):
    m = Model(np.array([REF_P]), np.full((2, 1), 1.1))
    rows = gamma_sweep(m, reference_policy, [-0.5, 0.5])
    assert np.allclose([r.lam for r in rows], 1.1, atol=1e-10)


def test_gamma_sweep_sandwich_around_average(reference_model, reference_policy):
    avg = poisson_solve(reference_model, reference_policy, tol=1e-12).lam
    rows = gamma_sweep(reference_model, reference_policy, [-0.7, 0.7], tol=1e-12)
    by_gamma = {round(r.gamma, 3): r.lam for r in rows}
    assert by_gamma[-0.7] <= avg <= by_gamma[0.7]


def test_monotonicity_random_models():
    gammas = [-1.0, -0.3, 0.3, 1.0]
    for seed in range(6):
        m = random_model(seed)
        u = StationaryPolicy([0] * m.n_states)
        rows = gamma_sweep(m, u, gammas, tol=1e-11)
        lams = [r.lam for r in rows]
        for a, b in zip(lams, lams[1:]):
            assert b >= a - 1e-10
