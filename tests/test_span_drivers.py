"""The six solvers run on two shared drivers; these reference loops are the
per-solver loops the drivers replaced, and every result must match them
bit for bit (==, not approx)."""

import numpy as np
import pytest

from longrun import (
    HyperbolicSchedule,
    NoConvergence,
    StationaryPolicy,
    UnitSchedule,
    multiplicative_poisson_solve,
    poisson_solve,
    relative_value_iteration,
    risk_relative_value_iteration,
    risk_time_extended_solve,
    span_seminorm,
    time_extended_solve,
)
from longrun.average_solver import _bellman_values, default_window
from longrun.cli import gen_model
from longrun.risk_solver import _risk_values


def reference_rvi(model, tol, anchor):
    delta = model.ergodicity
    threshold = tol * (1.0 - delta) / max(delta, 1e-300)
    w = np.zeros(model.n_states)
    for it in range(1, 1_000_001):
        vals, _ = _bellman_values(model, w)
        step = span_seminorm(vals - w)
        w = vals - vals.min()
        if step <= threshold:
            resid_vals, acts = _bellman_values(model, w)
            resid = resid_vals - w
            return w, float(resid[anchor]), span_seminorm(resid), it, acts
    raise AssertionError("reference loop did not converge")


def reference_risk_rvi(model, gamma, tol, anchor):
    w = np.zeros(model.n_states)
    for it in range(1, 1_000_001):
        vals, acts = _risk_values(model, gamma, w)
        resid = vals - w
        if span_seminorm(resid) <= tol:
            return w, float(resid[anchor]) / gamma, span_seminorm(resid), it, acts
        w = vals - vals.min()
    raise AssertionError("reference loop did not converge")


def reference_time_extended(model, phi, anchor):
    n, s = phi.shape[0], model.n_states
    w_grid = np.empty((n, s))
    lambda_seq = np.empty(n)
    policy_seq = np.empty((n, s), dtype=int)
    w_next = np.zeros(s)
    for j in range(n - 1, -1, -1):
        vals, acts = _bellman_values(model, w_next, phi=phi[j])
        lambda_seq[j] = vals[anchor] / phi[j]
        w_anchor = vals - vals[anchor]
        w_grid[j] = w_anchor - w_anchor.min()
        policy_seq[j] = acts
        w_next = w_anchor
    return w_grid, lambda_seq, policy_seq


def reference_risk_time_extended(model, gamma, phi):
    n, s = phi.shape[0], model.n_states
    w_grid = np.empty((n, s))
    lambda_seq = np.empty(n)
    policy_seq = np.empty((n, s), dtype=int)
    w_next = np.zeros(s)
    for j in range(n - 1, -1, -1):
        vals, acts = _risk_values(model, gamma, w_next, phi=phi[j])
        m = vals.min()
        lambda_seq[j] = m / (gamma * phi[j])
        w_next = vals - m
        w_grid[j] = w_next
        policy_seq[j] = acts
    resid = np.empty(n)
    for j in range(n):
        nxt = w_grid[j + 1] if j + 1 < n else np.zeros(s)
        resid[j] = span_seminorm(w_grid[j] - nxt)
    return w_grid, lambda_seq, policy_seq, resid


MODELS = [
    gen_model({"n_states": 1, "n_actions": 2, "min_entry": 0.5, "seed": 1}),
    gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 7}),
    gen_model({"n_states": 6, "n_actions": 3, "min_entry": 0.02, "seed": 4}),
    gen_model({"n_states": 12, "n_actions": 4, "min_entry": 0.01, "seed": 9}),
]


def same(a, b):
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.n_states}x{m.n_actions}")
def test_stationary_solvers_bitwise_match_reference_loops(model):
    anchor = model.n_states - 1
    for tol in (1e-6, 1e-10):
        w, lam, resid, it, acts = reference_rvi(model, tol, anchor)
        sol = relative_value_iteration(model, tol=tol, anchor=anchor)
        assert same(sol.w, w) and sol.lam == lam and sol.span_residual == resid
        assert sol.iterations == it and sol.policy == StationaryPolicy(acts)
        for gamma in (-2.0, -0.5, 0.3, 1.0):
            w, lam, resid, it, acts = reference_risk_rvi(model, gamma, tol, anchor)
            sol = risk_relative_value_iteration(model, gamma, tol=tol, anchor=anchor)
            assert same(sol.w, w) and sol.lam == lam and sol.residual == resid
            assert sol.iterations == it and sol.policy == StationaryPolicy(acts)
    # the Poisson solves keep the caller's policy and the frozen model's numbers
    policy = StationaryPolicy([s % model.n_actions for s in range(model.n_states)])
    sub = model.under_policy(policy)
    w, lam, resid, it, _ = reference_rvi(sub, 1e-10, 0)
    sol = poisson_solve(model, policy)
    assert same(sol.w, w) and sol.lam == lam and sol.span_residual == resid
    assert sol.iterations == it and sol.policy is policy
    w, lam, resid, it, _ = reference_risk_rvi(sub, -0.5, 1e-10, 0)
    sol = multiplicative_poisson_solve(model, policy, -0.5)
    assert same(sol.w, w) and sol.lam == lam and sol.residual == resid
    assert sol.iterations == it and sol.policy is policy


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.n_states}x{m.n_actions}")
def test_backward_solvers_bitwise_match_reference_loops(model):
    anchor = model.n_states - 1
    for schedule in (UnitSchedule(), HyperbolicSchedule(1.0, 1.0)):
        for k in (0, 3):
            n = default_window(model, 1e-10)
            w_grid, lambda_seq, policy_seq = reference_time_extended(model, schedule.phi_array(k, n), anchor)
            ext = time_extended_solve(model, schedule, k=k, anchor=anchor)
            assert same(ext.w_grid, w_grid) and same(ext.lambda_seq, lambda_seq)
            assert same(ext.policy_seq, policy_seq)
            for gamma in (-2.0, 0.3, 5.0):
                phi = schedule.phi_array(k, 40)
                w_grid, lambda_seq, policy_seq, resid = reference_risk_time_extended(model, gamma, phi)
                ext = risk_time_extended_solve(model, schedule, gamma, k=k, n_slices=40, tol=1e-8)
                assert same(ext.w_grid, w_grid) and same(ext.lambda_seq, lambda_seq)
                assert same(ext.policy_seq, policy_seq) and same(ext.slice_residuals, resid)
                assert ext.converged == bool(resid[0] <= 1e-8)


def test_span_iteration_reports_the_last_residual_span(reference_model):
    with pytest.raises(NoConvergence, match="no convergence after 2 iterations \\(residual span"):
        relative_value_iteration(reference_model, tol=1e-12, max_iter=2)
    with pytest.raises(NoConvergence, match="no convergence after 0 iterations \\(residual span inf\\)"):
        risk_relative_value_iteration(reference_model, 1.0, max_iter=0)
