"""Exact finite-horizon evaluation of the discounted and risk-sensitive
functionals, seeded Monte-Carlo estimation, and the inequality checks that
tie finite-horizon values to the solved long-run gains.

Every policy is read as one (n, n_states) action table over the evaluated
window, and both exact expectations come from one forward recursion of the
state distribution, tilted by exp(gamma * phi * c) per step for the risk
functional and untilted for the discounted one, costing O(n * n_states^2);
nothing in this module enumerates paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed, GammaNotAllowed, InvalidModel
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    TimeVaryingPolicy,
    phi_partial_sum,
)
from .average_solver import relative_value_iteration
from .risk_solver import risk_relative_value_iteration

CHECK_SLACK = 1e-12


@dataclass(frozen=True)
class EvaluationResult:
    value: float
    horizon: int
    start_k: int
    start_x: int
    normalizer: float
    bound_slack: float | None = None


@dataclass(frozen=True)
class SimulationResult:
    """Seeded Monte-Carlo estimates of both long-run functionals."""

    discounted_estimate: float
    discounted_stderr: float
    risk_estimate: float
    risk_stderr: float
    gamma: float
    horizon: int
    reps: int
    normalizer: float


def _window(model: Model, policy, schedule: DiscountSchedule, k: int, n: int):
    """phi weights, their partial sum, and the (n, n_states) action and reward
    tables of a policy over the time window [k, k + n), checked against the
    model."""
    if n < 1:
        raise InvalidModel("horizon must be at least 1")
    phi = schedule.phi_array(k, n)
    norm = phi_partial_sum(schedule, k, n)
    if norm <= 0.0:
        raise InvalidModel("schedule mass over the window must be positive")
    if isinstance(policy, StationaryPolicy):
        table = np.asarray(policy.actions, dtype=int)[None, :]
        rows = np.zeros(n, dtype=int)
    elif isinstance(policy, TimeVaryingPolicy):
        table = policy.table
        rows = np.clip(np.arange(k, k + n) - policy.start, 0, len(table) - 1)
    else:
        raise InvalidModel(f"unsupported policy type {type(policy).__name__}")
    if table.shape[1] != model.n_states:
        raise InvalidModel(f"policy covers {table.shape[1]} states, model has {model.n_states}")
    actions = table[rows]
    if (actions >= model.n_actions).any():
        raise InvalidModel("policy uses an action index outside the model's action set")
    return phi, norm, actions, model.reward[np.arange(model.n_states), actions]


def _forward(model: Model, actions: np.ndarray, x: int, tilt: np.ndarray):
    """Scaled forward recursion of the tilted state distribution from X_0 = x.

    Returns (z, log_scale) with ln(z[j, y]) + log_scale[j] equal to
    ln E[exp(sum_{i<=j} tilt[i, X_i]) ; X_j = y], the step-j mass once its
    tilt is applied.  Each step shifts by the maximum of ln z + tilt[j], so
    the largest entry of every row is 1 whatever the size of the tilt:
    nothing overflows, and an entry underflows only when it is below about
    1e-308 of the largest.
    """
    n, s = actions.shape
    if not 0 <= x < s:
        raise InvalidModel("start state out of range")
    states = np.arange(s)
    z = np.empty((n, s))
    log_scale = np.empty(n)
    mass = np.zeros(s)
    mass[x] = 1.0
    shift = 0.0
    with np.errstate(divide="ignore"):
        for j in range(n):
            e = np.log(mass) + tilt[j]
            top = e.max()
            shift += top
            z[j] = np.exp(e - top)
            log_scale[j] = shift
            if j < n - 1:
                mass = z[j] @ model.kernel[actions[j], states]
    return z, log_scale


def exact_discounted_value(
    model: Model,
    policy,
    schedule: DiscountSchedule,
    k: int,
    n: int,
    x: int,
) -> EvaluationResult:
    """Exact truncation of the phi-weighted average reward functional.

    Computes sum_{i=k}^{n+k-1} phi(i) E[c(X_{i-k}, a_{i-k})] divided by the
    phi partial sum, by forward propagation of the state distribution.
    """
    phi, norm, actions, c = _window(model, policy, schedule, k, n)
    z, log_scale = _forward(model, actions, x, np.zeros(actions.shape))
    total = float(phi @ (np.exp(log_scale) * (z * c).sum(axis=1)))
    return EvaluationResult(value=total / norm, horizon=n, start_k=k, start_x=x, normalizer=norm)


def exact_risk_value(
    model: Model,
    policy,
    schedule: DiscountSchedule,
    gamma: float,
    k: int,
    n: int,
    x: int,
) -> EvaluationResult:
    """Exact truncation of the risk-sensitive phi-weighted functional.

    Propagates E[exp(gamma * weighted partial reward) ; X_j = y] forward,
    tilting step j by exp(gamma * phi(k + j) * c), and returns ln of its
    total mass divided by gamma times the phi partial sum.  Works for
    arbitrarily large |gamma| since the recursion keeps its scale in a
    running log normaliser.
    """
    if gamma == 0.0:
        raise GammaNotAllowed("risk evaluation needs gamma != 0")
    phi, norm, actions, c = _window(model, policy, schedule, k, n)
    z, log_scale = _forward(model, actions, x, gamma * phi[:, None] * c)
    total = log_scale[-1] + math.log(z[-1].sum())
    return EvaluationResult(value=total / (gamma * norm), horizon=n, start_k=k, start_x=x, normalizer=norm)


def simulate(
    model: Model,
    policy,
    schedule: DiscountSchedule,
    k: int,
    n: int,
    x0: int,
    seed: int,
    reps: int,
    gamma: float = 1.0,
) -> SimulationResult:
    """Monte-Carlo estimates of both functionals with standard errors.

    Replicate r draws its path from an independent generator seeded with
    (seed, r), so results are reproducible and independent of any execution
    order.  The discounted estimate is the plain sample mean; the risk
    estimate is the plug-in log-mean-exp computed with a shift.
    """
    if reps < 1:
        raise InvalidModel("need at least one replicate")
    if gamma == 0.0:
        raise GammaNotAllowed("risk estimate needs gamma != 0")
    phi, norm, actions, c = _window(model, policy, schedule, k, n)
    cum = model.kernel.cumsum(axis=2)
    weighted = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng([seed, r])
        draws = rng.random(max(n - 1, 0))
        state = x0
        total = 0.0
        for j in range(n):
            total += phi[j] * c[j, state]
            if j < n - 1:
                state = int(np.searchsorted(cum[actions[j, state], state], draws[j], side="right"))
                if state >= model.n_states:
                    state = model.n_states - 1
        weighted[r] = total
    samples = weighted / norm
    disc_mean = float(samples.mean())
    disc_stderr = float(samples.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    logs = gamma * weighted
    shift = logs.max()
    ew = np.exp(logs - shift)
    mean_ew = float(ew.mean())
    risk_est = (shift + math.log(mean_ew)) / (gamma * norm)
    if reps > 1:
        risk_stderr = float(ew.std(ddof=1) / (math.sqrt(reps) * mean_ew * abs(gamma) * norm))
    else:
        risk_stderr = 0.0
    return SimulationResult(
        discounted_estimate=disc_mean,
        discounted_stderr=disc_stderr,
        risk_estimate=risk_est,
        risk_stderr=risk_stderr,
        gamma=gamma,
        horizon=n,
        reps=reps,
        normalizer=norm,
    )


def random_policy_panel(model: Model, n_slices: int, size: int, seed: int, start: int = 0) -> list:
    """Seeded panel of time-varying policies, uniform over per-slice actions."""
    rng = np.random.default_rng(seed)
    panel = []
    for _ in range(size):
        table = rng.integers(0, model.n_actions, size=(n_slices, model.n_states))
        panel.append(TimeVaryingPolicy(start, table))
    return panel


@dataclass(frozen=True)
class CheckRow:
    label: str
    value: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    rows: list
    context: dict = field(default_factory=dict)

    def failures(self) -> list:
        return [r for r in self.rows if not r.passed]


def _finish(report: CheckReport) -> CheckReport:
    if not report.passed:
        bad = report.failures()[0]
        raise CheckFailed(f"{report.name}: {bad.label} gave {bad.value!r} vs bound {bad.bound!r}", report)
    return report


def discounted_optimality_check(
    model: Model,
    schedule: DiscountSchedule,
    k: int,
    horizon_grid,
    x: int = 0,
    panel_size: int = 100,
    panel_seed: int = 0,
    tol: float = 1e-10,
) -> CheckReport:
    """Finite-horizon audit of average-reward optimality under general discounting.

    Solves the undiscounted optimality equation, then checks that the solved
    stationary policy's discounted finite-horizon value stays within the
    certified slack of the gain at every horizon, and that a seeded panel of
    random time-varying policies never beats the gain by more than the
    phi(k)-weighted relative-value slack.
    """
    sol = relative_value_iteration(model, tol=tol)
    w_max = float(sol.w.max())
    phi_k = schedule.phi(k)
    rows = []
    horizon_grid = [int(n) for n in horizon_grid]
    for n in horizon_grid:
        res = exact_discounted_value(model, sol.policy, schedule, k, n, x)
        norm = res.normalizer
        slack = (phi_k * w_max + w_max) / norm + CHECK_SLACK
        gap = abs(res.value - sol.lam)
        rows.append(CheckRow(label=f"optimal policy, n={n}", value=gap, bound=slack, passed=gap <= slack))
    panel = random_policy_panel(model, n_slices=max(horizon_grid), size=panel_size, seed=panel_seed, start=k)
    for idx, policy in enumerate(panel):
        for n in horizon_grid:
            res = exact_discounted_value(model, policy, schedule, k, n, x)
            bound = sol.lam + w_max * phi_k / res.normalizer + CHECK_SLACK
            rows.append(
                CheckRow(label=f"panel policy {idx}, n={n}", value=res.value, bound=bound, passed=res.value <= bound)
            )
    report = CheckReport(
        name="discounted optimality",
        passed=all(r.passed for r in rows),
        rows=rows,
        context={"lambda": sol.lam, "w_max": w_max, "k": k, "x": x},
    )
    return _finish(report)


def risk_upper_bound_check(
    model: Model,
    schedule: DiscountSchedule,
    gamma: float,
    k: int,
    n: int,
    policy_panel,
    x: int = 0,
    tol: float = 1e-10,
) -> CheckReport:
    """Audit that no policy's finite-horizon risk value beats the risk gain.

    For gamma > 0 every policy's exact risk value at horizon n must stay
    below the solved risk-sensitive gain plus the explicit finite-horizon
    slack assembled from the relative value function.
    """
    if gamma <= 0:
        raise GammaNotAllowed("the upper bound requires gamma > 0")
    sol = risk_relative_value_iteration(model, gamma, tol=tol)
    w = sol.w
    w_max = float(w.max())
    phi_k = schedule.phi(k)
    phi_last = schedule.phi(n + k - 1)
    norm = phi_partial_sum(schedule, k, n)
    slack = (phi_k * float(w[x]) + w_max * (phi_k - phi_last)) / (gamma * norm) + CHECK_SLACK
    bound = sol.lam + slack
    rows = []
    for idx, policy in enumerate(policy_panel):
        res = exact_risk_value(model, policy, schedule, gamma, k, n, x)
        rows.append(
            CheckRow(label=f"panel policy {idx}", value=res.value, bound=bound, passed=res.value <= bound)
        )
    report = CheckReport(
        name="risk upper bound",
        passed=all(r.passed for r in rows),
        rows=rows,
        context={"lambda_gamma": sol.lam, "gamma": gamma, "slack": slack, "k": k, "n": n, "x": x,
                 "certificate": sol.certificate},
    )
    return _finish(report)


def sandwich_check(
    model: Model,
    policy,
    schedule: DiscountSchedule,
    gamma: float,
    k: int,
    n: int,
    x: int,
) -> CheckReport:
    """Exact finite-horizon ordering: risk(-gamma) <= discounted <= risk(+gamma).

    The ordering holds at every horizon, not only in the limit, so the
    tolerance is purely numerical.
    """
    if gamma <= 0:
        raise GammaNotAllowed("sandwich needs gamma > 0")
    lower = exact_risk_value(model, policy, schedule, -gamma, k, n, x).value
    mid = exact_discounted_value(model, policy, schedule, k, n, x).value
    upper = exact_risk_value(model, policy, schedule, gamma, k, n, x).value
    rows = [
        CheckRow(label="risk(-gamma) <= discounted", value=lower, bound=mid + CHECK_SLACK, passed=lower <= mid + CHECK_SLACK),
        CheckRow(label="discounted <= risk(+gamma)", value=mid, bound=upper + CHECK_SLACK, passed=mid <= upper + CHECK_SLACK),
    ]
    report = CheckReport(
        name="sandwich",
        passed=all(r.passed for r in rows),
        rows=rows,
        context={"gamma": gamma, "k": k, "n": n, "x": x, "lower": lower, "mid": mid, "upper": upper},
    )
    return _finish(report)
