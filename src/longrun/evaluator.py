"""Exact finite-horizon evaluation of the discounted and risk-sensitive
functionals, seeded Monte-Carlo estimation, and the inequality checks that
tie finite-horizon values to the solved long-run gains.

Every policy is read through model._policy_actions as one (n, n_states)
action table over the evaluated window, and both exact expectations come
from one forward recursion of the state distribution, tilted by
exp(gamma * phi * c) per step for the risk functional and untilted for the
discounted one, costing O(n * n_states^2); nothing in this module
enumerates paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckFailed, GammaNotAllowed, InvalidModel
from .model import (
    DiscountSchedule,
    Model,
    TimeVaryingPolicy,
    _horizon_grid,
    _indices,
    _is_integer,
    _policy_actions,
    _risk_factor,
)
from .average_solver import relative_value_iteration
from .risk_solver import risk_relative_value_iteration

CHECK_SLACK = 1e-12
# at most this many draws, and states times replicates, per simulated block
_SIM_BLOCK = 1 << 20


@dataclass(frozen=True)
class EvaluationResult:
    value: float
    horizon: int
    start_k: int
    start_x: int
    normalizer: float


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


def _window(model: Model, policy, schedule: DiscountSchedule, k: int, n: int, x: int, gamma: float = 0.0):
    """phi weights, their partial sum, and the (n, n_states) action and reward
    tables of a policy over the time window [k, k + n), checked against the
    model, against the start state x and against a gamma whose tilted
    partial reward overflows."""
    phi = schedule.phi_array(k, n)
    norm = schedule.partial_sum(k, n)
    actions = _policy_actions(model, policy, k, n)
    c = model.reward[np.arange(model.n_states), actions]
    if not math.isfinite(abs(gamma) * norm * float(np.abs(c).max())):
        raise GammaNotAllowed(f"|gamma| = {abs(gamma)} times the window's reward mass exceeds the float range")
    _indices(x, model.n_states, "start state")
    return phi, norm, actions, c


def _count(value, what: str, least: int) -> int:
    """value as an int >= least by the integer test of _indices (no fraction, no bool); else InvalidModel."""
    if not (_is_integer(value) and value >= least):
        raise InvalidModel(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    phi, norm, actions, c = _window(model, policy, schedule, k, n, x)
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
    total mass divided by gamma times the phi partial sum.  Works for any
    |gamma| whose tilted partial reward |gamma| * sum phi * max|c| is a
    finite float, since the recursion keeps its scale in a running log
    normaliser; a larger |gamma| raises GammaNotAllowed.
    """
    gamma = _risk_factor(gamma)
    phi, norm, actions, c = _window(model, policy, schedule, k, n, x, gamma)
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
    order.  Blocks of replicates step together, each next state the count
    of cumulative row entries at or below the draw (the first entry above
    it), clamped to the last state.  The discounted estimate is the plain
    sample mean; the risk estimate is the plug-in log-mean-exp computed
    with a shift.
    """
    gamma = _risk_factor(gamma)
    reps, seed = _count(reps, "replicate count", 1), _count(seed, "seed", 0)
    phi, norm, actions, c = _window(model, policy, schedule, k, n, x0, gamma)
    cum = model.kernel.cumsum(axis=2)
    weighted = np.empty(reps)
    block = max(1, _SIM_BLOCK // max(n - 1, model.n_states))
    for lo in range(0, reps, block):
        draws = np.array([np.random.default_rng([seed, r]).random(n - 1) for r in range(lo, min(lo + block, reps))])
        state = np.full(len(draws), int(x0))
        total = np.zeros(len(draws))
        for j in range(n):
            total += phi[j] * c[j, state]
            if j < n - 1:
                state = np.minimum((cum[actions[j, state], state] <= draws[:, j, None]).sum(axis=1), model.n_states - 1)
        weighted[lo:lo + len(draws)] = total
    samples = weighted / norm
    disc_mean = float(samples.mean())
    disc_stderr = float(samples.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    logs = gamma * weighted
    shift = logs.max()
    ew = np.exp(logs - shift)
    mean_ew = float(ew.mean())
    risk_est = (shift + math.log(mean_ew)) / (gamma * norm)
    risk_stderr = float(ew.std(ddof=1) / (math.sqrt(reps) * mean_ew * abs(gamma) * norm)) if reps > 1 else 0.0
    return SimulationResult(discounted_estimate=disc_mean, discounted_stderr=disc_stderr, risk_estimate=risk_est,
                            risk_stderr=risk_stderr, gamma=gamma, horizon=n, reps=reps, normalizer=norm)


def random_policy_panel(model: Model, n_slices: int, size: int, seed: int, start: int = 0) -> list:
    """Seeded panel of time-varying policies, uniform over per-slice actions.
    A check over an empty panel would pass vacuously, so size is at least 1."""
    size = _count(size, "policy panel size", 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))
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


def _finish(name: str, rows: list, context: dict) -> CheckReport:
    """The report of a check; raises CheckFailed with it when a row failed."""
    report = CheckReport(name=name, passed=all(r.passed for r in rows), rows=rows, context=context)
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
    horizon_grid = _horizon_grid(horizon_grid)
    sol = relative_value_iteration(model, tol=tol)
    w_max = float(sol.w.max())
    phi_k = schedule.phi(k)
    rows = []
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
    return _finish("discounted optimality", rows, {"lambda": sol.lam, "w_max": w_max, "k": k, "x": x})


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
    gamma = _risk_factor(gamma, 1)
    norm = schedule.partial_sum(k, n)
    sol = risk_relative_value_iteration(model, gamma, tol=tol)
    w = sol.w
    w_max = float(w.max())
    phi_k = schedule.phi(k)
    phi_last = schedule.phi(n + k - 1)
    slack = (phi_k * float(w[x]) + w_max * (phi_k - phi_last)) / (gamma * norm) + CHECK_SLACK
    bound = sol.lam + slack
    rows = []
    for idx, policy in enumerate(policy_panel):
        res = exact_risk_value(model, policy, schedule, gamma, k, n, x)
        rows.append(
            CheckRow(label=f"panel policy {idx}", value=res.value, bound=bound, passed=res.value <= bound)
        )
    context = {"lambda_gamma": sol.lam, "gamma": gamma, "slack": slack, "k": k, "n": n, "x": x,
               "certificate": sol.certificate}
    return _finish("risk upper bound", rows, context)


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
    gamma = _risk_factor(gamma, 1)
    lower = exact_risk_value(model, policy, schedule, -gamma, k, n, x).value
    mid = exact_discounted_value(model, policy, schedule, k, n, x).value
    upper = exact_risk_value(model, policy, schedule, gamma, k, n, x).value
    rows = [
        CheckRow(label="risk(-gamma) <= discounted", value=lower, bound=mid + CHECK_SLACK, passed=lower <= mid + CHECK_SLACK),
        CheckRow(label="discounted <= risk(+gamma)", value=mid, bound=upper + CHECK_SLACK, passed=mid <= upper + CHECK_SLACK),
    ]
    context = {"gamma": gamma, "k": k, "n": n, "x": x, "lower": lower, "mid": mid, "upper": upper}
    return _finish("sandwich", rows, context)
