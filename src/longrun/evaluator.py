"""Exact finite-horizon evaluation of the discounted and risk-sensitive
functionals, seeded Monte-Carlo estimation, and the inequality checks that
tie finite-horizon values to the solved long-run gains.

Every policy is read through model._policy_actions as one (n, n_states)
action table over the evaluated window, and every exact value, of one policy
or of a batch, comes from one forward recursion of the state distributions,
tilted by exp(gamma * phi * c) per step for the risk functional and untilted
for the discounted one, costing O(n * n_states^2) per member; nothing in
this module enumerates paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

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
# unit roundoff of float64
_U = 2.0 ** -53
# at most this many draws, states times replicates, or floats of z per block
_SIM_BLOCK = 1 << 20
# at most this many floats of step kernels gathered at once by _forward (512 KB)
_GATHER_FLOATS = 1 << 16
# at most this many action-table entries (size x slices x states) per policy
# panel, the path enumeration's budget: 1 GB of int64 actions
_PANEL_ENTRIES = 1 << 27


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


def _window(model: Model, policies: list, schedule: DiscountSchedule, k: int, n: int, x, gamma):
    """phi over [k, k + n), its sum, and per block of members (one at least,
    at most _SIM_BLOCK floats of a pass or of a step's kernel rows) its first
    member, checked actions, rewards c, tilts gamma[b] phi c and starts x[b]."""
    phi = schedule.phi_array(k, n)
    norm = schedule.partial_sum(k, n)
    width = max(1, _SIM_BLOCK // (max(n, model.n_states) * model.n_states))
    for lo in range(0, len(policies), width):
        actions = np.stack([_policy_actions(model, policy, k, n) for policy in policies[lo:lo + width]])
        c = model.reward[np.arange(model.n_states), actions]
        g = gamma[lo:lo + width]
        if not all(math.isfinite(abs(v) * norm * m) for v, m in zip(g, np.abs(c).max(axis=(1, 2)).tolist())):
            raise GammaNotAllowed(f"|gamma| = {max(map(abs, g))} times the window's reward mass overflows")
        starts = _indices(x[lo:lo + width], model.n_states, "start state", 1)
        yield phi, norm, lo, actions, c, np.array(g)[:, None, None] * phi[:, None] * c, starts


def _count(value, what: str, least: int) -> int:
    """value as an int >= least by the integer test of _indices (no fraction, no bool); else InvalidModel."""
    if not (_is_integer(value) and value >= least):
        raise InvalidModel(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _forward(model: Model, actions: np.ndarray, x: np.ndarray, tilt: np.ndarray):
    """Scaled forward recursion of the tilted state distributions of a batch.

    Returns (z, log_scale) with ln(z[b, j, y]) + log_scale[b, j] equal to
    ln E[exp(sum_{i<=j} tilt[b, i, X_i]) ; X_j = y | X_0 = x[b]], the step-j
    mass once its tilt is applied, bit for bit as member b's pass alone.
    Each step shifts a member by the maximum of its ln z + tilt, so the
    largest entry of every row is 1 whatever the tilt: nothing overflows,
    and an entry underflows only below about 1e-308 of the largest.
    """
    B, n, s = actions.shape
    states = np.arange(s)
    z = np.empty((B, n, s))
    shift = np.empty((B, n))
    mass = np.eye(s)[x, None]
    # the step kernels are gathered a run of steps at a time; each step reads
    # the same (B, s, s) rows, so the products are the same gemv calls
    chunk = max(1, _GATHER_FLOATS // (B * s * s))
    with np.errstate(divide="ignore"):
        for j in range(n):
            e = np.log(mass[:, 0]) + tilt[:, j]
            shift[:, j] = e.max(axis=1)
            z[:, j] = np.exp(e - shift[:, j, None])
            if j < n - 1:
                if j % chunk == 0:
                    kernels = model.kernel[actions[:, j:min(j + chunk, n - 1)], states]
                mass = np.matmul(z[:, j, None], kernels[:, j % chunk])
    return z, np.cumsum(shift, axis=1)


def _forward_rounding(model: Model, z: np.ndarray, log_scale: np.ndarray, tilt_max, scale: float) -> tuple:
    """(H / scale, delta) for one member's rows of _forward: H bounds
    |ln(z[j, y] e^log_scale[j]) - ln v_j(y)| at every step j and state y with
    z[j, y] > 0, where v_j is the mass that _forward computes in exact
    arithmetic, and delta bounds how far a kernel row's sum is from 1.
    tilt_max is max_y |t(y)| per step (0.0 for no tilt).

    Derivation.  Take each float operation as exact times (1 + theta) with
    |theta| <= u = 2^-53, and numpy's exp and log as exact within two ulps
    (relative error 4u; numpy's accuracy tests hold its float64 exp and log
    within one); the constants below absorb the terms of order u^2.
    Step j computes m = z[j-1] @ K_j, a sum of s nonnegative products
    (relative error 1.01 s u); e = log(m) + t with the tilt t = fl(fl(gamma
    phi) c), within 2.01 u |t| of the exact tilt (log: 4u |log m|; add:
    u |e|); top = max e and log_scale[j] = log_scale[j-1] + top (u
    |log_scale[j]|); z[j] = exp(e - top) (subtract: u |e - top|; exp: 4.04 u
    in log space).  So if step j - 1 is within H_(j-1) of ln v_(j-1) at
    every state, step j is within H_j = H_(j-1) + eps_j of ln v_j, with
    eps_j the largest over states y of
    u (1.01 s + 4.04 + 4 |log m| + 2.01 |t| + |e| + |e - top| + |log_scale[j]|).
    The computed arrays bound each term: e - top = ln z[j, y],
    |e| <= |ln z[j, y]| + |top|, |log m| <= |e| + |t| and
    |top| = |log_scale[j] - log_scale[j-1]|, each to within u of its size, so
    eps_j <= u (1.01 s + 5 + 7 (max_y |ln z[j, y]| + |top| + max_y |t(y)|)
    + 2 |log_scale[j]|), and H is their sum, taken after the division by
    scale so that it cannot overflow where H / scale is finite.  The count
    takes every positive entry of z as a normal float: an entry that
    underflows, or turns subnormal, is below 2^-1022 of its step's largest
    and is outside it.  delta is max |fl(row sum) - 1| plus that sum's own
    rounding.
    """
    s = z.shape[1]
    logs = np.abs(np.log(z, out=np.zeros_like(z), where=z > 0.0))
    top = np.abs(np.diff(log_scale, prepend=0.0))
    eps = 1.01 * s + 5.0 + 7.0 * (logs.max(axis=1) + top + tilt_max) + 2.0 * np.abs(log_scale)
    delta = float(np.abs(model.kernel.sum(axis=2) - 1.0).max()) + 1.01 * s * _U
    return _U * float((eps / scale).sum()), delta


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
    return next(_discounted(model, [policy], schedule, k, [n], [x]))[0]


def _discounted(model: Model, policies: list, schedule: DiscountSchedule, k: int, horizons: list, x):
    """exact_discounted_value's results, member b policies[b] from x[b], per
    member and horizon from one pass of max(horizons), each with its rounding
    bound: a function of no arguments, called only by the checks that compare
    values, bounding the distance between the value and the same functional
    in exact arithmetic on the same model, weights and normalizer.

    The bound: with C = max |c| over the window and (H, delta) from
    _forward_rounding, exp(log_scale[j]) z[j] is within a factor e^(H + 4.04u)
    of the exact distribution, whose mass is within (1 +- delta)^j of 1;
    each row's sum of s products with c adds 1.01 (s + 1) u relative to
    sum_y z |c|, the weighted sum of n terms 1.01 n u of sum_j phi_j C, and
    the division u |value|.  While H and n delta stay below 0.01 that gives
    C (1.05 (H + (n - 1) delta) + (2 s + 2 n + 6) u) + u |value|.
    """
    norms = [schedule.partial_sum(k, n) for n in horizons]
    for phi, _, _, actions, c, tilt, starts in _window(model, policies, schedule, k, max(horizons), x, [0.0] * len(x)):
        z, log_scale = _forward(model, actions, starts, tilt)
        terms = np.exp(log_scale) * (z * c).sum(axis=2)
        for b, start in enumerate(starts.tolist()):
            for n, norm in zip(horizons, norms):
                value = float(phi[:n] @ terms[b, :n]) / norm
                rounding = partial(_discounted_rounding, model, z[b, :n], log_scale[b, :n], c[b, :n], value)
                yield EvaluationResult(value=value, horizon=n, start_k=k, start_x=start, normalizer=norm), rounding


def _discounted_rounding(model: Model, z: np.ndarray, log_scale: np.ndarray, c: np.ndarray, value: float) -> float:
    H, delta = _forward_rounding(model, z, log_scale, 0.0, 1.0)
    s, n = model.n_states, len(z)
    return float(np.abs(c).max()) * (1.05 * (H + (n - 1) * delta) + (2 * s + 2 * n + 6) * _U) + _U * abs(value)


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
    return next(_risk(model, [policy], schedule, [gamma], k, n, [x]))[0]


def _risk(model: Model, policies: list, schedule: DiscountSchedule, gamma: list, k: int, n: int, x):
    """exact_risk_value's results, member b policies[b] from x[b] with the
    factor gamma[b], each with its rounding bound as in _discounted.

    The bound: the total T = log_scale[-1] + ln sum_y z[-1, y] is within H
    of its exact value on the kernel as given (_forward_rounding), and that
    kernel's path masses are within (1 +- delta)^(n-1) of a stochastic
    one's, 1.01 (n - 1) delta in log space.  The sum of s entries, between
    1 and s, and its log add (1.01 (s - 1) + 4.04 ln s) u <= (2 s + 2) u,
    the final add u |T|, and the division by fl(gamma S) 2.01 u |value|, so
    rounding = 1.01 (H + 1.01 (n - 1) delta + (2 s + 2 + |T|) u) / (|gamma| S)
    + 3 u |value|.  It grows like 1 / |gamma|, as the rounding of T does not
    shrink with gamma.
    """
    gamma = [_risk_factor(g) for g in gamma]
    for _, norm, lo, actions, _, tilt, starts in _window(model, policies, schedule, k, n, x, gamma):
        z, log_scale = _forward(model, actions, starts, tilt)
        for b, (start, g) in enumerate(zip(starts.tolist(), gamma[lo:])):
            total = log_scale[b, -1] + math.log(z[b, -1].sum())
            value = total / (g * norm)
            rounding = partial(_risk_rounding, model, z[b], log_scale[b], tilt[b], abs(g) * norm, total, value)
            yield EvaluationResult(value=value, horizon=n, start_k=k, start_x=start, normalizer=norm), rounding


def _risk_rounding(model: Model, z, log_scale, tilt, scale: float, total: float, value: float) -> float:
    H_scaled, delta = _forward_rounding(model, z, log_scale, np.abs(tilt).max(axis=1), scale)
    rest = (1.01 * (len(z) - 1) * delta + (2 * model.n_states + 2 + abs(total)) * _U) / scale
    return 1.01 * (H_scaled + rest) + 3.0 * _U * abs(value)


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
    [(phi, norm, _, [actions], [c], _, _)] = _window(model, [policy], schedule, k, n, [x0], [gamma])
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
    A check over an empty panel would pass vacuously, so size is at least 1.
    A panel of more than _PANEL_ENTRIES table entries is refused before any
    table is drawn."""
    size = _count(size, "policy panel size", 1)
    n_slices = _count(n_slices, "panel slice count", 1)
    if size * n_slices * model.n_states > _PANEL_ENTRIES:
        raise InvalidModel(
            f"a panel of {size} policies x {n_slices} slices x {model.n_states} states exceeds "
            f"{_PANEL_ENTRIES} action entries"
        )
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
    phi(k)-weighted relative-value slack.  The panel, drawn from its own
    seeded generator, is drawn right after the window check, so a panel
    above its cap is refused before any solve or evaluation.
    """
    horizon_grid = _horizon_grid(horizon_grid)
    phi_k = schedule.phi(k)
    panel = random_policy_panel(model, n_slices=max(horizon_grid), size=panel_size, seed=panel_seed, start=k)
    sol = relative_value_iteration(model, tol=tol)
    w_max = float(sol.w.max())
    members = [sol.policy] + panel
    rows = []
    for i, (res, _) in enumerate(_discounted(model, members, schedule, k, horizon_grid, [x] * len(members))):
        if i < len(horizon_grid):
            slack = (phi_k * w_max + w_max) / res.normalizer + CHECK_SLACK
            gap = abs(res.value - sol.lam)
            rows.append(CheckRow(label=f"optimal policy, n={res.horizon}", value=gap, bound=slack, passed=gap <= slack))
        else:
            bound = sol.lam + w_max * phi_k / res.normalizer + CHECK_SLACK
            label = f"panel policy {i // len(horizon_grid) - 1}, n={res.horizon}"
            rows.append(CheckRow(label=label, value=res.value, bound=bound, passed=res.value <= bound))
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
    slack assembled from the relative value function, plus the value's own
    rounding bound, which grows like 1 / gamma.
    """
    gamma = _risk_factor(gamma, 1)
    _indices(x, model.n_states, "start state")
    panel = list(policy_panel)
    _count(len(panel), "policy panel size", 1)
    norm = schedule.partial_sum(k, n)
    sol = risk_relative_value_iteration(model, gamma, tol=tol)
    w = sol.w
    w_max = float(w.max())
    phi_k = schedule.phi(k)
    phi_last = schedule.phi(n + k - 1)
    slack = (phi_k * float(w[x]) + w_max * (phi_k - phi_last)) / (gamma * norm) + CHECK_SLACK
    bound = sol.lam + slack
    rows = []
    for idx, (res, rounding) in enumerate(_risk(model, panel, schedule, [gamma] * len(panel), k, n, [x] * len(panel))):
        row_bound = bound + rounding()
        rows.append(
            CheckRow(label=f"panel policy {idx}", value=res.value, bound=row_bound, passed=res.value <= row_bound)
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
    tolerance is purely numerical: CHECK_SLACK plus the rounding bounds of
    the two values compared, which grow like 1 / gamma.
    """
    gamma = _risk_factor(gamma, 1)
    (low, low_rounding), (high, high_rounding) = _risk(model, [policy] * 2, schedule, [-gamma, gamma], k, n, [x] * 2)
    [(middle, middle_rounding)] = _discounted(model, [policy], schedule, k, [n], [x])
    lower, mid, upper = low.value, middle.value, high.value
    mid_slack = middle_rounding()
    below = mid + CHECK_SLACK + low_rounding() + mid_slack
    above = upper + CHECK_SLACK + mid_slack + high_rounding()
    rows = [
        CheckRow(label="risk(-gamma) <= discounted", value=lower, bound=below, passed=lower <= below),
        CheckRow(label="discounted <= risk(+gamma)", value=mid, bound=above, passed=mid <= above),
    ]
    context = {"gamma": gamma, "k": k, "n": n, "x": x, "lower": lower, "mid": mid, "upper": upper}
    return _finish("sandwich", rows, context)
