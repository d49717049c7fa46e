"""Average-reward solvers: span-contracting value iteration, additive Poisson
equations, and the time-extended backward recursion for general discounting.

All fixed points here live in span-seminorm equivalence classes; solutions
pin a representative by shifting the relative value function to min 0 and
read the optimal gain off the anchor state.

Every solve here and in risk_solver, which passes its own sweep, runs on
two drivers: _span_iterate (stationary equations) and _backward
(time-extended recursions).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EnumerationTooLarge, InvalidModel, NoConvergence, NotErgodic
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    _finite_number,
    _horizon_grid,
    _indices,
    span_seminorm,
)

# cross-check tolerance between the iterated gain and the invariant-measure gain
_GAIN_CROSS_CHECK = 1e-9


@dataclass(frozen=True)
class SpanSolution:
    """Relative value function w (min 0), gain, and the attaining policy."""

    w: np.ndarray
    lam: float
    span_residual: float
    iterations: int
    policy: StationaryPolicy


@dataclass(frozen=True)
class TimeExtendedSolution:
    """Backward-recursion solution over a truncated time window.

    w_grid[j] is the relative value slice for time index start + j,
    shifted to min 0.  lambda_seq[j] is the normalized per-slice gain.
    truncation_bound bounds the span distance between the first slice and
    the exact infinite-window solution.
    """

    start: int
    w_grid: np.ndarray
    lambda_seq: np.ndarray
    policy_seq: np.ndarray
    truncation_bound: float


def _bellman_values(model: Model, w: np.ndarray, phi: float = 1.0):
    """One sup-Bellman sweep: values and argmax actions (ties -> lowest index)."""
    q = phi * model.reward.T + model.kernel @ w
    return q.max(axis=0), q.argmax(axis=0)


def _check_solver_inputs(model: Model, tol: float, anchor: int = 0) -> float:
    """Preconditions shared by every solver and the Perron oracle, among them
    the one tolerance rule (a finite number > 0, no bool); returns the
    ergodicity coefficient."""
    if not _finite_number(tol, "tolerance") > 0.0:
        raise InvalidModel(f"tolerance must be positive and finite, got {tol!r}")
    delta = model.ergodicity
    if delta >= 1.0:
        raise NotErgodic(f"ergodicity coefficient is {delta}; need < 1")
    _indices(anchor, model.n_states, "anchor state")
    return delta


def _span_iterate(model: Model, sweep, threshold: float, max_iter: int):
    """Iterate w <- sweep(w) - min until span(sweep(w) - w) <= threshold.

    Returns (w, values, actions, iterations) of the sweep that met the
    threshold, where values, actions = sweep(w).
    """
    w = np.zeros(model.n_states)
    step = math.inf
    for it in range(1, max_iter + 1):
        values, actions = sweep(w)
        step = span_seminorm(values - w)
        if step <= threshold:
            return w, values, actions, it
        w = values - values.min()
    raise NoConvergence(f"no convergence after {max_iter} iterations (residual span {step:.3e})")


def relative_value_iteration(
    model: Model,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    anchor: int = 0,
) -> SpanSolution:
    """Solve the average-reward optimality equation by span iteration.

    Iterates w <- max_a [c(., a) + P^a w] until the span of the update step
    certifies (via the contraction factor) that the returned iterate is
    within tol of the fixed-point class.  The gain is the anchor-state value
    of (Bellman(w) - w) after convergence and equals the optimal long-run
    average reward.
    """
    delta = _check_solver_inputs(model, tol, anchor)
    # stopping on the step span certifies span distance <= tol to the fixed point
    threshold = tol * (1.0 - delta) / max(delta, 1e-300)
    sweep = functools.partial(_bellman_values, model)
    _, values, _, iterations = _span_iterate(model, sweep, threshold, max_iter)
    w = values - values.min()
    resid_vals, acts = sweep(w)
    resid = resid_vals - w
    return SpanSolution(
        w=w,
        lam=float(resid[anchor]),
        span_residual=span_seminorm(resid),
        iterations=iterations,
        policy=StationaryPolicy(acts),
    )


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Invariant probability vector of a single row-stochastic matrix.

    Direct linear solve of pi P = pi with the normalization row appended in
    place of the last balance equation.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(A, b)
    if mu.min() < -1e-10:
        raise NotErgodic("stationary solve produced a negative probability; kernel is not uniformly ergodic")
    mu = np.clip(mu, 0.0, None)
    return mu


def invariant_measure(model: Model, policy: StationaryPolicy) -> np.ndarray:
    """Invariant measure of the chain controlled by a stationary policy."""
    sub = model.under_policy(policy)
    if sub.ergodicity >= 1.0:
        raise NotErgodic("policy kernel has ergodicity coefficient >= 1")
    return stationary_distribution(sub.kernel[0])


def poisson_solve(model: Model, policy: StationaryPolicy, tol: float = 1e-10) -> SpanSolution:
    """Solve the additive Poisson equation w + lam = c_u + P_u w for a fixed policy.

    Runs the same span iteration as relative_value_iteration on the frozen
    model and cross-checks the iterated gain against the invariant-measure
    average mu_u . c_u, which must agree to 1e-9.  The iteration is driven
    to whichever of tol and the cross-check accuracy is stricter.
    """
    sub = model.under_policy(policy)
    # the fixed 1e-9 cross-check needs the iterated gain at ~2x that accuracy
    eff_tol = min(tol, _GAIN_CROSS_CHECK / 4.0)
    sol = relative_value_iteration(sub, tol=eff_tol)
    # the iteration above already required sub to be ergodic
    lam_direct = float(stationary_distribution(sub.kernel[0]) @ sub.reward[:, 0])
    if abs(sol.lam - lam_direct) > _GAIN_CROSS_CHECK:
        raise NoConvergence(
            f"iterated gain {sol.lam!r} disagrees with invariant-measure gain {lam_direct!r}"
        )
    return replace(sol, policy=policy)


def policy_enumeration_oracle(model: Model, max_policies: int = 1_000_000):
    """Exact optimal gain by brute force over all stationary policies.

    Returns (best gain, best policy).  Guarded: raises EnumerationTooLarge
    when n_actions ** n_states exceeds max_policies.
    """
    count = model.n_actions ** model.n_states
    if count > max_policies:
        raise EnumerationTooLarge(f"{count} policies exceed the guard of {max_policies}")
    best_lam = -math.inf
    best_policy = None
    for assignment in itertools.product(range(model.n_actions), repeat=model.n_states):
        policy = StationaryPolicy(assignment)
        lam = float(invariant_measure(model, policy) @ model.policy_reward(policy))
        if lam > best_lam:
            best_lam = lam
            best_policy = policy
    return best_lam, best_policy


def default_window(model: Model, tol: float) -> int:
    """Window length making the terminal-truncation error at most tol."""
    delta = model.ergodicity
    span_c = model.reward_span()
    if delta <= 0.0 or span_c == 0.0:
        return 1
    target = tol * (1.0 - delta) / span_c
    if target >= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(delta)))


def _window(schedule: DiscountSchedule, k: int, n_slices: int) -> np.ndarray:
    """phi over the solve window k .. k + n_slices - 1, checked to be positive."""
    phi = schedule.phi_array(k, n_slices)
    if (phi <= 0.0).any():
        raise InvalidModel("schedule must be strictly positive over the window")
    return phi


def _backward(model: Model, sweep, phi: np.ndarray, pin):
    """Backward recursion over the window from a zero terminal slice.

    Slice j is sweep(next slice, phi[j]) minus its offset pin(values); the
    recursion carries the pinned slice.  Returns (offsets, slices shifted
    to min 0, actions), one row per slice.
    """
    n, s = phi.shape[0], model.n_states
    offsets = np.empty(n)
    w_grid = np.empty((n, s))
    actions = np.empty((n, s), dtype=int)
    w = np.zeros(s)
    for j in range(n - 1, -1, -1):
        values, actions[j] = sweep(w, phi[j])
        offsets[j] = pin(values)
        w = values - offsets[j]
        w_grid[j] = w - w.min()
    return offsets, w_grid, actions


def time_extended_solve(
    model: Model,
    schedule: DiscountSchedule,
    k: int = 0,
    n_slices: int | None = None,
    tol: float = 1e-10,
    anchor: int = 0,
) -> TimeExtendedSolution:
    """Backward recursion for the generally discounted optimality equation.

    Starting from a zero terminal slice, each slice applies the phi-weighted
    sup-Bellman operator to the next one; the anchor-state value of each
    slice is split off as lambda_seq[j] * phi(k + j), and stored slices are
    shifted to min 0.  The terminal truncation contributes at most
    delta^N * span(c) / (1 - delta) in span at the first slice.
    """
    delta = _check_solver_inputs(model, tol, anchor)
    if n_slices is None:
        n_slices = default_window(model, tol)
    phi = _window(schedule, k, n_slices)
    offsets, w_grid, policy_seq = _backward(
        model, functools.partial(_bellman_values, model), phi, lambda v: v[anchor]
    )
    trunc = (delta ** n_slices) * model.reward_span() / (1.0 - delta)
    return TimeExtendedSolution(
        start=k,
        w_grid=w_grid,
        lambda_seq=offsets / phi,
        policy_seq=policy_seq,
        truncation_bound=float(trunc),
    )


def cesaro_values(sol: TimeExtendedSolution, schedule: DiscountSchedule, n_grid) -> np.ndarray:
    """phi-weighted running averages of the per-slice gains.

    For each n in n_grid returns
    sum_{j<n} lambda_seq[j] phi(start+j) / sum_{j<n} phi(start+j); these
    approach the stationary optimal gain as the window grows.
    """
    n_grid = _horizon_grid(n_grid)
    N = sol.lambda_seq.shape[0]
    for n in n_grid:
        if not 1 <= n <= N:
            raise InvalidModel(f"grid point {n} outside the solved window of {N} slices")
    phi = schedule.phi_array(sol.start, N)
    num = np.cumsum(sol.lambda_seq * phi)
    den = np.cumsum(phi)
    return np.array([num[n - 1] / den[n - 1] for n in n_grid])
