"""Risk-sensitive solvers: multiplicative Bellman and Poisson equations in log
space, a Perron-root oracle for fixed policies, the a-priori span bound, and
the gamma sweep connecting the risk-sensitive gain to the average reward.

The multiplicative equations are always iterated on their logarithmic
transform with shifted exponentials, so reward scales that would overflow
exp() directly remain solvable.  The log-space sweep runs through the
span-iteration and backward drivers of average_solver, and a stationary
solve returns average_solver's SpanSolution with its risk factor, bound and
certificate filled in; gamma_sweep's gamma = 0 row is the additive solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    KernelsNotEquivalent,
    MarginNotSatisfied,
    NoConvergence,
)
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    _finite_number,
    _risk_factor,
    equivalence_constant,
    risk_contraction_margin,
    span_seminorm,
)
from .average_solver import SpanSolution, _backward, _check_solver_inputs, _span_iterate, _window, poisson_solve

CERT_EQUIVALENCE = "equivalence"
CERT_MARGIN = "margin"
CERT_NONE = "uncertified"


@dataclass(frozen=True)
class RiskTimeExtendedSolution:
    """Backward-recursion risk solution over a truncated window.

    Slices are normalized to min 0; the subtracted constants define
    lambda_seq.  slice_residuals[j] is the span of w_grid[j] - w_grid[j+1],
    a settling diagnostic (no computable a-priori contraction factor exists
    for the log-transformed operator, so truncation quality is reported
    a posteriori).
    """

    start: int
    gamma: float
    w_grid: np.ndarray
    lambda_seq: np.ndarray
    policy_seq: np.ndarray
    slice_residuals: np.ndarray
    converged: bool
    certificate: str
    bound: float


def risk_span_bound(model: Model, gamma: float) -> float:
    """A-priori sup bound span(gamma c) - ln(1 - margin) on the relative value.

    Only available when the risk contraction margin is below 1; raises
    MarginNotSatisfied otherwise.  Defined at gamma = 0.
    """
    margin = risk_contraction_margin(model, gamma)
    if margin >= 1.0:
        raise MarginNotSatisfied(f"contraction margin {margin} >= 1; no a-priori span bound")
    return abs(gamma) * model.reward_span() - math.log(1.0 - margin)


def certificate_for(model: Model, gamma: float):
    """Pick the tightest available a-priori bound on the relative value.

    Tries the row-equivalence bound and the contraction-margin bound and
    returns (name, value).  When neither holds the solve may still proceed
    on a finite model, flagged ("uncertified", inf).  Defined at gamma = 0.
    """
    gamma = _finite_number(gamma, "gamma")
    candidates = []
    try:
        k_const = equivalence_constant(model)
        candidates.append((CERT_EQUIVALENCE, abs(gamma) * model.reward_span() + math.log(k_const)))
    except KernelsNotEquivalent:
        pass
    try:
        candidates.append((CERT_MARGIN, risk_span_bound(model, gamma)))
    except MarginNotSatisfied:
        pass
    if not candidates:
        return CERT_NONE, math.inf
    return min(candidates, key=lambda c: c[1])


def _risk_values(model: Model, gamma: float, w: np.ndarray, phi: float = 1.0):
    """One sweep of the log-transformed multiplicative operator.

    Computes extr_a [gamma*phi*c(., a) + ln sum_y exp(w(y)) P^a(., y)] with a
    shifted exponential; extr is max for gamma > 0 and min for gamma < 0,
    ties resolved toward the lowest action index.
    """
    shift = w.max()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = gamma * phi * model.reward.T + shift + np.log(model.kernel @ np.exp(w - shift))
    if not np.isfinite(q).all():
        # an iterate, or gamma * c itself, escaped the representable range:
        # no bounded solution is reachable from here (possible only without
        # a finite span certificate)
        raise NoConvergence("relative values left the representable log range")
    if gamma > 0:
        return q.max(axis=0), q.argmax(axis=0)
    return q.min(axis=0), q.argmin(axis=0)


def risk_relative_value_iteration(
    model: Model,
    gamma: float,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
    anchor: int = 0,
) -> SpanSolution:
    """Solve the risk-sensitive optimality equation by log-space span iteration.

    The iteration stops once the span of (operator(w) - w) is at most tol;
    the gain is the anchor value of that residual divided by gamma.  The
    extremum is a sup for gamma > 0 and an inf for gamma < 0; both signs run
    through the same code path.  certificate names the a-priori sup bound
    on w that applies ("equivalence": span(gamma c) + ln(row ratio),
    "margin": the contraction-margin bound, or "uncertified" when neither
    sufficient condition holds); bound is its value (inf when uncertified).
    """
    gamma = _risk_factor(gamma)
    _check_solver_inputs(model, tol, anchor)
    cert, bound = certificate_for(model, gamma)
    sweep = functools.partial(_risk_values, model, gamma)
    w, values, actions, iterations = _span_iterate(model, sweep, tol, max_iter)
    resid = values - w
    return SpanSolution(w=w, lam=float(resid[anchor]) / gamma, residual=span_seminorm(resid), iterations=iterations,
                        policy=StationaryPolicy(actions), bound=bound, gamma=gamma, certificate=cert)


def multiplicative_poisson_solve(
    model: Model,
    policy: StationaryPolicy,
    gamma: float,
    tol: float = 1e-10,
    max_iter: int = 1_000_000,
) -> SpanSolution:
    """Solve the multiplicative Poisson equation for a fixed stationary policy."""
    gamma = _risk_factor(gamma)
    sub = model.under_policy(policy)
    sol = risk_relative_value_iteration(sub, gamma, tol=tol, max_iter=max_iter)
    return replace(sol, policy=policy)


def perron_oracle(
    model: Model,
    policy: StationaryPolicy,
    gamma: float,
    tol: float = 1e-13,
    max_iter: int = 1_000_000,
) -> float:
    """Fixed-policy risk-sensitive gain via the Perron root.

    The gain equals (1/gamma) ln rho(Q) for Q(x, y) = exp(gamma c(x, u(x)))
    P_u(x, y).  Computed by the class-wise Collatz-Wielandt bracket that ldp
    shares, on the rescaled matrix exp(gamma (c - max c)) P_u, to a relative
    bracket gap tol.  Independent of the log-space span iteration.
    """
    gamma = _risk_factor(gamma)
    sub = model.under_policy(policy)
    _check_solver_inputs(sub, tol)
    c = sub.reward[:, 0]
    c_max = float(c.max())
    lo, hi = _perron_bracket(np.exp(gamma * (c - c_max))[:, None] * sub.kernel[0], tol, max_iter)
    return c_max + math.log(0.5 * (lo + hi)) / gamma


def _perron_bracket(Q: np.ndarray, tol: float, max_iter: int = 1_000_000, classes=None) -> tuple:
    """Bracket lo <= rho(Q) <= hi of a nonnegative matrix: the largest
    _collatz_wielandt bracket over the blocks of Q's communicating classes, as
    rho(Q) is the largest of their roots (Seneta, Non-negative Matrices,
    ch. 1); an irreducible Q is one class, bit for bit.  classes, when given,
    is _communicating_classes of a matrix with Q's zero pattern."""
    if classes is None:
        classes = _communicating_classes(Q)
    if len(classes) == 1 and Q.flags.c_contiguous:
        # the one class is Q itself; an F-ordered Q keeps the C-ordered copy,
        # since the gemv's bits depend on the layout
        return _collatz_wielandt(Q, tol, max_iter)
    brackets = [_collatz_wielandt(Q[np.ix_(k, k)], tol, max_iter) for k in classes]
    return max(lo for lo, _ in brackets), max(hi for _, hi in brackets)


def _communicating_classes(Q: np.ndarray) -> np.ndarray:
    """One boolean row per communicating class of a nonnegative matrix: the
    states reachable both ways once squarings of (Q > 0) | I stop growing the
    reachability, after at most ceil(log2 S) of them.  Each class is kept at
    the row of its first state."""
    reach = (Q > 0.0) | np.eye(Q.shape[0], dtype=bool)
    for _ in range(math.ceil(math.log2(Q.shape[0]))):
        grown = reach @ reach
        if (grown == reach).all():
            break
        reach = grown
    mutual = reach & reach.T
    return mutual[np.unique(mutual.argmax(axis=1))]


def _collatz_wielandt(Q: np.ndarray, tol: float, max_iter: int = 1_000_000) -> tuple:
    """Bracket lo <= rho(Q) <= hi of a nonnegative matrix by power iteration.

    lo and hi are the min and max of Qv / v at the current positive iterate
    v, so both hold at every step.  Each step multiplies by Q + (hi / 4) I,
    which converges for periodic irreducible Q too; stops once
    hi - lo <= tol hi, a relative gap however small rho(Q) is.

    Only the arithmetic whose bits numpy decides stays in numpy: the gemv
    Q.dot(v), the elementwise steps and the sum.  lo and hi are the builtin
    min and max of the ratios as a list, exact as numpy's reductions are, so
    the floats are the same without two more numpy calls per step.  Unlike
    numpy's, the builtins skip a NaN ratio or return it depending on where it
    sits, so the stop also refuses any NaN ratio, as numpy's NaN-propagating
    min and max never stopped on one.
    """
    v = np.ones(Q.shape[0]) / Q.shape[0]
    dot, total = Q.dot, np.add.reduce
    for _ in range(max_iter):
        qv = dot(v)
        ratios = (qv / v).tolist()
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * hi and not any(map(math.isnan, ratios)):
            return lo, hi
        qv += (0.25 * hi) * v
        v = qv / total(qv)
    raise NoConvergence("power iteration did not bracket the Perron root")


def risk_time_extended_solve(
    model: Model,
    schedule: DiscountSchedule,
    gamma: float,
    k: int = 0,
    n_slices: int = 1,
    tol: float = 1e-10,
) -> RiskTimeExtendedSolution:
    """Backward recursion for the generally discounted risk-sensitive equation.

    Each slice applies the log-transformed operator with phi-weighted reward
    to the next slice; the minimum of the result is split off as
    lambda_seq[j] * gamma * phi(k + j) and the slice is stored at min 0.
    The recursion itself is exact; convergence toward the infinite-window
    solution is reported through slice_residuals (converged is True when the
    first slice's residual is at most tol).
    """
    gamma = _risk_factor(gamma)
    _check_solver_inputs(model, tol)
    phi = _window(schedule, k, n_slices)
    cert, bound = certificate_for(model, gamma)
    offsets, w_grid, policy_seq = _backward(model, functools.partial(_risk_values, model, gamma), phi, np.min)
    # span of each slice minus the next one (the zero terminal slice after the last)
    resid = np.ptp(w_grid - np.vstack((w_grid[1:], np.zeros_like(w_grid[0]))), axis=1)
    return RiskTimeExtendedSolution(
        start=k,
        gamma=gamma,
        w_grid=w_grid,
        lambda_seq=offsets / (gamma * phi),
        policy_seq=policy_seq,
        slice_residuals=resid,
        converged=bool(resid[0] <= tol),
        certificate=cert,
        bound=bound,
    )


def gamma_sweep(model: Model, policy: StationaryPolicy, gammas, tol: float = 1e-10) -> list:
    """Fixed-policy risk-sensitive gain across a list of risk factors.

    Returns the solves themselves, one SpanSolution per gamma, stably sorted
    by gamma: the additive Poisson solve (the small-risk limit) as the
    gamma = 0 row, and a multiplicative Poisson solve per given gamma.
    Every row solves on one frozen single-action model, with its all-zero
    policy, so its ergodicity coefficient is computed once per sweep.

    The true gains are nondecreasing in gamma.  The computed ones are only
    within tol / |gamma| of them (lam is a log-space residual divided by
    gamma), so near GAMMA_FLOOR they can fall by up to that much.
    """
    sub = model.under_policy(policy)
    zero_policy = StationaryPolicy([0] * sub.n_states)
    rows = [poisson_solve(sub, zero_policy, tol=tol)]
    rows += [multiplicative_poisson_solve(sub, zero_policy, gamma, tol=tol) for gamma in gammas]
    rows.sort(key=lambda r: r.gamma)
    return rows
