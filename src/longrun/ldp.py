"""Weighted empirical measures, the Donsker-Varadhan rate function, and exact
finite-horizon large-deviation upper bounds for a fixed Markov kernel.

Everything here concerns a single uncontrolled chain P (typically a policy
kernel).  The rate function is evaluated by one multi-start concave
maximization over log test functions, which the deviation-set infimum also
calls: at the band's two boundary points for two-state chains, inside an
SLSQP search over each half-space otherwise.  The deviation-probability
bounds are verified exactly, by the exact risk evaluator for the
exponential-martingale inequality and by full path enumeration for event
probabilities.  Each public function checks its kernel once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import (
    CheckFailed,
    EmptyDeviationSet,
    EnumerationTooLarge,
    GammaOutOfRange,
    InvalidModel,
    NoConvergence,
    NotErgodic,
)
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    phi_partial_sum,
)
from .average_solver import stationary_distribution
from .evaluator import exact_risk_value

# search box for log test functions when no ratio constraint is given; the
# value a capped search forgoes is below exp(-box) and thus far under any
# tolerance used here
_LOG_BOX = 40.0

_ENUM_CHUNK = 1 << 21


def _as_chain(P) -> Model:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidModel("kernel must be a square matrix")
    return Model(P[None, :, :], np.zeros((P.shape[0], 1)))


def _require_ergodic(P) -> np.ndarray:
    chain = _as_chain(P)
    if chain.ergodicity >= 1.0:
        raise NotErgodic("kernel has ergodicity coefficient >= 1")
    return chain.kernel[0]


@dataclass(frozen=True)
class WeightedEmpiricalMeasure:
    """phi-weighted occupation frequencies of a trajectory."""

    nu: np.ndarray
    start: int
    horizon: int
    schedule: DiscountSchedule


def weighted_empirical(
    trajectory, schedule: DiscountSchedule, k: int, n_states: int | None = None
) -> WeightedEmpiricalMeasure:
    """Weighted empirical measure nu(y) = sum phi(k+j) 1{X_j = y} / sum phi."""
    traj = np.asarray(trajectory, dtype=int)
    if traj.ndim != 1 or traj.size == 0:
        raise InvalidModel("trajectory must be a nonempty state sequence")
    if (traj < 0).any():
        raise InvalidModel("trajectory contains negative state indices")
    s = int(traj.max()) + 1 if n_states is None else int(n_states)
    if (traj >= s).any():
        raise InvalidModel("trajectory contains states outside the declared space")
    n = traj.size
    phi = schedule.phi_array(k, n)
    norm = phi_partial_sum(schedule, k, n)
    if norm <= 0.0:
        raise InvalidModel("schedule mass over the window must be positive")
    nu = np.bincount(traj, weights=phi, minlength=s) / norm
    return WeightedEmpiricalMeasure(nu=nu, start=k, horizon=n, schedule=schedule)


# --------------------------------------------------------------------------
# rate function


@dataclass(frozen=True)
class RateReport:
    """Value of the rate function at nu with the test function achieving it.

    The reported value always equals the objective at the reported maximizer
    (a lower bound on the supremum); converged is False when the projected
    gradient at the best point stayed large.
    """

    nu: np.ndarray
    value: float
    maximizer: np.ndarray
    d_constraint: float | None
    restarts: int
    grad_norm: float
    converged: bool


def _rate_objective(g: np.ndarray, P: np.ndarray, nu: np.ndarray):
    """Objective nu.g - nu.ln(P e^g) and its gradient, computed with a shift."""
    m = g.max()
    u = np.exp(g - m)
    pe = P @ u
    val = float(nu @ g - m - nu @ np.log(pe))
    grad = nu - u * (P.T @ (nu / pe))
    return val, grad


def _ascend(P: np.ndarray, nu: np.ndarray, hi: float, starts) -> tuple:
    best_val = -math.inf
    best_g = None
    bounds = [(0.0, hi)] * P.shape[0]
    for g0 in starts:
        res = optimize.minimize(
            lambda g: tuple(-t for t in _rate_objective(g, P, nu)),
            np.clip(g0, 0.0, hi),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_g = res.x
    return best_val, best_g


def _grid_best_2(P: np.ndarray, nu: np.ndarray, hi: float, step: float = 1e-4) -> tuple:
    """Exhaustive scan over the 2-state family g = (0, t); the grid oracle."""
    with np.errstate(divide="ignore"):
        logP = np.log(P)
    ts = np.arange(-hi, hi + step / 2, step)
    vals = nu[1] * ts - (
        nu[0] * np.logaddexp(logP[0, 0], logP[0, 1] + ts)
        + nu[1] * np.logaddexp(logP[1, 0], logP[1, 1] + ts)
    )
    j = int(np.argmax(vals))
    return float(vals[j]), float(ts[j])


def _rate_search(P: np.ndarray, nu: np.ndarray, hi: float = _LOG_BOX, restarts: int = 16, seed: int = 0) -> tuple:
    """Seeded multi-start ascent of the rate objective over the box [0, hi]^s.

    Runs on a checked kernel and returns (value, g, number of starts); for
    two states an exhaustive grid over the one free coordinate, polished by
    one more ascent, backs the ascent.
    """
    rng = np.random.default_rng(seed)
    s = P.shape[0]
    starts = [np.zeros(s)] + [rng.uniform(0.0, hi, size=s) for _ in range(max(restarts - 1, 0))]
    best_val, best_g = _ascend(P, nu, hi, starts)
    if s == 2:
        grid_val, grid_t = _grid_best_2(P, nu, hi)
        polish_val, polish_g = _ascend(P, nu, hi, [np.array([max(0.0, -grid_t), max(0.0, grid_t)])])
        for val, g in ((grid_val, np.array([max(0.0, -grid_t), max(0.0, grid_t)])), (polish_val, polish_g)):
            if g is not None and val > best_val:
                best_val, best_g = val, g
    return float(best_val), best_g, len(starts)


def rate_function(P, nu, d: float | None = None, restarts: int = 16, seed: int = 0) -> RateReport:
    """Donsker-Varadhan rate of nu against the kernel P.

    Maximizes nu.ln(f) - nu.ln(Pf) over positive test functions f = e^g.
    The objective is invariant under scaling f, so g is searched in the box
    [0, ln d]^s (an unconstrained search uses a wide fixed box); for two
    states an exhaustive grid over the one free coordinate backs the ascent.
    The value is zero exactly at invariant measures.
    """
    P = _require_ergodic(P)
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (P.shape[0],):
        raise InvalidModel("nu must be a probability vector over the kernel's states")
    if (nu < -1e-12).any() or abs(nu.sum() - 1.0) > 1e-9:
        raise InvalidModel("nu must be a probability vector")
    if d is not None and not d > 1.0:
        raise InvalidModel("ratio constraint d must exceed 1")
    hi = math.log(d) if d is not None else _LOG_BOX
    best_val, best_g, n_starts = _rate_search(P, nu, hi, restarts, seed)
    _, grad = _rate_objective(best_g, P, nu)
    # projected gradient: components pushing outside the box do not count
    proj = grad.copy()
    proj[(best_g <= 0.0) & (grad < 0)] = 0.0
    proj[(best_g >= hi) & (grad > 0)] = 0.0
    grad_norm = float(np.abs(proj).max())
    return RateReport(
        nu=nu,
        value=best_val,
        maximizer=np.exp(best_g - best_g.min()),
        d_constraint=d,
        restarts=n_starts,
        grad_norm=grad_norm,
        converged=grad_norm <= 1e-6,
    )


# --------------------------------------------------------------------------
# exact deviation bounds


@dataclass(frozen=True)
class SupermartingaleCheck:
    lhs: float
    d_f: float
    passed: bool


def dv_supermartingale_check(
    P, f, schedule: DiscountSchedule, k: int, n: int, x: int
) -> SupermartingaleCheck:
    """Exact check of E[exp(sum phi(i) ln(f/Pf)(X_i))] <= max f / min f.

    The expectation is the gamma = 1 exact risk value of the one-action
    chain with reward ln(f/Pf), times its phi partial sum, so the check is
    exact up to rounding for any horizon.  Requires min f >= 1.
    """
    P = _require_ergodic(P)
    f = np.asarray(f, dtype=float)
    if f.shape != (P.shape[0],) or not np.isfinite(f).all() or f.min() < 1.0:
        raise InvalidModel("f must be a finite vector with min f >= 1")
    r = np.log(f) - np.log(P @ f)
    chain = Model(P[None, :, :], r[:, None])
    res = exact_risk_value(chain, StationaryPolicy([0] * P.shape[0]), schedule, 1.0, k, n, x)
    lhs = math.exp(res.value * res.normalizer)
    d_f = float(f.max() / f.min())
    return SupermartingaleCheck(lhs=lhs, d_f=d_f, passed=lhs <= d_f + 1e-12)


def _enumerate_mass(P, r, phi, j, n, probs, sums, last, threshold):
    """Mass of length-n paths whose weighted r-sum reaches the threshold.

    Expands level by level; splits the frontier in half whenever the next
    expansion would exceed the chunk size, so memory stays bounded while the
    fixed index order keeps the accumulated sum deterministic.
    """
    s = P.shape[0]
    while j < n:
        if probs.size * s > _ENUM_CHUNK and probs.size > 1:
            half = probs.size // 2
            return _enumerate_mass(P, r, phi, j, n, probs[:half], sums[:half], last[:half], threshold) + \
                _enumerate_mass(P, r, phi, j, n, probs[half:], sums[half:], last[half:], threshold)
        trans = P[last, :]
        probs = (probs[:, None] * trans).ravel()
        sums = (sums[:, None] + phi[j] * r[None, :]).ravel()
        last = np.tile(np.arange(s), sums.size // s)
        keep = probs > 0.0
        if not keep.all():
            probs, sums, last = probs[keep], sums[keep], last[keep]
        j += 1
    return float(probs[sums >= threshold].sum())


def exact_event_probability(
    P, schedule: DiscountSchedule, k: int, n: int, f, kappa: float, x: int
) -> float:
    """Exact P{ sum phi(i) ln(f/Pf)(X_i) >= kappa * sum phi } by enumeration.

    Full path enumeration with exact probability accumulation; guarded to
    n <= 20 in general and n <= 22 for two-state chains.
    """
    return _event_probability(_require_ergodic(P), schedule, k, n, f, kappa, x)


def _event_probability(P: np.ndarray, schedule: DiscountSchedule, k: int, n: int, f, kappa: float, x: int) -> float:
    """exact_event_probability on a kernel that is already checked."""
    s = P.shape[0]
    if not (n <= 20 or (s == 2 and n <= 22)):
        raise EnumerationTooLarge(f"horizon {n} with {s} states exceeds the enumeration guard")
    if s ** (n - 1) > (1 << 27):
        raise EnumerationTooLarge(f"{s ** (n - 1)} paths exceed the workable enumeration budget")
    if n < 1:
        raise InvalidModel("horizon must be at least 1")
    if not 0 <= x < s:
        raise InvalidModel("start state out of range")
    f = np.asarray(f, dtype=float)
    if f.shape != (s,) or not np.isfinite(f).all() or f.min() <= 0.0:
        raise InvalidModel("f must be a finite positive vector")
    r = np.log(f) - np.log(P @ f)
    phi = schedule.phi_array(k, n)
    threshold = kappa * phi_partial_sum(schedule, k, n)
    probs = np.array([1.0])
    sums = np.array([phi[0] * r[x]])
    last = np.array([x])
    return _enumerate_mass(P, r, phi, 1, n, probs, sums, last, threshold)


@dataclass(frozen=True)
class DecayRow:
    n: int
    sum_phi: float
    q_exact: float
    bound: float
    normalized_log_q: float
    passed: bool


@dataclass(frozen=True)
class LdpReport:
    passed: bool
    rows: list
    d: float
    kappa: float


def ldp_upper_bound_check(
    P, f, kappa: float, schedule: DiscountSchedule, k: int, n_grid
) -> LdpReport:
    """Exact audit of the deviation bound Q <= d * exp(-kappa * sum phi).

    For each horizon n the exact event probability (worst case over start
    states) must stay below d = max f / min f times the exponential factor;
    the rows also carry the normalized decay ln(Q) / sum phi for trend
    inspection against the rate-function infimum.
    """
    Pm = _require_ergodic(P)
    f = np.asarray(f, dtype=float)
    if f.min() < 1.0:
        raise InvalidModel("f must satisfy min f >= 1")
    d = float(f.max() / f.min())
    rows = []
    for n in sorted(int(n) for n in n_grid):
        norm = phi_partial_sum(schedule, k, n)
        q = max(_event_probability(Pm, schedule, k, n, f, kappa, x) for x in range(Pm.shape[0]))
        bound = d * math.exp(-kappa * norm)
        decay = math.log(q) / norm if q > 0.0 else -math.inf
        rows.append(
            DecayRow(n=n, sum_phi=norm, q_exact=q, bound=bound, normalized_log_q=decay, passed=q <= bound + 1e-15)
        )
    report = LdpReport(passed=all(r.passed for r in rows), rows=rows, d=d, kappa=kappa)
    if not report.passed:
        bad = next(r for r in rows if not r.passed)
        raise CheckFailed(f"deviation bound violated at n={bad.n}: Q={bad.q_exact!r} > {bad.bound!r}", report)
    return report


# --------------------------------------------------------------------------
# deviation-set rate infimum and the near-optimality margin


def deviation_rate_infimum(P, cu, eps: float) -> float:
    """Infimum of the rate function over {nu : |nu.cu - mu.cu| >= eps}.

    The rate is convex and zero at mu, so on each side of the band the
    infimum lies on that side's boundary nu.cu = mu.cu +- eps.  For two
    states that boundary is a single point, and its rate is the side's
    infimum; larger chains minimize over each half-space with SLSQP from
    several starts.  Raises EmptyDeviationSet when eps exceeds the
    achievable deviation, and the returned infimum is always positive.
    """
    P = _require_ergodic(P)
    s = P.shape[0]
    cu = np.asarray(cu, dtype=float)
    if cu.shape != (s,):
        raise InvalidModel("reward vector must have one entry per state")
    if eps <= 0:
        raise InvalidModel("eps must be positive")
    mu = stationary_distribution(P)
    m = float(mu @ cu)
    reach = max(float(cu.max()) - m, m - float(cu.min()))
    if eps > reach + 1e-15:
        raise EmptyDeviationSet(f"eps {eps} exceeds the achievable deviation {reach}")
    best = math.inf
    rng = np.random.default_rng(0)
    cons_eq = {"type": "eq", "fun": lambda v: v.sum() - 1.0, "jac": lambda v: np.ones(s)}

    def objective(v):
        v = np.clip(v, 1e-12, None)
        v = v / v.sum()
        value, g, _ = _rate_search(P, v, restarts=4, seed=1)
        f = np.exp(g - g.min())
        return value, np.log(f) - np.log(P @ f)

    for sign in (1.0, -1.0):
        side_reach = (float(cu.max()) - m) if sign > 0 else (m - float(cu.min()))
        if eps > side_reach + 1e-15:
            continue
        vertex = np.zeros(s)
        vertex[int(np.argmax(sign * cu))] = 1.0
        if s == 2:
            # the side's one boundary point, on the segment from mu to the
            # vertex where nu.cu = m + sign * eps; the vertex itself at reach
            nu = vertex if eps >= side_reach else mu + eps / side_reach * (vertex - mu)
            best = min(best, _rate_search(P, nu)[0])
            continue
        cons_side = {
            "type": "ineq",
            "fun": lambda v, sg=sign: sg * (v @ cu - m) - eps,
            "jac": lambda v, sg=sign: sg * cu,
        }
        starts = [mu.copy()] + [rng.dirichlet(np.ones(s)) for _ in range(5)]
        starts.append(vertex)
        for v0 in starts:
            res = optimize.minimize(
                objective,
                v0,
                jac=True,
                method="SLSQP",
                bounds=[(0.0, 1.0)] * s,
                constraints=[cons_eq, cons_side],
                options={"maxiter": 200, "ftol": 1e-12},
            )
            if res.success and res.fun < best:
                best = float(res.fun)
    if not math.isfinite(best):
        raise EmptyDeviationSet("no feasible distribution at this eps")
    if best <= 0.0:
        raise NoConvergence("rate infimum over the deviation set came out nonpositive")
    return float(best)


@dataclass(frozen=True)
class MarginReport:
    lam_u: float
    rate_infimum: float
    slack: float
    eps: float
    gamma: float
    values: list
    margin: float
    passed: bool


def near_optimality_margin(
    model: Model,
    policy: StationaryPolicy,
    schedule: DiscountSchedule,
    eps: float,
    gamma: float,
    k: int,
    n: int,
) -> MarginReport:
    """Certify that a fixed policy is nearly optimal for small negative risk.

    Requires |gamma| < e / (2 max|c|) where e is the rate infimum over the
    eps-deviation set of the policy's reward.  The exact finite-horizon risk
    value (from every start state) must then stay above mu.cu - eps minus a
    computable remainder that vanishes as the horizon grows:
    slack(n) = ln(1 + exp(-S (e - 2|gamma| max|c| + |gamma| eps))) / (|gamma| S)
    with S the phi partial sum.
    """
    if gamma >= 0:
        raise InvalidModel("the margin applies to negative risk factors")
    P = model.policy_kernel(policy)
    cu = model.policy_reward(policy)
    try:
        rate_e = deviation_rate_infimum(P, cu, eps)
    except EmptyDeviationSet:
        rate_e = math.inf
    c_norm = float(np.abs(model.reward).max())
    if c_norm > 0 and abs(gamma) >= rate_e / (2.0 * c_norm):
        raise GammaOutOfRange(
            f"|gamma| = {abs(gamma)} is not below the rate threshold {rate_e / (2.0 * c_norm)}"
        )
    mu = stationary_distribution(P)
    lam_u = float(mu @ cu)
    norm = phi_partial_sum(schedule, k, n)
    if math.isinf(rate_e):
        slack = 0.0
    else:
        slack = math.log1p(math.exp(-norm * (rate_e - 2.0 * abs(gamma) * c_norm + abs(gamma) * eps))) / (
            abs(gamma) * norm
        )
    floor = lam_u - eps - slack
    values = [
        exact_risk_value(model, policy, schedule, gamma, k, n, x).value for x in range(model.n_states)
    ]
    margin = min(v - floor for v in values)
    report = MarginReport(
        lam_u=lam_u,
        rate_infimum=rate_e,
        slack=slack,
        eps=eps,
        gamma=gamma,
        values=values,
        margin=margin,
        passed=margin >= -1e-12,
    )
    if not report.passed:
        raise CheckFailed(f"risk value fell below the near-optimality floor by {-margin!r}", report)
    return report
