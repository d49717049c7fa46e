"""Weighted empirical measures, the Donsker-Varadhan rate function, and exact
finite-horizon large-deviation upper bounds for a fixed Markov kernel.

Everything here concerns a single uncontrolled chain P (typically a policy
kernel).  The rate function is one projected Newton ascent of a concave
objective over log test functions, for any number of states.  The
deviation-set infimum is its Legendre dual, maximized by golden-section
search over the tilt on each side of the band with the upper Collatz-Wielandt
bound on the Perron root, taken class by class as risk_solver.perron_oracle
also takes it: a certified lower bound.  The module needs numpy only.
The deviation-probability bounds are verified exactly, by the exact risk
evaluator for the exponential-martingale inequality and by one pruned search
of the path tree for event probabilities.  A node is decided once the
remaining steps cannot carry its partial sum across the threshold, beyond a
rounding margin, and only undecided nodes are expanded, depth first, a chunk
at a time.  The event probability is the correctly rounded sum of the
decided paths' float masses, accumulated exactly, so it depends neither on
the order of the walk nor on the chunk width.  The deviation-bound audit
runs one start's search to its end and each other start's only until its
brackets rule that start out as the worst one.  Each public function checks
its kernel once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    CheckFailed,
    EmptyDeviationSet,
    EnumerationTooLarge,
    GammaOutOfRange,
    InvalidModel,
    NotErgodic,
)
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    _check_window,
    _finite_number,
    _horizon_grid,
    _indices,
    _risk_factor,
)
from .average_solver import stationary_distribution
from .evaluator import _risk, exact_risk_value
from .risk_solver import _communicating_classes, _perron_bracket

# search box for log test functions when no ratio constraint is given; the
# value a capped search forgoes is below exp(-box) and thus far under any
# tolerance used here
_LOG_BOX = 40.0

# children that one step of the exact search expands, at most, from a chunk
# of _WIDTH // s open nodes
_WIDTH = 1 << 16
# relative slack between a search's hi and its final mass: n * ROW_SUM_TOL
# of row sums plus the products' rounding, below 1e-10 for n <= 22; the
# absolute term covers subnormal rounding of at most 2^27 paths
_MASS_SLACK = 1e-9
_MASS_FLOOR = 1e-300

_EPS = np.finfo(float).eps
# the gradient's entries are differences of probabilities: rounding leaves
# them near the machine epsilon, below which no step can gain
_GRAD_FLOOR = _EPS
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _test_function(f, s: int, floor: float) -> np.ndarray:
    """f as a float vector of one finite value per state, each positive and
    at least the caller's floor: the one rule for a test function f."""
    try:
        f = np.asarray(f, dtype=float)
    except (TypeError, ValueError):  # text, or rows of unequal length
        f = np.empty(0)
    if f.shape != (s,) or not np.isfinite(f).all() or not (f.min() > 0.0 and f.min() >= floor):
        raise InvalidModel(f"f must hold one value per state, finite, positive and at least {floor}")
    return f


def _require_ergodic(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidModel("kernel must be a square matrix")
    chain = Model(P[None, :, :], np.zeros((P.shape[0], 1)))
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
    size = None if n_states is None else int(_indices(n_states, None, "n_states"))
    traj = _indices(trajectory, size, "trajectory states", 1)
    n = traj.size
    phi = schedule.phi_array(k, n)
    norm = schedule.partial_sum(k, n)
    nu = np.bincount(traj, weights=phi, minlength=size or 0) / norm
    return WeightedEmpiricalMeasure(nu=nu, start=k, horizon=n, schedule=schedule)


# --------------------------------------------------------------------------
# rate function


@dataclass(frozen=True)
class RateReport:
    """Value of the rate function at nu with the test function achieving it.

    The reported value always equals the objective at the reported maximizer
    (a lower bound on the supremum); converged is False when the projected
    gradient at that point stayed large.
    """

    nu: np.ndarray
    value: float
    maximizer: np.ndarray
    d_constraint: float | None
    grad_norm: float
    converged: bool


def rate_function(P, nu, d: float | None = None) -> RateReport:
    """Donsker-Varadhan rate of nu against the kernel P.

    Maximizes nu.ln(f) - nu.ln(Pf) over positive test functions f = e^g.
    The objective is concave in g and invariant under scaling f, so g is
    searched in the box [0, ln d]^s (an unconstrained search uses a wide fixed
    box) by one projected Newton ascent from g = 0 (Bertsekas 1982) on the
    Hessian Q^T diag(nu) Q - diag(nu Q), with Armijo backtracking along the
    projected path.  The maximizer's ratio max f / min f is at most d.  The
    value is zero exactly at invariant measures.
    """
    P = _require_ergodic(P)
    nu = np.asarray(nu, dtype=float)
    if nu.shape != (P.shape[0],):
        raise InvalidModel("nu must be a probability vector over the kernel's states")
    if not np.isfinite(nu).all() or (nu < -1e-12).any() or abs(nu.sum() - 1.0) > 1e-9:
        raise InvalidModel("nu must be a probability vector")
    if d is not None and not 1.0 < d < math.inf:
        raise InvalidModel("ratio constraint d must be finite and exceed 1")
    hi = math.log(d) if d is not None else _LOG_BOX
    if d is not None and np.exp(hi) > d:
        # one ulp lower keeps the maximizer's ratio e^(max g - min g) <= d
        hi = math.nextafter(hi, 0.0)
    g, delta = np.zeros(P.shape[0]), 0.0
    for _ in range(100):
        # the step found last is taken here, so g, pe and Q always agree
        g = g + delta
        u = np.exp(g - g.max())
        pe = P @ u
        Q = P * u / pe[:, None]
        grad = nu - nu @ Q
        grad_norm = float(np.abs(g - np.clip(g + grad, 0.0, hi)).max())
        if grad_norm <= _GRAD_FLOOR:
            break
        # bounds within grad_norm of g that the gradient pushes against are
        # held and move along it; Newton runs on the rest, where lstsq skips
        # the null direction of the shift
        free = ~(((g <= grad_norm) & (grad < 0)) | ((g >= hi - grad_norm) & (grad > 0)))
        hess = Q.T @ (nu[:, None] * Q) - np.diag(nu @ Q)
        step = grad.copy()
        step[free] = np.linalg.lstsq(-hess[np.ix_(free, free)], grad[free])[0]
        for alpha in 0.5 ** np.arange(60):
            delta = np.clip(g + alpha * step, 0.0, hi) - g
            # the gain as one difference keeps its relative accuracy where the
            # two values agree to their last bits
            gain = nu @ delta - nu @ np.log1p(Q @ np.expm1(delta))
            if gain > 0.0 and gain >= 1e-4 * (grad @ delta):
                break
        else:
            break
    value = float(nu @ g - g.max() - nu @ np.log(pe))
    return RateReport(
        nu=nu,
        value=value,
        maximizer=np.exp(g - g.min()),
        d_constraint=d,
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
    f = _test_function(f, P.shape[0], 1.0)
    r = np.log(f) - np.log(P @ f)
    chain = Model(P[None, :, :], r[:, None])
    res = exact_risk_value(chain, StationaryPolicy([0] * P.shape[0]), schedule, 1.0, k, n, x)
    lhs = math.exp(res.value * res.normalizer)
    d_f = float(f.max() / f.min())
    return SupermartingaleCheck(lhs=lhs, d_f=d_f, passed=lhs <= d_f + 1e-12)


def _exact_sum(parts: list, masses: np.ndarray) -> list:
    """Floats whose exact sum is that of parts and of the nonnegative masses.

    A mass's bits split exactly into those above its 26 lowest mantissa
    bits, a multiple of 2^(e - 26) for its binary exponent e, and the rest,
    below that; up to 2^26 parts of either kind and one exponent add up
    exactly in floats (np.bincount).  Those sums join parts by math.fsum: its
    correctly rounded sum, then the same of what that leaves, until nothing
    is left.
    """
    bits = masses.view(np.int64)
    exponent, high = bits >> 52, (bits & -(1 << 26)).view(float)
    sums = np.concatenate((np.bincount(exponent, high), np.bincount(exponent, masses - high)))
    values, out = parts + sums[sums != 0.0].tolist(), []
    while total := math.fsum(values):
        out.append(total)
        values.append(-total)
    return out


def _search(P: np.ndarray, steps: np.ndarray, x: int, threshold: float):
    """Brackets (lo, hi) on the mass Q of the paths from x whose weighted
    r-sum over the n = len(steps) steps reaches the threshold, one after
    each expansion, the last with lo == hi == Q: lo <= Q, and Q <= hi up to
    _MASS_SLACK.

    A depth-first walk of the path tree.  A node at depth j < n is decided
    once its partial sum plus the remaining steps' least (largest) total,
    less (plus) a margin covering the rounding of every sum involved, is
    surely at or above (below) the threshold; a leaf, at depth n, by its sum
    >= threshold.  Only undecided nodes of nonzero mass are expanded, a chunk
    of at most _WIDTH // s of them at a time, into child columns: child y of
    node i is the float probs[i] * P[x_i, y] with sum sums[i] + steps[j, y].
    Each node's mass and decision depend on its path alone, and the
    decided-above masses add up exactly (_exact_sum), so Q, their correctly
    rounded sum, depends neither on the order of the walk nor on the width.

    lo is that sum so far; hi adds the open chunks' masses.  A chunk's
    descendants' masses exceed its own by the products' rounding and row
    sums within ROW_SUM_TOL of 1, far less than _MASS_SLACK relative to hi
    for n <= 22.
    """
    s, n = P.shape[0], len(steps)
    rem_lo = np.append(np.cumsum(steps.min(axis=1)[::-1])[::-1], 0.0)
    rem_hi = np.append(np.cumsum(steps.max(axis=1)[::-1])[::-1], 0.0)
    margin = 8.0 * n * _EPS * (float(np.abs(steps).max(axis=1).sum()) + abs(threshold))
    width = max(1, _WIDTH // s)
    # the start is the one nonzero child of a virtual root, a chunk of m = 1
    j, m, probs, sums, parts, stack = 1, 1, np.where(np.arange(s) == x, 1.0, 0.0), steps[0].copy(), [], []
    while True:
        # a zero mass (-0.0 too, after a -0.0 entry of P) is neither added nor expanded
        live = probs > 0.0
        if j == n:
            above, open_ = live & (sums >= threshold), np.empty(0, int)
        else:
            above = live & (sums + rem_lo[j] - margin >= threshold)
            open_ = np.flatnonzero(live & ~above & (sums + rem_hi[j] + margin >= threshold))
        parts = _exact_sum(parts, probs.compress(above))
        for a in range(0, open_.size, width):
            kids = open_[a:a + width]
            chunk = probs.take(kids)
            # child k of a chunk of m nodes is in column k // m
            stack.append((j, chunk, sums.take(kids), kids // m, float(chunk.sum())))
        yield math.fsum(parts), math.fsum(parts + [entry[-1] for entry in stack])
        if not stack:
            return
        j, probs, sums, last, _ = stack.pop()
        m = probs.size
        probs = (P.T.take(last, axis=1) * probs).ravel()
        sums = (steps[j][:, None] + sums).ravel()
        j += 1


def exact_event_probability(
    P, schedule: DiscountSchedule, k: int, n: int, f, kappa: float, x: int
) -> float:
    """Exact P{ sum phi(i) ln(f/Pf)(X_i) >= kappa * sum phi } from x.

    One pruned search of the path tree (_search) run to its end: the
    correctly rounded sum of the float masses of the paths it decides to
    reach the threshold, within (n - 1)(u + delta) Q* + u Q of the exact
    probability Q* on the given kernel (u = 2^-53, delta the largest row sum
    error); guarded to n <= 20 in general and n <= 22 for two-state chains,
    and to 2^27 paths, once the start state and the window are checked.  The
    value is the float that ldp_upper_bound_check maximizes over start
    states.
    """
    P = _require_ergodic(P)
    _indices(x, P.shape[0], "start state")
    kappa, _, [(steps, norm)] = _enumeration_inputs(P, schedule, k, [n], f, kappa, 0.0)
    return _final(_search(P, steps, x, kappa * norm))


def _enumeration_inputs(P: np.ndarray, schedule: DiscountSchedule, k: int, n_grid, f, kappa, floor: float):
    """kappa as a float, f under the caller's floor, and the window check
    and the guard of every horizon n of n_grid, all before any phi work,
    then per horizon the steps phi(k + i) ln(f/Pf) (one row per step) of an
    enumeration on a checked kernel and the phi partial sum, which kappa
    turns into its threshold."""
    s = P.shape[0]
    kappa, f = _finite_number(kappa, "kappa"), _test_function(f, s, floor)
    for n in n_grid:
        _check_window(k, n)
        if not (n <= 20 or (s == 2 and n <= 22)):
            raise EnumerationTooLarge(f"horizon {n} with {s} states exceeds the enumeration guard")
        if s ** (n - 1) > (1 << 27):
            raise EnumerationTooLarge(f"{s ** (n - 1)} paths exceed the workable enumeration budget")
    r = np.log(f) - np.log(P @ f)
    return kappa, f, [(schedule.phi_array(k, n)[:, None] * r, schedule.partial_sum(k, n)) for n in n_grid]


def _final(search) -> float:
    """The mass Q of a search run to its end."""
    for q, _ in search:
        pass
    return q


def _worst_start_mass(P: np.ndarray, steps: np.ndarray, threshold: float) -> float:
    """max over start states x of the search's mass from x.

    The start whose first bracket has the largest lo + hi is searched to
    its end first.  Each other start is searched until its hi, inflated by
    _MASS_SLACK, falls below the largest mass so far, or to its end if it
    never does, so ties and overlapping brackets are searched in full.
    """
    searches = [_search(P, steps, x, threshold) for x in range(P.shape[0])]
    first = [next(search) for search in searches]
    order = sorted(range(len(searches)), key=lambda x: -sum(first[x]))
    best = _final(chain([first[order[0]]], searches[order[0]]))
    for x in order[1:]:
        for lo, hi in chain([first[x]], searches[x]):
            # hi = 0 leaves no path at or above the threshold, so the mass is 0
            if hi == 0.0 or hi * (1.0 + _MASS_SLACK) + _MASS_FLOOR < best:
                break
        else:
            best = max(best, lo)
        # a search's open chunks are released as soon as its start is decided
        searches[x].close()
    return best


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
    inspection against the rate-function infimum.  Q is the maximum of
    exact_event_probability over the start states, but a start is searched
    to its end only when its brackets cannot certify it below the largest
    mass found so far (_worst_start_mass).  The guards of
    exact_event_probability apply to every row before any phi work.
    """
    Pm = _require_ergodic(P)
    n_grid = sorted(_horizon_grid(n_grid))
    kappa, f, inputs = _enumeration_inputs(Pm, schedule, k, n_grid, f, kappa, 1.0)
    if kappa < 0.0:
        raise InvalidModel(f"kappa must be nonnegative, got {kappa!r}")
    d = float(f.max() / f.min())
    rows = []
    for n, (steps, norm) in zip(n_grid, inputs):
        q = _worst_start_mass(Pm, steps, kappa * norm)
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
    """Certified lower bound on the rate infimum over {nu : |nu.cu - mu.cu| >= eps}.

    By the contraction principle each side of the band, {nu : nu.c >= a}
    with c = +-cu and a = +-mu.cu + eps, has infimum
    sup_{theta >= 0} theta a - ln rho(P diag(e^{theta c})).  Any theta with
    the upper Collatz-Wielandt bound on rho (the class-wise bracket that
    perron_oracle shares) bounds it from below, up to rounding, and so does 0
    when the rate is below the bracket's resolution.  The value is inf at a
    side's reach when the chain cannot stay on its extreme states.  Raises
    EmptyDeviationSet when eps exceeds the achievable deviation.
    """
    P = _require_ergodic(P)
    cu = np.asarray(cu, dtype=float)
    if cu.shape != (P.shape[0],) or not np.isfinite(cu).all():
        raise InvalidModel("reward vector must be finite with one entry per state")
    if (eps := _finite_number(eps, "eps")) <= 0:
        raise InvalidModel("eps must be positive")
    mu = stationary_distribution(P)
    sides = [(c, float(c.max()) - float(c @ mu)) for c in (cu, -cu)]
    reach = max(side_reach for _, side_reach in sides)
    if eps > reach + 1e-15:
        raise EmptyDeviationSet(f"eps {eps} exceeds the achievable deviation {reach}")
    return max(0.0, min(_dual_side(P, c, side_reach - eps) for c, side_reach in sides if eps <= side_reach + 1e-15))


def _dual_side(P: np.ndarray, c: np.ndarray, room: float) -> float:
    """Lower bound on inf{I(nu) : nu.c >= max c - room}.

    Maximizes -theta room - ln hi(theta) by golden-section search, with
    hi(theta) the class-wise upper bound of risk_solver._perron_bracket on
    rho(P diag(e^{theta (c - max c)})) at a relative gap of 1e-14.  P's
    communicating classes are found once and reused for every tilt with P's
    zero pattern.  At room <= 0 the supremum is its limit, -ln rho of P on
    the states of maximal c.
    """
    d = c - float(c.max())
    if room <= 0.0:
        P, d = P[np.ix_(d == 0.0, d == 0.0)], d[d == 0.0]
    pattern, classes = P > 0.0, _communicating_classes(P)

    def value(theta):
        # scaling columns keeps the top states' columns at P; clamping the
        # exponents above the underflow of exp only raises hi, so the bound
        # stays valid.  P's classes serve every tilt with P's zero pattern; a
        # tilt where an entry of P e^-700 underflows finds its own
        Q = P * np.exp(np.maximum(theta * d, -700.0))
        hi = _perron_bracket(Q, 1e-14, classes=classes if ((Q > 0.0) == pattern).all() else None)[1]
        return -theta * room - math.log(hi) if hi > 0.0 else math.inf

    if room <= 0.0:
        return value(0.0)
    # the optimal theta grows like ln(1/room) / gap: double a bracket while
    # the value rises; beyond theta gap = 512 it gains at most ~e^-512
    gap = -float(d[d < 0.0].max())
    theta, f = 1.0 / gap, value(1.0 / gap)
    while theta * gap < 256.0 and (f2 := value(2.0 * theta)) > f:
        theta, f = 2.0 * theta, f2
    # golden-section search on [0, 2 theta]: the interior point x lies 0.382
    # of the way from end a to end b (which may lie below a) and keeps the
    # best value read; every value read is a lower bound
    a, b = 0.0, 2.0 * theta
    x = b - _GOLDEN * (b - a)
    fx = value(x)
    while abs(b - a) > 1e-10 / gap:
        y = a + _GOLDEN * (b - a)
        fy = value(y)
        if fy > fx:
            a, x, fx = x, y, fy
        else:
            a, b = y, a
    return max(f, fx)


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

    Requires |gamma| < e / (2 max|c|) where e is the certified lower bound of
    deviation_rate_infimum on the rate infimum over the eps-deviation set of
    the policy's reward; a lower e only shrinks the admitted gammas and
    widens the slack, so the check stays sound.  The exact finite-horizon risk
    value (from every start state) must then stay above mu.cu - eps minus a
    computable remainder that vanishes as the horizon grows:
    slack(n) = ln(1 + exp(-S (e - 2|gamma| max|c| + |gamma| eps))) / (|gamma| S)
    with S the phi partial sum.
    """
    gamma = _risk_factor(gamma, -1)
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
    norm = schedule.partial_sum(k, n)
    # an infinite rate leaves exp(-inf) = 0 and no slack
    slack = math.log1p(math.exp(-norm * (rate_e - 2.0 * abs(gamma) * c_norm + abs(gamma) * eps))) / (abs(gamma) * norm)
    floor = lam_u - eps - slack
    values = [res.value for res, _ in _risk(model, [policy] * len(P), schedule, [gamma] * len(P), k, n, range(len(P)))]
    margin = min(v - floor for v in values)
    report = MarginReport(lam_u=lam_u, rate_infimum=rate_e, slack=slack, eps=eps, gamma=gamma, values=values,
                          margin=margin, passed=margin >= -1e-12)
    if not report.passed:
        raise CheckFailed(f"risk value fell below the near-optimality floor by {-margin!r}", report)
    return report
