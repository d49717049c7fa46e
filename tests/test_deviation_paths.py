"""The deviation-set rate infimum runs on the one private rate search; the
reference below is the grid-and-SLSQP implementation it replaced.  Chains
with three or more states must match it bit for bit (==, not approx); two-state
chains read the rate at the band's boundary points instead of scanning a grid."""

import math

import numpy as np
import pytest
from scipy import optimize

from longrun import (
    EmptyDeviationSet,
    NoConvergence,
    StationaryPolicy,
    deviation_rate_infimum,
    rate_function,
    stationary_distribution,
)
from longrun.cli import gen_model


def reference_rate_value_2(P, logP, nu0, hi=40.0):
    nu1 = 1.0 - nu0

    def neg(t):
        return -(
            nu1 * t
            - nu0 * np.logaddexp(logP[0, 0], logP[0, 1] + t)
            - nu1 * np.logaddexp(logP[1, 0], logP[1, 1] + t)
        )

    res = optimize.minimize_scalar(neg, bounds=(-hi, hi), method="bounded", options={"xatol": 1e-12})
    return max(0.0, float(-res.fun))


def reference_deviation_rate_infimum(P, cu, eps):
    s = P.shape[0]
    mu = stationary_distribution(P)
    m = float(mu @ cu)
    reach = max(float(cu.max()) - m, m - float(cu.min()))
    if eps > reach + 1e-15:
        raise EmptyDeviationSet("eps exceeds the achievable deviation")
    if s == 2:
        with np.errstate(divide="ignore"):
            logP = np.log(P)
        a, b = float(cu[0]), float(cu[1])
        ts = np.arange(0.0, 1.0 + 5e-5, 1e-4)
        means = ts * a + (1.0 - ts) * b
        cand = list(ts[np.abs(means - m) >= eps])
        if a != b:
            for target in (m + eps, m - eps):
                t = (target - b) / (a - b)
                if 0.0 <= t <= 1.0:
                    cand.append(t)
        if not cand:
            raise EmptyDeviationSet("no feasible distribution at this eps")
        best = min(reference_rate_value_2(P, logP, t) for t in cand)
    else:
        best = math.inf
        rng = np.random.default_rng(0)
        cons_eq = {"type": "eq", "fun": lambda v: v.sum() - 1.0, "jac": lambda v: np.ones(s)}
        for sign in (1.0, -1.0):
            side_reach = (float(cu.max()) - m) if sign > 0 else (m - float(cu.min()))
            if eps > side_reach + 1e-15:
                continue
            cons_side = {
                "type": "ineq",
                "fun": lambda v, sg=sign: sg * (v @ cu - m) - eps,
                "jac": lambda v, sg=sign: sg * cu,
            }
            starts = [mu.copy()] + [rng.dirichlet(np.ones(s)) for _ in range(5)]
            vertex = np.zeros(s)
            vertex[int(np.argmax(sign * cu))] = 1.0
            starts.append(vertex)

            def objective(v):
                v = np.clip(v, 1e-12, None)
                v = v / v.sum()
                rep = rate_function(P, v, restarts=4, seed=1)
                return rep.value, np.log(rep.maximizer) - np.log(P @ rep.maximizer)

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


def policy_chain(n_states, seed):
    m = gen_model({"n_states": n_states, "n_actions": 2, "min_entry": 0.05, "seed": seed})
    u = StationaryPolicy([1] * n_states)
    return m.policy_kernel(u), m.policy_reward(u)


def side_reaches(P, cu):
    m = float(stationary_distribution(P) @ cu)
    return m, float(cu.max()) - m, m - float(cu.min())


@pytest.mark.parametrize("n_states, seed", [(3, 3), (4, 2), (5, 2)])
def test_many_state_infimum_bitwise_matches_reference(n_states, seed):
    P, cu = policy_chain(n_states, seed)
    _, up, down = side_reaches(P, cu)
    # both sides of the band, then only the wider one
    for eps in (0.3 * min(up, down), 0.5 * (up + down) if up != down else 0.9 * up):
        assert deviation_rate_infimum(P, cu, eps) == reference_deviation_rate_infimum(P, cu, eps)


def boundary_point(P, cu, sign, eps):
    """The point of the band's boundary nu.cu = m + sign*eps on the two-state simplex."""
    mu = stationary_distribution(P)
    m, up, down = side_reaches(P, cu)
    side_reach = up if sign > 0 else down
    vertex = np.zeros(2)
    vertex[int(np.argmax(sign * cu))] = 1.0
    nu = vertex if eps >= side_reach else mu + eps / side_reach * (vertex - mu)
    assert nu.min() >= 0.0 and nu @ cu == pytest.approx(m + sign * eps, abs=1e-14)
    return nu


TWO_STATE = [
    (np.array([[0.75, 0.25], [0.5, 0.5]]), np.array([1.0, 0.0])),
    policy_chain(2, seed=3),
]


@pytest.mark.parametrize("chain", TWO_STATE, ids=["reference", "generated"])
def test_two_state_infimum_is_the_rate_at_the_boundary_points(chain):
    P, cu = chain
    _, up, down = side_reaches(P, cu)
    reach = max(up, down)
    for eps in (0.2 * min(up, down), 0.5 * (up + down), reach):
        sides = [sign for sign, r in ((1.0, up), (-1.0, down)) if eps <= r + 1e-15]
        e = deviation_rate_infimum(P, cu, eps)
        assert e == min(rate_function(P, boundary_point(P, cu, sign, eps)).value for sign in sides)
        # the scan over the band that this replaced agrees to rounding
        assert e == pytest.approx(reference_deviation_rate_infimum(P, cu, eps), abs=1e-12)
    # at eps = reach the boundary point is the vertex of the farther side
    vertex = np.zeros(2)
    vertex[int(np.argmax(cu)) if up >= down else int(np.argmin(cu))] = 1.0
    assert deviation_rate_infimum(P, cu, reach) == rate_function(P, vertex).value
    with pytest.raises(EmptyDeviationSet):
        deviation_rate_infimum(P, cu, reach + 1e-12)
