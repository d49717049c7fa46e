"""The deviation-set rate infimum is the Legendre dual of the Perron root,
evaluated with the upper Collatz-Wielandt bound, so every value is a lower
bound on the infimum.  The reference below is the grid-and-SLSQP
implementation it replaced, and dense eigenvalue grids give an oracle that
shares no code with the power iteration."""

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
def test_many_state_dual_matches_reference(n_states, seed):
    P, cu = policy_chain(n_states, seed)
    _, up, down = side_reaches(P, cu)
    # both sides of the band, then only the wider one
    for eps in (0.3 * min(up, down), 0.5 * (up + down) if up != down else 0.9 * up):
        e = deviation_rate_infimum(P, cu, eps)
        ref = reference_deviation_rate_infimum(P, cu, eps)
        assert ref - 1e-12 <= e <= ref + 1e-10


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
        rates = [rate_function(P, boundary_point(P, cu, sign, eps)).value for sign in sides]
        assert e == pytest.approx(min(rates), abs=1e-12)
        # and the reference's scan over the band
        assert e == pytest.approx(reference_deviation_rate_infimum(P, cu, eps), abs=1e-12)
    # at eps = reach the boundary point is the vertex x of the farther side,
    # whose rate is -ln P(x, x)
    x = int(np.argmax(cu)) if up >= down else int(np.argmin(cu))
    vertex = np.zeros(2)
    vertex[x] = 1.0
    assert deviation_rate_infimum(P, cu, reach) == pytest.approx(rate_function(P, vertex).value, abs=1e-12)
    assert deviation_rate_infimum(P, cu, reach) == pytest.approx(-math.log(P[x, x]), abs=1e-15)
    with pytest.raises(EmptyDeviationSet):
        deviation_rate_infimum(P, cu, reach + 1e-12)


def eigenvalue_dual(P, c, a, thetas):
    """max over the grid of theta a - ln rho(P diag(e^{theta c})), with rho
    from numpy's dense eigenvalues."""
    top = float(c.max())
    Q = P[None, :, :] * np.exp(thetas[:, None] * (c - top))[:, None, :]
    rho = np.abs(np.linalg.eigvals(Q)).max(axis=1)
    return float((thetas * (a - top) - np.log(rho)).max())


@pytest.mark.parametrize("n_states, seed", [(3, 3), (4, 2), (6, 1)])
def test_dual_agrees_with_an_eigenvalue_grid(n_states, seed):
    P, cu = policy_chain(n_states, seed)
    m, up, down = side_reaches(P, cu)
    thetas = np.linspace(0.0, 60.0 / (cu.max() - cu.min()), 100_001)
    for eps in (0.2 * min(up, down), 0.7 * max(up, down)):
        sides = [(c, sm + eps) for c, sm, r in ((cu, m, up), (-cu, -m, down)) if eps <= r]
        grid = min(eigenvalue_dual(P, c, a, thetas) for c, a in sides)
        e = deviation_rate_infimum(P, cu, eps)
        assert grid - 1e-12 <= e <= grid + 1e-7


def test_tied_top_rewards_at_reach_read_the_top_block():
    P = np.array(
        [
            [0.30, 0.25, 0.25, 0.20],
            [0.10, 0.20, 0.40, 0.30],
            [0.15, 0.05, 0.50, 0.30],
            [0.10, 0.10, 0.30, 0.50],
        ]
    )
    cu = np.array([1.0, 1.0, 0.2, 0.0])
    m, up, down = side_reaches(P, cu)
    assert up > down  # only the upper side is feasible at its reach
    rho = float(np.abs(np.linalg.eigvals(P[:2, :2])).max())
    assert deviation_rate_infimum(P, cu, up) == pytest.approx(-math.log(rho), abs=1e-12)


def test_small_gap_near_reach_matches_reference():
    # the two lowest rewards are 0.0078 apart, so the optimal theta is large
    m = gen_model({"n_states": 4, "n_actions": 1, "min_entry": 0.02, "seed": 100})
    P, cu = m.kernel[0], m.reward[:, 0]
    _, up, down = side_reaches(P, cu)
    assert down > up and np.sort(cu)[1] - cu.min() < 0.01
    for eps in (0.999 * down, down):
        e = deviation_rate_infimum(P, cu, eps)
        assert e == pytest.approx(reference_deviation_rate_infimum(P, cu, eps), abs=1e-9)


def test_near_periodic_tilt_matches_an_eigenvalue_grid():
    # no self-loops: at large theta the tilt is nearly periodic (roots near
    # +-rho), where plain power iteration stalls; nu.cu > 0.75 has no
    # finite-rate distribution, so eps = 0.249 puts the optimum far out
    P = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    cu = np.array([1.0, 0.5, 0.0])
    eps = 0.249
    thetas = np.linspace(0.0, 400.0, 200_001)
    grid = min(eigenvalue_dual(P, c, a, thetas) for c, a in ((cu, 0.5 + eps), (-cu, -0.5 + eps)))
    assert grid - 1e-12 <= deviation_rate_infimum(P, cu, eps) <= grid + 1e-7


def test_transient_state_reads_the_largest_class_root():
    # state 0 is transient; staying there half the time costs (ln 2) / 2,
    # and the tilt's Perron vector vanishes on state 1 beyond theta = ln 2
    P = np.array([[0.5, 0.5], [0.0, 1.0]])
    e = deviation_rate_infimum(P, np.array([1.0, 0.0]), 0.5)
    assert 0.5 * math.log(2.0) - 1e-8 <= e <= 0.5 * math.log(2.0) + 1e-15


def test_ldp_entry_points_take_a_transposed_kernel():
    # P.T of a C-ordered array is Fortran-ordered; the ergodicity check and
    # the rate infimum read it as the same chain
    m = gen_model({"n_states": 5, "n_actions": 1, "min_entry": 0.05, "seed": 21})
    P, cu = m.kernel[0], m.reward[:, 0]
    transposed = np.ascontiguousarray(P.T).T
    assert not transposed.flags.c_contiguous
    eps = 0.5 * (float(cu.max()) - float(cu @ stationary_distribution(P)))
    assert deviation_rate_infimum(transposed, cu, eps) == pytest.approx(deviation_rate_infimum(P, cu, eps), abs=1e-12)
    nu = np.full(5, 0.2)
    assert rate_function(transposed, nu).value == pytest.approx(rate_function(P, nu).value, abs=1e-12)
