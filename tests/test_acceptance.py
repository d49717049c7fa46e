"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s` to see the
lines; every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np

from longrun import (
    HyperbolicSchedule,
    Model,
    StationaryPolicy,
    UnitSchedule,
    deviation_rate_infimum,
    dv_supermartingale_check,
    ldp_upper_bound_check,
    multiplicative_poisson_solve,
    near_optimality_margin,
    perron_oracle,
    policy_enumeration_oracle,
    random_policy_panel,
    rate_function,
    relative_value_iteration,
    risk_upper_bound_check,
    sandwich_check,
    stationary_distribution,
)
from longrun.cli import gen_model, main
from longrun.evaluator import _discounted

REF_P = np.array([[0.75, 0.25], [0.5, 0.5]])
REF_C = np.array([1.0, 0.0])


def reference_model():
    return Model(REF_P[None, :, :], REF_C[:, None])


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def test_criterion_01_average_reward_reference():
    t0 = time.perf_counter()
    sol = relative_value_iteration(reference_model(), tol=1e-12)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(sol.lam - 2.0 / 3.0) <= 1e-10
        and np.abs(sol.w - np.array([4.0 / 3.0, 0.0])).max() <= 1e-9
        and elapsed < 1.0
    )
    _line(1, ok, f"lambda err {abs(sol.lam - 2/3):.2e}, w err "
                 f"{np.abs(sol.w - [4/3, 0]).max():.2e}, {elapsed:.3f}s")


def test_criterion_02_enumeration_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        m = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": seed})
        lam_rvi = relative_value_iteration(m, tol=1e-12).lam
        lam_star, _ = policy_enumeration_oracle(m)
        worst = max(worst, abs(lam_rvi - lam_star))
    elapsed = time.perf_counter() - t0
    _line(2, worst <= 1e-8 and elapsed < 10.0, f"worst gap {worst:.2e} over 50 models, {elapsed:.2f}s")


def test_criterion_03_finite_horizon_optimality_gap():
    t0 = time.perf_counter()
    m = reference_model()
    sched = HyperbolicSchedule(1.0, 1.0)
    sol = relative_value_iteration(m, tol=1e-12)
    w_max = sol.w.max()
    worst_ratio = 0.0
    horizons = [100, 1_000, 10_000, 100_000]
    for k in (0, 5):
        # both starts and every horizon from one pass of 100_000 steps, each
        # value bit for bit exact_discounted_value's
        results = [res for res, _ in _discounted(m, [sol.policy] * 2, sched, k, horizons, [0, 1])]
        assert [(res.start_x, res.horizon) for res in results] == [(x, n) for x in (0, 1) for n in horizons]
        for res in results:
            bound = 2.0 * w_max / res.normalizer
            gap = abs(res.value - sol.lam)
            assert gap <= bound, (k, res.horizon, res.start_x, gap, bound)
            worst_ratio = max(worst_ratio, gap / bound)
    elapsed = time.perf_counter() - t0
    _line(3, elapsed < 30.0, f"gap/bound ratio at most {worst_ratio:.3f}, {elapsed:.2f}s")


def test_criterion_04_risk_oracle_agreement():
    worst = 0.0
    for seed in range(20):
        m = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 100 + seed})
        u = StationaryPolicy([0, 0, 0])
        for gamma in (1.0, -1.0, 0.5, -0.5, 0.1, -0.1):
            got = multiplicative_poisson_solve(m, u, gamma, tol=1e-12).lam
            want = perron_oracle(m, u, gamma)
            worst = max(worst, abs(got - want))
    assert worst <= 1e-8
    # closed-form 2x2 Perron root, recomputed here from scratch
    Q = np.exp(1.0 * REF_C)[:, None] * REF_P
    tr, det = Q[0, 0] + Q[1, 1], Q[0, 0] * Q[1, 1] - Q[0, 1] * Q[1, 0]
    rho = (tr + math.sqrt(tr * tr - 4 * det)) / 2.0
    ref = multiplicative_poisson_solve(reference_model(), StationaryPolicy([0, 0]), 1.0, tol=1e-13).lam
    gap = abs(ref - math.log(rho))
    _line(4, gap <= 1e-9, f"worst oracle gap {worst:.2e}; reference closed-form gap {gap:.2e}")


def test_criterion_05_risk_upper_bound_panels():
    m = reference_model()
    sched = HyperbolicSchedule(1.0, 1.0)
    panel = random_policy_panel(m, n_slices=1_000, size=100, seed=0)
    violations = 0
    for gamma in (0.5, 1.0):
        rep = risk_upper_bound_check(m, sched, gamma, 0, 1_000, panel)
        violations += len(rep.failures())
    _line(5, violations == 0, f"200 policy evaluations, {violations} violations")


def test_criterion_06_sandwich_everywhere():
    models = [reference_model(), gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 5})]
    schedules = [UnitSchedule(), HyperbolicSchedule(1.0, 1.0)]
    checked = 0
    for m in models:
        policies = [StationaryPolicy([0] * m.n_states)]
        policies += random_policy_panel(m, n_slices=100, size=1, seed=9)
        for policy in policies:
            for sched in schedules:
                for gamma in (0.1, 1.0, 5.0):
                    for n in (1, 10, 100):
                        rep = sandwich_check(m, policy, sched, gamma, 0, n, 0)
                        assert rep.passed
                        checked += 1
    _line(6, True, f"{checked} exact orderings verified at 1e-12")


def test_criterion_07_small_risk_asymptotics():
    m = reference_model()
    u = StationaryPolicy([0, 0])
    lam_u = 2.0 / 3.0
    consts = []
    for gamma in (-1e-1, -1e-2, -1e-3, -1e-4):
        lam_g = multiplicative_poisson_solve(m, u, gamma, tol=1e-13).lam
        consts.append(abs(lam_g - lam_u) / abs(gamma))
    spread = (max(consts) - min(consts)) / min(consts)
    assert spread < 0.25
    e = deviation_rate_infimum(REF_P, REF_C, 0.1)
    gamma = -min(0.01, e / (4.0 * np.abs(REF_C).max()))
    sched = HyperbolicSchedule(1.0, 1.0)
    rep = near_optimality_margin(m, u, sched, 0.1, gamma, 0, 1_000)
    _line(7, rep.passed, f"C spread {spread:.1%}; margin {rep.margin:.3f} at gamma {gamma:.4f}")


def test_criterion_08_exponential_martingale_inequality():
    rng = np.random.default_rng(1234)
    schedules = [UnitSchedule(), HyperbolicSchedule(1.0, 1.0)]
    violations = 0
    for trial in range(200):
        f = 1.0 + 9.0 * rng.random(2)
        f[int(rng.integers(2))] = 1.0
        x = int(rng.integers(2))
        for sched in schedules:
            chk = dv_supermartingale_check(REF_P, f, sched, 0, 1_000, x)
            if not chk.passed:
                violations += 1
    _line(8, violations == 0, f"400 exact recursions, {violations} violations")


def test_criterion_09_deviation_bound_by_enumeration():
    f = np.array([2.0, 1.0])
    sched = HyperbolicSchedule(1.0, 1.0)
    r = np.log(f) - np.log(REF_P @ f)
    details = []
    for kappa in (0.02, 0.05):
        rep = ldp_upper_bound_check(REF_P, f, kappa, sched, 0, range(8, 15))
        assert rep.passed
        # trend: the exact envelope ln(d)/sum_phi - kappa decreases toward
        # -kappa, every decay sits below it, and kappa itself sits below the
        # rate infimum over the event set, so the envelope limit is
        # consistent with the -inf I asymptote
        env = [math.log(rep.d) / row.sum_phi - kappa for row in rep.rows]
        assert all(b <= a + 1e-15 for a, b in zip(env, env[1:]))
        assert all(row.normalized_log_q <= e + 1e-12 for row, e in zip(rep.rows, env))
        nu0 = (kappa - r[1]) / (r[0] - r[1])
        inf_rate = rate_function(REF_P, np.array([nu0, 1.0 - nu0])).value
        assert kappa < inf_rate
        details.append(f"kappa={kappa}: inf I={inf_rate:.4f}")
    _line(9, True, "; ".join(details))


def test_criterion_10_rate_function_zeros_and_oracle():
    worst_mu = 0.0
    worst_pert = math.inf
    for seed in range(20):
        m = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 200 + seed})
        P = m.policy_kernel(StationaryPolicy([0, 0, 0]))
        mu = stationary_distribution(P)
        worst_mu = max(worst_mu, rate_function(P, mu).value)
        nu = mu.copy()
        hi, lo = int(np.argmax(nu)), int(np.argmin(nu))
        nu[hi] -= 0.05
        nu[lo] += 0.05
        worst_pert = min(worst_pert, rate_function(P, nu).value)
    assert worst_mu <= 1e-6
    assert worst_pert >= 1e-4
    # two-state values against an independent dense grid scan
    def grid(nu, hi):
        with np.errstate(divide="ignore"):
            logP = np.log(REF_P)
        ts = np.arange(-hi, hi + 1e-5, 2e-5)
        vals = nu[1] * ts - (
            nu[0] * np.logaddexp(logP[0, 0], logP[0, 1] + ts)
            + nu[1] * np.logaddexp(logP[1, 0], logP[1, 1] + ts)
        )
        return float(vals.max())

    worst_grid = 0.0
    for nu in ([0.9, 0.1], [0.4, 0.6], [2.0 / 3.0 + 0.05, 1.0 / 3.0 - 0.05]):
        nu = np.array(nu)
        worst_grid = max(worst_grid, abs(rate_function(REF_P, nu).value - grid(nu, 40.0)))
        worst_grid = max(
            worst_grid, abs(rate_function(REF_P, nu, d=10.0).value - grid(nu, math.log(10.0)))
        )
    assert worst_grid <= 1e-6
    _line(10, True, f"I(mu) <= {worst_mu:.1e}, perturbed I >= {worst_pert:.1e}, grid gap {worst_grid:.1e}")


def test_criterion_11_verify_determinism(tmp_path):
    gen_dir = tmp_path / "gen"
    assert main(["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05",
                 "--seed", "21", "--out", str(gen_dir)]) == 0
    model_path = str(gen_dir / "model.json")
    reports = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["verify", "--model", model_path, "--schedule", "hyperbolic:1,1",
                     "--horizons", "100,500", "--panel-size", "30", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        with open(out / "report.txt", "rb") as fh:
            reports.append(fh.read())
    _line(11, reports[0] == reports[1], f"two verify runs, {len(reports[0])} identical bytes")
