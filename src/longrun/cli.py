"""Configuration-driven command line front end.

Subcommands cover model generation, the two solver families, exact
evaluation, the verification suite, the deviation-bound audit, and the
gamma sweep.  Every run is driven by one explicit seed and writes
deterministic artifacts: identical configuration and seed produce
byte-identical reports.

Exit codes: 0 all assertions pass, 1 an inequality check failed, 2 bad
usage or configuration, 3 a solver precondition failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import average_solver, evaluator, ldp, risk_solver
from .errors import CheckFailed, ConfigError, InvalidModel, SolverError
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    UnitSchedule,
    density_bounds,
    ergodicity_coefficient,
    load_model,
    model_to_dict,
    schedule_from_dict,
)

TASKS = ("solve-average", "solve-risk", "evaluate", "verify", "ldp-check", "sweep-gamma", "gen-model")

_GENERATOR_FIELDS = {"n_states", "n_actions", "min_entry", "seed"}


@dataclass
class ExperimentConfig:
    task: str
    model: dict | None = None
    schedule: dict | None = None
    gamma: float = 0.5
    gammas: list | None = None
    k: int = 0
    x: int = 0
    horizon: int = 1000
    horizons: list | None = None
    epsilon: float = 0.1
    tol: float = 1e-10
    seed: int = 0
    panel_size: int = 100
    out: str = "out"
    f: list | None = None
    kappa: float = 0.02
    n_grid: list | None = None
    reps: int = 0
    window: int | None = None


_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _fmt(x) -> str:
    return repr(float(x))


def _vec(arr) -> str:
    return "[" + ", ".join(_fmt(v) for v in np.asarray(arr).ravel()) + "]"


def gen_model(spec: dict) -> Model:
    """Random model with all kernel entries at least min_entry, seeded.

    Rows are min_entry plus a scaled random simplex point, so every entry is
    at least min_entry and rows sum to one exactly up to rounding; rewards
    are uniform on [0, 1].  Deterministic in the seed.
    """
    if not isinstance(spec, dict):
        raise ConfigError("generator spec must be an object")
    unknown = set(spec) - _GENERATOR_FIELDS
    if unknown:
        raise ConfigError(f"unknown generator fields: {sorted(unknown)}")
    missing = _GENERATOR_FIELDS - set(spec)
    if missing:
        raise ConfigError(f"missing generator fields: {sorted(missing)}")
    s = int(spec["n_states"])
    a = int(spec["n_actions"])
    min_entry = float(spec["min_entry"])
    seed = int(spec["seed"])
    if s < 1 or a < 1:
        raise ConfigError("generator needs at least one state and one action")
    if not 0.0 < min_entry:
        raise ConfigError("min_entry must be positive to guarantee a density bound")
    if min_entry * s >= 1.0:
        raise ConfigError(f"min_entry {min_entry} infeasible for {s} states (needs min_entry * n_states < 1)")
    rng = np.random.default_rng(seed)
    g = rng.random((a, s, s))
    kernel = min_entry + (1.0 - s * min_entry) * (g / g.sum(axis=2, keepdims=True))
    reward = rng.random((s, a))
    return Model(kernel, reward)


def _load_config_mapping(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
    return data


def _resolve_model(cfg: ExperimentConfig) -> Model:
    src = cfg.model
    if not src:
        raise ConfigError("no model given: provide a path or a generator spec")
    if isinstance(src, str):
        src = {"path": src}
    if not isinstance(src, dict):
        raise ConfigError("model source must be a path or an object")
    unknown = set(src) - {"path", "generator"}
    if unknown:
        raise ConfigError(f"unknown model source fields: {sorted(unknown)}")
    if "path" in src and "generator" in src:
        raise ConfigError("model source must be either a path or a generator, not both")
    if "path" in src:
        if not os.path.exists(src["path"]):
            raise ConfigError(f"model file does not exist: {src['path']}")
        return load_model(src["path"])
    return gen_model(src["generator"])


def _resolve_schedule(cfg: ExperimentConfig) -> DiscountSchedule:
    if cfg.schedule is None:
        return UnitSchedule()
    return schedule_from_dict(cfg.schedule)


def parse_schedule_arg(text: str) -> dict:
    """Parse --schedule: inline JSON, 'unit', or 'hyperbolic:H,R'."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad schedule JSON: {exc}") from exc
    if text == "unit":
        return {"family": "unit"}
    if text.startswith("hyperbolic:"):
        parts = text[len("hyperbolic:"):].split(",")
        if len(parts) != 2:
            raise ConfigError("hyperbolic schedule shorthand is hyperbolic:H,R")
        try:
            return {"family": "hyperbolic", "h": float(parts[0]), "r": float(parts[1])}
        except ValueError as exc:
            raise ConfigError(f"bad hyperbolic parameters: {exc}") from exc
    raise ConfigError(f"cannot parse schedule spec {text!r}")


def _write_text(out_dir: str, name: str, lines) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_csv(out_dir: str, name: str, header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row))
    return _write_text(out_dir, name, lines)


def _span_solution_lines(sol: average_solver.SpanSolution, model: Model) -> list:
    delta = ergodicity_coefficient(model)
    span_bound = model.reward_span() / (1.0 - delta) if delta < 1.0 else math.inf
    return [
        f"lambda: {_fmt(sol.lam)}",
        f"w: {_vec(sol.w)}",
        f"policy: {list(sol.policy.actions)}",
        f"span_residual: {_fmt(sol.span_residual)}",
        f"iterations: {sol.iterations}",
        f"bounds: span_w <= {_fmt(span_bound)}",
    ]


def _task_solve_average(cfg: ExperimentConfig, mdl: Model) -> int:
    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    lines = ["task: solve-average", f"states: {mdl.n_states}", f"actions: {mdl.n_actions}"]
    lines += _span_solution_lines(sol, mdl)
    schedule = _resolve_schedule(cfg)
    if not isinstance(schedule, UnitSchedule):
        ext = average_solver.time_extended_solve(
            mdl, schedule, k=cfg.k, n_slices=cfg.window, tol=cfg.tol
        )
        n = ext.lambda_seq.shape[0]
        phi = schedule.phi_array(ext.start, n)
        _write_csv(
            cfg.out,
            "lambda_tilde.csv",
            ("i", "phi_i", "lambda_tilde_i"),
            [(ext.start + j, phi[j], ext.lambda_seq[j]) for j in range(n)],
        )
        lines.append(f"window: {n}")
        lines.append(f"truncation_bound: {_fmt(ext.truncation_bound)}")
        tail = average_solver.cesaro_values(ext, schedule, [n])[0]
        lines.append(f"cesaro_tail: {_fmt(tail)}")
    _write_text(cfg.out, "report.txt", lines)
    return 0


def _task_solve_risk(cfg: ExperimentConfig, mdl: Model) -> int:
    sol = risk_solver.risk_relative_value_iteration(mdl, cfg.gamma, tol=cfg.tol)
    lines = [
        "task: solve-risk",
        f"states: {mdl.n_states}",
        f"actions: {mdl.n_actions}",
        f"gamma: {_fmt(sol.gamma)}",
        f"lambda: {_fmt(sol.lam)}",
        f"w: {_vec(sol.w)}",
        f"policy: {list(sol.policy.actions)}",
        f"residual: {_fmt(sol.residual)}",
        f"iterations: {sol.iterations}",
        f"certificate: {sol.certificate}",
        f"bound: {_fmt(sol.bound)}",
    ]
    _write_text(cfg.out, "report.txt", lines)
    return 0


def _task_evaluate(cfg: ExperimentConfig, mdl: Model) -> int:
    schedule = _resolve_schedule(cfg)
    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    horizons = cfg.horizons or [cfg.horizon]
    w_max = float(sol.w.max())
    rows = []
    lines = ["task: evaluate", f"lambda: {_fmt(sol.lam)}", f"policy: {list(sol.policy.actions)}"]
    for n in horizons:
        res = evaluator.exact_discounted_value(mdl, sol.policy, schedule, cfg.k, int(n), cfg.x)
        # certified distance to the long-run gain for the solved policy
        res = replace(res, bound_slack=2.0 * w_max / res.normalizer)
        rows.append((int(n), res.value, res.bound_slack))
        lines.append(f"J[{int(n)}]: {_fmt(res.value)} (gap_bound {_fmt(res.bound_slack)})")
    if cfg.gamma:
        n = int(horizons[-1])
        up = evaluator.exact_risk_value(mdl, sol.policy, schedule, abs(cfg.gamma), cfg.k, n, cfg.x)
        dn = evaluator.exact_risk_value(mdl, sol.policy, schedule, -abs(cfg.gamma), cfg.k, n, cfg.x)
        lines.append(f"risk_value[+gamma]: {_fmt(up.value)}")
        lines.append(f"risk_value[-gamma]: {_fmt(dn.value)}")
    if cfg.reps:
        n = int(horizons[-1])
        sim = evaluator.simulate(
            mdl, sol.policy, schedule, cfg.k, n, cfg.x, seed=cfg.seed, reps=cfg.reps,
            gamma=cfg.gamma or 1.0,
        )
        lines.append(f"mc_estimate: {_fmt(sim.discounted_estimate)} (stderr {_fmt(sim.discounted_stderr)})")
        lines.append(f"mc_risk_estimate: {_fmt(sim.risk_estimate)} (stderr {_fmt(sim.risk_stderr)})")
    _write_csv(cfg.out, "timeseries.csv", ("n", "J_n", "bound"), rows)
    _write_text(cfg.out, "report.txt", lines)
    return 0


def _default_f(n_states: int) -> np.ndarray:
    f = np.ones(n_states)
    f[0] = 2.0
    return f


def _task_verify(cfg: ExperimentConfig, mdl: Model) -> int:
    schedule = _resolve_schedule(cfg)
    horizons = cfg.horizons or [100, 1000]
    lines = [
        "task: verify",
        f"states: {mdl.n_states}",
        f"actions: {mdl.n_actions}",
        f"schedule: {json.dumps(schedule.to_dict(), sort_keys=True)}",
        f"seed: {cfg.seed}",
    ]
    failures = []

    def record(name: str, fn):
        try:
            detail = fn()
            lines.append(f"check {name}: PASS ({detail})")
        except CheckFailed as exc:
            lines.append(f"check {name}: FAIL ({exc})")
            failures.append(name)

    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    gamma = abs(cfg.gamma) or 0.5

    def _avg():
        rep = evaluator.discounted_optimality_check(
            mdl, schedule, cfg.k, horizons, x=cfg.x,
            panel_size=cfg.panel_size, panel_seed=cfg.seed, tol=cfg.tol,
        )
        return f"lambda={_fmt(rep.context['lambda'])}, rows={len(rep.rows)}"

    def _risk():
        n = int(horizons[-1])
        panel = evaluator.random_policy_panel(mdl, n_slices=n, size=cfg.panel_size, seed=cfg.seed + 1, start=cfg.k)
        rep = evaluator.risk_upper_bound_check(mdl, schedule, gamma, cfg.k, n, panel, x=cfg.x, tol=cfg.tol)
        return f"lambda_gamma={_fmt(rep.context['lambda_gamma'])}, policies={len(rep.rows)}"

    def _sandwich():
        rep = evaluator.sandwich_check(mdl, sol.policy, schedule, gamma, cfg.k, min(50, int(horizons[-1])), cfg.x)
        return (
            f"{_fmt(rep.context['lower'])} <= {_fmt(rep.context['mid'])} <= {_fmt(rep.context['upper'])}"
        )

    def _sweep():
        gammas = cfg.gammas or [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0]
        rows = risk_solver.gamma_sweep(mdl, sol.policy, gammas, tol=cfg.tol)
        lams = [r.lam for r in rows]
        for a, b in zip(lams, lams[1:]):
            if b < a - 1e-10:
                raise CheckFailed(f"sweep not monotone: {a!r} then {b!r}")
        return f"{len(rows)} rows, lambda range [{_fmt(lams[0])}, {_fmt(lams[-1])}]"

    def _ldp():
        P = mdl.policy_kernel(sol.policy)
        f = np.asarray(cfg.f, dtype=float) if cfg.f else _default_f(mdl.n_states)
        n_grid = cfg.n_grid or list(range(8, 13))
        rep = ldp.ldp_upper_bound_check(P, f, cfg.kappa, schedule, cfg.k, n_grid)
        return f"d={_fmt(rep.d)}, kappa={_fmt(rep.kappa)}, horizons={len(rep.rows)}"

    def _rate_zero():
        P = mdl.policy_kernel(sol.policy)
        mu = average_solver.stationary_distribution(P)
        rep = ldp.rate_function(P, mu, seed=cfg.seed)
        if rep.value > 1e-6:
            raise CheckFailed(f"rate at the invariant measure is {rep.value!r} > 1e-6")
        return f"I(mu)={_fmt(rep.value)}"

    def _rate_positive():
        P = mdl.policy_kernel(sol.policy)
        mu = average_solver.stationary_distribution(P)
        nu = mu.copy()
        hi = int(np.argmax(nu))
        lo = int(np.argmin(nu))
        shift = min(0.05, nu[hi] / 2)
        nu[hi] -= shift
        nu[lo] += shift
        rep = ldp.rate_function(P, nu, seed=cfg.seed)
        if rep.value < 1e-6:
            raise CheckFailed(f"rate away from the invariant measure is only {rep.value!r}")
        return f"I(nu)={_fmt(rep.value)} at TV={_fmt(shift)}"

    record("discounted optimality", _avg)
    record("risk upper bound", _risk)
    record("sandwich", _sandwich)
    record("gamma sweep monotone", _sweep)
    record("ldp upper bound", _ldp)
    record("rate zero at invariant", _rate_zero)
    record("rate positive off invariant", _rate_positive)

    lines.append(f"result: {'PASS' if not failures else 'FAIL'}")
    _write_text(cfg.out, "report.txt", lines)
    return 0 if not failures else 1


def _task_ldp_check(cfg: ExperimentConfig, mdl: Model) -> int:
    schedule = _resolve_schedule(cfg)
    policy = StationaryPolicy([0] * mdl.n_states)
    P = mdl.policy_kernel(policy)
    f = np.asarray(cfg.f, dtype=float) if cfg.f else _default_f(mdl.n_states)
    n_grid = cfg.n_grid or list(range(8, 13))
    status = 0
    try:
        rep = ldp.ldp_upper_bound_check(P, f, cfg.kappa, schedule, cfg.k, n_grid)
    except CheckFailed as exc:
        rep = exc.report
        status = 1
    _write_csv(
        cfg.out,
        "decay.csv",
        ("n", "sum_phi", "Q_exact", "bound", "normalized_log_Q"),
        [(r.n, r.sum_phi, r.q_exact, r.bound, r.normalized_log_q) for r in rep.rows],
    )
    mu = average_solver.stationary_distribution(P)
    rate = ldp.rate_function(P, mu, seed=cfg.seed)
    lines = [
        "task: ldp-check",
        f"f: {_vec(f)}",
        f"kappa: {_fmt(cfg.kappa)}",
        f"d: {_fmt(rep.d)}",
        f"rate_at_invariant: {_fmt(rate.value)}",
        f"rate_maximizer: {_vec(rate.maximizer)}",
        f"rate_converged: {rate.converged}",
    ]
    if cfg.gamma < 0:
        # negative risk factor requested: audit the near-optimality margin too
        margin = ldp.near_optimality_margin(
            mdl, policy, schedule, cfg.epsilon, cfg.gamma, cfg.k, cfg.horizon
        )
        lines.append(f"margin_lambda_u: {_fmt(margin.lam_u)}")
        lines.append(f"margin_rate_infimum: {_fmt(margin.rate_infimum)}")
        lines.append(f"margin_slack: {_fmt(margin.slack)}")
        lines.append(f"margin: {_fmt(margin.margin)}")
        status = status or (0 if margin.passed else 1)
    lines.append(f"result: {'PASS' if status == 0 else 'FAIL'}")
    _write_text(cfg.out, "report.txt", lines)
    return status


def _task_sweep_gamma(cfg: ExperimentConfig, mdl: Model) -> int:
    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    gammas = cfg.gammas or [-1.0, -0.5, -0.1, 0.1, 0.5, 1.0]
    rows = risk_solver.gamma_sweep(mdl, sol.policy, gammas, tol=cfg.tol)
    _write_csv(
        cfg.out,
        "sweep.csv",
        ("gamma", "lambda", "certificate", "residual"),
        [(r.gamma, r.lam, r.certificate, r.residual) for r in rows],
    )
    lines = ["task: sweep-gamma", f"policy: {list(sol.policy.actions)}"]
    for r in rows:
        lines.append(f"lambda[{_fmt(r.gamma)}]: {_fmt(r.lam)} ({r.certificate or 'average'})")
    _write_text(cfg.out, "report.txt", lines)
    return 0


def _task_gen_model(cfg: ExperimentConfig) -> int:
    src = cfg.model or {}
    if isinstance(src, dict) and "generator" in src:
        spec = src["generator"]
    else:
        raise ConfigError("gen-model needs a generator spec")
    mdl = gen_model(spec)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "model.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_dict(mdl), fh, indent=2, sort_keys=True)
        fh.write("\n")
    bounds = density_bounds(mdl)
    _write_text(
        cfg.out,
        "report.txt",
        [
            "task: gen-model",
            f"model: {path}",
            f"density_bound: {_fmt(bounds.m)}",
            f"delta_bound: {_fmt(bounds.delta_bound)}",
        ],
    )
    return 0


def run(cfg: ExperimentConfig) -> int:
    """Execute one task; returns the process exit status."""
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.task == "gen-model":
        return _task_gen_model(cfg)
    mdl = _resolve_model(cfg)
    if cfg.task == "solve-average":
        return _task_solve_average(cfg, mdl)
    if cfg.task == "solve-risk":
        return _task_solve_risk(cfg, mdl)
    if cfg.task == "evaluate":
        return _task_evaluate(cfg, mdl)
    if cfg.task == "verify":
        return _task_verify(cfg, mdl)
    if cfg.task == "ldp-check":
        return _task_ldp_check(cfg, mdl)
    return _task_sweep_gamma(cfg, mdl)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longrun", description=__doc__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", help="JSON config file; its values override flags")
        p.add_argument("--model", help="model JSON file")
        p.add_argument("--schedule", help="'unit', 'hyperbolic:H,R', or inline JSON")
        p.add_argument("--gamma", type=float)
        p.add_argument("--gammas", help="comma-separated risk factors")
        p.add_argument("--horizon", type=int)
        p.add_argument("--horizons", help="comma-separated horizons")
        p.add_argument("--k", type=int)
        p.add_argument("--x", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--panel-size", dest="panel_size", type=int)
        p.add_argument("--out")
        if task == "gen-model":
            p.add_argument("--states", type=int)
            p.add_argument("--actions", type=int)
            p.add_argument("--min-entry", dest="min_entry", type=float)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {"task": args.task}
    if args.model:
        values["model"] = {"path": args.model}
    if args.task == "gen-model" and (args.states or args.actions or args.min_entry):
        values["model"] = {
            "generator": {
                "n_states": args.states or 2,
                "n_actions": args.actions or 1,
                "min_entry": args.min_entry if args.min_entry is not None else 0.1,
                "seed": args.seed or 0,
            }
        }
    if args.schedule:
        values["schedule"] = parse_schedule_arg(args.schedule)
    for key in ("gamma", "horizon", "k", "x", "seed", "tol", "kappa", "epsilon", "panel_size", "out"):
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    try:
        if args.gammas:
            values["gammas"] = [float(t) for t in args.gammas.split(",")]
        if args.horizons:
            values["horizons"] = [int(t) for t in args.horizons.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--gammas and --horizons take comma-separated numbers: {exc}") from exc
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file does not exist: {args.config}")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config JSON: {exc}") from exc
        # configuration files are the reproducible record: they win over flags
        values.update(_load_config_mapping(data))
    return ExperimentConfig(**{k: v for k, v in values.items() if k in _CONFIG_FIELDS})


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (ConfigError, InvalidModel) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
