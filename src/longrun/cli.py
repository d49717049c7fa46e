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
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import average_solver, evaluator, ldp, risk_solver
from .errors import CheckFailed, ConfigError, InvalidModel, SolverError
from .model import (
    DiscountSchedule,
    Model,
    StationaryPolicy,
    UnitSchedule,
    _finite_number,
    density_bounds,
    load_model,
    save_model,
    schedule_from_dict,
)

_DEFAULT_GAMMAS = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)


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
_NULLABLE_FIELDS = {f.name for f in fields(ExperimentConfig) if f.default is None}

# numeric configuration fields and their value type; [t] is a list of t
_NUMERIC_FIELDS = {
    "gamma": float, "epsilon": float, "tol": float, "kappa": float,
    "k": int, "x": int, "horizon": int, "seed": int, "panel_size": int, "reps": int, "window": int,
    "gammas": [float], "f": [float], "horizons": [int], "n_grid": [int],
}

# generator spec fields, all required, and their value type
_GENERATOR_FIELDS = {"n_states": int, "n_actions": int, "min_entry": float, "seed": int}

# the largest value a size field or each of its list items may take: above
# it a run would take hours or exhaust memory.  Every value in the tests,
# the README and the benchmark is below its cap; the exact ergodicity
# coefficient of a 500 x 10 generated model takes about 10 s on a 2-vCPU VM.
_SIZE_CAPS = {
    "horizon": 100_000, "horizons": 100_000, "n_grid": 100_000, "window": 10_000,
    "panel_size": 1_000, "reps": 10_000, "n_states": 500, "n_actions": 10,
}


def _check_numeric_fields(values: dict, kinds: dict = _NUMERIC_FIELDS) -> None:
    """Refuse a numeric field or list item of another type, an empty list, a
    non-finite float, a negative seed and a size above its cap in
    _SIZE_CAPS.  A field whose default is None may be null."""
    for name, kind in kinds.items():
        if name not in values or (values[name] is None and name in _NULLABLE_FIELDS):
            continue
        items = values[name]
        if isinstance(kind, list):
            if not isinstance(items, list):
                raise ConfigError(f"{name} must be a list, got {items!r}")
            if not items:
                # an empty list would silently stand for the default
                raise ConfigError(f"{name} must not be empty; leave it out for the default")
            kind = kind[0]
        else:
            items = [items]
        allowed = int if kind is int else (int, float)
        for item in items:
            if isinstance(item, bool) or not isinstance(item, allowed):
                raise ConfigError(f"{name} takes {kind.__name__} values, got {item!r}")
            if kind is float:
                _finite_number(item, name)
            elif name == "seed" and item < 0:
                raise ConfigError(f"seed must be nonnegative, got {item!r}")
            elif item > _SIZE_CAPS.get(name, item):
                raise ConfigError(f"{name} must be at most {_SIZE_CAPS[name]}, got {item!r}")


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
    if not isinstance(spec, dict) or set(spec) != set(_GENERATOR_FIELDS):
        raise ConfigError(f"generator spec needs exactly the fields {sorted(_GENERATOR_FIELDS)}, got {spec!r}")
    _check_numeric_fields(spec, _GENERATOR_FIELDS)
    s, a, min_entry = spec["n_states"], spec["n_actions"], spec["min_entry"]
    if s < 1 or a < 1:
        raise ConfigError("generator needs at least one state and one action")
    if not 0.0 < min_entry:
        raise ConfigError("min_entry must be positive to guarantee a density bound")
    if min_entry * s >= 1.0:
        raise ConfigError(f"min_entry {min_entry} infeasible for {s} states (needs min_entry * n_states < 1)")
    rng = np.random.default_rng(spec["seed"])
    g = rng.random((a, s, s))
    kernel = min_entry + (1.0 - s * min_entry) * (g / g.sum(axis=2, keepdims=True))
    reward = rng.random((s, a))
    return Model(kernel, reward)


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
        if not isinstance(src["path"], str):  # an int would be read as an open file descriptor
            raise ConfigError(f"model path must be a string, got {src['path']!r}")
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
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
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


def _task_solve_average(cfg: ExperimentConfig) -> int:
    mdl = _resolve_model(cfg)
    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    lines = [
        "task: solve-average",
        f"states: {mdl.n_states}",
        f"actions: {mdl.n_actions}",
        f"lambda: {_fmt(sol.lam)}",
        f"w: {_vec(sol.w)}",
        f"policy: {list(sol.policy.actions)}",
        f"span_residual: {_fmt(sol.residual)}",
        f"iterations: {sol.iterations}",
        f"bounds: span_w <= {_fmt(sol.bound)}",
    ]
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


def _task_solve_risk(cfg: ExperimentConfig) -> int:
    mdl = _resolve_model(cfg)
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


def _task_evaluate(cfg: ExperimentConfig) -> int:
    mdl = _resolve_model(cfg)
    schedule = _resolve_schedule(cfg)
    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    horizons = cfg.horizons or [cfg.horizon]
    w_max = float(sol.w.max())
    rows = []
    lines = ["task: evaluate", f"lambda: {_fmt(sol.lam)}", f"policy: {list(sol.policy.actions)}"]
    for res, _ in evaluator._discounted(mdl, [sol.policy], schedule, cfg.k, horizons, [cfg.x]):
        # certified distance to the long-run gain for the solved policy
        gap_bound = 2.0 * w_max / res.normalizer
        rows.append((res.horizon, res.value, gap_bound))
        lines.append(f"J[{res.horizon}]: {_fmt(res.value)} (gap_bound {_fmt(gap_bound)})")
    n = horizons[-1]
    if cfg.gamma:
        g = abs(cfg.gamma)
        risk = evaluator._risk(mdl, [sol.policy] * 2, schedule, [g, -g], cfg.k, n, [cfg.x] * 2)
        for sign, (res, _) in zip("+-", risk):
            lines.append(f"risk_value[{sign}gamma]: {_fmt(res.value)}")
    if cfg.reps:
        sim = evaluator.simulate(
            mdl, sol.policy, schedule, cfg.k, n, cfg.x, seed=cfg.seed, reps=cfg.reps,
            gamma=cfg.gamma or 1.0,
        )
        lines.append(f"mc_estimate: {_fmt(sim.discounted_estimate)} (stderr {_fmt(sim.discounted_stderr)})")
        lines.append(f"mc_risk_estimate: {_fmt(sim.risk_estimate)} (stderr {_fmt(sim.risk_stderr)})")
    _write_csv(cfg.out, "timeseries.csv", ("n", "J_n", "bound"), rows)
    _write_text(cfg.out, "report.txt", lines)
    return 0


def _ldp_inputs(cfg: ExperimentConfig, n_states: int) -> tuple:
    """The deviation-bound check's f (default 2 on state 0, 1 elsewhere) and
    n_grid (default 8 to 12)."""
    f = np.asarray(cfg.f, dtype=float) if cfg.f else np.concatenate(([2.0], np.ones(n_states - 1)))
    return f, cfg.n_grid or list(range(8, 13))


def _task_verify(cfg: ExperimentConfig) -> int:
    mdl = _resolve_model(cfg)
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
    P = mdl.policy_kernel(sol.policy)
    mu = average_solver.stationary_distribution(P)
    gamma = abs(cfg.gamma) or 0.5

    def _avg():
        rep = evaluator.discounted_optimality_check(
            mdl, sol, schedule, cfg.k, horizons, x=cfg.x, panel_size=cfg.panel_size, panel_seed=cfg.seed
        )
        return f"lambda={_fmt(rep.context['lambda'])}, rows={len(rep.rows)}"

    def _risk():
        n = horizons[-1]
        panel = evaluator.random_policy_panel(mdl, n_slices=n, size=cfg.panel_size, seed=cfg.seed + 1, start=cfg.k)
        rep = evaluator.risk_upper_bound_check(mdl, schedule, gamma, cfg.k, n, panel, x=cfg.x, tol=cfg.tol)
        return f"lambda_gamma={_fmt(rep.context['lambda_gamma'])}, policies={len(rep.rows)}"

    def _sandwich():
        rep = evaluator.sandwich_check(mdl, sol.policy, schedule, gamma, cfg.k, min(50, horizons[-1]), cfg.x)
        return (
            f"{_fmt(rep.context['lower'])} <= {_fmt(rep.context['mid'])} <= {_fmt(rep.context['upper'])}"
        )

    def _sweep():
        rows = risk_solver.gamma_sweep(mdl, sol.policy, cfg.gammas or _DEFAULT_GAMMAS, tol=cfg.tol)
        lams = [r.lam for r in rows]
        for a, b in zip(lams, lams[1:]):
            if b < a - 1e-10:
                raise CheckFailed(f"sweep not monotone: {a!r} then {b!r}")
        return f"{len(rows)} rows, lambda range [{_fmt(lams[0])}, {_fmt(lams[-1])}]"

    def _ldp():
        f, n_grid = _ldp_inputs(cfg, mdl.n_states)
        rep = ldp.ldp_upper_bound_check(P, f, cfg.kappa, schedule, cfg.k, n_grid)
        return f"d={_fmt(rep.d)}, kappa={_fmt(rep.kappa)}, horizons={len(rep.rows)}"

    def _rate_zero():
        rep = ldp.rate_function(P, mu)
        if rep.value > 1e-6:
            raise CheckFailed(f"rate at the invariant measure is {rep.value!r} > 1e-6")
        return f"I(mu)={_fmt(rep.value)}"

    def _rate_positive():
        nu = mu.copy()
        hi = int(np.argmax(nu))
        lo = int(np.argmin(nu))
        shift = min(0.05, nu[hi] / 2)
        nu[hi] -= shift
        nu[lo] += shift
        rep = ldp.rate_function(P, nu)
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


def _task_ldp_check(cfg: ExperimentConfig) -> int:
    mdl = _resolve_model(cfg)
    schedule = _resolve_schedule(cfg)
    policy = StationaryPolicy([0] * mdl.n_states)
    P = mdl.policy_kernel(policy)
    f, n_grid = _ldp_inputs(cfg, mdl.n_states)
    status = 0
    try:
        rep = ldp.ldp_upper_bound_check(P, f, cfg.kappa, schedule, cfg.k, n_grid)
    except CheckFailed as exc:
        rep = exc.report
        status = 1
    mu = average_solver.stationary_distribution(P)
    rate = ldp.rate_function(P, mu)
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
        try:
            margin = ldp.near_optimality_margin(mdl, policy, schedule, cfg.epsilon, cfg.gamma, cfg.k, cfg.horizon)
        except CheckFailed as exc:
            margin = exc.report
            status = 1
        lines.append(f"margin_lambda_u: {_fmt(margin.lam_u)}")
        lines.append(f"margin_rate_infimum: {_fmt(margin.rate_infimum)}")
        lines.append(f"margin_slack: {_fmt(margin.slack)}")
        lines.append(f"margin: {_fmt(margin.margin)}")
    lines.append(f"result: {'PASS' if status == 0 else 'FAIL'}")
    # written only once every check has run, so a refused input (exit 3) leaves no output
    _write_csv(
        cfg.out,
        "decay.csv",
        ("n", "sum_phi", "Q_exact", "bound", "normalized_log_Q"),
        [(r.n, r.sum_phi, r.q_exact, r.bound, r.normalized_log_q) for r in rep.rows],
    )
    _write_text(cfg.out, "report.txt", lines)
    return status


def _task_sweep_gamma(cfg: ExperimentConfig) -> int:
    mdl = _resolve_model(cfg)
    sol = average_solver.relative_value_iteration(mdl, tol=cfg.tol)
    rows = risk_solver.gamma_sweep(mdl, sol.policy, cfg.gammas or _DEFAULT_GAMMAS, tol=cfg.tol)
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
    if not (isinstance(cfg.model, dict) and "generator" in cfg.model):
        raise ConfigError("gen-model needs a generator spec")
    mdl = gen_model(cfg.model["generator"])
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "model.json")
    save_model(mdl, path)
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


_TASKS = {
    "solve-average": _task_solve_average,
    "solve-risk": _task_solve_risk,
    "evaluate": _task_evaluate,
    "verify": _task_verify,
    "ldp-check": _task_ldp_check,
    "sweep-gamma": _task_sweep_gamma,
    "gen-model": _task_gen_model,
}
TASKS = tuple(_TASKS)


def run(cfg: ExperimentConfig) -> int:
    """Execute one task; returns the process exit status."""
    if cfg.task not in TASKS:
        raise ConfigError(f"unknown task {cfg.task!r}")
    return _TASKS[cfg.task](cfg)


def _list_of(kind):
    """argparse type of a comma-separated list of kind values."""

    def parse(text: str) -> list:
        return [kind(t) for t in text.split(",")]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _build_parser(filled=TASKS) -> argparse.ArgumentParser:
    """The parser of every task; only the subparsers of the tasks in filled
    get their flags, as filling all seven costs about 2 ms per call."""
    parser = argparse.ArgumentParser(prog="longrun", description=__doc__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        if task not in filled:
            continue
        p.add_argument("--config", help="JSON config file; its values override flags")
        p.add_argument("--model", help="model JSON file")
        p.add_argument("--schedule", help="'unit', 'hyperbolic:H,R', or inline JSON")
        p.add_argument("--gamma", type=float)
        p.add_argument("--gammas", type=_list_of(float), help="comma-separated risk factors")
        p.add_argument("--horizon", type=int)
        p.add_argument("--horizons", type=_list_of(int), help="comma-separated horizons")
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
    values = {name: v for name, v in vars(args).items() if name in _CONFIG_FIELDS and v is not None}
    if args.task == "gen-model" and (args.states, args.actions, args.min_entry) != (None, None, None):
        # a flag given as 0 is kept, for gen_model to refuse
        values["model"] = {
            "generator": {
                "n_states": args.states if args.states is not None else 2,
                "n_actions": args.actions if args.actions is not None else 1,
                "min_entry": args.min_entry if args.min_entry is not None else 0.1,
                "seed": args.seed if args.seed is not None else 0,
            }
        }
    if "schedule" in values:
        values["schedule"] = parse_schedule_arg(values["schedule"])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nesting too deep
            raise ConfigError(f"bad config JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown configuration fields: {sorted(unknown)}")
        if data.get("task", args.task) != args.task:
            raise ConfigError(f"config task {data['task']!r} differs from the invoked task {args.task!r}")
        # configuration files are the reproducible record: they win over flags
        values.update(data)
    if not isinstance(values.get("out", ""), str):
        raise ConfigError(f"out must be a string, got {values['out']!r}")
    _check_numeric_fields(values)
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option that takes a value, so the first
    # argument that names a task is the one argparse runs
    parser = _build_parser([next((arg for arg in argv if arg in _TASKS), None)])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (ConfigError, InvalidModel, OSError) as exc:
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
