"""The four benchmark workloads and the correctness checks on their reports.

A workload is one generated model, optional config files, and a fixed mix of
CLI tasks that make up one round.  Every task is a `longrun.cli.main` argv;
the program sees only the generated model and config files.  Each task has a
check that reads the files the task wrote and compares them with references
computed outside the timed region (oracles in the library or closed-form
brackets computed here), at the tolerances pinned in tests/test_acceptance.py.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from longrun import StationaryPolicy, load_model, perron_oracle, policy_enumeration_oracle
from longrun.cli import main as cli_main

GAIN_TOL = 1e-8       # oracle agreement, criteria 02 and 04
ORDER_TOL = 1e-12     # exact orderings, criterion 06 and the margin check
TRUNCATION_TOL = 1e-10  # the CLI's default --tol
ENUMERATION_LIMIT = 4096  # policies; the brute-force oracle is used up to here

HYPERBOLIC = {"family": "hyperbolic", "h": 1.0, "r": 1.0}


class CheckError(Exception):
    """A task's output failed its correctness check."""


@dataclass(frozen=True)
class Task:
    """One CLI call: argv after the task name, with {model} and {config}
    standing for the generated files.  The output directory is appended."""

    name: str
    args: tuple
    check: object


@dataclass(frozen=True)
class Workload:
    name: str
    states: int
    actions: int
    min_entry: float
    tasks: tuple
    # config files written at set-up: name -> JSON object ({model} is replaced)
    configs: dict = field(default_factory=dict)
    seed_offset: int | None = None
    # models per round: each copy has its own model and runs every task once
    copies: int = 1


# --------------------------------------------------------------------------
# report parsing


def parse_report(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def number(report: dict, key: str) -> float:
    if key not in report:
        raise CheckError(f"report has no {key!r} line")
    return float(report[key].split()[0])


def vector(report: dict, key: str) -> np.ndarray:
    if key not in report:
        raise CheckError(f"report has no {key!r} line")
    return np.asarray(json.loads(report[key]), dtype=float)


def read_csv(files: dict, name: str) -> list:
    if name not in files:
        raise CheckError(f"task wrote no {name}")
    return list(csv.DictReader(io.StringIO(files[name].decode("utf-8"))))


def _close(label: str, got: float, want: float, tol: float = GAIN_TOL):
    if not abs(got - want) <= tol:
        raise CheckError(f"{label}: got {got!r}, reference {want!r} (tolerance {tol})")


# --------------------------------------------------------------------------
# references computed from the model, independent of the solvers under test


def policy_gain(model, actions) -> float:
    """Long-run average reward of a stationary policy from its invariant measure."""
    states = np.arange(model.n_states)
    P = model.kernel[actions, states, :]
    A = P.T - np.eye(model.n_states)
    A[-1, :] = 1.0
    b = np.zeros(model.n_states)
    b[-1] = 1.0
    mu = np.linalg.solve(A, b)
    return float(mu @ model.reward[states, actions])


def average_bracket(model, w) -> tuple:
    """min and max of (Tw - w): the optimal average gain lies between them."""
    d = (model.reward.T + model.kernel @ w).max(axis=0) - w
    return float(d.min()), float(d.max())


def risk_bracket(model, gamma: float, w) -> tuple:
    """Bracket on the optimal risk-sensitive gain from the log-space operator."""
    shift = w.max()
    q = gamma * model.reward.T + shift + np.log(model.kernel @ np.exp(w - shift))
    t = q.max(axis=0) if gamma > 0 else q.min(axis=0)
    d = (t - w) / gamma
    return float(d.min()), float(d.max())


class Context:
    """The workload's model and the references derived from it, computed
    once per run outside the timed region."""

    def __init__(self, model_path: str):
        self.model = load_model(model_path)
        self._optimal_gain = None

    def optimal_gain(self) -> float | None:
        if self.model.n_actions ** self.model.n_states > ENUMERATION_LIMIT:
            return None
        if self._optimal_gain is None:
            self._optimal_gain, _ = policy_enumeration_oracle(self.model)
        return self._optimal_gain


# --------------------------------------------------------------------------
# per-task checks: each takes (context, exit code, {file name: bytes})


def _report(files: dict) -> dict:
    if "report.txt" not in files:
        raise CheckError("task wrote no report.txt")
    return parse_report(files["report.txt"].decode("utf-8"))


def check_solve_average(ctx: Context, files: dict):
    rep = _report(files)
    lam = number(rep, "lambda")
    actions = vector(rep, "policy").astype(int)
    _close("gain of the returned policy", lam, policy_gain(ctx.model, actions))
    lo, hi = average_bracket(ctx.model, vector(rep, "w"))
    if not (lo - GAIN_TOL <= lam <= hi + GAIN_TOL and hi - lo <= GAIN_TOL):
        raise CheckError(f"gain {lam!r} not certified optimal by the Bellman bracket [{lo!r}, {hi!r}]")
    if ctx.optimal_gain() is not None:
        _close("gain against policy enumeration", lam, ctx.optimal_gain())
    if "truncation_bound" in rep and not number(rep, "truncation_bound") <= TRUNCATION_TOL:
        raise CheckError(f"truncation_bound {rep['truncation_bound']} exceeds {TRUNCATION_TOL}")


def check_solve_risk(ctx: Context, files: dict):
    rep = _report(files)
    lam = number(rep, "lambda")
    gamma = number(rep, "gamma")
    policy = StationaryPolicy(vector(rep, "policy").astype(int))
    _close("risk gain against the Perron root", lam, perron_oracle(ctx.model, policy, gamma))
    lo, hi = risk_bracket(ctx.model, gamma, vector(rep, "w"))
    if not (lo - GAIN_TOL <= lam <= hi + GAIN_TOL and hi - lo <= GAIN_TOL):
        raise CheckError(f"risk gain {lam!r} not certified optimal by the bracket [{lo!r}, {hi!r}]")


def check_sweep_gamma(ctx: Context, files: dict):
    rep = _report(files)
    actions = vector(rep, "policy").astype(int)
    policy = StationaryPolicy(actions)
    rows = read_csv(files, "sweep.csv")
    lams = []
    for row in rows:
        gamma, lam = float(row["gamma"]), float(row["lambda"])
        if gamma == 0.0:
            want = policy_gain(ctx.model, actions)
        else:
            want = perron_oracle(ctx.model, policy, gamma)
        _close(f"sweep gain at gamma {gamma}", lam, want)
        lams.append(lam)
    if any(b < a - 1e-10 for a, b in zip(lams, lams[1:])):
        raise CheckError(f"sweep gains not monotone in gamma: {lams}")


_J_LINE = re.compile(r"^J\[(\d+)\]$")


def check_evaluate(ctx: Context, files: dict):
    rep = _report(files)
    lam = number(rep, "lambda")
    horizons = sorted((int(m.group(1)), key) for key in rep if (m := _J_LINE.match(key)))
    if not horizons:
        raise CheckError("report has no J[n] lines")
    for n, key in horizons:
        value = number(rep, key)
        gap_bound = float(rep[key].split("gap_bound ")[1].rstrip(")"))
        if not abs(value - lam) <= gap_bound:
            raise CheckError(f"J[{n}] = {value!r} is more than its gap_bound {gap_bound!r} from lambda {lam!r}")
    if "risk_value[+gamma]" in rep:
        j_last = number(rep, horizons[-1][1])
        lower, upper = number(rep, "risk_value[-gamma]"), number(rep, "risk_value[+gamma]")
        if not lower - ORDER_TOL <= j_last <= upper + ORDER_TOL:
            raise CheckError(f"sandwich fails: {lower!r} <= {j_last!r} <= {upper!r}")
    if "mc_estimate" in rep and not math.isfinite(number(rep, "mc_estimate")):
        raise CheckError("Monte-Carlo estimate is not finite")


def check_verify(ctx: Context, files: dict):
    rep = _report(files)
    if rep.get("result") != "PASS":
        raise CheckError(f"verify result is {rep.get('result')!r}")


def check_ldp(ctx: Context, files: dict):
    rep = _report(files)
    if rep.get("result") != "PASS":
        raise CheckError(f"ldp-check result is {rep.get('result')!r}")
    for row in read_csv(files, "decay.csv"):
        if not float(row["Q_exact"]) <= float(row["bound"]):
            raise CheckError(f"Q_exact {row['Q_exact']} above its bound {row['bound']} at n={row['n']}")
    if "margin" in rep and not number(rep, "margin") >= -ORDER_TOL:
        raise CheckError(f"near-optimality margin {rep['margin']} is negative")


# --------------------------------------------------------------------------
# recorded references: gains of the default and second seeds at the commit
# that defined the benchmark

REFERENCE_KEY = re.compile(r"^(lambda(\[.*\])?|J\[\d+\]|risk_value\[[+-]gamma\]|margin)$")


def reference_values(files: dict) -> dict:
    """The report values compared against the recorded references."""
    rep = parse_report(files.get("report.txt", b"").decode("utf-8"))
    return {key: number(rep, key) for key in sorted(rep) if REFERENCE_KEY.match(key)}


def check_recorded(recorded: dict, files: dict):
    got = reference_values(files)
    for key, want in recorded.items():
        if key not in got:
            raise CheckError(f"report lost the recorded value {key!r}")
        _close(f"{key} against the recorded reference", got[key], want)


# --------------------------------------------------------------------------
# the workloads

# Monte-Carlo replicates for horizon-long, sized so that `simulate` and the
# exact propagations each take about half of the round
HORIZON_REPS = 18
# models per `deviation` round: the sum of their rate-function costs varies
# less between seeds than one model's
DEVIATION_COPIES = 3

WORKLOADS = {
    w.name: w
    for w in (
        # the README commands on the README model: `verify` dominates
        Workload(
            name="readme",
            states=3,
            actions=2,
            min_entry=0.05,
            tasks=(
                Task("solve-average", ("--model", "{model}", "--schedule", "hyperbolic:1,1"), check_solve_average),
                Task("solve-risk", ("--model", "{model}", "--gamma", "0.5"), check_solve_risk),
                Task(
                    "evaluate",
                    ("--model", "{model}", "--schedule", "hyperbolic:1,1", "--gamma", "0.5", "--horizons", "100,1000"),
                    check_evaluate,
                ),
                Task(
                    "verify",
                    ("--model", "{model}", "--schedule", "hyperbolic:1,1", "--horizons", "100,500", "--seed", "1"),
                    check_verify,
                ),
                Task("ldp-check", ("--model", "{model}", "--kappa", "0.02"), check_ldp),
                Task("sweep-gamma", ("--model", "{model}", "--gammas=-1,-0.5,0.5,1"), check_sweep_gamma),
            ),
        ),
        # structural constants dominate: the Dobrushin coefficient is recomputed per solve
        Workload(
            name="solve-large",
            states=200,
            actions=4,
            min_entry=0.001,
            seed_offset=1,
            tasks=(
                Task("solve-average", ("--model", "{model}", "--schedule", "hyperbolic:1,1"), check_solve_average),
                Task("solve-risk", ("--model", "{model}", "--gamma", "0.5"), check_solve_risk),
                Task("sweep-gamma", ("--model", "{model}", "--gammas=-1,-0.5,0.5,1"), check_sweep_gamma),
            ),
        ),
        # one policy, long horizons: per-step propagation and the simulator's path loop
        Workload(
            name="horizon-long",
            states=50,
            actions=4,
            min_entry=0.004,
            seed_offset=2,
            configs={
                "evaluate": {
                    "model": "{model}",
                    "schedule": HYPERBOLIC,
                    "horizons": [1000, 10000],
                    "gamma": 0.5,
                    "reps": HORIZON_REPS,
                    "seed": "{seed}",
                }
            },
            tasks=(Task("evaluate", ("--config", "{config:evaluate}"), check_evaluate),),
        ),
        # path enumeration and the nested rate-function optimisation; the
        # rate-function cost varies about 2.5x between models, so a round
        # covers several models
        Workload(
            name="deviation",
            states=3,
            actions=2,
            min_entry=0.05,
            seed_offset=3,
            copies=DEVIATION_COPIES,
            configs={
                "ldp-check": {
                    "model": "{model}",
                    "schedule": HYPERBOLIC,
                    "kappa": 0.02,
                    "n_grid": [8, 10, 12, 14, 16],
                    "gamma": -0.01,
                    "horizon": 1000,
                }
            },
            tasks=(Task("ldp-check", ("--config", "{config:ldp-check}"), check_ldp),),
        ),
    )
}


def model_seed(workload: Workload, seed: int, copy: int = 0) -> int:
    """Generator seed of the workload's model number `copy`; `readme` uses the
    workload seed itself, so the default seed 7 reproduces the README model."""
    if workload.seed_offset is None:
        return seed
    entropy = [seed, workload.seed_offset] + ([copy] if copy else [])
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _fill(value, subst: dict):
    if isinstance(value, str):
        return subst.get(value, value)
    if isinstance(value, dict):
        return {k: _fill(v, subst) for k, v in value.items()}
    return value


def write_configs(workload: Workload, directory: str, model_path: str, seed: int) -> dict:
    """Write the workload's config files; returns {name: path}."""
    paths = {}
    for name, template in workload.configs.items():
        path = os.path.join(directory, f"{name}.json")
        doc = _fill(template, {"{model}": model_path, "{seed}": seed})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths


def generate_inputs(workload: Workload, seed: int, directory: str) -> list:
    """Write each copy's model and config files under `directory`, one
    subdirectory per copy; returns [(model path, {config name: path})]."""
    inputs = []
    for copy in range(workload.copies):
        out = os.path.join(directory, str(copy))
        gen = [
            "gen-model", "--states", str(workload.states), "--actions", str(workload.actions),
            "--min-entry", repr(workload.min_entry), "--seed", str(model_seed(workload, seed, copy)), "--out", out,
        ]
        if cli_main(gen) != 0:
            raise RuntimeError(f"gen-model failed for {workload.name}")
        model_path = os.path.join(out, "model.json")
        inputs.append((model_path, write_configs(workload, out, model_path, model_seed(workload, seed, copy))))
    return inputs


def call_key(workload: Workload, task: Task, copy: int) -> str:
    """Names one task call of a round: the task name, with the copy appended
    when the workload has several."""
    return task.name if workload.copies == 1 else f"{task.name}.{copy}"


def task_argv(task: Task, model_path: str, configs: dict, out_dir: str) -> list:
    argv = [task.name]
    for arg in task.args:
        if arg == "{model}":
            arg = model_path
        elif arg.startswith("{config:"):
            arg = configs[arg[len("{config:"):-1]]
        argv.append(arg)
    return argv + ["--out", out_dir]
