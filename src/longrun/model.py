"""Finite controlled Markov models, discount schedules, and structural constants.

Every solver in this package operates on the same primitives: a finite state
space, a finite action set, one row-stochastic transition matrix per action,
and a bounded reward table.  This module defines those types, the discount
schedule families (hyperbolic, unit, tabulated), and the scalar constants
(uniform ergodicity coefficient, two-sided density bound, row-equivalence
constant, risk contraction margin) that serve as preconditions and bound
certificates downstream.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidModel,
    KernelNotPositive,
    KernelsNotEquivalent,
)

ROW_SUM_TOL = 1e-12


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Model:
    """A finite controlled Markov chain.

    kernel has shape (n_actions, n_states, n_states): kernel[a, x, y] is the
    probability of moving from x to y under action a.  reward has shape
    (n_states, n_actions).  Instances are immutable (arrays are marked
    read-only) and safe to share between concurrent solvers.  The exact
    ergodicity coefficient is computed once per instance, on first read of
    `ergodicity`, and lives as long as the instance.
    """

    kernel: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        reward = np.asarray(self.reward, dtype=float)
        if kernel.ndim != 3 or kernel.shape[1] != kernel.shape[2]:
            raise InvalidModel(f"kernel must have shape (actions, states, states), got {kernel.shape}")
        n_actions, n_states, _ = kernel.shape
        if n_states < 1 or n_actions < 1:
            raise InvalidModel("need at least one state and one action")
        if reward.shape != (n_states, n_actions):
            raise InvalidModel(
                f"reward must have shape ({n_states}, {n_actions}), got {reward.shape}"
            )
        if not np.isfinite(kernel).all():
            raise InvalidModel("kernel contains non-finite entries")
        if (kernel < 0).any():
            raise InvalidModel("kernel contains negative entries")
        row_err = np.abs(kernel.sum(axis=2) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            # deliberately no silent renormalization: a bad row sum is a
            # model-construction bug the caller must see
            raise InvalidModel(f"kernel rows must sum to 1 within {ROW_SUM_TOL} (worst error {row_err:.3e})")
        if not np.isfinite(reward).all():
            raise InvalidModel("reward table contains non-finite entries")
        object.__setattr__(self, "kernel", _readonly(kernel))
        object.__setattr__(self, "reward", _readonly(reward))

    @property
    def n_states(self) -> int:
        return self.kernel.shape[1]

    @property
    def n_actions(self) -> int:
        return self.kernel.shape[0]

    @functools.cached_property
    def ergodicity(self) -> float:
        """ergodicity_coefficient(self), computed on first read."""
        return ergodicity_coefficient(self)

    def reward_span(self) -> float:
        """max - min of the reward table over all state/action pairs."""
        return float(self.reward.max() - self.reward.min())

    def policy_kernel(self, policy: "StationaryPolicy") -> np.ndarray:
        """Transition matrix of the chain controlled by a stationary policy."""
        u = policy.check_against(self)
        return self.kernel[u, np.arange(self.n_states), :]

    def policy_reward(self, policy: "StationaryPolicy") -> np.ndarray:
        """Per-state reward c(x, u(x)) of a stationary policy."""
        u = policy.check_against(self)
        return self.reward[np.arange(self.n_states), u]

    def under_policy(self, policy: "StationaryPolicy") -> "Model":
        """The single-action model obtained by freezing a stationary policy.

        A single-action model is its own frozen model and is returned as is,
        so its cached ergodicity coefficient is reused.
        """
        if self.n_actions == 1:
            policy.check_against(self)
            return self
        return Model(self.policy_kernel(policy)[None, :, :], self.policy_reward(policy)[:, None])


@dataclass(frozen=True)
class StationaryPolicy:
    """One action index per state."""

    actions: tuple

    def __init__(self, actions: Sequence[int]):
        acts = tuple(int(a) for a in actions)
        if len(acts) == 0:
            raise InvalidModel("policy needs at least one state")
        if any(a < 0 for a in acts):
            raise InvalidModel("action indices must be nonnegative")
        object.__setattr__(self, "actions", acts)

    def check_against(self, model: Model) -> np.ndarray:
        u = np.asarray(self.actions, dtype=int)
        if u.shape != (model.n_states,):
            raise InvalidModel(f"policy covers {u.shape[0]} states, model has {model.n_states}")
        if (u >= model.n_actions).any():
            raise InvalidModel("policy uses an action index outside the model's action set")
        return u

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True, eq=False)
class TimeVaryingPolicy:
    """A finite window of per-time-slice actions, stored as one action table.

    Row j of the read-only (n_slices, n_states) int table applies at time
    index start + j; beyond the window the last row repeats, and indices
    before the window clamp to the first row.  Entries may be given as
    StationaryPolicy instances or as rows of action indices.
    """

    start: int
    table: np.ndarray

    def __init__(self, start: int, entries: Sequence):
        rows = [e.actions if isinstance(e, StationaryPolicy) else e for e in entries]
        if len(rows) < 1:
            raise InvalidModel("time-varying policy needs at least one entry")
        try:
            table = np.array(rows, dtype=int)
        except (TypeError, ValueError) as exc:
            raise InvalidModel("entries must be nonempty action rows of one common length") from exc
        if table.ndim != 2 or table.shape[1] == 0:
            raise InvalidModel("entries must be nonempty action rows of one common length")
        if (table < 0).any():
            raise InvalidModel("action indices must be nonnegative")
        table.setflags(write=False)
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "table", table)

    def entry_at(self, i: int) -> StationaryPolicy:
        j = min(max(i - self.start, 0), len(self.table) - 1)
        return StationaryPolicy(self.table[j])


# --------------------------------------------------------------------------
# discount schedules


def _finite_number(value, name: str) -> float:
    """value as a float; InvalidModel unless it is a finite real number (not a bool)."""
    try:
        number = math.nan if isinstance(value, bool) or not isinstance(value, numbers.Real) else float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidModel(f"{name} must be a finite number, got {value!r}")
    return number


class DiscountSchedule:
    """Sequence of weights phi(i) in [0, 1] applied to the reward at time i.

    Well-formed schedules satisfy phi(0) = 1, phi nonincreasing,
    phi(n + k) >= phi(n) * phi(k), and divergent partial sums; use
    validate_schedule to audit a schedule against those properties.
    """

    divergence_certified: bool = False

    def phi(self, i: int) -> float:
        """phi(i), the same float as the matching entry of any phi_array."""
        return float(self.phi_array(i, 1)[0])

    def phi_array(self, start: int, count: int) -> np.ndarray:
        """phi(start), ..., phi(start + count - 1) as a float array."""
        raise NotImplementedError

    def partial_sum(self, start: int, count: int) -> float:
        if count < 1:
            raise InvalidModel("partial sum needs at least one term")
        return float(self.phi_array(start, count).sum())

    def to_dict(self) -> dict:
        raise NotImplementedError


class HyperbolicSchedule(DiscountSchedule):
    """phi(i) = (1 + h*i)^(-r/h) with h > 0, 0 < r <= h.

    The exponent constraint r/h <= 1 makes the partial sums diverge
    (phi(i) >= 1/(1 + h*i) termwise), so divergence is certified
    analytically.
    """

    divergence_certified = True

    def __init__(self, h: float, r: float):
        h = _finite_number(h, "hyperbolic schedule h")
        r = _finite_number(r, "hyperbolic schedule r")
        if not (h > 0 and r > 0):
            raise InvalidModel("hyperbolic schedule needs h > 0 and r > 0")
        if r > h:
            raise InvalidModel("hyperbolic schedule needs r/h <= 1 for divergent partial sums")
        self.h = h
        self.r = r

    def phi_array(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0:
            raise InvalidModel("schedule window must be nonnegative")
        idx = np.arange(start, start + count, dtype=float)
        return (1.0 + self.h * idx) ** (-self.r / self.h)

    def to_dict(self) -> dict:
        return {"family": "hyperbolic", "h": self.h, "r": self.r}

    def __repr__(self):
        return f"HyperbolicSchedule(h={self.h}, r={self.r})"


class UnitSchedule(DiscountSchedule):
    """phi identically 1: the undiscounted case."""

    divergence_certified = True

    def phi_array(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0:
            raise InvalidModel("schedule window must be nonnegative")
        return np.ones(count)

    def to_dict(self) -> dict:
        return {"family": "unit"}

    def __repr__(self):
        return "UnitSchedule()"


class TabulatedSchedule(DiscountSchedule):
    """Explicit table of phi values.

    A finite table can never certify that the full series diverges, so the
    caller must declare the tail behaviour via tail_divergent; downstream
    asymptotic checks are conditional on that declaration.  Indexing past
    the table raises.
    """

    def __init__(self, values: Sequence[float], tail_divergent: bool = False):
        try:
            items = list(values)
        except TypeError:
            items = []
        if not items:
            raise InvalidModel("tabulated schedule needs a nonempty 1-d value list")
        vals = np.array([_finite_number(v, "tabulated schedule value") for v in items])
        if not isinstance(tail_divergent, (bool, np.bool_)):
            raise InvalidModel(f"tail_divergent must be true or false, got {tail_divergent!r}")
        self.values = _readonly(vals)
        self.tail_divergent = bool(tail_divergent)

    @property
    def divergence_certified(self) -> bool:
        return self.tail_divergent

    def phi_array(self, start: int, count: int) -> np.ndarray:
        if start < 0 or count < 0:
            raise InvalidModel("schedule window must be nonnegative")
        if start + count > self.values.size:
            raise InvalidModel(
                f"tabulated schedule has {self.values.size} values, window needs {start + count}"
            )
        return np.array(self.values[start : start + count])

    def to_dict(self) -> dict:
        return {
            "family": "tabulated",
            "values": [float(v) for v in self.values],
            "tail_divergent": self.tail_divergent,
        }

    def __repr__(self):
        return f"TabulatedSchedule(len={self.values.size}, tail_divergent={self.tail_divergent})"


def phi_partial_sum(schedule: DiscountSchedule, k: int, n: int) -> float:
    """Sum of phi(k), ..., phi(k + n - 1); exactly n for the unit schedule."""
    return schedule.partial_sum(k, n)


@dataclass(frozen=True)
class ScheduleViolation:
    prop: str
    indices: tuple
    detail: str


def validate_schedule(schedule: DiscountSchedule, n_check: int) -> list:
    """Audit a schedule's structural properties up to index n_check.

    Returns a list of ScheduleViolation entries; an empty list means the
    schedule is valid up to n_check.  Violations are reported, never raised.
    Divergence is certified analytically for the hyperbolic and unit
    families; tabulated schedules rely on their declared tail flag.
    """
    if n_check < 2:
        raise InvalidModel("validation horizon must be at least 2")
    out = []
    phi = schedule.phi_array(0, n_check + 1)
    if abs(phi[0] - 1.0) > 1e-15:
        out.append(ScheduleViolation("initial_value", (0,), f"phi(0) = {phi[0]!r}, expected 1"))
    if (phi < -1e-15).any() or (phi > 1 + 1e-15).any():
        bad = int(np.argmax((phi < -1e-15) | (phi > 1 + 1e-15)))
        out.append(ScheduleViolation("range", (bad,), f"phi({bad}) = {phi[bad]!r} outside [0, 1]"))
    steps = np.diff(phi)
    if (steps > 1e-15).any():
        bad = int(np.argmax(steps > 1e-15))
        out.append(
            ScheduleViolation(
                "nonincreasing", (bad, bad + 1), f"phi({bad}) = {phi[bad]!r} < phi({bad + 1}) = {phi[bad + 1]!r}"
            )
        )
    # superadditivity phi(n+k) >= phi(n)*phi(k); scan row by row to keep the
    # O(n_check^2) pair check inside vectorized slices
    for n in range(1, n_check + 1):
        ks = np.arange(1, n_check - n + 1)
        if ks.size == 0:
            break
        lhs = phi[n + ks]
        rhs = phi[n] * phi[ks]
        bad = lhs < rhs - 1e-12
        if bad.any():
            kbad = int(ks[np.argmax(bad)])
            out.append(
                ScheduleViolation(
                    "superadditivity",
                    (n, kbad),
                    f"phi({n + kbad}) = {phi[n + kbad]!r} < phi({n})*phi({kbad}) = {phi[n] * phi[kbad]!r}",
                )
            )
            break
    if not schedule.divergence_certified:
        out.append(
            ScheduleViolation(
                "divergence", (), "partial-sum divergence is neither analytic nor declared for this schedule"
            )
        )
    return out


# --------------------------------------------------------------------------
# structural constants


def span_seminorm(v) -> float:
    """max(v) - min(v); invariant under adding a constant."""
    arr = np.asarray(v, dtype=float)
    if arr.size == 0:
        raise InvalidModel("span of an empty vector is undefined")
    return float(arr.max() - arr.min())


def ergodicity_coefficient(model: Model) -> float:
    """Worst-case positive-part total-variation gap between any two kernel rows.

    The maximum runs over all state/action row pairs, including pairs that
    mix different actions.  The value is always in [0, 1]; callers that need
    the uniform ergodicity condition must test for < 1 themselves.  Solvers
    read the per-instance cached value Model.ergodicity instead.
    """
    rows = model.kernel.reshape(-1, model.n_states)
    n, s = rows.shape
    # one reused buffer of about 2**17 entries holds the pairwise differences
    # of a block of rows; each pair sum stays one contiguous length-s
    # reduction, so the value does not depend on the block size
    chunk = min(n, max(1, 2**17 // (n * s)))
    diff = np.empty((chunk, n, s))
    sums = np.empty((chunk, n))
    best = 0.0
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        d, t = diff[:m], sums[:m]
        np.subtract(rows[lo : lo + m, None, :], rows[None, :, :], out=d)
        np.maximum(d, 0.0, out=d)
        np.add.reduce(d, axis=2, out=t)
        best = max(best, float(t.max()))
    return best


@dataclass(frozen=True)
class DensityBounds:
    """Two-sided bound m on the kernel densities against the uniform measure,
    with the ergodicity coefficient bound 1 - 1/m it implies."""

    m: float
    delta_bound: float


def density_bounds(model: Model) -> DensityBounds:
    """Smallest m >= 1 with 1/m <= n_states * P^a(x, y) <= m for all entries.

    With the uniform reference measure on states the kernel density at
    (x, a, y) is n_states * P^a(x, y).  Raises KernelNotPositive when some
    transition probability is zero, because then no finite m exists.
    """
    dens = model.n_states * model.kernel
    if (dens <= 0.0).any():
        raise KernelNotPositive("kernel has a zero entry; no finite density bound exists")
    m = max(float(dens.max()), float(1.0 / dens.min()), 1.0)
    return DensityBounds(m=m, delta_bound=1.0 - 1.0 / m)


def equivalence_constant(model: Model) -> float:
    """Largest entrywise ratio between two rows of the same action kernel.

    Requires all rows of each action kernel to share a common support;
    raises KernelsNotEquivalent otherwise.  The result is >= 1 and bounds
    the density of any row with respect to any other row of the same action.
    """
    best = 1.0
    for a in range(model.n_actions):
        mat = model.kernel[a]
        support = mat > 0.0
        if not (support == support[0]).all():
            raise KernelsNotEquivalent(f"action {a}: rows have different supports")
        cols = support[0]
        if not cols.any():
            continue
        sub = mat[:, cols]
        best = max(best, float((sub.max(axis=0) / sub.min(axis=0)).max()))
    return best


def risk_contraction_margin(model: Model, gamma: float) -> float:
    """exp(span of gamma-scaled reward) times the model's cached ergodicity
    coefficient (Model.ergodicity).

    Values below 1 certify that risk-sensitive span iteration stays bounded;
    the caller tests the threshold.
    """
    return math.exp(abs(gamma) * model.reward_span()) * model.ergodicity


# --------------------------------------------------------------------------
# file formats

_MODEL_FIELDS = {"n_states", "n_actions", "kernel", "reward"}


def model_to_dict(model: Model) -> dict:
    return {
        "n_states": model.n_states,
        "n_actions": model.n_actions,
        "kernel": [[list(map(float, row)) for row in model.kernel[a]] for a in range(model.n_actions)],
        "reward": [list(map(float, r)) for r in model.reward],
    }


def model_from_dict(data: dict) -> Model:
    if not isinstance(data, dict):
        raise InvalidModel("model document must be a JSON object")
    unknown = set(data) - _MODEL_FIELDS
    if unknown:
        raise InvalidModel(f"unknown model fields: {sorted(unknown)}")
    missing = _MODEL_FIELDS - set(data)
    if missing:
        raise InvalidModel(f"missing model fields: {sorted(missing)}")
    try:
        kernel = np.asarray(data["kernel"], dtype=float)
        reward = np.asarray(data["reward"], dtype=float)
        n_states, n_actions = int(data["n_states"]), int(data["n_actions"])
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"model sizes and arrays must be numeric, arrays rectangular: {exc}") from exc
    model = Model(kernel, reward)
    if model.n_states != n_states or model.n_actions != n_actions:
        raise InvalidModel("declared n_states/n_actions do not match array shapes")
    return model


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError, or a file that is not UTF-8
            raise InvalidModel(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(data)


def schedule_from_dict(data: dict) -> DiscountSchedule:
    if not isinstance(data, dict) or "family" not in data:
        raise InvalidModel("schedule spec must be an object with a 'family' field")
    family = data["family"]
    if family == "hyperbolic":
        unknown = set(data) - {"family", "h", "r"}
        if unknown:
            raise InvalidModel(f"unknown schedule fields: {sorted(unknown)}")
        if "h" not in data or "r" not in data:
            raise InvalidModel("hyperbolic schedule needs fields h and r")
        return HyperbolicSchedule(data["h"], data["r"])
    if family == "unit":
        unknown = set(data) - {"family"}
        if unknown:
            raise InvalidModel(f"unknown schedule fields: {sorted(unknown)}")
        return UnitSchedule()
    if family == "tabulated":
        unknown = set(data) - {"family", "values", "tail_divergent"}
        if unknown:
            raise InvalidModel(f"unknown schedule fields: {sorted(unknown)}")
        if "values" not in data or "tail_divergent" not in data:
            raise InvalidModel("tabulated schedule needs fields values and tail_divergent")
        return TabulatedSchedule(data["values"], data["tail_divergent"])
    raise InvalidModel(f"unknown schedule family {family!r}")
