"""Finite controlled Markov models, discount schedules, and structural constants.

Every solver in this package operates on the same primitives: a finite state
space, a finite action set, one row-stochastic transition matrix per action,
and a bounded reward table.  This module defines those types, the discount
schedule families (hyperbolic, unit, tabulated), and the scalar constants
(uniform ergodicity coefficient, two-sided density bound, row-equivalence
constant, risk contraction margin) that serve as preconditions and bound
certificates downstream.

DiscountSchedule owns the time axis: every finite-horizon quantity reads
phi over a window [k, k + n) through phi_array, and _check_window alone
refuses a window that is not given by integers k >= 0 and n >= 1;
_horizon_grid is the one check of a grid of horizons.  Model owns the state
and action axes: every policy is one read-only action table, of one row when
stationary; _policy_actions alone maps a policy to the actions of a window
and checks them against a model, and _indices is the one index rule.
_risk_factor is the one risk-factor rule: every entry point that divides by
gamma reads it there, once, before any other work.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    GammaNotAllowed,
    InvalidModel,
    KernelNotPositive,
    KernelsNotEquivalent,
)

ROW_SUM_TOL = 1e-12
# below it the 1/gamma of a risk gain or risk value loses its accuracy
GAMMA_FLOOR = 1e-8


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
    `ergodicity`, and lives as long as the instance; ergodicity_coefficient
    finds it from a screen of half the row pairs, one float32 minimum-sum
    value per pair for both its orders, and a float64 recheck of the few
    pairs the screen keeps, bit for bit the plain per-pair maximum.
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
        return self.kernel[_policy_actions(self, policy), np.arange(self.n_states), :]

    def policy_reward(self, policy: "StationaryPolicy") -> np.ndarray:
        """Per-state reward c(x, u(x)) of a stationary policy."""
        return self.reward[np.arange(self.n_states), _policy_actions(self, policy)]

    def under_policy(self, policy: "StationaryPolicy") -> "Model":
        """The single-action model obtained by freezing a stationary policy.

        A single-action model is its own frozen model and is returned as is,
        so its cached ergodicity coefficient is reused.
        """
        if self.n_actions == 1:
            _policy_actions(self, policy)
            return self
        return Model(self.policy_kernel(policy)[None, :, :], self.policy_reward(policy)[:, None])


def _indices(values, size: int | None, what: str, ndim: int = 0) -> np.ndarray:
    """values as an ndim-d int64 array of indices in [0, size) (size None: of
    any size an int64 holds), each an int or numpy integer but no bool: the
    one index rule for states and actions.  An ndarray is read by its dtype,
    anything else entry by entry; the range is tested after the conversion."""
    try:
        arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    except ValueError:  # rows of arrays of unequal shapes
        arr = np.array(None)
    if arr.ndim != ndim or not arr.size or not (arr.dtype.kind in "iu" or all(map(_is_integer, arr.flat))):
        form = f"a nonempty {ndim}-d integer array" if ndim else "an integer"
        raise InvalidModel(f"{what} must be {form}, got {values!r}")
    try:
        # an int entry of 2**63 or more overflows; a uint64 one wraps to a negative
        ints = arr.astype(np.int64)
    except OverflowError:
        raise InvalidModel(f"{what} out of range") from None
    if ints.min() < 0 or (size is not None and ints.max() >= size):
        raise InvalidModel(f"{what} out of range")
    return ints


@dataclass(frozen=True, eq=False)
class TimeVaryingPolicy:
    """A finite window of per-time-slice actions, stored as one action table.

    Row j of the read-only (n_slices, n_states) int table applies at time
    index start + j; beyond the window the last row repeats, and indices
    before the window clamp to the first row.  Entries may be given as
    StationaryPolicy instances, as rows of action indices or as one int array.
    """

    start: int
    table: np.ndarray

    def __init__(self, start: int, entries: Sequence):
        if not _is_integer(start):
            raise InvalidModel(f"policy start must be an integer, got {start!r}")
        if not isinstance(entries, np.ndarray):
            entries = [e.actions if isinstance(e, StationaryPolicy) else e for e in entries]
        table = _indices(entries, None, "action indices", 2)
        table.setflags(write=False)
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "table", table)

    def entry_at(self, i: int) -> "StationaryPolicy":
        j = min(max(i - self.start, 0), len(self.table) - 1)
        return StationaryPolicy(self.table[j])


class StationaryPolicy(TimeVaryingPolicy):
    """One action index per state: a one-row table, equal by its actions."""

    def __init__(self, actions: Sequence[int]):
        # an int array is read as a one-row table by its dtype, in one step
        super().__init__(0, actions[None] if isinstance(actions, np.ndarray) else [actions])

    @property
    def actions(self) -> tuple:
        return tuple(self.table[0].tolist())

    def __eq__(self, other):
        return isinstance(other, StationaryPolicy) and self.actions == other.actions

    def __hash__(self):
        return hash(self.actions)


def _policy_actions(model: Model, policy, k: int = 0, n: int | None = None) -> np.ndarray:
    """The (n, n_states) actions a policy plays over the window [k, k + n),
    checked against the model; for n None, the row of a one-row table.  The
    one place that maps a policy to per-time actions."""
    if not isinstance(policy, TimeVaryingPolicy):
        raise InvalidModel(f"unsupported policy type {type(policy).__name__}")
    table = policy.table
    if n is None and len(table) > 1:
        raise InvalidModel(f"need a stationary policy, got {len(table)} action rows")
    if table.shape[1] != model.n_states:
        raise InvalidModel(f"policy covers {table.shape[1]} states, model has {model.n_states}")
    actions = table
    if n is not None:
        # the offset is clamped in Python ints first: a window past int64 plays the clamped rows
        offset = min(max(int(k) - policy.start, -n), len(table) - 1)
        actions = table[np.clip(np.arange(offset, offset + n), 0, len(table) - 1)]
    if (actions >= model.n_actions).any():
        raise InvalidModel("policy uses an action index outside the model's action set")
    return actions[0] if n is None else actions


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


def _risk_factor(gamma, sign: int = 0) -> float:
    """gamma as a float: InvalidModel unless it is a finite real number (not a
    bool), GammaNotAllowed for |gamma| < GAMMA_FLOOR and, for sign +1 or -1,
    for a gamma of the other sign."""
    gamma = _finite_number(gamma, "gamma")
    if abs(gamma) < GAMMA_FLOOR:
        raise GammaNotAllowed(f"|gamma| < {GAMMA_FLOOR}: dividing by gamma is unstable; use the average reward")
    if gamma * sign < 0.0:
        raise GammaNotAllowed(f"need gamma {'>' if sign > 0 else '<'} 0, got {gamma!r}")
    return gamma


def _is_integer(value) -> bool:
    """True for an int or numpy integer, False for a bool or anything else."""
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def _check_window(start, count) -> None:
    """InvalidModel unless the window [start, start + count) is given by
    integers start >= 0 and count >= 1 (numpy integers, but no bools)."""
    if not (_is_integer(start) and _is_integer(count) and start >= 0 and count >= 1):
        raise InvalidModel(
            f"schedule window [k, k + n) needs integers k >= 0 and n >= 1, got k={start!r}, n={count!r}"
        )


def _horizon_grid(n_grid) -> list:
    """n_grid as a nonempty list of ints; InvalidModel for an empty grid or
    an entry that is not an integer (a bool included)."""
    grid = list(n_grid)
    if not all(map(_is_integer, grid)):
        raise InvalidModel(f"horizon grid must hold integer horizons, got {grid!r}")
    if not grid:
        # no horizon would be checked, and a check would pass vacuously
        raise InvalidModel("horizon grid needs at least one horizon")
    return [int(n) for n in grid]


class DiscountSchedule:
    """Sequence of weights phi(i) in [0, 1] applied to the reward at time i.

    Well-formed schedules satisfy phi(0) = 1, phi nonincreasing,
    phi(n + k) >= phi(n) * phi(k), and divergent partial sums; use
    validate_schedule to audit a schedule against those properties.

    Each family names its spec fields once, in _fields (its constructor's
    order); to_dict, repr and schedule_from_dict read them and _family.
    """

    divergence_certified: bool = False
    _family: str
    _fields: tuple = ()

    def phi(self, i: int) -> float:
        """phi(i), the same float as the matching entry of any phi_array."""
        return float(self.phi_array(i, 1)[0])

    def phi_array(self, start: int, count: int) -> np.ndarray:
        """phi(start), ..., phi(start + count - 1) as a float array, for
        integers start >= 0 and count >= 1 (numpy integers, but no bools)."""
        _check_window(start, count)
        return self._phi(int(start), int(count))

    def _phi(self, start: int, count: int) -> np.ndarray:
        raise NotImplementedError

    def partial_sum(self, start: int, count: int) -> float:
        total = float(self.phi_array(start, count).sum())
        if not total > 0.0:  # every caller divides by it
            raise InvalidModel("schedule mass over the window must be positive")
        return total

    def to_dict(self) -> dict:
        """The spec that schedule_from_dict reads back into this schedule."""
        # tolist turns the values table into a list of plain floats
        return {"family": self._family, **{f: np.asarray(getattr(self, f)).tolist() for f in self._fields}}

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class HyperbolicSchedule(DiscountSchedule):
    """phi(i) = (1 + h*i)^(-r/h) with h > 0, 0 < r <= h.

    The exponent constraint r/h <= 1 makes the partial sums diverge
    (phi(i) >= 1/(1 + h*i) termwise), so divergence is certified
    analytically.
    """

    _family, _fields = "hyperbolic", ("h", "r")
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

    def _phi(self, start: int, count: int) -> np.ndarray:
        idx = np.arange(start, start + count, dtype=float)
        return (1.0 + self.h * idx) ** (-self.r / self.h)


class UnitSchedule(DiscountSchedule):
    """phi identically 1: the undiscounted case."""

    _family = "unit"
    divergence_certified = True

    def _phi(self, start: int, count: int) -> np.ndarray:
        return np.ones(count)


class TabulatedSchedule(DiscountSchedule):
    """Explicit table of phi values.

    A finite table can never certify that the full series diverges, so the
    caller must declare the tail behaviour via tail_divergent; downstream
    asymptotic checks are conditional on that declaration.  Indexing past
    the table raises.
    """

    _family, _fields = "tabulated", ("values", "tail_divergent")

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

    def _phi(self, start: int, count: int) -> np.ndarray:
        if start + count > self.values.size:
            raise InvalidModel(
                f"tabulated schedule has {self.values.size} values, window needs {start + count}"
            )
        return np.array(self.values[start : start + count])

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


_PAIR_BLOCK = 2**17  # entries of one block of row-pair differences


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k = k u / (1 - k u), the relative error bound of a sum
    of k + 1 nonnegative terms rounded with unit roundoff u, in any order."""
    return k * u / (1.0 - k * u)


def _screen_margin(s: int) -> float:
    """Twice a bound E on |V - t| for two kernel rows p, q of length s, where
    V is the screen value of the pair and t the float64 value of either
    (p, q) or (q, p), both as ergodicity_coefficient computes them.

    Let T(p, q) = sum_y (p(y) - q(y))^+ in exact arithmetic on the float64
    rows.  As (x - y)^+ = x - min(x, y), the larger of T(p, q) and T(q, p)
    is W = max(sum p, sum q) - sum_y min(p(y), q(y)).  Model admits a row
    only if its float64 sum is within ROW_SUM_TOL of 1; that sum errs by at
    most gamma_{s-1} u64-relative, so every exact row mass is at most
    R = 1 + ROW_SUM_TOL + s 2^-52.
    - Minimum sum M.  Rounding to float32 is monotone, so the minimum of two
      rounded entries is the rounded minimum, exactly; it moves min(p, q)(y)
      by at most u32 of it plus 2^-150 (half the least subnormal): u32 R +
      s 2^-150 in all, as sum min(p, q) <= sum p <= R.  The rounded minima
      sum to at most Q = (1 + u32) R + s 2^-150, and their float32 sum in any
      order errs by at most gamma_{s-1} Q (Higham, Accuracy and Stability of
      Numerical Algorithms, section 4.2), BLAS blocking and a fused
      multiply-add by the factor 1 included.  Float32 addition with gradual
      underflow is exact on subnormals; a kernel that flushes them to zero
      loses under 2^-126 per entry and per addition, s 2^-125 in all.
    - Row sums r.  Each float64 row sum errs by at most gamma_{s-1} R, in any
      order, and max is 1-Lipschitz.
    - Subtraction.  V = max(r_p, r_q) - M in float64 errs by at most u64
      times the larger operand, at most (1 + gamma_{s-1}) R for r and
      (1 + gamma_{s-1}) Q + s 2^-125 for M.
    Their total is EV >= |V - W|.
    - Float64 value.  The subtraction is exact or off by u64 relative, which
      (.)^+ keeps, and the terms sum to at most R: E64 = u64 R +
      gamma_{s-1} (1 + u64) R >= |t - T|, for either order.
    - Order.  |T(p, q) - W| <= |sum p - sum q| <= A = 2 (ROW_SUM_TOL + s 2^-52).
    E = EV + E64 + A, and the factor 2 covers the rounding of E itself and
    of the float64 comparisons against it.
    """
    u32, u64 = 2.0**-24, 2.0**-53
    g32, g64 = _gamma(s - 1, u32), _gamma(s - 1, u64)
    mass = 1.0 + ROW_SUM_TOL + s * 2.0**-52
    q = (1.0 + u32) * mass + s * 2.0**-150
    e_min = u32 * mass + s * 2.0**-150 + g32 * q + s * 2.0**-125
    e_sum = g64 * mass
    e_sub = u64 * ((1.0 + g64) * mass + (1.0 + g32) * q + s * 2.0**-125)
    e64 = u64 * mass + g64 * (1.0 + u64) * mass
    return 2.0 * (e_min + e_sum + e_sub + e64 + 2.0 * (ROW_SUM_TOL + s * 2.0**-52))


def _screen_values(a: np.ndarray, b: np.ndarray, ra: np.ndarray, rb: np.ndarray, mins: np.ndarray,
                   sums: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """The float64 (len(a), len(b)) block of screen values max(ra_i, rb_j) -
    M_ij for float32 rows a, b with float64 row sums ra, rb, where M_ij is
    the float32 sum of min(a_i, b_j), computed in the reused float32 buffers
    mins and sums: one elementwise pass and one BLAS matrix-vector product
    with ones, a float32 vector of len(a[0]) ones."""
    shape = (a.shape[0], b.shape[0], a.shape[1])
    d = mins[: math.prod(shape)].reshape(shape)
    t = sums[: shape[0] * shape[1]]
    np.minimum(a[:, None, :], b[None, :, :], out=d)
    np.matmul(d.reshape(-1, shape[2]), ones, out=t)
    return np.maximum(ra[:, None], rb[None, :]) - t.reshape(shape[:2])


def _positive_part_sums(a: np.ndarray, b: np.ndarray, diff: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) block of sum_y (a_i(y) - b_j(y))^+, computed in
    the reused float64 buffers diff and sums.

    Each pair sum is one contiguous length-s reduction, so every value is
    the plain per-pair sum bit for bit, whatever the block shape.
    """
    shape = (a.shape[0], b.shape[1], a.shape[2])
    d = diff[: math.prod(shape)].reshape(shape)
    t = sums[: shape[0] * shape[1]].reshape(shape[:2])
    np.subtract(a, b, out=d)
    np.maximum(d, 0.0, out=d)
    return np.add.reduce(d, axis=2, out=t)


def ergodicity_coefficient(model: Model) -> float:
    """Worst-case positive-part total-variation gap between any two kernel rows.

    The maximum runs over all state/action row pairs, including pairs that
    mix different actions.  The value is always in [0, 1]; callers that need
    the uniform ergodicity condition must test for < 1 themselves.  Solvers
    read the per-instance cached value Model.ergodicity instead.

    The result is bit for bit the float64 maximum of the plain per-pair sums
    np.maximum(rows[i] - rows[j], 0).sum() over all ordered pairs, from a
    certified screen followed by an exact recheck:
    - As sum_y (p - q)^+ = sum p - sum_y min(p, q), one screen value
      V = max(sum p, sum q) - sum_y min(p, q) covers both orders of a pair:
      each block of rows is screened against the rows from its first row
      on, about half the pairs, with the minima in float32 and their sums
      as one BLAS matrix-vector product.
    - _screen_margin proves how far V can lie from either float64 order.  A
      pair is kept when its V is within two margins of the running top; the
      top only rises, so no pair that can attain the maximum is missed.
    - The rows and partners of a block's kept pairs are recomputed in both
      orders in float64, as one rectangle of row pairs, with the same
      subtraction, positive part and contiguous length-s reduction as the
      plain per-pair sum.
    Kernels with many tied pairs, such as deterministic ones, keep most
    pairs and cost up to about twice the plain pair loop.
    """
    s = model.n_states
    rows = model.kernel.reshape(-1, s)
    n = rows.shape[0]
    screen, row_sums = rows.astype(np.float32), rows.sum(axis=1)
    diff = np.empty(max(_PAIR_BLOCK, n * s))
    sums = np.empty(max(_PAIR_BLOCK // s, n))
    diff32, sums32 = np.empty(diff.size, np.float32), np.empty(sums.size, np.float32)
    ones32 = np.ones(s, np.float32)
    margin = _screen_margin(s)
    best = top = 0.0
    lo = 0
    while lo < n:
        w = n - lo
        m = min(w, max(1, _PAIR_BLOCK // (w * s)))
        v = _screen_values(screen[lo : lo + m], screen[lo:], row_sums[lo : lo + m], row_sums[lo:], diff32, sums32,
                           ones32)
        top = max(top, float(v.max()))
        keep = v >= top - 2.0 * margin
        if keep.any():
            rk, ck = np.flatnonzero(keep.any(axis=1)), np.flatnonzero(keep.any(axis=0))
            blk, par = rows[lo + rk[0] : lo + rk[-1] + 1], rows[lo + ck[0] : lo + ck[-1] + 1]
            for a, b in ((blk, par), (par, blk)):
                best = max(best, float(_positive_part_sums(a[:, None, :], b[None, :, :], diff, sums).max()))
        lo += m
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
    the caller tests the threshold.  The value is 0 when the coefficient is
    0 and inf when the exponential overflows.
    """
    gamma = _finite_number(gamma, "gamma")
    delta = model.ergodicity
    if delta == 0.0:
        return 0.0
    try:
        return math.exp(abs(gamma) * model.reward_span()) * delta
    except OverflowError:
        return math.inf


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
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"model sizes and arrays must be numeric, arrays rectangular: {exc}") from exc
    sizes = data["n_states"], data["n_actions"]
    if not all(map(_is_integer, sizes)):
        raise InvalidModel(f"declared n_states/n_actions must be integers, got {sizes!r}")
    model = Model(kernel, reward)
    if (model.n_states, model.n_actions) != sizes:
        raise InvalidModel("declared n_states/n_actions do not match array shapes")
    return model


def save_model(model: Model, path) -> None:
    """Write the model as JSON: sorted keys, two-space indent, "\n" newlines.

    The bytes are exactly json.dump(model_to_dict(model), fh, indent=2,
    sort_keys=True) followed by "\n", streamed one kernel or reward row at a
    time: any indent sends the stdlib through its pure-Python encoder, and a
    whole document in memory would be as large as the file.  Each number is
    the text of float.__repr__, the stdlib's text for a finite float (Model
    admits only finite entries).  Rows whose entries are all 0 or of
    magnitude in [1e-4, 1e16) are printed by orjson, the same text there in
    a fifteenth of the time; only outside that range do the two spell the
    exponent differently, and such rows are joined from float.__repr__.
    """
    with open(path, "wb") as fh:
        fh.write(b'{\n  "kernel": [')
        for a, table in enumerate(model.kernel):
            fh.write((b"," if a else b"") + b"\n    [")
            _write_rows(fh, table, b"\n      ")
            fh.write(b"\n    ]")
        fh.write(b'\n  ],\n  "n_actions": %d,\n  "n_states": %d,\n  "reward": [' % (model.n_actions, model.n_states))
        _write_rows(fh, model.reward, b"\n    ")
        fh.write(b"\n  ]\n}\n")


def _write_rows(fh, rows: np.ndarray, indent: bytes) -> None:
    """Write the rows of a 2-d float array, each as one fh.write, as the
    items of a JSON array at indent (b"\n" and its spaces), their numbers two
    spaces deeper: the layout of json.dump with indent=2.

    A row whose entries are all 0 or of magnitude in [1e-4, 1e16) is printed
    by orjson.dumps, about 15 times faster than float.__repr__ and the same
    text there: both print the shortest round-trip digits (orjson by Ryu,
    repr by Gay's dtoa in mode 0), and both in positional notation, repr for
    decimal exponents -4..15 and orjson for -5..15.  Outside that range only
    the exponent is spelled differently (1e-05 against 0.00001, 1e+16
    against 1e16), so any other row is joined from float.__repr__.
    """
    import orjson  # here, not at module level: its import (about 8 ms) stays off `import longrun`

    inner = indent + b"  "
    sep = b"," + inner
    mag = np.abs(rows)
    in_range = (((mag >= 1e-4) & (mag < 1e16)) | (mag == 0.0)).all(axis=1)
    for x, (row, by_orjson) in enumerate(zip(rows, in_range.tolist())):
        row = row.tolist()
        text = orjson.dumps(row)[1:-1] if by_orjson else ",".join(map(float.__repr__, row)).encode()
        fh.write((b"," if x else b"") + indent + b"[" + inner + text.replace(b",", sep) + indent + b"]")


# orjson builds the parsed document by one C call, about 100 bytes of stack,
# per nesting level: tens of thousands of levels overflow the C stack (a
# segfault, not an exception).  A model has 4 levels; 1000 need about 100 KB.
_MAX_NESTING = 1000
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'"\\[]{}')))
_JSON_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)


def _nesting_depth(text: bytes) -> int:
    """Deepest nesting of [ and { outside strings, exact for valid JSON text.

    The text is cut to its quotes, backslashes and brackets in one C pass;
    only when an escape is present are the strings removed from the whole
    text, as an escaped quote does not end a string.
    """
    marks = text.translate(None, _NOT_MARKS)
    if b"\\" in marks:
        marks = _JSON_STRING.sub(b"", text).translate(None, _NOT_MARKS)
    codes = np.frombuffer(re.sub(rb'"[^"]*"', b"", marks), dtype=np.uint8)
    steps = np.where((codes == ord("[")) | (codes == ord("{")), 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def load_model(path) -> Model:
    """Read a model file with orjson, the one model-file parser.

    The file is strict RFC 8259 JSON in UTF-8: NaN/Infinity literals, a byte
    order mark, malformed text, bytes that are not UTF-8 and nesting deeper
    than _MAX_NESTING raise InvalidModel, as does any document
    model_from_dict refuses.  Floats are parsed correctly rounded, so every
    value equals the stdlib json reading bit for bit.
    """
    import orjson  # here, not at module level: its import (about 8 ms) stays off runs that read no model file

    with open(path, "rb") as fh:
        text = fh.read()
    depth = _nesting_depth(text)
    if depth > _MAX_NESTING:
        raise InvalidModel(f"model file nests {depth} levels deep, more than {_MAX_NESTING}; a model has 4")
    try:
        data = orjson.loads(text)
    except ValueError as exc:  # orjson.JSONDecodeError, also for bytes that are not UTF-8
        raise InvalidModel(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(data)


_SCHEDULE_FAMILIES = (HyperbolicSchedule, UnitSchedule, TabulatedSchedule)


def schedule_from_dict(data: dict) -> DiscountSchedule:
    if not isinstance(data, dict) or "family" not in data:
        raise InvalidModel("schedule spec must be an object with a 'family' field")
    family = data["family"]
    cls = next((c for c in _SCHEDULE_FAMILIES if c._family == family), None)
    if cls is None:
        raise InvalidModel(f"unknown schedule family {family!r}")
    unknown = set(data) - {"family", *cls._fields}
    if unknown:
        raise InvalidModel(f"unknown schedule fields: {sorted(unknown)}")
    if not set(cls._fields) <= set(data):
        raise InvalidModel(f"{family} schedule needs fields {' and '.join(cls._fields)}")
    return cls(*(data[name] for name in cls._fields))
