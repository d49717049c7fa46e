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
evaluator for the exponential-martingale inequality and by full path
enumeration for event probabilities.  Each level of the path tree is
generated from blocks of the level above, one child column at a time, a
contiguous multiply and add over the block, with the factors read from a
cyclic table of P's columns, one block wide, at the block's phase.  No
level is stored whole once the chunk tree splits it: each piece is
generated from its parents' range and walked before the next.  Every
level writes into arrays allocated once per public call, for its largest
horizon, and reused by all its horizons, start states and pieces: the
table, the pieces that a walk of the chunk tree keeps alive down to the
leaves' grandparents, and block scratch.  The leaves' parents and the
leaves are never stored: a block of parents at a time is expanded and its
leaves' masses written in cache, and each piece's mass rebuilds numpy's
pairwise summation tree over them, so every sum is the float that storing
every level gives.  No leaf's partial sum is formed: round-to-nearest
addition is monotone in each operand, so fl(a + step[y]) >= threshold
holds exactly when a is at least one float cut-off per column, and
composed cut-offs count a piece's reached leaves from the grandparents'
sums.  A block whose sums lie all at or above every cut-off needs no
compare, and one whose sums lie all below needs no multiply.  On a kernel
whose products cannot underflow, the enumeration scans no level for zero
children.  The deviation-bound audit enumerates a start state in full only when a pruned
bracket on its mass cannot rule it out as the worst one, so its rows equal
the full per-start maximum bit for bit.  Each public function checks its
kernel once.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice

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

_ENUM_CHUNK = 1 << 21
# the leaves, the enumeration's last level, are generated in blocks of about
# this many, which stay in cache, and never stored; every other level in
# blocks of about this many over s
_LEAF_BLOCK = 1 << 16
# the leaf masses' sum rebuilds numpy's pairwise summation tree above nodes of
# at most this many masses, each one numpy sum; at least numpy's unrolled
# block of 128, below which its tree is not a halving
_SUM_NODE = 1 << 16
# relative slack between a pruned bracket's hi and the float mass of a full
# enumeration: n * ROW_SUM_TOL of row sums plus the products' and the
# pairwise sums' rounding, all below 1e-10 for n <= 22; the absolute term
# covers subnormal rounding of at most 2^27 paths
_MASS_SLACK = 1e-9
_MASS_FLOOR = 1e-300
# levels every start's bracket is deepened before the first exact enumeration
_SHALLOW = 6

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


def _cycle_table(P: np.ndarray) -> np.ndarray:
    """The table cyc[y, k] = P[k % s, y] that every expansion reads.

    A block at phase p < s reads its factors for child column y from the
    slice cyc[y, p:p + c]; the blocks of frontier nodes that _parent_block
    expands, and the chunks of the leaves' parents that _leaf_block
    multiplies, have at most _block_sizes(s)[0] nodes, so every slice fits
    in that many columns plus s, whatever the horizon.  An index array of
    last states reads cyc[:, :s] = P.T.
    """
    s = P.shape[0]
    return np.tile(P.T, (1, -(-(_block_sizes(s)[0] + s) // s)))


def _largest_frontiers(s: int, n: int) -> list:
    """Entry j (1 <= j <= n) is the largest piece at depth j of the full
    path tree that _enumerate_mass walks: a level is one piece, or the
    pieces of its halvings, and each piece's children are the next level."""
    sizes, largest = {1}, [0]
    for _ in range(n):
        pieces = set()
        while sizes:
            m = sizes.pop()
            if m * s > _ENUM_CHUNK and m > 1:
                sizes |= {m // 2, m - m // 2}
            else:
                pieces.add(m)
        largest.append(max(pieces))
        sizes = {m * s for m in pieces}
    return largest


def _grown(buf: np.ndarray, size: int) -> np.ndarray:
    """buf, or an empty array of its kind with room for size entries in its
    last axis when buf has less."""
    return buf if buf.shape[-1] >= size else np.empty(buf.shape[:-1] + (size,), buf.dtype)


class _Buffers:
    """The arrays that the exact enumerations of one public call write into,
    sized for its largest horizon and reused by every horizon, start state
    and piece of the call.

    They hold what a walk of the chunk tree keeps alive, and no more: the
    cyclic table, one block wide; two frontiers that the depths down to
    the first split level alternate between, since each level above it is
    one piece, which dies once its children are generated; one piece per
    depth below it down to the leaves' grandparents, at depth n - 2, since
    a piece stays alive while the pieces generated from it are walked; and
    the block scratch: a block of parents, a block of leaf masses behind at
    most one summation node's carried masses, and the leaf block's reached
    mask.  No level is stored whole once the chunk tree splits it, and the
    leaves' parents and the leaves are never stored at all.  Each buffer is
    sized for the full path tree.  A level compacted after dropped children
    can split into larger pieces than the full level does, so a frontier
    buffer too small for a piece is replaced by a larger one.

    positive says that no child of any horizon of the call can have
    probability zero: every entry of P is positive and (min P)^n >= 2^-1000
    for the largest horizon n, so every product of at most n - 1 rounded
    factors, each at least min P, stays far above the underflow.
    """

    def __init__(self, P: np.ndarray, horizons):
        s, n = P.shape[0], max(horizons)
        self.positive = bool(float(P.min()) ** n >= 2.0 ** -1000)
        self.cyc = _cycle_table(P)
        largest = _largest_frontiers(s, n)
        # the depths down to the first split level, top, alternate between
        # two frontiers; the cap keeps the leaves' parents unstored
        top = min(next((j for j in range(2, n) if s ** j > _ENUM_CHUNK), n), n - 2)
        pair = [np.empty((2, max(largest[p:top + 1:2], default=0))) for p in (0, 1)]
        self._frontiers = [pair[j % 2] if j <= top else np.empty((2, largest[j])) for j in range(n - 1)]
        width, grand = _block_sizes(s)
        self.parents = np.empty((2, grand * s))
        self.masses, self.reached = np.empty(_SUM_NODE + width * s), np.empty(width * s, bool)

    def frontier(self, depth: int, size: int) -> tuple:
        """Room for the probabilities and partial sums of a piece of size
        nodes at depth (at most n - 2)."""
        buf = self._frontiers[depth] = _grown(self._frontiers[depth], size)
        return buf[0, :size], buf[1, :size]


def _factors(cyc: np.ndarray, y: int, last, m: int) -> np.ndarray:
    """P[x_i, y] for each node i of a frontier of m nodes: a slice of the
    cyclic table at a phase last, a gather at an index array last."""
    return cyc[y, last:last + m] if isinstance(last, int) else cyc[y, last]


def _expand(cyc: np.ndarray, step: np.ndarray, probs, sums, last, out=None, positive=False):
    """One level of the path tree below m nodes (a block of a frontier, the
    start, or a pruned bracket's frontier): their children in state order.

    last is either an int phase p, for nodes whose last states cycle p,
    p + 1, ... modulo s, or an index array of last states (at the start,
    and once children were dropped).  Child column y is one multiply of the
    m nodes by cyc[y, p:p + m] (or by cyc[y, last]) and one add of
    step[y], written with stride s into the (m, s) views of out, a pair of
    flat arrays of m * s entries (new ones when out is None), so numpy's
    inner loops run over the nodes, not over s states, and every child
    is the float probs[i] * P[x_i, y] and sums[i] + step[y] in the order
    i * s + y.  Zero-probability children (structural zeros, underflow)
    are dropped into new arrays; the children of a level that drops none
    stay in out and cycle from phase 0.  positive (_Buffers.positive) says
    that no child can be zero, and skips the scan for them.
    """
    s, m = step.size, probs.size
    kids, kid_sums = (np.empty(m * s), np.empty(m * s)) if out is None else out
    columns, column_sums = kids.reshape(m, s), kid_sums.reshape(m, s)
    for y in range(s):
        np.multiply(probs, _factors(cyc, y, last, m), out=columns[:, y])
        np.add(sums, step[y], out=column_sums[:, y])
    # products of nonnegative factors: nonzero is positive
    if positive or kids.all():
        return kids, kid_sums, 0
    keep = kids > 0.0
    return kids[keep], kid_sums[keep], np.tile(np.arange(s), m)[keep]


def _float_order(x: float) -> int:
    """An integer key of x that orders floats as their values do (both
    zeros at 0), and no two other floats alike."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _ordered_float(key: int) -> float:
    """The float whose _float_order is key."""
    return struct.unpack("<d", struct.pack("<q", key if key >= 0 else -key - (1 << 63)))[0]


def _least_addend(b: float, t: float) -> float:
    """The least float a with fl(a + b) >= t, for finite b and t (inf when
    no finite a has it).

    Round-to-nearest addition is monotone in each operand, so the floats a
    with fl(a + b) >= t are exactly those at or above this one.  A step or
    two of nextafter from fl(t - b) reaches it unless the subtraction
    cancelled to a far finer scale than t's; a bisection over the floats'
    order then finds it, in at most 64 steps.
    """
    a = t - b
    up = a + b < t
    toward = math.inf if up else -math.inf
    for _ in range(4):
        nxt = math.nextafter(a, toward)
        if (nxt + b >= t) == up:
            return nxt if up else a
        a = nxt
    # the key lo fails and hi passes: a lies on the walk's side of the cut
    # and the infinity toward which it walked on the other
    lo, hi = sorted((_float_order(a), _float_order(toward)))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _ordered_float(mid) + b >= t:
            hi = mid
        else:
            lo = mid
    return _ordered_float(hi)


def _block_sizes(s: int) -> tuple:
    """The nodes per chunk of a level, about _LEAF_BLOCK leaves below a
    chunk of the leaves' parents, and the frontier nodes per block, whose
    children fill about one chunk; each at least one node."""
    width = max(1, _LEAF_BLOCK // s)
    return width, max(1, width // s)


def _pairwise_sum(take, k: int):
    """numpy's sum of k floats, which take(size) hands out in order as
    contiguous arrays, bit for bit.

    numpy sums a contiguous array pairwise (Higham 1993): one of more than
    128 entries is split after half its length rounded down to a multiple
    of 8, and the sums of the two parts are added.  So a node of at most
    _SUM_NODE entries is one numpy sum, and the nodes above it add as
    numpy's do.
    """
    if k <= _SUM_NODE:
        return take(k).sum()
    half = k // 2 - k // 2 % 8
    return _pairwise_sum(take, half) + _pairwise_sum(take, k - half)


def _parent_block(buffers: _Buffers, step: np.ndarray, probs, sums, last, g: int) -> tuple:
    """The children (_expand) of the block of _block_sizes(s)[1] nodes from
    node g of a frontier, written into the buffers' parent block."""
    s = step.size
    stop = g + _block_sizes(s)[1]
    head = (last + g) % s if isinstance(last, int) else last[g:stop]
    block = probs[g:stop]
    return _expand(buffers.cyc, step, block, sums[g:stop], head, buffers.parents[:, :block.size * s], buffers.positive)


def _parent_chunks(buffers: _Buffers, step: np.ndarray, probs, sums, last, prefix: list, lo: int, hi: int):
    """The nodes lo..hi-1 of the level below a frontier, its children in
    _expand's order with zero ones dropped, as consecutive (probs, sums,
    last) chunks of at most _block_sizes(s)[0] nodes.

    Block b of the frontier has prefix[b] children before it, and is
    expanded when the chunks reach it.
    """
    s = step.size
    width, grand = _block_sizes(s)
    b = bisect_right(prefix, lo) - 1
    while b + 1 < len(prefix) and prefix[b] < hi:
        kids, kid_sums, kid_last = _parent_block(buffers, step, probs, sums, last, b * grand)
        stop = min(hi, prefix[b + 1]) - prefix[b]
        for a in range(max(lo - prefix[b], 0), stop, width):
            z = min(a + width, stop)
            yield kids[a:z], kid_sums[a:z], (kid_last + a) % s if isinstance(kid_last, int) else kid_last[a:z]
        b += 1


def _leaf_block(buffers: _Buffers, cut: list, probs, sums, last, start: int) -> int:
    """Writes the nonzero masses of the leaves below a chunk of their
    parents that reach the threshold, sums[i] >= cut[y], into
    buffers.masses from start, compacted in the order i * s + y, and
    returns their number.  A chunk whose sums lie all below every cut-off
    writes none, and one whose sums lie all at or above every cut-off, with
    no zero mass, needs no compare."""
    s, c = len(cut), probs.size
    if sums.max() < min(cut):
        return 0
    flat = buffers.masses[start:start + c * s]
    masses = flat.reshape(c, s)
    for y in range(s):
        np.multiply(probs, _factors(buffers.cyc, y, last, c), out=masses[:, y])
    if sums.min() >= max(cut) and (buffers.positive or flat.all()):
        return flat.size
    reached = buffers.reached[:c * s].reshape(c, s)
    for y, cut_y in enumerate(cut):
        np.greater_equal(sums, cut_y, out=reached[:, y])
    if not buffers.positive:
        # zero masses leave the sum, as _expand drops them
        np.logical_and(reached, masses, out=reached)
    kept = flat[reached.ravel()]
    flat[:kept.size] = kept
    return kept.size


def _piece_sum(buffers: _Buffers, cut: list, chunks, k: int) -> float:
    """The pairwise sum of the k masses that _leaf_block keeps for the
    parent chunks in order.  A block is written behind the masses that the
    blocks before it left over for the current node, which first move to
    the front of buffers.masses."""
    masses, start, end = buffers.masses, 0, 0

    def take(size):
        nonlocal start, end
        if end - start < size:
            masses[:end - start] = masses[start:end]
            start, end = 0, end - start
            while end < size:
                end += _leaf_block(buffers, cut, *next(chunks), end)
        start += size
        return masses[start - size:start]

    return float(_pairwise_sum(take, k))


def _reached_leaves(sums, composed: list, lo: int, hi: int) -> int:
    """Number of the leaves below the parents lo..hi-1 of a frontier at
    depth n - 2 with no zero child that reach the threshold.

    Parent g * s + y is node g's child y, and its leaves reach it exactly
    when sums[g] is at least their entries of composed[y]: fl(fl(a + b1) +
    b2) >= t exactly when a >= _least_addend(b1, _least_addend(b2, t)),
    since round-to-nearest addition is monotone in each operand.  So no
    parent's sum is formed.
    """
    s, count = len(composed), 0
    for y, cuts in enumerate(composed):
        # the nodes g with lo <= g * s + y < hi: ceil((lo - y) / s) <= g < ceil((hi - y) / s)
        part = sums[-((y - lo) // s):-((y - hi) // s)]
        if part.size and part.min() >= cuts[-1]:
            count += part.size * s
        else:
            count += sum(int(np.count_nonzero(part >= c)) for c in cuts)
    return count


def _halved(mass, s: int, lo: int, hi: int) -> float:
    """mass(lo, hi) over the chunk tree's pieces of the nodes lo..hi-1 of a
    level, joined by left + right: a range is halved while its expansion
    would exceed the chunk size.  mass does not refer to itself, so no
    reference cycle keeps a walk's frontier or buffers alive after it."""
    if (hi - lo) * s > _ENUM_CHUNK and hi - lo > 1:
        half = (hi - lo) // 2
        return _halved(mass, s, lo, lo + half) + _halved(mass, s, lo + half, hi)
    return mass(lo, hi)


def _start(steps: np.ndarray, x: int) -> tuple:
    """The frontier at depth 1 from x: its probability, partial sum and last state."""
    return np.array([1.0]), steps[0, x:x + 1], np.array([x])


def _enumerate_mass(buffers: _Buffers, steps, j, probs, sums, last, threshold):
    """Mass of the length-n paths (n = len(steps)) whose weighted r-sum
    reaches the threshold, from a frontier at depth j, bit for bit the sum
    of an enumeration that stores every level whole.

    The level below the frontier, its children in _expand's order with
    zero ones dropped, is never stored whole: _halved splits it into the
    chunk tree's pieces lo..hi-1, so memory stays bounded while the fixed
    order keeps the sum deterministic; a level that fits is one piece.
    Each block of the frontier is expanded when a
    piece reaches it (_parent_chunks); block b has prefix[b] children
    before it, counted from the block sizes on a kernel with no zero child
    and by expanding each block otherwise.  A piece above the leaves'
    parents is generated into the buffers' frontier at depth j + 1 and
    walked in turn: its last states cycle from its first chunk's phase, or
    form an index array once children were dropped.

    A piece of the leaves' parents is never stored: a leaf (i, y) reaches
    the threshold exactly when its parent's sum is at least cut[y], the
    least float whose sum with the leaves' step does (_least_addend).  Its
    mass is numpy's pairwise sum of its reached nonzero masses in the order
    i * s + y, rebuilt from their number k (_pairwise_sum) and fed one leaf
    block at a time (_leaf_block).  On a kernel with no zero child, k comes
    from the frontier's own sums through composed cut-offs
    (_reached_leaves); otherwise from the leaf blocks.  An empty level, a
    piece's children all dropped, has mass 0.0.  A horizon below 3 has no
    leaves' parents to walk: its leaves are expanded whole and summed.
    """
    s, n = steps.shape[1], len(steps)
    if j >= n - 1:
        if j < n:
            probs, sums, _ = _expand(buffers.cyc, steps[j], probs, sums, last)
        return float(probs[sums >= threshold].sum())
    step, m = steps[j], probs.size
    grand = _block_sizes(s)[1]
    blocks = range(0, m, grand)
    if buffers.positive:
        prefix = list(accumulate((min(grand, m - g) * s for g in blocks), initial=0))
    else:
        prefix = list(accumulate((_parent_block(buffers, step, probs, sums, last, g)[0].size for g in blocks), initial=0))
    if j == n - 2:
        cut = [_least_addend(b, threshold) for b in steps[j + 1].tolist()]
        composed = [sorted(_least_addend(b, c) for c in cut) for b in step.tolist()] if buffers.positive else None

    def chunks(lo, hi):
        return _parent_chunks(buffers, step, probs, sums, last, prefix, lo, hi)

    def piece(lo, hi):
        if j == n - 2:
            if buffers.positive:
                k = _reached_leaves(sums, composed, lo, hi)
            else:
                k = sum(_leaf_block(buffers, cut, *chunk, 0) for chunk in chunks(lo, hi))
            return _piece_sum(buffers, cut, chunks(lo, hi), k) if k else 0.0
        kids, kid_sums = buffers.frontier(j + 1, hi - lo)
        heads, at = [], 0
        for chunk_probs, chunk_sums, head in chunks(lo, hi):
            c = chunk_probs.size
            kids[at:at + c], kid_sums[at:at + c] = chunk_probs, chunk_sums
            heads.append((head, c))
            at += c
        if all(isinstance(head, int) for head, _ in heads):
            kid_last = heads[0][0] if heads else 0
        else:
            kid_last = np.concatenate([(h + np.arange(c)) % s if isinstance(h, int) else h for h, c in heads])
        return _enumerate_mass(buffers, steps, j + 1, kids, kid_sums, kid_last, threshold)

    return _halved(piece, s, 0, prefix[-1])


def _pruned_brackets(P, steps, x, threshold):
    """Brackets lo <= q <= hi on the float mass q that _enumerate_mass returns
    from start x, one level deeper at each yield.

    A node is decided once its partial sum plus the remaining steps' least
    (largest) total, less (plus) a margin covering the rounding of every sum
    involved, is surely at or above (below) the threshold; decided-above
    masses add to both ends by math.fsum, undecided ones to hi only, and
    only undecided nodes are expanded.  The rounding of the exact
    enumeration's products and sums, and row sums within ROW_SUM_TOL of 1,
    move q by far less than _MASS_SLACK relative to hi.  Stops at depth n
    or once the next level would exceed a block (_block_sizes(s)[0] nodes).
    """
    s, n = P.shape[0], len(steps)
    least, most = steps.min(axis=1), steps.max(axis=1)
    rem_lo = np.append(np.cumsum(least[::-1])[::-1], 0.0)
    rem_hi = np.append(np.cumsum(most[::-1])[::-1], 0.0)
    margin = 8.0 * n * _EPS * (float(np.abs(steps).max(axis=1).sum()) + abs(threshold))
    probs, sums, last = _start(steps, x)
    decided, j = [], 1
    while True:
        above = sums + rem_lo[j] - margin >= threshold
        open_ = ~above & (sums + rem_hi[j] + margin >= threshold)
        decided.append(math.fsum(probs[above].tolist()))
        lo = math.fsum(decided)
        yield lo, math.fsum(decided + probs[open_].tolist())
        if isinstance(last, int):
            last = (last + np.arange(probs.size)) % s
        probs, sums, last = probs[open_], sums[open_], last[open_]
        if j == n or not probs.size or probs.size * s > _block_sizes(s)[0]:
            return
        # filtered frontiers carry index arrays, which read only P.T = cyc[:, :s]
        probs, sums, last = _expand(P.T, steps[j], probs, sums, last)
        j += 1


def exact_event_probability(
    P, schedule: DiscountSchedule, k: int, n: int, f, kappa: float, x: int
) -> float:
    """Exact P{ sum phi(i) ln(f/Pf)(X_i) >= kappa * sum phi } by enumeration.

    Full path enumeration from x, level by level in a fixed order, with
    exact probability accumulation; guarded to n <= 20 in general and
    n <= 22 for two-state chains, and to 2^27 paths, once the start state
    and the window are checked.  The value is the float that
    ldp_upper_bound_check maximizes over start states.
    """
    P = _require_ergodic(P)
    _indices(x, P.shape[0], "start state")
    kappa, _, [(steps, norm)] = _enumeration_inputs(P, schedule, k, [n], f, kappa, 0.0)
    return _enumerate_mass(_Buffers(P, [n]), steps, 1, *_start(steps, x), kappa * norm)


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


def _worst_start_mass(P: np.ndarray, steps: np.ndarray, threshold: float, buffers: _Buffers | None = None) -> float:
    """max over start states x of _enumerate_mass from x, bit for bit.

    Every start's pruned bracket is deepened _SHALLOW levels; the start with
    the highest bracket is enumerated exactly first.  Each other start is
    deepened until its hi, inflated by _MASS_SLACK, falls below the best
    exact mass so far, and enumerated exactly only if it never does, so ties
    and overlapping brackets are enumerated.  The enumerations write into
    the caller's buffers, or into new ones for this horizon.
    """
    s = P.shape[0]
    if buffers is None:
        buffers = _Buffers(P, [len(steps)])
    brackets = [_pruned_brackets(P, steps, x, threshold) for x in range(s)]
    shallow = [list(islice(b, _SHALLOW))[-1] for b in brackets]
    order = sorted(range(s), key=lambda x: -sum(shallow[x]))

    def ruled_out(hi, best):
        # hi = 0 leaves no path at or above the threshold, so q = 0 exactly
        return hi == 0.0 or hi * (1.0 + _MASS_SLACK) + _MASS_FLOOR < best

    # a bracket's frontier is released as soon as its start is decided
    brackets[order[0]].close()
    best = _enumerate_mass(buffers, steps, 1, *_start(steps, order[0]), threshold)
    for x in order[1:]:
        skip = ruled_out(shallow[x][1], best) or any(ruled_out(hi, best) for _, hi in brackets[x])
        brackets[x].close()
        if not skip:
            best = max(best, _enumerate_mass(buffers, steps, 1, *_start(steps, x), threshold))
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
    exact_event_probability over the start states, bit for bit, but a start
    is enumerated in full only when its pruned bracket cannot certify it
    below the largest mass found so far (_worst_start_mass).  One set of
    enumeration buffers serves every row.  The guards of
    exact_event_probability apply to every row before any phi work.
    """
    Pm = _require_ergodic(P)
    n_grid = sorted(_horizon_grid(n_grid))
    kappa, f, inputs = _enumeration_inputs(Pm, schedule, k, n_grid, f, kappa, 1.0)
    if kappa < 0.0:
        raise InvalidModel(f"kappa must be nonnegative, got {kappa!r}")
    d = float(f.max() / f.min())
    buffers = _Buffers(Pm, n_grid)
    rows = []
    for n, (steps, norm) in zip(n_grid, inputs):
        q = _worst_start_mass(Pm, steps, kappa * norm, buffers)
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
