"""An exact event probability is one pruned search of the path tree: a node
is decided once the remaining steps cannot carry its partial sum across
the threshold, beyond a rounding margin, a leaf by its sum, and only
undecided nodes are expanded, depth first, up to _WIDTH children at a time.
Its value is the correctly rounded sum of the decided-above nodes' float
masses.  Two references check it:

- a whole-level search with the same decision rule, children in another
  order, and one math.fsum of every decided mass; every row and every event
  probability must match it bit for bit (==, not approx) at every width;
- an exact oracle in fractions for n <= 10, which the value must match
  within (n - 1)(u + delta) Q* + u Q.

The communicating classes of the Perron bracket are checked the same way
against the full squaring, and its Collatz-Wielandt loop bit for bit against
a copy of the all-numpy loop it replaced."""

import gc
import math
import tracemalloc
import weakref
from collections import defaultdict
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun import (
    CheckFailed,
    EnumerationTooLarge,
    HyperbolicSchedule,
    StationaryPolicy,
    UnitSchedule,
    exact_event_probability,
    ldp_upper_bound_check,
    phi_partial_sum,
)
from longrun import NoConvergence, ldp, risk_solver
from longrun.risk_solver import _collatz_wielandt, _perron_bracket

from conftest import deviation_kernel, random_model

EPS = np.finfo(float).eps
# expansion widths: one node at a time, a few nodes, many chunks per level
WIDTHS = [1, 5, 50, ldp._WIDTH]


def steps_of(P, schedule, k, n, f, kappa):
    """The search's inputs: one row phi(k + i) ln(f/Pf) per step, and the
    threshold kappa * sum phi."""
    r = np.log(f) - np.log(P @ f)
    return schedule.phi_array(k, n)[:, None] * r, kappa * phi_partial_sum(schedule, k, n)


def reference_mass(P, steps, x, threshold):
    return reference_walk(P, steps, x, threshold)[0]


def reference_walk(P, steps, x, threshold):
    """The search by whole levels: each level's nodes decided by the
    search's rule, its open nonzero nodes expanded row by row (child
    i * s + y), and one math.fsum of every decided-above mass; with it, the
    number of nodes expanded."""
    s, n = P.shape[0], len(steps)
    opened = 0
    rem_lo = np.append(np.cumsum(steps.min(axis=1)[::-1])[::-1], 0.0)
    rem_hi = np.append(np.cumsum(steps.max(axis=1)[::-1])[::-1], 0.0)
    margin = 8.0 * n * EPS * (float(np.abs(steps).max(axis=1).sum()) + abs(threshold))
    probs, sums, last, decided = np.array([1.0]), steps[0, x:x + 1], np.array([x]), []
    for j in range(1, n):
        above = sums + rem_lo[j] - margin >= threshold
        keep = ~above & (sums + rem_hi[j] + margin >= threshold) & (probs > 0.0)
        decided.append(probs[above])
        opened += int(keep.sum())
        probs, sums, last = probs[keep], sums[keep], last[keep]
        probs = (probs[:, None] * P[last]).ravel()
        sums = (sums[:, None] + steps[j]).ravel()
        last = np.tile(np.arange(s), last.size)
    decided.append(probs[sums >= threshold])
    return math.fsum(chain.from_iterable(decided)), opened


def reference_event_probability(P, schedule, k, n, f, kappa, x):
    steps, threshold = steps_of(P, schedule, k, n, f, kappa)
    return reference_mass(P, steps, x, threshold)


def rows_of(P, f, kappa, schedule, k, n_grid):
    # a row above its bound still carries the exact mass
    try:
        return ldp_upper_bound_check(P, f, kappa, schedule, k, n_grid).rows
    except CheckFailed as exc:
        return exc.report.rows


def assert_rows_match(P, f, kappa, schedule, k, n_grid):
    """Every row is the largest reference mass over the start states, and
    the largest of exact_event_probability; each of those is its start's
    reference mass."""
    P = ldp._require_ergodic(P)
    for row in rows_of(P, f, kappa, schedule, k, n_grid):
        qs = [exact_event_probability(P, schedule, k, row.n, f, kappa, x) for x in range(P.shape[0])]
        assert qs == [reference_event_probability(P, schedule, k, row.n, f, kappa, x) for x in range(P.shape[0])]
        assert row.q_exact == max(qs)


def random_kernel(rng, s, zeros):
    """A kernel whose rows all share one positive column, so it is ergodic;
    with zeros, about a third of the other entries are zero."""
    P = rng.random((s, s)) + 0.02
    if zeros:
        P[rng.random((s, s)) < 0.35] = 0.0
        P[:, rng.integers(s)] = rng.random(s) + 0.05
    return P / P.sum(axis=1, keepdims=True)


def kernel_with(rng, s, zeros, tiny):
    """random_kernel, and with tiny a 1e-200 entry outside one all-positive
    column, so the kernel stays ergodic while paths through that entry twice
    underflow to zero."""
    P = random_kernel(rng, s, zeros)
    if tiny:
        kept = np.flatnonzero((P > 0.0).all(axis=0))[0]
        y = (kept + 1 + rng.integers(s - 1)) % s
        P[y, y] = 1e-200
        P[y] /= P[y].sum()
    return P


SCHEDULES = [HyperbolicSchedule(1.0, 1.0), UnitSchedule(), HyperbolicSchedule(2.0, 0.5)]
# the largest horizon per number of states that keeps an example quick
MAX_HORIZON = {2: 10, 3: 7, 4: 6, 5: 5}
# a kernel whose row 0 lies below 1/2 everywhere, so that every child of
# the path 0, 0, 0 rounds to zero: 2^-537 squared is the least subnormal
UNDERFLOW_P = np.array([[2.0 ** -537, 0.3, 0.3, 0.4], [0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])


@pytest.fixture(params=WIDTHS, ids=lambda w: f"width{w}")
def width(request, monkeypatch):
    monkeypatch.setattr(ldp, "_WIDTH", request.param)
    return request.param


@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zero-entries"])
@pytest.mark.parametrize("seed", range(6))
def test_rows_match_the_whole_level_reference(width, seed, zeros):
    rng = np.random.default_rng([seed, zeros])
    s = 2 + seed % 3
    P = random_kernel(rng, s, zeros)
    f = 1.0 + 2.0 * rng.random(s)
    kappa = float(rng.uniform(0.0, 0.1))
    n_grid = [1, 3, 6, 9] if s < 4 else [1, 4, 7]
    assert_rows_match(P, f, kappa, SCHEDULES[seed % 3], seed % 2, n_grid)


def test_tied_starts_are_both_searched_to_their_end(width, monkeypatch):
    # equal rows and equal f make starts 0 and 1 the same float computation,
    # so neither can rule the other out
    P = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    f = np.array([2.0, 2.0, 1.0])
    ended = []
    inner = ldp._search

    def recording(P, steps, x, threshold):
        yield from inner(P, steps, x, threshold)
        ended.append(x)

    monkeypatch.setattr(ldp, "_search", recording)
    n, sched = 9, HyperbolicSchedule(1.0, 1.0)
    qs = [reference_event_probability(P, sched, 0, n, f, 0.02, x) for x in range(3)]
    assert qs[0] == qs[1] == max(qs)
    (row,) = rows_of(P, f, 0.02, sched, 0, [n])
    assert row.q_exact == max(qs)
    assert {0, 1} <= set(ended)


@pytest.mark.parametrize("side", ["min", "max"])
@pytest.mark.parametrize("seed", range(4))
def test_thresholds_at_the_extreme_path_sums(width, seed, side):
    # every path sum is at least the all-min sum and at most the all-max
    # sum: a threshold there, or an ulp away, is where rounding decides
    rng = np.random.default_rng(seed)
    s = 2 + seed % 3
    P = ldp._require_ergodic(random_kernel(rng, s, seed % 2 == 1))
    f = 1.0 + rng.random(s)
    steps, _ = steps_of(P, SCHEDULES[seed % 3], 0, 6, f, 0.0)
    extreme = steps.min(axis=1) if side == "min" else steps.max(axis=1)
    total = float(np.cumsum(extreme)[-1])
    for threshold in (math.nextafter(total, -math.inf), total, math.nextafter(total, math.inf)):
        qs = [reference_mass(P, steps, x, threshold) for x in range(s)]
        assert ldp._worst_start_mass(P, steps, threshold) == max(qs)
        for x, q in enumerate(qs):
            brackets = list(ldp._search(P, steps, x, threshold))
            assert brackets[-1] == (q, q)
            for lo, hi in brackets:
                assert lo <= q <= hi * (1.0 + ldp._MASS_SLACK) + ldp._MASS_FLOOR


@pytest.mark.parametrize("share", [0.7, 0.85, 1.0])
def test_kappa_near_the_largest_step_matches(share):
    # near kappa = max r under the unit schedule every start's mass is small,
    # and at max r only the path that stays on the top state can reach the
    # threshold, and only through rounding
    for seed in range(4):
        P = random_model(seed).policy_kernel(StationaryPolicy([0, 0, 0]))
        f = np.array([2.0, 1.0, 1.5])
        r = np.log(f) - np.log(P @ f)
        assert_rows_match(P, f, share * float(r.max()), UnitSchedule(), 0, [3, 6, 8])


@pytest.mark.parametrize("seed", [64, 68, 104, 140, 242, 249])
def test_small_masses_in_a_misleading_order_match(seed):
    # seeds where every start's mass is below 1e-3: the open starts' first
    # brackets tie at (0, 1), so a start of lower index than the worst one
    # is searched to its end first
    rng = np.random.default_rng(seed)
    s = 2 + seed % 3
    P = random_kernel(rng, s, False)
    f = 1.0 + 2.0 * rng.random(s)
    r = np.log(f) - np.log(ldp._require_ergodic(P) @ f)
    assert_rows_match(P, f, float(rng.uniform(0.5, 1.0)) * float(r.max()), UnitSchedule(), 0, [6])


@pytest.mark.parametrize("width", [ldp._WIDTH, 1 << 10], ids=["default", "narrow"], indirect=True)
def test_deviation_style_rows_match(width):
    # the ldp-check default f on a 3 x 2 model at the horizons a config uses
    P = random_model(7).policy_kernel(StationaryPolicy([0, 0, 0]))
    assert_rows_match(P, np.array([2.0, 1.0, 1.0]), 0.02, HyperbolicSchedule(1.0, 1.0), 0, [8, 10, 12])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    s=st.integers(2, 5),
    zeros=st.booleans(),
    tiny=st.booleans(),
    chunk=st.sampled_from(WIDTHS + [3, 7, 16, 301]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_search_matches_the_whole_level_reference(s, zeros, tiny, chunk, seed, data):
    rng = np.random.default_rng(seed)
    P = kernel_with(rng, s, zeros, tiny)
    f = 1.0 + 2.0 * rng.random(s)
    n_grid = sorted(data.draw(st.sets(st.integers(1, MAX_HORIZON[s]), min_size=1, max_size=3)))
    schedule = data.draw(st.sampled_from(SCHEDULES))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ldp, "_WIDTH", chunk)
        assert_rows_match(P, f, float(rng.uniform(0.0, 0.1)), schedule, seed % 2, n_grid)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_underflowing_paths_match_the_reference(width, s):
    # paths through the 1e-200 entry twice underflow to zero, and a zero
    # mass is neither added nor expanded
    P = kernel_with(np.random.default_rng(s), s, False, True)
    assert P[P > 0.0].min() ** 2 == 0.0
    assert_rows_match(P, 1.0 + np.arange(s) / s, 0.0, UnitSchedule(), 0, [MAX_HORIZON[s]])


def test_a_node_whose_children_all_underflow_matches(width):
    # every child of the path 0, 0, 0 rounds to zero, so nothing below it
    # is expanded
    assert (UNDERFLOW_P[0] < 0.5).all() and UNDERFLOW_P[0, 0] ** 2 * UNDERFLOW_P[0].max() == 0.0
    assert_rows_match(UNDERFLOW_P, np.array([2.0, 1.0, 1.5, 1.2]), 0.02, UnitSchedule(), 0, [4, 5, 7])


def test_negative_zero_entries_match(width):
    # -0.0 passes the kernel's nonnegativity check; its products are -0.0,
    # which the exact sum must never see as a mass
    P = np.array([[0.5, 0.5, -0.0], [-0.0, 0.6, 0.4], [0.3, 0.3, 0.4]])
    for kappa in (0.0, 0.02):
        assert_rows_match(P, np.array([2.0, 1.0, 1.5]), kappa, UnitSchedule(), 0, [1, 4, 7])


@pytest.mark.parametrize("width", [ldp._WIDTH, 1 << 10], ids=["default", "narrow"], indirect=True)
@pytest.mark.parametrize("tiny", [False, True], ids=["positive", "underflow"])
def test_two_states_at_the_largest_horizon_match(width, tiny):
    # s = 2 at n = 22, the guard's largest shape
    P = ldp._require_ergodic(kernel_with(np.random.default_rng(22), 2, False, tiny))
    f, schedule = np.array([2.0, 1.0]), HyperbolicSchedule(1.0, 1.0)
    for x in range(2):
        assert exact_event_probability(P, schedule, 0, 22, f, 0.02, x) == \
            reference_event_probability(P, schedule, 0, 22, f, 0.02, x)


KINDS = pytest.mark.parametrize(
    "zeros, tiny", [(False, False), (True, False), (False, True), (True, True)],
    ids=["positive", "zero-entries", "underflow", "zero-entries-underflow"],
)


@KINDS
@pytest.mark.parametrize("s", [2, 3, 4])
def test_every_horizon_and_start_matches_the_reference(width, s, zeros, tiny):
    # a search keeps nothing between starts or horizons: event probabilities
    # in a mixed order of horizons, a shorter one after a longer one, and
    # the worst start's mass on the same inputs each match the reference
    rng = np.random.default_rng([s, zeros, tiny, width])
    P = ldp._require_ergodic(kernel_with(rng, s, zeros, tiny))
    f = 1.0 + 2.0 * rng.random(s)
    top, schedule = MAX_HORIZON[s], HyperbolicSchedule(1.0, 1.0)
    for n in (top, 2, top - 2, 1, top, 3):
        steps, threshold = steps_of(P, schedule, 0, n, f, 0.02)
        qs = [reference_mass(P, steps, x, threshold) for x in range(s)]
        assert [exact_event_probability(P, schedule, 0, n, f, 0.02, x) for x in range(s)] == qs
        assert ldp._worst_start_mass(P, steps, threshold) == max(qs)
    assert_rows_match(P, f, 0.02, schedule, 0, [top, 2, top - 2])


@KINDS
@pytest.mark.parametrize("s", [2, 3, 4])
def test_the_search_expands_exactly_the_undecided_nodes(monkeypatch, s, zeros, tiny):
    # at width 1 each expansion takes one node and yields one bracket after
    # the first, so the brackets count the nodes expanded: the reference's
    # open nodes of nonzero mass, no more, at thresholds from none decided
    # early to most decided early
    monkeypatch.setattr(ldp, "_WIDTH", 1)
    rng = np.random.default_rng([s, zeros, tiny])
    P = ldp._require_ergodic(kernel_with(rng, s, zeros, tiny))
    f = 1.0 + 2.0 * rng.random(s)
    n = MAX_HORIZON[s]
    pruned = False
    for kappa in (-1.0, 0.0, 0.02, 0.1):
        steps, threshold = steps_of(P, UnitSchedule(), 0, n, f, kappa)
        for x in range(s):
            brackets = list(ldp._search(P, steps, x, threshold))
            mass, opened = reference_walk(P, steps, x, threshold)
            assert len(brackets) == 1 + opened and brackets[-1] == (mass, mass)
            pruned |= opened < (s ** (n - 1) - 1) // (s - 1)
    assert pruned


@pytest.mark.parametrize("chunk", [3, 7, 16, 301])
@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zero-entries"])
def test_widths_that_split_a_level_unevenly_match(monkeypatch, chunk, zeros):
    # _WIDTH // 3 open nodes per chunk: a level's open nodes split into
    # chunks with a shorter last one, and a width below s still expands
    # one node at a time
    monkeypatch.setattr(ldp, "_WIDTH", chunk)
    rng = np.random.default_rng([chunk, zeros])
    P = random_kernel(rng, 3, zeros)
    assert_rows_match(P, np.array([2.0, 1.0, 1.5]), 0.02, HyperbolicSchedule(1.0, 1.0), 0, [2, 5, 7])


@pytest.mark.parametrize("tiny", [False, True], ids=["positive", "underflow"])
def test_event_probabilities_of_successive_calls_match(monkeypatch, tiny):
    # each call has its own search; a shorter horizon after a longer one,
    # and the longer one again, read nothing of an earlier call's
    monkeypatch.setattr(ldp, "_WIDTH", 50)
    P = ldp._require_ergodic(kernel_with(np.random.default_rng(3), 3, True, tiny))
    f, schedule = np.array([2.0, 1.0, 1.5]), UnitSchedule()
    for n in (7, 4, 7, 1):
        for x in range(3):
            assert exact_event_probability(P, schedule, 0, n, f, 0.01, x) == \
                reference_event_probability(P, schedule, 0, n, f, 0.01, x)


# ------------------------------------------------ the exact oracle


def oracle_mass(P, steps, x, threshold) -> Fraction:
    """The exact mass, in fractions, of the paths whose float sum, added
    step by step as the search adds it, reaches the threshold.  Paths that
    share a last state and a float sum share their future, so they merge."""
    s, n = P.shape[0], len(steps)
    F = [[Fraction(p) for p in row] for row in P.tolist()]
    level = {(x, float(steps[0, x])): Fraction(1)}
    for j in range(1, n):
        merged = defaultdict(Fraction)
        for (last, total), mass in level.items():
            for y in range(s):
                if F[last][y]:
                    merged[y, total + float(steps[j, y])] += mass * F[last][y]
        level = merged
    return sum((mass for (_, total), mass in level.items() if total >= threshold), Fraction(0))


# the largest horizon per number of states for the oracle, all n <= 10
ORACLE_HORIZON = {2: 10, 3: 8, 4: 6}


@pytest.mark.parametrize(
    "zeros, tiny", [(False, False), (True, False), (False, True)], ids=["positive", "zero-entries", "underflow"]
)
@pytest.mark.parametrize("s", [2, 3, 4])
def test_event_probability_is_within_the_rounding_bound_of_the_exact_oracle(s, zeros, tiny):
    # each decided node's float mass carries at most n - 1 rounded products,
    # and its leaves' exact mass differs from its own by at most the row
    # sums' error delta per remaining step; the sum adds one rounding.  A
    # product in the subnormal range can lose up to 2^-1075 absolutely, so
    # an underflowing kernel adds n 2^-1075 per path
    u = Fraction(1, 2**53)
    for seed in range(3):
        rng = np.random.default_rng([s, zeros, tiny, seed])
        P = ldp._require_ergodic(kernel_with(rng, s, zeros, tiny))
        delta = max(abs(sum(map(Fraction, row)) - 1) for row in P.tolist())
        f = 1.0 + 2.0 * rng.random(s)
        for n in range(1, ORACLE_HORIZON[s] + 1):
            schedule, kappa = SCHEDULES[(seed + n) % 3], float(rng.uniform(-0.05, 0.1))
            steps, threshold = steps_of(P, schedule, 0, n, f, kappa)
            floor = s ** (n - 1) * n * Fraction(1, 2**1075) if tiny else 0
            for x in range(s):
                q = Fraction(exact_event_probability(P, schedule, 0, n, f, kappa, x))
                exact = oracle_mass(P, steps, x, threshold)
                assert abs(q - exact) <= (n - 1) * (u + delta) * exact + u * q + floor


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    masses=st.lists(
        st.one_of(
            st.floats(0.0, 2.0),
            st.floats(0.0, 1e-300),
            st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.0 - 2.0**-53, 2.0**-1000]),
        ),
        max_size=300,
    ),
    parts=st.lists(st.floats(-1.0, 1.0), max_size=3),
)
def test_exact_sum_is_exact(masses, parts):
    got = ldp._exact_sum(parts, np.array(masses, dtype=float))
    assert sum(map(Fraction, got)) == sum(map(Fraction, parts + masses))
    assert math.fsum(got) == math.fsum(parts + masses)


# ------------------------------------------------ the deviation benchmark's rows


def deviation_rows(P):
    return rows_of(P, np.array([2.0, 1.0, 1.0]), 0.02, HyperbolicSchedule(1.0, 1.0), 0, [8, 10, 12, 14, 16])


@pytest.mark.parametrize("copy", range(3))
@pytest.mark.parametrize("seed", [7, 11])
def test_deviation_brackets_narrow_to_the_mass(seed, copy):
    # lo only adds decided masses, and an expansion replaces a chunk's mass
    # in hi by its children's, which exceed it by rounding alone, so lo never
    # falls and hi never rises beyond the slack the audit allows
    P = ldp._require_ergodic(deviation_kernel(seed, copy))
    for n in (8, 16):
        steps, threshold = steps_of(P, HyperbolicSchedule(1.0, 1.0), 0, n, np.array([2.0, 1.0, 1.0]), 0.02)
        for x in range(3):
            brackets = list(ldp._search(P, steps, x, threshold))
            for (lo, hi), (lo2, hi2) in zip(brackets, brackets[1:]):
                assert lo <= lo2 <= hi2 <= hi * (1.0 + ldp._MASS_SLACK) + ldp._MASS_FLOOR
            assert brackets[-1][0] == brackets[-1][1] <= 1.0


def test_deviation_probabilities_never_exceed_one():
    # seed-7 copies 1 and 2 have a start whose whole mass is decided at
    # depth 1, so they read 1.0 exactly; a sum of every leaf's float mass
    # read 1.0000000000000009 on copy 2 at n = 16
    for seed in (7, 11):
        for copy in range(3):
            assert all(row.q_exact <= 1.0 for row in deviation_rows(deviation_kernel(seed, copy)))
    for copy in (1, 2):
        assert [row.q_exact for row in deviation_rows(deviation_kernel(7, copy))] == [1.0] * 5


# ------------------------------------------------ memory

# the pins' unit: 2^21 floats, in bytes
PIN_UNIT = (1 << 21) * 8


def peak_units(call) -> float:
    """The tracemalloc peak of call() in PIN_UNIT."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / PIN_UNIT


def test_deviation_audit_peak_memory():
    # the deviation benchmark's first model at workload seed 7 reads 0.24
    # units: open chunks of at most _WIDTH children per depth below the
    # level where the tree outgrows one chunk
    P = deviation_kernel(7)
    assert peak_units(lambda: deviation_rows(P)) <= 1.97


def test_tied_starts_audit_peak_memory():
    # the kernel of test_tied_starts_are_both_searched_to_their_end at
    # n = 16, where no bracket rules out the tied start: 0.25 units
    P = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    f, sched = np.array([2.0, 2.0, 1.0]), HyperbolicSchedule(1.0, 1.0)
    rows = []
    assert peak_units(lambda: rows.extend(rows_of(P, f, 0.02, sched, 0, [16]))) <= 1.98
    assert rows[0].q_exact == max(exact_event_probability(P, sched, 0, 16, f, 0.02, x) for x in range(3))


@pytest.mark.parametrize("s, n, pin", [(2, 22, 1.84), (5, 12, 1.65)])
def test_guard_shape_peak_memory(s, n, pin):
    # one event probability at the guard's largest shapes reads 0.14 and
    # 0.11 units
    P = random_kernel(np.random.default_rng([s, n]), s, False)
    f = 1.0 + np.arange(s) / s
    assert peak_units(lambda: exact_event_probability(P, HyperbolicSchedule(1.0, 1.0), 0, n, f, 0.02, 0)) <= pin


def test_searches_are_freed_without_the_cycle_collector(monkeypatch):
    # a search referring to itself would keep its open chunks alive until
    # the next collection, so the three audits of a deviation round could
    # hold three at once
    made = []
    inner = ldp._search

    def recorded(*args):
        search = inner(*args)
        made.append(weakref.ref(search))
        return search

    monkeypatch.setattr(ldp, "_search", recorded)
    P = deviation_kernel(7)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        deviation_rows(P)
        exact_event_probability(P, HyperbolicSchedule(1.0, 1.0), 0, 12, np.array([2.0, 1.0, 1.0]), 0.02, 0)
        assert len(made) == 5 * 3 + 1 and all(ref() is None for ref in made)
        # nor does any search leave a cycle among its open chunks
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_guard_raises_before_any_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(ldp, "_search", forbidden)
    P = random_model(0).policy_kernel(StationaryPolicy([0, 0, 0]))
    with pytest.raises(EnumerationTooLarge):
        ldp_upper_bound_check(P, np.array([2.0, 1.0, 1.0]), 0.02, UnitSchedule(), 0, [21])


# ------------------------------------ communicating classes and the bracket


def reference_collatz_wielandt(Q, tol, max_iter=1_000_000):
    """The Collatz-Wielandt loop as it was with numpy's min and max, verbatim."""
    v = np.ones(Q.shape[0]) / Q.shape[0]
    for _ in range(max_iter):
        qv = Q @ v
        ratios = qv / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * hi:
            return lo, hi
        qv += 0.25 * hi * v
        v = qv / qv.sum()
    raise NoConvergence("power iteration did not bracket the Perron root")


def reference_perron_bracket(Q, tol):
    reach = (Q > 0.0) | np.eye(Q.shape[0], dtype=bool)
    for _ in range(math.ceil(math.log2(Q.shape[0]))):
        reach = reach @ reach
    brackets = [reference_collatz_wielandt(Q[np.ix_(k, k)], tol) for k in np.unique(reach & reach.T, axis=0)]
    return max(lo for lo, _ in brackets), max(hi for _, hi in brackets)


def bracket_bits(bracket, Q, tol, max_iter):
    """(lo, hi) as float.hex, or the exception's type, of one bracket call."""
    try:
        with np.errstate(all="ignore"):
            return tuple(x.hex() for x in bracket(Q, tol, max_iter))
    except NoConvergence:
        return NoConvergence


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    s=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    entries=st.sampled_from(["uniform", "log-uniform", "subnormal", "zeros"]),
    order=st.sampled_from("CF"),
    tol=st.sampled_from([1e-14, 1e-13, 1e-8, 1e-3, 0.0]),
)
def test_collatz_wielandt_is_the_numpy_loop_bit_for_bit(s, seed, entries, order, tol):
    rng = np.random.default_rng(seed)
    Q = rng.random((s, s))
    if entries == "log-uniform":
        Q = 10.0 ** rng.uniform(-300.0, 0.0, (s, s))
    elif entries == "subnormal":
        # a quarter of the entries subnormal, between 5e-324 and about 2e-320
        tiny = rng.random((s, s)) < 0.25
        Q[tiny] = rng.integers(1, 2**12, tiny.sum()) * 5e-324
    elif entries == "zeros":
        Q[rng.random((s, s)) < 0.5] = 0.0
    Q = np.asarray(Q, order=order)
    got = bracket_bits(_collatz_wielandt, Q, tol, 300)
    assert got == bracket_bits(reference_collatz_wielandt, Q, tol, 300)


def test_collatz_wielandt_refuses_to_stop_on_a_nan_ratio():
    # the second entry of v underflows to 0, its ratio turns 0/0 = NaN, and
    # the first entry alone reads lo = hi = 1; numpy's NaN-propagating min
    # and max never stopped there, and neither may the builtins
    with np.errstate(invalid="ignore"), pytest.raises(NoConvergence):
        _collatz_wielandt(np.diag([1.0, 0.5]), 1e-13, max_iter=5000)


def test_collatz_wielandt_degenerate_brackets():
    assert [x.hex() for x in _collatz_wielandt(np.zeros((1, 1)), 1e-13)] == [(0.0).hex()] * 2
    assert _collatz_wielandt(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-13) == (1.0, 1.0)


@pytest.mark.parametrize("kind", ["irreducible", "block-triangular"])
@pytest.mark.parametrize("seed", range(5))
def test_perron_bracket_matches_the_full_squaring(seed, kind):
    rng = np.random.default_rng(seed)
    s = 2 + 3 * seed
    Q = rng.random((s, s))
    if kind == "block-triangular":
        # classes of sizes 1 to 3 along the diagonal, each reaching only later ones
        cuts = np.cumsum(rng.integers(1, 4, size=s))
        block = np.searchsorted(cuts, np.arange(s), side="right")
        Q[block[:, None] > block[None, :]] = 0.0
        Q[rng.random((s, s)) < 0.3] = 0.0
        np.fill_diagonal(Q, rng.random(s) + 0.1)
    gamma = rng.choice([-0.5, 0.5, 1.0])
    Q = np.exp(gamma * rng.random(s))[:, None] * Q
    assert _perron_bracket(Q, 1e-13) == reference_perron_bracket(Q, 1e-13)


def test_dual_with_an_underflowing_entry_matches_per_read_classes(monkeypatch):
    # the 1e-20 entry is the only way into state 2; tilts beyond theta ~ 0.7
    # underflow it, and state 2 becomes a class of its own
    P = np.array([[0.6, 0.4, 0.0], [0.5, 0.5, 1e-20], [0.3, 0.3, 0.4]])
    c = np.array([1.0, 0.5, -999.0])
    cases = [(c, room) for room in (1e-3, 0.05, 0.3)]
    reused = []

    def recording(Q, tol, classes=None):
        reused.append(classes is not None)
        return risk_solver._perron_bracket(Q, tol, classes=classes)

    monkeypatch.setattr(ldp, "_perron_bracket", recording)
    got = [ldp._dual_side(P, side, room) for side, room in cases]
    assert any(reused) and not all(reused)
    monkeypatch.setattr(ldp, "_perron_bracket", lambda Q, tol, classes=None: risk_solver._perron_bracket(Q, tol))
    assert got == [ldp._dual_side(P, side, room) for side, room in cases]
