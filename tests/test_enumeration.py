"""ldp_upper_bound_check enumerates exactly only the start states that a
pruned bracket cannot rule out.  Its expansion step writes one child column
at a time over the whole frontier, reading the factors at the frontier's
phase from a cyclic table of P, and falls back to index arrays where
children were dropped.  The reference below is the full per-start
enumeration with a gathered P[last] at every level; every row and every
event probability must match it bit for bit (==, not approx).  The
communicating classes of the Perron bracket are checked the same way
against the full squaring."""

import gc
import math
import tracemalloc
import weakref

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
from longrun import ldp, risk_solver
from longrun.cli import gen_model
from longrun.risk_solver import _collatz_wielandt, _perron_bracket

from conftest import random_model


def reference_enumerate_mass(P, r, phi, j, n, probs, sums, last, threshold, chunk):
    s = P.shape[0]
    while j < n:
        if probs.size * s > chunk and probs.size > 1:
            half = probs.size // 2
            return reference_enumerate_mass(P, r, phi, j, n, probs[:half], sums[:half], last[:half], threshold, chunk) + \
                reference_enumerate_mass(P, r, phi, j, n, probs[half:], sums[half:], last[half:], threshold, chunk)
        trans = P[last, :]
        probs = (probs[:, None] * trans).ravel()
        sums = (sums[:, None] + phi[j] * r[None, :]).ravel()
        last = np.tile(np.arange(s), sums.size // s)
        keep = probs > 0.0
        if not keep.all():
            probs, sums, last = probs[keep], sums[keep], last[keep]
        j += 1
    return float(probs[sums >= threshold].sum())


def reference_event_probability(P, schedule, k, n, f, kappa, x, chunk=ldp._ENUM_CHUNK):
    r = np.log(f) - np.log(P @ f)
    phi = schedule.phi_array(k, n)
    threshold = kappa * phi_partial_sum(schedule, k, n)
    return reference_enumerate_mass(
        P, r, phi, 1, n, np.array([1.0]), np.array([phi[0] * r[x]]), np.array([x]), threshold, chunk
    )


def rows_of(P, f, kappa, schedule, k, n_grid):
    # a row above its bound still carries the exact mass
    try:
        return ldp_upper_bound_check(P, f, kappa, schedule, k, n_grid).rows
    except CheckFailed as exc:
        return exc.report.rows


def assert_rows_match(P, f, kappa, schedule, k, n_grid, chunk=ldp._ENUM_CHUNK):
    P = ldp._require_ergodic(P)
    for row in rows_of(P, f, kappa, schedule, k, n_grid):
        qs = [reference_event_probability(P, schedule, k, row.n, f, kappa, x, chunk) for x in range(P.shape[0])]
        assert row.q_exact == max(qs)
    for x in range(P.shape[0]):
        n = max(n_grid)
        assert exact_event_probability(P, schedule, k, n, f, kappa, x) == \
            reference_event_probability(P, schedule, k, n, f, kappa, x, chunk)


def random_kernel(rng, s, zeros):
    """A kernel whose rows all share one positive column, so it is ergodic;
    with zeros, about a third of the other entries are zero."""
    P = rng.random((s, s)) + 0.02
    if zeros:
        P[rng.random((s, s)) < 0.35] = 0.0
        P[:, rng.integers(s)] = rng.random(s) + 0.05
    return P / P.sum(axis=1, keepdims=True)


SCHEDULES = [HyperbolicSchedule(1.0, 1.0), UnitSchedule(), HyperbolicSchedule(2.0, 0.5)]


@pytest.mark.parametrize("shallow", [1, 6])
@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zero-entries"])
@pytest.mark.parametrize("seed", range(6))
def test_rows_match_the_full_enumeration(monkeypatch, seed, zeros, shallow):
    # one shallow level often orders the starts wrongly, so the later starts'
    # brackets must rule them out or send them to the exact enumeration
    monkeypatch.setattr(ldp, "_SHALLOW", shallow)
    rng = np.random.default_rng([seed, zeros])
    s = 2 + seed % 3
    P = random_kernel(rng, s, zeros)
    f = 1.0 + 2.0 * rng.random(s)
    kappa = float(rng.uniform(0.0, 0.1))
    n_grid = [1, 3, 6, 9] if s < 4 else [1, 4, 7]
    assert_rows_match(P, f, kappa, SCHEDULES[seed % 3], seed % 2, n_grid)


@pytest.mark.parametrize("chunk", [5, 7, 50, 301])
@pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zero-entries"])
def test_small_chunks_split_unaligned(monkeypatch, chunk, zeros):
    # halves of size // 2 start mid-cycle: at a nonzero phase, or mid index array
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng([chunk, zeros])
    P = random_kernel(rng, 3, zeros)
    f = np.array([2.0, 1.0, 1.5])
    assert_rows_match(P, f, 0.02, HyperbolicSchedule(1.0, 1.0), 0, [2, 5, 7], chunk)


def test_tied_starts_are_both_enumerated(monkeypatch):
    # equal rows and equal f make starts 0 and 1 the same float computation
    P = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    f = np.array([2.0, 2.0, 1.0])
    roots = []
    inner = ldp._enumerate_mass

    def counted(P, steps, j, *rest):
        if j == 1:
            roots.append(int(rest[2][0]))
        return inner(P, steps, j, *rest)

    monkeypatch.setattr(ldp, "_enumerate_mass", counted)
    n = 9
    sched = HyperbolicSchedule(1.0, 1.0)
    qs = [reference_event_probability(P, sched, 0, n, f, 0.02, x) for x in range(3)]
    assert qs[0] == qs[1] == max(qs)
    (row,) = rows_of(P, f, 0.02, sched, 0, [n])
    assert row.q_exact == max(qs)
    assert {0, 1} <= set(roots)


@pytest.mark.parametrize("side", ["min", "max"])
@pytest.mark.parametrize("seed", range(4))
def test_thresholds_at_the_extreme_path_sums(seed, side):
    # every path sum is at least the all-min sum and at most the all-max
    # sum: a threshold there, or an ulp away, is where rounding decides
    rng = np.random.default_rng(seed)
    s = 2 + seed % 3
    P = ldp._require_ergodic(random_kernel(rng, s, seed % 2 == 1))
    f = 1.0 + rng.random(s)
    n = 6
    sched = SCHEDULES[seed % 3]
    _, _, [(steps, _)] = ldp._enumeration_inputs(P, sched, 0, [n], f, 0.0, 0.0)
    extreme = steps.min(axis=1) if side == "min" else steps.max(axis=1)
    total = float(np.cumsum(extreme)[-1])
    r = np.log(f) - np.log(P @ f)
    phi = sched.phi_array(0, n)
    for threshold in (math.nextafter(total, -math.inf), total, math.nextafter(total, math.inf)):
        qs = [
            reference_enumerate_mass(
                P, r, phi, 1, n, np.array([1.0]), np.array([phi[0] * r[x]]), np.array([x]), threshold, ldp._ENUM_CHUNK
            )
            for x in range(s)
        ]
        assert ldp._worst_start_mass(P, steps, threshold) == max(qs)
        for x, q in enumerate(qs):
            for lo, hi in ldp._pruned_brackets(P, steps, x, threshold):
                assert lo * (1.0 - ldp._MASS_SLACK) <= q <= hi * (1.0 + ldp._MASS_SLACK) + ldp._MASS_FLOOR


@pytest.mark.parametrize("share", [0.7, 0.85, 1.0])
def test_kappa_near_the_largest_step_matches(monkeypatch, share):
    # near kappa = max r under the unit schedule every start's mass is small,
    # and at max r only the path that stays on the top state can reach the
    # threshold, and only through rounding
    monkeypatch.setattr(ldp, "_SHALLOW", 1)
    for seed in range(4):
        P = random_model(seed).policy_kernel(StationaryPolicy([0, 0, 0]))
        f = np.array([2.0, 1.0, 1.5])
        r = np.log(f) - np.log(P @ f)
        assert_rows_match(P, f, share * float(r.max()), UnitSchedule(), 0, [3, 6, 8])


@pytest.mark.parametrize("seed", [64, 68, 104, 140, 242, 249])
def test_small_masses_in_a_misleading_order_match(monkeypatch, seed):
    # seeds where every start's mass is below 1e-3 and one shallow level
    # puts a start ahead of the worst one
    monkeypatch.setattr(ldp, "_SHALLOW", 1)
    rng = np.random.default_rng(seed)
    s = 2 + seed % 3
    P = random_kernel(rng, s, False)
    f = 1.0 + 2.0 * rng.random(s)
    r = np.log(f) - np.log(ldp._require_ergodic(P) @ f)
    assert_rows_match(P, f, float(rng.uniform(0.5, 1.0)) * float(r.max()), UnitSchedule(), 0, [6])


@pytest.mark.parametrize("chunk", [ldp._ENUM_CHUNK, 1 << 17], ids=["default", "scaled"])
def test_deviation_style_rows_match(monkeypatch, chunk):
    # the ldp-check default f on a 3 x 2 model at the horizons a config uses;
    # the scaled chunk halves the 3^10-node frontier at n = 12 into halves at
    # phases 0 and 1, as the default chunk halves 3^13 nodes at n = 16
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    P = random_model(7).policy_kernel(StationaryPolicy([0, 0, 0]))
    assert_rows_match(P, np.array([2.0, 1.0, 1.0]), 0.02, HyperbolicSchedule(1.0, 1.0), 0, [8, 10, 12], chunk)


def kernel_with(rng, s, zeros, tiny):
    """random_kernel, and with tiny a 1e-200 entry outside one all-positive
    column, so the kernel stays ergodic while paths through that entry twice
    underflow to zero and are dropped."""
    P = random_kernel(rng, s, zeros)
    if tiny:
        kept = np.flatnonzero((P > 0.0).all(axis=0))[0]
        y = (kept + 1 + rng.integers(s - 1)) % s
        P[y, y] = 1e-200
        P[y] /= P[y].sum()
    return P


# the largest horizon per number of states that keeps an example quick
MAX_HORIZON = {2: 10, 3: 7, 4: 6, 5: 5}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    s=st.integers(2, 5),
    zeros=st.booleans(),
    tiny=st.booleans(),
    chunk=st.sampled_from([ldp._ENUM_CHUNK, 3, 5, 7, 16, 50, 301]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_expansion_matches_the_gathering_reference(s, zeros, tiny, chunk, seed, data):
    # small chunks halve frontiers down to single nodes, at every phase
    rng = np.random.default_rng(seed)
    P = kernel_with(rng, s, zeros, tiny)
    f = 1.0 + 2.0 * rng.random(s)
    n_grid = sorted(data.draw(st.sets(st.integers(1, MAX_HORIZON[s]), min_size=1, max_size=3)))
    schedule = data.draw(st.sampled_from(SCHEDULES))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ldp, "_ENUM_CHUNK", chunk)
        assert_rows_match(P, f, float(rng.uniform(0.0, 0.1)), schedule, seed % 2, n_grid, chunk)


@pytest.mark.parametrize("s, chunk", [(3, 16), (4, 7), (5, 7)])
def test_small_chunks_start_halves_at_every_phase(monkeypatch, s, chunk):
    # a positive kernel drops no child, so every frontier is a phase; the
    # halves of a small chunk must start at each of 0..s-1 (with s = 2 every
    # frontier has 2^j nodes, so every half starts at phase 0)
    phases = set()
    inner = ldp._expand

    def recording(cyc, step, probs, sums, last, out=None, positive=False):
        if isinstance(last, int):
            phases.add(last)
        return inner(cyc, step, probs, sums, last, out, positive)

    monkeypatch.setattr(ldp, "_expand", recording)
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng(s)
    P = random_kernel(rng, s, False)
    f = 1.0 + rng.random(s)
    assert_rows_match(P, f, 0.02, HyperbolicSchedule(1.0, 1.0), 0, [MAX_HORIZON[s]], chunk)
    assert phases == set(range(s))


@pytest.mark.parametrize("s", [2, 3, 4])
def test_underflowing_paths_are_dropped_as_in_the_reference(monkeypatch, s):
    # paths through the 1e-200 entry twice underflow to zero and are dropped
    # from the frontier, which then carries an index array of last states
    dropped = []
    inner = ldp._expand

    def recording(cyc, step, probs, sums, last, out=None, positive=False):
        kids = inner(cyc, step, probs, sums, last, out, positive)
        dropped.append(probs.size * s - kids[0].size)
        return kids

    monkeypatch.setattr(ldp, "_expand", recording)
    P = kernel_with(np.random.default_rng(s), s, False, True)
    f = 1.0 + np.arange(s) / s
    assert_rows_match(P, f, 0.0, UnitSchedule(), 0, [MAX_HORIZON[s]])
    assert sum(dropped) > 0


@pytest.mark.parametrize("chunk", [3, 5])
def test_a_piece_whose_children_all_underflow_matches(monkeypatch, chunk):
    # 2^-537 squared is the least subnormal, and every entry of row 0 is
    # below 1/2, so every child of the path 0, 0, 0 rounds to zero; a chunk
    # below 2 s makes that node a piece of its own, so the level below it is
    # empty: at n = 5 the leaves' parents, and at n = 6 the piece of the
    # leaves' grandparents from which the leaf level is walked
    sizes = []
    inner = ldp._enumerate_mass

    def recording(buffers, steps, j, probs, *rest):
        if j == len(steps) - 2:
            sizes.append(probs.size)
        return inner(buffers, steps, j, probs, *rest)

    monkeypatch.setattr(ldp, "_enumerate_mass", recording)
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    P = np.array([[2.0 ** -537, 0.3, 0.3, 0.4], [0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
    assert (P[0] < 0.5).all()
    assert_rows_match(P, np.array([2.0, 1.0, 1.5, 1.2]), 0.02, UnitSchedule(), 0, [4, 5, 6], chunk)
    assert 0 in sizes


def recording_walk(monkeypatch) -> list:
    """Patches _enumerate_mass to record (j, n, size, last) of every
    frontier it walks: the start, and each generated piece."""
    walked = []
    inner = ldp._enumerate_mass

    def recording(buffers, steps, j, probs, sums, last, threshold):
        walked.append((j, len(steps), probs.size, last))
        return inner(buffers, steps, j, probs, sums, last, threshold)

    monkeypatch.setattr(ldp, "_enumerate_mass", recording)
    return walked


@pytest.mark.parametrize("chunk", [3, 5, 16, 50])
@pytest.mark.parametrize(
    "zeros, tiny", [(False, False), (True, False), (False, True)], ids=["positive", "zero-entries", "underflow"]
)
@pytest.mark.parametrize("s", [2, 3, 4])
def test_levels_generated_in_pieces_match_the_reference(monkeypatch, s, zeros, tiny, chunk):
    # blocks of one node and chunks of one or two, so a stored piece spans
    # many table widths; the small chunk splits several successive levels
    # into pieces, which start inside one parent's children where the
    # halving of a level cuts a node's children apart
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    monkeypatch.setattr(ldp, "_LEAF_BLOCK", 4)
    walked = recording_walk(monkeypatch)
    rng = np.random.default_rng([s, zeros, tiny, chunk])
    P = kernel_with(rng, s, zeros, tiny)
    f = 1.0 + 2.0 * rng.random(s)
    top = MAX_HORIZON[s]
    assert_rows_match(P, f, 0.01, HyperbolicSchedule(1.0, 1.0), 0, [3, top - 1, top], chunk)
    if not (zeros or tiny):
        # no child is dropped, so a piece below its level's s^(j - 1) nodes
        # is one of several, and a phase other than 0 starts mid-parent
        assert len({j for j, _, size, _ in walked if size < s ** (j - 1)}) >= 2
        straddled = any(j >= 2 and last for j, _, _, last in walked)
        assert straddled == (s == 3 or chunk < 2 * s)


@pytest.mark.parametrize("chunk", [3, 5])
def test_an_empty_piece_above_the_leaves_matches(monkeypatch, chunk):
    # the kernel of test_a_piece_whose_children_all_underflow_matches: the
    # children of path 0, 0, 0 form an empty piece at depth 4, walked down
    # to the leaves' grandparents at depth 5
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    monkeypatch.setattr(ldp, "_LEAF_BLOCK", 4)
    walked = recording_walk(monkeypatch)
    P = np.array([[2.0 ** -537, 0.3, 0.3, 0.4], [0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])
    assert_rows_match(P, np.array([2.0, 1.0, 1.5, 1.2]), 0.02, UnitSchedule(), 0, [7], chunk)
    assert {j for j, _, size, _ in walked if size == 0} == {4, 5}


@pytest.mark.parametrize("chunk", [ldp._ENUM_CHUNK, 1 << 18], ids=["default", "split"])
@pytest.mark.parametrize("tiny", [False, True], ids=["positive", "underflow"])
def test_two_states_at_the_largest_horizon_match(monkeypatch, tiny, chunk):
    # s = 2 at n = 22, the guard's largest shape: blocks of 2^10 leaves, so
    # a stored piece of up to 2^19 nodes spans about a thousand table widths;
    # at 2^18 every level from depth 19 down is generated in pieces
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    monkeypatch.setattr(ldp, "_LEAF_BLOCK", 1 << 10)
    P = ldp._require_ergodic(kernel_with(np.random.default_rng(22), 2, False, tiny))
    f, schedule = np.array([2.0, 1.0]), HyperbolicSchedule(1.0, 1.0)
    for x in range(2):
        assert exact_event_probability(P, schedule, 0, 22, f, 0.02, x) == \
            reference_event_probability(P, schedule, 0, 22, f, 0.02, x, chunk)


@pytest.mark.parametrize("chunk", [ldp._ENUM_CHUNK, 5, 16, 50])
@pytest.mark.parametrize(
    "zeros, tiny", [(False, False), (True, False), (False, True), (True, True)],
    ids=["positive", "zero-entries", "underflow", "zero-entries-underflow"],
)
@pytest.mark.parametrize("s", [2, 3, 4])
def test_one_call_reuses_its_buffers_across_horizons_and_starts(monkeypatch, s, zeros, tiny, chunk):
    # one set of buffers, built for the largest horizon, serves every horizon
    # and start in a mixed order: later frontiers, often smaller after a
    # larger horizon or after dropped children, overwrite a larger one's
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng([s, zeros, tiny, chunk])
    P = ldp._require_ergodic(kernel_with(rng, s, zeros, tiny))
    f = 1.0 + 2.0 * rng.random(s)
    top = MAX_HORIZON[s]
    horizons = [top, 2, top - 2, 1, top, 3]
    schedule = HyperbolicSchedule(1.0, 1.0)
    buffers = ldp._Buffers(P, horizons)
    for n in horizons:
        _, _, [(steps, norm)] = ldp._enumeration_inputs(P, schedule, 0, [n], f, 0.02, 0.0)
        for x in range(s):
            got = ldp._enumerate_mass(buffers, steps, 1, *ldp._start(steps, x), 0.02 * norm)
            assert got == reference_event_probability(P, schedule, 0, n, f, 0.02, x, chunk)
    assert_rows_match(P, f, 0.02, schedule, 0, [top, 2, top - 2], chunk)


@pytest.mark.parametrize("tiny", [False, True], ids=["positive", "underflow"])
def test_event_probabilities_of_successive_calls_match(monkeypatch, tiny):
    # each call has its own buffers; a shorter horizon after a longer one,
    # and the longer one again, read none of the earlier call's
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", 50)
    P = ldp._require_ergodic(kernel_with(np.random.default_rng(3), 3, True, tiny))
    f, schedule = np.array([2.0, 1.0, 1.5]), UnitSchedule()
    for n in (7, 4, 7, 1):
        for x in range(3):
            assert exact_event_probability(P, schedule, 0, n, f, 0.01, x) == \
                reference_event_probability(P, schedule, 0, n, f, 0.01, x, 50)


def deviation_kernel(seed, copy=0):
    """The kernel that the deviation benchmark's model copy audits at a
    workload seed (model seed SeedSequence([seed, 3] + [copy if nonzero]))."""
    entropy = [seed, 3] + ([copy] if copy else [])
    model_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    model = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": model_seed})
    return model.policy_kernel(StationaryPolicy([0, 0, 0]))


def deviation_rows(P):
    return rows_of(P, np.array([2.0, 1.0, 1.0]), 0.02, HyperbolicSchedule(1.0, 1.0), 0, [8, 10, 12, 14, 16])


def peak_chunks(call) -> float:
    """The tracemalloc peak of call() in chunks of floats."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (ldp._ENUM_CHUNK * 8)


def test_deviation_audit_peak_memory():
    # the deviation benchmark's first model at workload seed 7: at n = 16 the
    # audit keeps the depth-13 level (3^12 nodes) and one depth-14 piece
    # (a quarter of 3^13 nodes), the two frontiers that the depths alternate
    # between, a block-wide cyclic table and block scratch, about 1.04
    # chunks of floats; storing the depth-14 level whole and a cyclic table
    # as wide as a chunk took 3.15, storing the last two levels 5.2, and a
    # buffer for every depth would take about 7.7
    P = deviation_kernel(7)
    assert peak_chunks(lambda: deviation_rows(P)) <= 1.97


def test_tied_starts_audit_peak_memory():
    # the kernel of test_tied_starts_are_both_enumerated at n = 16, where no
    # bracket rules out the tied start: brackets stop deepening before a
    # level of more than a block of nodes, so the audit reads 1.06 chunks,
    # about one exact_event_probability call (1.03); brackets deepened up to
    # a chunk of nodes read 3.11
    P = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
    f, sched = np.array([2.0, 2.0, 1.0]), HyperbolicSchedule(1.0, 1.0)
    rows = []
    assert peak_chunks(lambda: rows.extend(rows_of(P, f, 0.02, sched, 0, [16]))) <= 1.98
    assert rows[0].q_exact == max(exact_event_probability(P, sched, 0, 16, f, 0.02, x) for x in range(3))


@pytest.mark.parametrize("s, n, pin", [(2, 22, 1.84), (5, 12, 1.65)])
def test_guard_shape_peak_memory(s, n, pin):
    # one event probability at the guard's largest shapes reads 0.91 and
    # 0.72 chunks: no table or level as wide as a chunk is kept (storing
    # the first split level whole and a chunk-wide table read 1.86 and 3.32)
    P = random_kernel(np.random.default_rng([s, n]), s, False)
    f = 1.0 + np.arange(s) / s
    assert peak_chunks(lambda: exact_event_probability(P, HyperbolicSchedule(1.0, 1.0), 0, n, f, 0.02, 0)) <= pin


def test_calls_free_their_buffers_without_the_cycle_collector(monkeypatch):
    # a walk whose closure referred to itself kept each call's buffers alive
    # until the next collection, so the three audits of a deviation round
    # held three sets at once
    made = []

    class Recorded(ldp._Buffers):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(ldp, "_Buffers", Recorded)
    P = deviation_kernel(7)
    enabled = gc.isenabled()
    gc.disable()
    try:
        deviation_rows(P)
        exact_event_probability(P, HyperbolicSchedule(1.0, 1.0), 0, 12, np.array([2.0, 1.0, 1.0]), 0.02, 0)
        assert len(made) == 2 and all(ref() is None for ref in made)
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("seed", [7, 11])
def test_deviation_audits_replace_no_frontier_buffer(monkeypatch, seed):
    # every frontier buffer is sized for the largest piece at its depth, so
    # the audits of a positive kernel never outgrow one
    sizes, replaced = [], []
    inner = ldp._grown

    def counting(buf, size):
        sizes.append(size)
        if buf.shape[-1] < size:
            replaced.append((buf.shape, size))
        return inner(buf, size)

    monkeypatch.setattr(ldp, "_grown", counting)
    for copy in range(3):
        deviation_rows(deviation_kernel(seed, copy))
    assert sizes and not replaced


# ------------------------------------------------ leaf cut-offs


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1.7976931348623157e308])


@st.composite
def addend_cases(draw):
    """(b, t) of either sign at zero, subnormal, normal and large
    magnitudes, and pairs where t - b cancels to a far finer scale than t."""
    t = draw(st.one_of(FLOATS, SPECIAL))
    kind = draw(st.sampled_from(["free", "special", "near", "opposite"]))
    if kind == "free":
        return draw(FLOATS), t
    if kind == "special":
        return draw(SPECIAL), t
    b = t if kind == "near" else -t
    for _ in range(draw(st.integers(0, 3))):
        b = math.nextafter(b, draw(st.sampled_from([-math.inf, math.inf])))
    return (b, t) if math.isfinite(b) else (t, t)


def steps_around(cut, k=3):
    """cut and k nextafter steps on each side of it."""
    out, lo, hi = [cut], cut, cut
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=addend_cases())
def test_least_addend_is_the_exact_cut(case):
    b, t = case
    cut = ldp._least_addend(b, t)
    for a in steps_around(cut):
        assert (a + b >= t) == (a >= cut)


@st.composite
def two_step_cases(draw):
    """(b1, b2, t): (b2, t) as addend_cases draws them, and b1 drawn the same
    way against the one-step cut c, near c or -c included, so that the
    composed cut cancels too."""
    b2, t = draw(addend_cases())
    c = ldp._least_addend(b2, t)
    kind = draw(st.sampled_from(["free", "special", "near", "opposite"]))
    if kind == "free" or not math.isfinite(c):
        return draw(FLOATS), b2, t
    if kind == "special":
        return draw(SPECIAL), b2, t
    b1 = c if kind == "near" else -c
    for _ in range(draw(st.integers(0, 3))):
        b1 = math.nextafter(b1, draw(st.sampled_from([-math.inf, math.inf])))
    return (b1 if math.isfinite(b1) else c), b2, t


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(case=two_step_cases())
def test_composed_least_addend_is_the_exact_two_step_cut(case):
    # fl(fl(a + b1) + b2) >= t is monotone in a, so one composed cut-off
    # decides a leaf two levels below a grandparent's sum a
    b1, b2, t = case
    cut = ldp._least_addend(b1, ldp._least_addend(b2, t))
    for a in steps_around(cut):
        assert ((a + b1) + b2 >= t) == (a >= cut)


def reference_leaf_mass(cyc, step, probs, sums, last, threshold):
    """The leaf level as it was before the cut-offs: each column's partial
    sums are added and compared with the threshold, then the reached
    nonzero masses are compacted in place and summed."""
    s, m = step.size, probs.size
    masses, reached, column = np.empty((m, s)), np.empty((m, s), bool), np.empty(m)
    for y in range(s):
        np.multiply(probs, ldp._factors(cyc, y, last, m), out=masses[:, y])
        np.add(sums, step[y], out=column)
        np.greater_equal(column, threshold, out=reached[:, y])
    if not masses.all():
        np.logical_and(reached, masses, out=reached)
    flat, hit = masses.ravel(), reached.ravel()
    kept = flat.size
    if not hit.all():
        kept = 0
        for lo in range(0, flat.size, ldp._LEAF_BLOCK):
            block = flat[lo:lo + ldp._LEAF_BLOCK][hit[lo:lo + ldp._LEAF_BLOCK]]
            flat[kept:kept + block.size] = block
            kept += block.size
    return float(flat[:kept].sum())


def reference_last_levels(buffers, steps, probs, sums, last, threshold, chunk):
    """The last two levels as an enumeration that stores them: the leaves'
    parents expanded whole, split by the chunk tree, and each piece's leaves
    by reference_leaf_mass."""
    s = steps.shape[1]

    def piece(probs, sums, last):
        if probs.size * s > chunk and probs.size > 1:
            half = probs.size // 2
            heads = (last, (last + half) % s) if isinstance(last, int) else (last[:half], last[half:])
            return piece(probs[:half], sums[:half], heads[0]) + piece(probs[half:], sums[half:], heads[1])
        return reference_leaf_mass(buffers.cyc, steps[1], probs, sums, last, threshold)

    return piece(*ldp._expand(buffers.cyc, steps[0], probs, sums, last))


@pytest.mark.parametrize("chunk", [ldp._ENUM_CHUNK, 7], ids=["default", "small"])
@pytest.mark.parametrize(
    "zeros, tiny", [(False, False), (True, False), (False, True)], ids=["positive", "zero-entries", "underflow"]
)
@pytest.mark.parametrize("s", [2, 3, 4])
def test_leaf_mass_matches_the_add_and_compare_reference(monkeypatch, s, zeros, tiny, chunk):
    # random frontiers of the leaves' grandparents at a phase and with index
    # arrays of last states; thresholds below every leaf (all reached), above
    # every leaf (none), at leaves' sums and one ulp from them, and in between
    monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
    rng = np.random.default_rng([s, zeros, tiny, chunk])
    P = ldp._require_ergodic(kernel_with(rng, s, zeros, tiny))
    buffers = ldp._Buffers(P, [MAX_HORIZON[s]])
    for trial in range(40):
        # a small chunk splits the parents into pieces of a node or two,
        # each of which expands its whole block again
        m = int(rng.integers(1, min(chunk, 300) + 1))
        probs = rng.random(m) * (1e-300 if tiny and trial % 4 == 0 else 1.0)
        sums = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        steps = rng.normal(size=(2, s))
        last = int(rng.integers(s)) if trial % 2 else rng.integers(s, size=m)
        leaves = ((sums[:, None] + steps[0])[:, :, None] + steps[1]).ravel()
        thresholds = [leaves.min(), math.nextafter(leaves.min(), -math.inf), leaves.max(),
                      math.nextafter(leaves.max(), math.inf), float(np.median(leaves)),
                      float(rng.choice(leaves)), math.nextafter(float(rng.choice(leaves)), math.inf)]
        for threshold in thresholds:
            want = reference_last_levels(buffers, steps, probs, sums, last, threshold, chunk)
            assert ldp._enumerate_mass(buffers, steps, 0, probs, sums, last, threshold) == want
    if zeros or tiny:
        assert not buffers.positive


@pytest.mark.parametrize("block, node", [(1, 128), (5, 128), (16, 256), (100, 128), (ldp._LEAF_BLOCK, 128)])
@pytest.mark.parametrize(
    "zeros, tiny", [(False, False), (True, False), (False, True), (True, True)],
    ids=["positive", "zero-entries", "underflow", "zero-entries-underflow"],
)
def test_small_blocks_and_nodes_match_the_reference(monkeypatch, block, node, zeros, tiny):
    # blocks of a few leaves and nodes of 128 masses: nodes span blocks,
    # blocks hold several nodes, and masses carry over between blocks;
    # chunk 50 also splits the leaves' parents into pieces mid-block
    monkeypatch.setattr(ldp, "_LEAF_BLOCK", block)
    monkeypatch.setattr(ldp, "_SUM_NODE", node)
    summed = []
    inner = ldp._pairwise_sum

    def recording(take, k):
        summed.append(k)
        return inner(take, k)

    monkeypatch.setattr(ldp, "_pairwise_sum", recording)
    # kernels whose starts each reach several hundred leaves at n = 7
    rng = np.random.default_rng([3, zeros, tiny])
    P = kernel_with(rng, 4, zeros, tiny)
    f = 1.0 + 2.0 * rng.random(4)
    for chunk in (ldp._ENUM_CHUNK, 50):
        monkeypatch.setattr(ldp, "_ENUM_CHUNK", chunk)
        assert_rows_match(P, f, 0.01, UnitSchedule(), 0, [3, 6, 7], chunk)
    assert max(summed) > node


def take_from(values):
    """take(size): the next size entries of values."""
    end = 0

    def take(size):
        nonlocal end
        end += size
        return values[end - size:end]

    return take


# lengths 1-300, one around multiples of 8 and of the node sizes, and the
# largest leaf piece of the deviation benchmark at n = 16
SUM_LENGTHS = sorted(
    set(range(1, 301))
    | {m + d for m in (8 * 125, 8 * 1024, 128 * 3, 1 << 16, 2 << 16, 3 << 16, 1 << 18) for d in (-1, 0, 1)}
    | {1_793_616}
)


@pytest.mark.parametrize("node", [128, ldp._SUM_NODE])
def test_pairwise_sum_follows_numpys_summation_tree(monkeypatch, node):
    # numpy sums pairwise; a numpy whose tree changed fails here by name
    monkeypatch.setattr(ldp, "_SUM_NODE", node)
    rng = np.random.default_rng(node)
    for k in SUM_LENGTHS:
        values = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, size=k)
        assert ldp._pairwise_sum(take_from(values), k) == np.add.reduce(values)


def test_positive_buffers_need_no_zero_scan():
    # min P = 0.05 and n = 16 give 0.05^16 ~ 2^-69; a 1e-200 entry passes
    # at n = 1 but its square is below 2^-1000; a zero entry never passes
    P = random_model(7).policy_kernel(StationaryPolicy([0, 0, 0]))
    assert ldp._Buffers(P, [8, 16]).positive
    tiny = kernel_with(np.random.default_rng(0), 3, False, True)
    assert ldp._Buffers(tiny, [1]).positive and not ldp._Buffers(tiny, [2]).positive
    assert not ldp._Buffers(kernel_with(np.random.default_rng(1), 3, True, False), [2]).positive


def test_guard_raises_before_any_bracket_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumeration work started")

    monkeypatch.setattr(ldp, "_pruned_brackets", forbidden)
    monkeypatch.setattr(ldp, "_enumerate_mass", forbidden)
    P = random_model(0).policy_kernel(StationaryPolicy([0, 0, 0]))
    with pytest.raises(EnumerationTooLarge):
        ldp_upper_bound_check(P, np.array([2.0, 1.0, 1.0]), 0.02, UnitSchedule(), 0, [21])


# ------------------------------------------------ communicating classes


def reference_perron_bracket(Q, tol):
    reach = (Q > 0.0) | np.eye(Q.shape[0], dtype=bool)
    for _ in range(math.ceil(math.log2(Q.shape[0]))):
        reach = reach @ reach
    brackets = [_collatz_wielandt(Q[np.ix_(k, k)], tol) for k in np.unique(reach & reach.T, axis=0)]
    return max(lo for lo, _ in brackets), max(hi for _, hi in brackets)


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
