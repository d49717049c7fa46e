import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun import (
    GammaNotAllowed,
    HyperbolicSchedule,
    InvalidModel,
    KernelNotPositive,
    KernelsNotEquivalent,
    Model,
    StationaryPolicy,
    TabulatedSchedule,
    TimeVaryingPolicy,
    UnitSchedule,
    density_bounds,
    equivalence_constant,
    ergodicity_coefficient,
    exact_discounted_value,
    exact_event_probability,
    exact_risk_value,
    deviation_rate_infimum,
    gamma_sweep,
    invariant_measure,
    ldp_upper_bound_check,
    multiplicative_poisson_solve,
    near_optimality_margin,
    perron_oracle,
    phi_partial_sum,
    poisson_solve,
    relative_value_iteration,
    risk_contraction_margin,
    risk_relative_value_iteration,
    risk_span_bound,
    risk_time_extended_solve,
    risk_upper_bound_check,
    sandwich_check,
    simulate,
    span_seminorm,
    stationary_distribution,
    time_extended_solve,
    validate_schedule,
    weighted_empirical,
)
import longrun.model
from longrun.cli import gen_model, main
from longrun.model import GAMMA_FLOOR, _risk_factor, load_model, model_from_dict, model_to_dict, save_model, schedule_from_dict
from longrun.risk_solver import certificate_for

from conftest import random_model


# ---------------------------------------------------------------- model type


def test_model_rejects_bad_row_sum():
    with pytest.raises(InvalidModel):
        Model(np.array([[[0.6, 0.3], [0.5, 0.5]]]), np.zeros((2, 1)))


def test_model_rejects_negative_entry():
    with pytest.raises(InvalidModel):
        Model(np.array([[[1.2, -0.2], [0.5, 0.5]]]), np.zeros((2, 1)))


def test_model_rejects_nan_reward():
    with pytest.raises(InvalidModel):
        Model(np.array([[[0.5, 0.5], [0.5, 0.5]]]), np.array([[np.nan], [0.0]]))


def test_model_rejects_shape_mismatch():
    with pytest.raises(InvalidModel):
        Model(np.array([[[0.5, 0.5], [0.5, 0.5]]]), np.zeros((3, 1)))


def test_model_arrays_are_immutable(reference_model):
    with pytest.raises(ValueError):
        reference_model.kernel[0, 0, 0] = 0.9


def test_policy_bounds_checked(reference_model):
    with pytest.raises(InvalidModel):
        reference_model.policy_kernel(StationaryPolicy([0, 5]))
    with pytest.raises(InvalidModel):
        reference_model.policy_kernel(StationaryPolicy([0]))
    with pytest.raises(InvalidModel):
        TimeVaryingPolicy(0, [[0, 0], [0]])
    with pytest.raises(InvalidModel):
        TimeVaryingPolicy(0, [[0, -1]])
    # the second slice plays an action the one-action model does not have
    with pytest.raises(InvalidModel):
        exact_discounted_value(reference_model, TimeVaryingPolicy(0, [[0, 0], [0, 1]]), UnitSchedule(), 0, 2, 0)


def test_time_varying_policy_clamps():
    a = StationaryPolicy([0, 0])
    b = StationaryPolicy([1, 1])
    pol = TimeVaryingPolicy(3, [a, b])
    assert pol.entry_at(0) == a
    assert pol.entry_at(3) == a
    assert pol.entry_at(4) == b
    assert pol.entry_at(99) == b


def test_under_policy_freezes_kernel(two_action_model):
    u = StationaryPolicy([1, 0])
    sub = two_action_model.under_policy(u)
    assert sub.n_actions == 1
    assert np.allclose(sub.kernel[0, 0], [0.9, 0.1])
    assert np.allclose(sub.kernel[0, 1], [0.5, 0.5])
    assert np.allclose(sub.reward[:, 0], [1.2, 0.0])


def test_under_policy_of_single_action_model_is_itself(reference_model):
    assert reference_model.under_policy(StationaryPolicy([0, 0])) is reference_model
    with pytest.raises(InvalidModel):
        reference_model.under_policy(StationaryPolicy([0, 1]))
    with pytest.raises(InvalidModel):
        reference_model.under_policy(StationaryPolicy([0]))


# ------------------------------------------------------- structural constants


def test_span_seminorm_examples():
    assert span_seminorm([4.0 / 3.0, 0.0]) == pytest.approx(4.0 / 3.0)
    assert span_seminorm([2.5, 2.5, 2.5]) == 0.0
    assert span_seminorm([-1.0, 2.0, 0.5]) == pytest.approx(3.0)
    with pytest.raises(InvalidModel):
        span_seminorm([])


def test_span_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=5)
        c = rng.normal()
        assert span_seminorm(v + c) == pytest.approx(span_seminorm(v), abs=1e-12)


def test_ergodicity_coefficient_reference(reference_model):
    assert ergodicity_coefficient(reference_model) == pytest.approx(0.25, abs=1e-15)


def test_ergodicity_coefficient_one_state():
    m = Model(np.ones((2, 1, 1)), np.array([[0.3, 0.7]]))
    assert ergodicity_coefficient(m) == 0.0


def test_ergodicity_coefficient_identical_rows(uniform_model):
    assert ergodicity_coefficient(uniform_model) == 0.0


def test_ergodicity_coefficient_brute_force():
    # oracle: explicit max over all row pairs of the positive-part difference
    for seed in range(10):
        m = random_model(seed)
        rows = m.kernel.reshape(-1, m.n_states)
        best = 0.0
        for i in range(rows.shape[0]):
            for j in range(rows.shape[0]):
                best = max(best, np.clip(rows[i] - rows[j], 0.0, None).sum())
        assert ergodicity_coefficient(m) == pytest.approx(best, abs=1e-14)


def test_ergodicity_coefficient_bitwise_matches_pair_loop():
    # the row pairs are computed in blocks of one reused buffer; the 40x4
    # (160 rows) and 70x3 (210 rows, last block partial) models need several
    # blocks, and every pair sum must equal the plain per-pair sum exactly
    models = [
        gen_model({"n_states": 40, "n_actions": 4, "min_entry": 0.001, "seed": 5}),
        gen_model({"n_states": 70, "n_actions": 3, "min_entry": 0.001, "seed": 6}),
        gen_model({"n_states": 9, "n_actions": 1, "min_entry": 0.01, "seed": 7}),
        Model(np.ones((1, 1, 1)), np.zeros((1, 1))),
    ]
    for m in models:
        rows = m.kernel.reshape(-1, m.n_states)
        best = 0.0
        for i in range(rows.shape[0]):
            for j in range(rows.shape[0]):
                best = max(best, float(np.clip(rows[i] - rows[j], 0, None).sum()))
        got = ergodicity_coefficient(m)
        assert got == best, _bitwise_message(got, best)
        assert m.ergodicity == best, _bitwise_message(m.ergodicity, best)


def _bitwise_message(got: float, want: float) -> str:
    """Both values in hex and the row-pair block size in force, to diagnose a mismatch."""
    return f"coefficient {float(got).hex()}, pair loop {float(want).hex()}, _PAIR_BLOCK {longrun.model._PAIR_BLOCK}"


def pair_loop_max(m: Model) -> float:
    """The plain float64 maximum over all ordered row pairs, one pair at a time."""
    rows = m.kernel.reshape(-1, m.n_states)
    best = 0.0
    for i in range(rows.shape[0]):
        for j in range(rows.shape[0]):
            best = max(best, float(np.maximum(rows[i] - rows[j], 0.0).sum()))
    return best


def _deterministic(n_states: int, n_actions: int, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    g = np.zeros((n_actions, n_states, n_states))
    g[np.arange(n_actions)[:, None], np.arange(n_states), rng.integers(0, n_states, (n_actions, n_states))] = 1.0
    return Model(g, np.zeros((n_states, n_actions)))


def _rows_apart_by(eps: float) -> Model:
    # every row is the same distribution except for +eps / -eps in two entries
    rng = np.random.default_rng(3)
    base = rng.random(8) + 0.1
    g = np.tile(base / base.sum(), (2, 8, 1))
    for a, x in ((0, 2), (1, 5)):
        g[a, x, 1] += eps
        g[a, x, 6] -= eps
    return Model(g, np.zeros((8, 2)))


def _tiny_entries(mixed: bool) -> Model:
    # entries of 1e-300 flush to zero in float32; unmixed, the coefficient comes only from them
    g = np.tile([0.5, 0.5, 0.0], (2, 3, 1))
    g[0, 1, 2] = 1e-300
    g[1, 2, 2] = 3e-300
    if mixed:
        g[1, 0] = [0.7, 0.3 - 2e-300, 2e-300]
    return Model(g, np.zeros((3, 2)))


def _float32_subnormals(mixed: bool) -> Model:
    # entries from 1e-45 to 1e-38, float32 subnormals; unmixed, the coefficient comes only from them
    rng = np.random.default_rng(5)
    g = np.tile([0.25, 0.25, 0.5, 0.0, 0.0], (2, 5, 1))
    g[:, :, 3:] = 10.0 ** rng.uniform(-45.0, -38.0, (2, 5, 2))
    if mixed:
        g[1, 4] = [0.1, 0.6, 0.3 - 2e-39, 3e-45, 2e-39]
    return Model(g, np.zeros((5, 2)))


def _small_integer_weights(seed: int) -> Model:
    # rows of equal mass whose two orders of a pair round apart
    g = np.random.default_rng(seed).integers(1, 20, (2, 6, 6)).astype(float)
    return Model(g / g.sum(axis=2, keepdims=True), np.zeros((6, 2)))


def _off_unit_sums(sign: float) -> Model:
    rng = np.random.default_rng(11)
    g = rng.random((3, 12, 12))
    g /= g.sum(axis=2, keepdims=True)
    return Model(g * (1.0 + sign * 0.9e-12 * rng.random((3, 12, 1))), np.zeros((12, 3)))


@pytest.fixture(params=["default-blocks", "single-row-blocks"])
def pair_block(request, monkeypatch):
    """Screen in the default row blocks, or in blocks of one row each, as on
    kernels whose rows hold more than _PAIR_BLOCK entries all together."""
    if request.param == "single-row-blocks":
        monkeypatch.setattr(longrun.model, "_PAIR_BLOCK", 1)


@pytest.mark.parametrize(
    "model",
    [
        _deterministic(30, 3, 1),  # many pairs tie at 1.0
        _deterministic(12, 1, 2),
        Model(np.tile(np.eye(5)[None], (2, 1, 1)), np.zeros((5, 2))),
        Model(np.tile(np.linspace(1.0, 2.0, 9) / np.linspace(1.0, 2.0, 9).sum(), (3, 9, 1)), np.zeros((9, 3))),
        _rows_apart_by(1e-9),
        _rows_apart_by(1e-15),
        _tiny_entries(mixed=False),
        _tiny_entries(mixed=True),
        _float32_subnormals(mixed=False),
        _float32_subnormals(mixed=True),
        _off_unit_sums(+1.0),
        _off_unit_sums(-1.0),
        _small_integer_weights(2),
        _small_integer_weights(3),
        Model(np.ones((1, 1, 1)), np.zeros((1, 1))),
        Model(np.ones((3, 1, 1)), np.zeros((1, 3))),
        gen_model({"n_states": 25, "n_actions": 1, "min_entry": 0.001, "seed": 9}),
        # 225 rows of 45 entries: blocks of several rows whose last one is cut short
        gen_model({"n_states": 45, "n_actions": 5, "min_entry": 0.0001, "seed": 12}),
        # Model keeps the caller's memory layout: kernels not in C order
        Model(np.asfortranarray(_small_integer_weights(4).kernel[0])[None], np.zeros((6, 1))),
        Model(_small_integer_weights(5).kernel[0].T.copy().T[None], np.zeros((6, 1))),
        Model(np.asfortranarray(_off_unit_sums(1.0).kernel), np.zeros((12, 3))),
    ],
    ids=["deterministic", "deterministic-1-action", "identity", "identical-rows", "apart-1e-9", "apart-1e-15",
         "tiny-entries", "tiny-entries-mixed", "float32-subnormals", "float32-subnormals-mixed", "sums-above-1",
         "sums-below-1", "integer-weights-2", "integer-weights-3", "1x1", "1-state-3-actions",
         "1-action", "partial-block", "fortran-1-action", "transposed-1-action",
         "fortran-3-actions"],
)
def test_ergodicity_coefficient_equals_the_pair_loop_bitwise(model, pair_block):
    got, want = ergodicity_coefficient(model), pair_loop_max(model)
    assert got == want, _bitwise_message(got, want)


def test_ergodicity_coefficient_special_values():
    assert ergodicity_coefficient(_deterministic(30, 3, 1)) == 1.0
    assert ergodicity_coefficient(_tiny_entries(mixed=False)) == 3e-300
    assert 0.0 < ergodicity_coefficient(_rows_apart_by(1e-9)) < 3e-9


def _adversarial_rows(s: int, seed: int) -> np.ndarray:
    """Rows of length s: small integer weights, sums 1 +- 0.9e-12, float32
    subnormals, entries that float32 rounds by almost half an ulp, and
    rows a few float32 ulps apart."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 20, (6, s)).astype(float)
    weights /= weights.sum(axis=1, keepdims=True)
    off = rng.random((6, s))
    off /= off.sum(axis=1, keepdims=True)
    off *= 1.0 + 0.9e-12 * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])[:, None]
    tiny = rng.random((4, s))
    tiny[:, 1::2] = 10.0 ** rng.uniform(-45.0, -38.0, (4, tiny[:, 1::2].shape[1]))
    tiny /= tiny.sum(axis=1, keepdims=True)
    # just below the midpoint between two float32 values: rounding moves each entry by about u32
    scale = 2.0 ** -(rng.integers(1, 5, (2, s)) + math.ceil(math.log2(s)))
    half = (1.0 + 2.0**-24 - 2.0**-40) * scale
    half[:, -1] = 0.0
    half[:, -1] = 1.0 - half.sum(axis=1)
    near = np.abs(half[:1] + 2.0**-23 * rng.integers(-3, 4, (2, s)) * half[:1])
    near /= near.sum(axis=1, keepdims=True)
    return np.vstack([weights, off, tiny, half, near])


@pytest.mark.parametrize("s", [1, 2, 5, 64, 301])
def test_the_screen_lies_within_its_margin_of_both_orders(s):
    rows = _adversarial_rows(s, s)
    n = len(rows)
    # rows that Model admits
    assert (rows >= 0.0).all() and np.abs(rows.sum(axis=1) - 1.0).max() <= longrun.model.ROW_SUM_TOL
    mins, sums = np.empty(n * n * s, np.float32), np.empty(n * n, np.float32)
    v = longrun.model._screen_values(rows.astype(np.float32), rows.astype(np.float32), rows.sum(axis=1),
                                     rows.sum(axis=1), mins, sums, np.ones(s, np.float32))
    t = longrun.model._positive_part_sums(rows[:, None, :], rows[None, :, :], np.empty(n * n * s), np.empty(n * n))
    bound = longrun.model._screen_margin(s) / 2.0
    assert np.abs(v - t).max() <= bound and np.abs(v - t.T).max() <= bound
    # and the bound is not vacuous
    assert bound < 2e-7 * max(s, 2)


def test_the_screen_rechecks_few_rows(monkeypatch):
    # a margin that kept every pair would recheck all 800 rows against their partners
    model = gen_model({"n_states": 200, "n_actions": 4, "min_entry": 0.001, "seed": 7})
    rechecked = []
    original = longrun.model._positive_part_sums

    def counting(a, b, diff, sums):
        rechecked.append(a.shape[0])
        return original(a, b, diff, sums)

    monkeypatch.setattr(longrun.model, "_positive_part_sums", counting)
    ergodicity_coefficient(model)
    assert 2 <= sum(rechecked) <= 40


def test_ergodicity_coefficient_on_single_row_blocks():
    # 700 rows of 140 entries: every early block holds a single row; the
    # reference sums each pair's differences as one contiguous row
    m = gen_model({"n_states": 140, "n_actions": 5, "min_entry": 0.0005, "seed": 13})
    rows = m.kernel.reshape(-1, m.n_states)
    best = max(float(np.add.reduce(np.maximum(rows[i] - rows, 0.0), axis=1).max()) for i in range(rows.shape[0]))
    assert ergodicity_coefficient(m) == best


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    n_states=st.integers(1, 30),
    n_actions=st.integers(1, 4),
    zero_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    distinct_rows=st.sampled_from([None, 1, 3]),
    noise=st.sampled_from([0.0, 1e-6, 1e-8, 1e-10]),
    integer_weights=st.booleans(),
    off_unit_sums=st.booleans(),
    single_row_blocks=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ergodicity_coefficient_property(
    n_states, n_actions, zero_share, distinct_rows, noise, integer_weights, off_unit_sums, single_row_blocks, seed
):
    # random kernels with random zero patterns; some are a few distinct rows
    # moved apart by noise below the float32 resolution, some have small
    # integer weights (rows of equal mass), some have row sums up to
    # 0.9 ROW_SUM_TOL away from 1
    rng = np.random.default_rng(seed)
    shape = (n_actions, n_states, n_states)
    g = rng.random(shape)
    if integer_weights:
        g = np.ceil(19.0 * g)
    g *= rng.random(shape) >= zero_share
    g[np.arange(n_actions)[:, None], np.arange(n_states), rng.integers(0, n_states, shape[:2])] += 1.0
    if distinct_rows:
        rows = g.reshape(-1, n_states)
        g = rows[rng.integers(0, min(distinct_rows, len(rows)), len(rows))].reshape(shape)
    g = g + noise * rng.random(shape) * (g > 0)
    g /= g.sum(axis=2, keepdims=True)
    if off_unit_sums:
        g *= 1.0 + 0.9e-12 * rng.uniform(-1.0, 1.0, (n_actions, n_states, 1))
    m = Model(g, np.zeros((n_states, n_actions)))
    with mock.patch.object(longrun.model, "_PAIR_BLOCK", 1 if single_row_blocks else longrun.model._PAIR_BLOCK):
        assert ergodicity_coefficient(m) == pair_loop_max(m)


@pytest.fixture
def coefficient_calls(monkeypatch):
    calls = []
    original = longrun.model.ergodicity_coefficient

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(longrun.model, "ergodicity_coefficient", counting)
    return calls


def test_solve_average_computes_the_coefficient_once(tmp_path, coefficient_calls):
    assert main(["gen-model", "--states", "6", "--actions", "3", "--min-entry", "0.02",
                 "--seed", "4", "--out", str(tmp_path)]) == 0
    assert main(["solve-average", "--model", str(tmp_path / "model.json"), "--schedule", "hyperbolic:1,1",
                 "--out", str(tmp_path / "avg")]) == 0
    assert len(coefficient_calls) == 1


def test_poisson_solve_computes_the_coefficient_once(coefficient_calls):
    m = gen_model({"n_states": 4, "n_actions": 3, "min_entry": 0.02, "seed": 8})
    poisson_solve(m, StationaryPolicy([2, 0, 1, 1]))
    assert len(coefficient_calls) == 1
    assert coefficient_calls[0].n_actions == 1


def test_ldp_calls_compute_the_coefficient_once(coefficient_calls):
    m = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 7})
    u = StationaryPolicy([0, 0, 0])
    P, cu = m.policy_kernel(u), m.policy_reward(u)
    mu = stationary_distribution(P)
    deviation_rate_infimum(P, cu, 0.5 * max(cu.max() - mu @ cu, mu @ cu - cu.min()))
    assert len(coefficient_calls) == 1
    ldp_upper_bound_check(P, np.array([1.0, 1.5, 2.0]), 0.1, UnitSchedule(), 0, [4, 5])
    assert len(coefficient_calls) == 2


def test_gamma_sweep_computes_the_coefficient_once(coefficient_calls):
    m = gen_model({"n_states": 5, "n_actions": 3, "min_entry": 0.02, "seed": 8})
    rows = gamma_sweep(m, StationaryPolicy([2, 0, 1, 1, 0]), [-1.0, -0.5, 0.5, 1.0])
    assert len(rows) == 5
    assert len(coefficient_calls) == 1
    assert coefficient_calls[0].n_actions == 1


def test_density_bounds_uniform(uniform_model):
    b = density_bounds(uniform_model)
    assert b.m == pytest.approx(1.0)
    assert b.delta_bound == pytest.approx(0.0)


def test_density_bounds_reference(reference_model):
    # entries of 2P: 1.5, 0.5, 1, 1 -> max(1.5, 1/0.5) = 2
    b = density_bounds(reference_model)
    assert b.m == pytest.approx(2.0)
    assert b.delta_bound == pytest.approx(0.5)


def test_density_bounds_scan_oracle():
    for seed in range(10):
        m = random_model(seed)
        dens = m.n_states * m.kernel
        expected = max(dens.max(), 1.0 / dens.min(), 1.0)
        assert density_bounds(m).m == pytest.approx(expected, rel=1e-14)


def test_density_bounds_zero_entry_fails():
    m = Model(np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.zeros((2, 1)))
    with pytest.raises(KernelNotPositive):
        density_bounds(m)


def test_density_bound_dominates_ergodicity():
    # delta <= 1 - 1/m whenever the density bound exists
    for seed in range(20):
        m = random_model(seed)
        b = density_bounds(m)
        assert ergodicity_coefficient(m) <= b.delta_bound + 1e-12


def test_equivalence_constant_uniform(uniform_model):
    assert equivalence_constant(uniform_model) == pytest.approx(1.0)


def test_equivalence_constant_reference(reference_model):
    assert equivalence_constant(reference_model) == pytest.approx(2.0)


def test_equivalence_constant_ratio_oracle():
    for seed in range(10):
        m = random_model(seed)
        best = 1.0
        for a in range(m.n_actions):
            mat = m.kernel[a]
            for i in range(m.n_states):
                for j in range(m.n_states):
                    best = max(best, (mat[i] / mat[j]).max())
        assert equivalence_constant(m) == pytest.approx(best, rel=1e-14)


def test_equivalence_constant_support_mismatch():
    m = Model(np.array([[[1.0, 0.0], [0.5, 0.5]]]), np.zeros((2, 1)))
    with pytest.raises(KernelsNotEquivalent):
        equivalence_constant(m)


def test_equivalence_bounded_by_density_squared():
    for seed in range(20):
        m = random_model(seed)
        b = density_bounds(m)
        assert equivalence_constant(m) <= b.m ** 2 + 1e-9


def test_risk_contraction_margin(reference_model):
    assert risk_contraction_margin(reference_model, 1.0) == pytest.approx(0.25 * np.e)
    assert risk_contraction_margin(reference_model, 1.5) > 1.0


def test_risk_contraction_margin_constant_reward():
    m = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.full((2, 1), 3.0))
    assert risk_contraction_margin(m, 7.0) == pytest.approx(0.25)


def test_risk_contraction_margin_overflow(reference_model):
    # the same float as exp(|gamma| span) * delta below the overflow point
    for gamma in (1.0, -3.5, 709.0):
        assert risk_contraction_margin(reference_model, gamma) == math.exp(abs(gamma)) * 0.25
    # exp overflows past |gamma| span = 709.78: the margin is unavailable, not an error
    for gamma in (710.0, -1000.0, 1e300):
        assert risk_contraction_margin(reference_model, gamma) == math.inf
    # a zero coefficient makes the margin 0 however large the exponential
    one_step = Model(np.array([[[0.5, 0.5], [0.5, 0.5]]]), np.array([[1.0], [0.0]]))
    assert risk_contraction_margin(one_step, 0.5) == 0.0
    assert risk_contraction_margin(one_step, 1000.0) == 0.0


# ------------------------------------------------------------------ schedules


def test_hyperbolic_values():
    sched = HyperbolicSchedule(1.0, 1.0)
    assert sched.phi(0) == 1.0
    assert sched.phi(3) == pytest.approx(0.25)
    assert np.allclose(sched.phi_array(0, 4), [1.0, 0.5, 1.0 / 3.0, 0.25])


def test_hyperbolic_parameter_validation():
    with pytest.raises(InvalidModel):
        HyperbolicSchedule(1.0, 1.5)
    with pytest.raises(InvalidModel):
        HyperbolicSchedule(-1.0, 0.5)
    # parameters must be finite numbers, and a bool is not a number here
    for h, r in (("a", 1.0), (None, 1.0), (float("inf"), 1.0), (float("nan"), 1.0), (True, True), (1.0, 10**400)):
        with pytest.raises(InvalidModel):
            HyperbolicSchedule(h, r)
    for values, tail in ((["a"], True), ([1.0, None], True), ([True], True), ([1.0, float("inf")], True),
                         ([], True), (1.0, True), ([1.0, 0.5], "no"), ([1.0, 0.5], 1)):
        with pytest.raises(InvalidModel):
            TabulatedSchedule(values, tail_divergent=tail)


def test_phi_is_the_phi_array_entry_bitwise():
    schedules = (
        HyperbolicSchedule(2.0, 0.5),
        HyperbolicSchedule(1.0, 0.3),
        UnitSchedule(),
        TabulatedSchedule(1.0 / np.sqrt(1.0 + np.arange(1000) / 3.0), tail_divergent=True),
    )
    for sched in schedules:
        table = sched.phi_array(0, 1000)
        assert all(sched.phi(i) == table[i] for i in range(1000))
    with pytest.raises(InvalidModel):
        UnitSchedule().phi(-1)


@pytest.mark.parametrize(
    "sched, spec, text",
    [
        (HyperbolicSchedule(1.0, 1.0), '{"family": "hyperbolic", "h": 1.0, "r": 1.0}', "HyperbolicSchedule(h=1.0, r=1.0)"),
        (UnitSchedule(), '{"family": "unit"}', "UnitSchedule()"),
        (
            TabulatedSchedule([1.0, 0.5, 0.25], tail_divergent=True),
            '{"family": "tabulated", "tail_divergent": true, "values": [1.0, 0.5, 0.25]}',
            "TabulatedSchedule(len=3, tail_divergent=True)",
        ),
    ],
    ids=["hyperbolic", "unit", "tabulated"],
)
def test_schedule_spec_round_trip_and_text(sched, spec, text):
    # the spec text is verify's "schedule:" line
    assert json.dumps(sched.to_dict(), sort_keys=True) == spec
    assert repr(sched) == text
    back = schedule_from_dict(sched.to_dict())
    assert type(back) is type(sched)
    assert (back.phi_array(0, 3) == sched.phi_array(0, 3)).all()


_SCHEDULES = (
    HyperbolicSchedule(1.5, 0.7),
    UnitSchedule(),
    TabulatedSchedule(np.linspace(1.0, 0.2, 200), tail_divergent=True),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(_SCHEDULES), st.integers(0, 100), st.integers(1, 50), st.integers(1, 50))
def test_phi_array_windows_concatenate_bitwise(sched, k, a, b):
    whole = sched.phi_array(k, a + b)
    parts = np.concatenate([sched.phi_array(k, a), sched.phi_array(k + a, b)])
    assert whole.tobytes() == parts.tobytes()


# every finite-horizon entry point reads phi over [k, k + n) through
# phi_array, so each one refuses the windows that phi_array refuses
_REF = Model(np.array([[[0.75, 0.25], [0.5, 0.5]]]), np.array([[1.0], [0.0]]))
_U = StationaryPolicy([0, 0])
_H = HyperbolicSchedule(1.0, 1.0)
_WINDOW_CALLS = {
    "exact_discounted_value": lambda k, n: exact_discounted_value(_REF, _U, _H, k, n, 0),
    "exact_risk_value": lambda k, n: exact_risk_value(_REF, _U, _H, 0.5, k, n, 0),
    "simulate": lambda k, n: simulate(_REF, _U, _H, k, n, 0, seed=1, reps=2),
    "sandwich_check": lambda k, n: sandwich_check(_REF, _U, _H, 0.5, k, n, 0),
    "risk_upper_bound_check": lambda k, n: risk_upper_bound_check(_REF, _H, 0.5, k, n, [_U]),
    "time_extended_solve": lambda k, n: time_extended_solve(_REF, _H, k, n),
    "risk_time_extended_solve": lambda k, n: risk_time_extended_solve(_REF, _H, 0.5, k, n),
    "exact_event_probability": lambda k, n: exact_event_probability(_REF.kernel[0], _H, k, n, [2.0, 1.0], 0.02, 0),
    "near_optimality_margin": lambda k, n: near_optimality_margin(_REF, _U, _H, 0.1, -0.001, k, n),
    # n is the trajectory's length here
    "weighted_empirical": lambda k, n: weighted_empirical([0, 1, 1], _H, k),
    # the audited window is [0, n + 1)
    "validate_schedule": lambda k, n: validate_schedule(_H, n),
}
_BAD_K = [(entry, "k", v) for entry in _WINDOW_CALLS if entry != "validate_schedule" for v in (2.5, True, -1)]
_BAD_N = [(entry, "n", v) for entry in _WINDOW_CALLS if entry != "weighted_empirical" for v in (2.5, True, -1, 0)]


@pytest.mark.parametrize("entry, which, value", _BAD_K + _BAD_N)
def test_finite_horizon_entry_points_refuse_bad_windows(entry, which, value):
    k, n = (value, 3) if which == "k" else (0, value)
    with pytest.raises(InvalidModel):
        _WINDOW_CALLS[entry](k, n)


@pytest.mark.parametrize("entry", list(_WINDOW_CALLS))
def test_finite_horizon_entry_points_take_numpy_integers(entry):
    _WINDOW_CALLS[entry](np.int64(1), np.int64(3))


def test_phi_array_refuses_bad_windows():
    for start, count in ((0, 0), (-1, 2), (0.5, 2), (0, 2.0), (True, 2), (0, True), ("0", 2)):
        with pytest.raises(InvalidModel, match=r"schedule window \[k, k \+ n\)"):
            UnitSchedule().phi_array(start, count)
    assert (UnitSchedule().phi_array(np.uint8(2), np.int32(3)) == 1.0).all()


# ------------------------------------------ one policy table, one index rule


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 4),
    n_actions=st.integers(1, 3),
    start=st.integers(-5, 30),
    k=st.integers(0, 30),
    n=st.integers(1, 12),
    gamma=st.sampled_from([-2.0, -0.3, 0.4, 1.5]),
    data=st.data(),
)
def test_a_one_row_table_is_the_stationary_policy(seed, n_states, n_actions, start, k, n, gamma, data):
    m = random_model(seed, n_states, n_actions)
    u = np.random.default_rng(seed).integers(0, n_actions, n_states).tolist()
    x = data.draw(st.integers(0, n_states - 1), label="x")
    stationary, one_row = StationaryPolicy(u), TimeVaryingPolicy(start, [u])
    assert exact_discounted_value(m, stationary, _H, k, n, x) == exact_discounted_value(m, one_row, _H, k, n, x)
    assert exact_risk_value(m, stationary, _H, gamma, k, n, x) == exact_risk_value(m, one_row, _H, gamma, k, n, x)
    assert (m.policy_kernel(stationary) == m.policy_kernel(one_row)).all()
    assert (m.policy_reward(stationary) == m.policy_reward(one_row)).all()


_M2 = Model(np.array([[[0.75, 0.25], [0.5, 0.5]], [[0.9, 0.1], [0.6, 0.4]]]), np.array([[1.0, 1.2], [0.0, 0.1]]))
_TWO_ROWS = TimeVaryingPolicy(0, [[0, 1], [1, 0]])
_REFUSED = {
    # fractions were truncated
    "fractional actions": lambda: StationaryPolicy([0.7, 1.9]),
    "fractional start": lambda: TimeVaryingPolicy(1.5, [[0, 1]]),
    "fractional trajectory state": lambda: weighted_empirical([0, 1.5, 1], _H, 0),
    "fractional state count": lambda: weighted_empirical([0, 1, 1], _H, 0, n_states=2.5),
    # bools and strings were read as actions
    "bool actions": lambda: StationaryPolicy([True, False]),
    "text actions": lambda: StationaryPolicy("01"),
    "bool action table": lambda: TimeVaryingPolicy(0, np.array([[True, False]])),
    "float action table": lambda: TimeVaryingPolicy(0, np.array([[0.0, 1.0]])),
    # a time-varying policy or a list raised a bare AttributeError
    "policy_kernel of two rows": lambda: _M2.policy_kernel(_TWO_ROWS),
    "policy_kernel of a list": lambda: _M2.policy_kernel([0, 1]),
    "invariant_measure of two rows": lambda: invariant_measure(_M2, _TWO_ROWS),
    "invariant_measure of a list": lambda: invariant_measure(_M2, [0, 1]),
    "poisson_solve of two rows": lambda: poisson_solve(_M2, _TWO_ROWS),
    "poisson_solve of a list": lambda: poisson_solve(_M2, [0, 1]),
    "near_optimality_margin of two rows": lambda: near_optimality_margin(_M2, _TWO_ROWS, _H, 0.1, -0.001, 0, 3),
    "near_optimality_margin of a list": lambda: near_optimality_margin(_M2, [0, 1], _H, 0.1, -0.001, 0, 3),
    # a fractional start state raised a bare IndexError
    "exact_discounted_value from x=0.5": lambda: exact_discounted_value(_M2, _U, _H, 0, 3, 0.5),
    "simulate from x=0.5": lambda: simulate(_M2, _U, _H, 0, 3, 0.5, seed=1, reps=2),
    # x=True was evaluated from state 1 and echoed as start_x=True, or raised IndexError
    "exact_discounted_value from x=True": lambda: exact_discounted_value(_M2, _U, _H, 0, 3, True),
    "exact_risk_value from x=True": lambda: exact_risk_value(_M2, _U, _H, 0.5, 0, 3, True),
    "exact_event_probability from x=True": lambda: exact_event_probability(_REF.kernel[0], _H, 0, 3, [2.0, 1.0], 0.02, True),
    # anchor=True read state 1, and anchor=0.5 raised a bare TypeError
    "relative_value_iteration anchor=True": lambda: relative_value_iteration(_M2, anchor=True),
    "relative_value_iteration anchor=0.5": lambda: relative_value_iteration(_M2, anchor=0.5),
    "time_extended_solve anchor=True": lambda: time_extended_solve(_M2, _H, 0, 3, anchor=True),
    "risk_relative_value_iteration anchor=0.5": lambda: risk_relative_value_iteration(_M2, 0.5, anchor=0.5),
}


@pytest.mark.parametrize("entry", list(_REFUSED))
def test_non_integer_policies_states_and_anchors_are_refused(entry):
    with pytest.raises(InvalidModel):
        _REFUSED[entry]()


# ------------------------------------------------- one risk-factor rule

# every entry point that divides by gamma, with the sign of gamma it admits
# (0: either sign)
_GAMMA_CALLS = {
    "exact_risk_value": (0, lambda g: exact_risk_value(_M2, _U, _H, g, 0, 5, 0)),
    "simulate": (0, lambda g: simulate(_M2, _U, _H, 0, 5, 0, seed=1, reps=2, gamma=g)),
    "risk_upper_bound_check": (1, lambda g: risk_upper_bound_check(_M2, _H, g, 0, 5, [_U])),
    "sandwich_check": (1, lambda g: sandwich_check(_M2, _U, _H, g, 0, 5, 0)),
    "near_optimality_margin": (-1, lambda g: near_optimality_margin(_M2, _U, _H, 0.1, g, 0, 5)),
    "risk_relative_value_iteration": (0, lambda g: risk_relative_value_iteration(_M2, g)),
    "multiplicative_poisson_solve": (0, lambda g: multiplicative_poisson_solve(_M2, _U, g)),
    "risk_time_extended_solve": (0, lambda g: risk_time_extended_solve(_M2, _H, g, 0, 5)),
    "perron_oracle": (0, lambda g: perron_oracle(_M2, _U, g)),
}
_GAMMA_REFUSED = (
    # True was evaluated as gamma = 1 and "0.5" raised a bare TypeError
    [(entry, g, InvalidModel) for entry in _GAMMA_CALLS for g in (float("nan"), float("inf"), True, "0.5")]
    # below the floor the evaluators divided by gamma, and 1e-300 gave values near 1e283
    + [(entry, g, GammaNotAllowed) for entry in _GAMMA_CALLS for g in (0.0, 1e-300, -1e-300, 1e-9, -1e-9)]
    # the wrong sign was InvalidModel in near_optimality_margin
    + [(entry, -0.5 * sign, GammaNotAllowed) for entry, (sign, _) in _GAMMA_CALLS.items() if sign]
)


@pytest.mark.parametrize("entry, gamma, error", _GAMMA_REFUSED)
def test_every_entry_point_that_divides_by_gamma_refuses_alike(entry, gamma, error):
    with pytest.raises(error):
        _GAMMA_CALLS[entry][1](gamma)


@pytest.mark.parametrize("entry", list(_GAMMA_CALLS))
def test_a_risk_factor_at_the_floor_is_admitted(entry):
    sign, call = _GAMMA_CALLS[entry]
    for gamma in (GAMMA_FLOOR, -GAMMA_FLOOR):
        if gamma * sign >= 0.0:
            call(gamma)


def test_the_risk_factor_rule():
    assert _risk_factor(GAMMA_FLOOR, 1) == GAMMA_FLOOR and _risk_factor(-GAMMA_FLOOR, -1) == -GAMMA_FLOOR
    assert type(_risk_factor(2, 1)) is float and type(_risk_factor(np.float32(-0.5))) is float
    with pytest.raises(GammaNotAllowed, match="need gamma > 0"):
        _risk_factor(-1.0, 1)
    with pytest.raises(GammaNotAllowed, match="need gamma < 0"):
        _risk_factor(1.0, -1)


def test_the_a_priori_bounds_are_defined_at_gamma_zero():
    # each returned nan for gamma = nan
    for bound in (risk_contraction_margin, risk_span_bound, certificate_for):
        bound(_M2, 0.0)
        for gamma in (float("nan"), True, "0.5"):
            with pytest.raises(InvalidModel):
                bound(_M2, gamma)


def test_policies_keep_their_actions_equality_and_hash():
    u = StationaryPolicy(np.array([1, 0, 2]))
    assert u.actions == (1, 0, 2) and all(type(a) is int for a in u.actions)
    assert u == StationaryPolicy([1, 0, 2]) and hash(u) == hash(StationaryPolicy((1, 0, 2)))
    assert u != StationaryPolicy([1, 0, 1]) and u != TimeVaryingPolicy(0, [[1, 0, 2]])
    assert TimeVaryingPolicy(np.int64(2), [u, [0, 0, 0]]).start == 2
    # the table is read-only and a table given as an array is copied
    rows = np.zeros((2, 3), dtype=np.int32)
    policy = TimeVaryingPolicy(0, rows)
    rows[0, 0] = 1
    assert policy.table[0, 0] == 0
    with pytest.raises(ValueError):
        policy.table[0, 0] = 1


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: StationaryPolicy([1, True]), "integer array"),
        (lambda: StationaryPolicy((1, 2.0)), "integer array"),
        (lambda: TimeVaryingPolicy(0, [[0, 1], [0]]), "integer array"),
        (lambda: StationaryPolicy([0, -1]), "out of range"),
        (lambda: StationaryPolicy((0, 2**63)), "out of range"),
        (lambda: StationaryPolicy([0, -(2**63) - 1]), "out of range"),
        (lambda: TimeVaryingPolicy(0, np.array([[0, 2**63]], dtype=np.uint64)), "out of range"),
    ],
    ids=["bool entry", "float entry", "ragged table", "negative entry", "2**63", "below int64", "uint64 2**63"],
)
def test_lists_and_tuples_keep_every_index_refusal(make, reason):
    # entries are checked by type before the int64 conversion, and an entry
    # that int64 cannot hold is out of range, not an OverflowError
    with pytest.raises(InvalidModel, match=reason):
        make()


def test_lists_and_tuples_read_as_int64_tables():
    assert StationaryPolicy((0, 2**63 - 1)).actions == (0, 2**63 - 1)
    table = TimeVaryingPolicy(0, [[np.int8(1), 0], (np.uint64(2), 1)]).table
    assert table.dtype == np.int64 and table.tolist() == [[1, 0], [2, 1]]


def test_phi_partial_sum_examples(hyperbolic, unit):
    assert phi_partial_sum(unit, 0, 7) == 7.0
    assert phi_partial_sum(hyperbolic, 0, 4) == pytest.approx(25.0 / 12.0)
    assert phi_partial_sum(hyperbolic, 5, 1) == pytest.approx(hyperbolic.phi(5))


def test_validate_hyperbolic_long(hyperbolic):
    assert validate_schedule(hyperbolic, 10_000) == []


def test_validate_unit(unit):
    assert validate_schedule(unit, 500) == []


def test_validate_tabulated_superadditivity():
    sched = TabulatedSchedule([1.0, 0.5, 0.2], tail_divergent=True)
    report = validate_schedule(sched, 2)
    assert len(report) == 1
    assert report[0].prop == "superadditivity"
    assert report[0].indices == (1, 1)


def test_validate_tabulated_divergence_flag():
    sched = TabulatedSchedule([1.0, 0.5, 0.25, 0.2], tail_divergent=False)
    props = {v.prop for v in validate_schedule(sched, 3)}
    assert "divergence" in props


def test_tabulated_out_of_range():
    sched = TabulatedSchedule([1.0, 0.5], tail_divergent=True)
    with pytest.raises(InvalidModel):
        sched.phi(2)


# ---------------------------------------------------------------- file format


def test_model_roundtrip(tmp_path, two_action_model):
    path = tmp_path / "model.json"
    save_model(two_action_model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.kernel, two_action_model.kernel)
    assert np.array_equal(loaded.reward, two_action_model.reward)
    # sorted keys, two-space indent and "\n" newlines on every platform
    text = path.read_bytes().decode("utf-8")
    assert text == json.dumps(model_to_dict(two_action_model), indent=2, sort_keys=True) + "\n"


# floats at the switches of repr's notation (1e-05, 9.99e-05, 1e+16), the
# least subnormal, -0.0 and 17-digit values
_EDGE_PROBABILITIES = [-0.0, 0.0, 5e-324, 1e-05, 9.99e-05, 0.0001, 0.30000000000000004, 0.12345678901234568]
_EDGE_REWARDS = _EDGE_PROBABILITIES + [1.0, 1e16, 9999999999999998.0, 1e300, -1e300, -2.2250738585072014e-308,
                                       1.7976931348623157e308, 1.2345678901234567e-200]


@st.composite
def _edge_models(draw):
    """1-6 states and 1-3 actions; each kernel row takes edge or arbitrary
    entries below 1/6, and one entry drawn per row makes up the rest of 1."""
    s, a = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    probability = st.one_of(st.sampled_from(_EDGE_PROBABILITIES), st.floats(0.0, 1.0 / 6.0))
    kernel = np.array(draw(st.lists(probability, min_size=a * s * s, max_size=a * s * s))).reshape(a, s, s)
    for row, rest in zip(kernel.reshape(-1, s), draw(st.lists(st.integers(0, s - 1), min_size=a * s, max_size=a * s))):
        row[rest] = 0.0
        row[rest] = 1.0 - row.sum()
    reward = st.one_of(st.sampled_from(_EDGE_REWARDS), st.floats(allow_nan=False, allow_infinity=False))
    return Model(kernel, np.array(draw(st.lists(reward, min_size=s * a, max_size=s * a))).reshape(s, a))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(model=_edge_models())
def test_save_model_writes_the_bytes_of_the_stdlib_json(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("save") / "model.json"
    save_model(model, path)
    want = json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


# the bounds of the rows _write_rows prints with orjson, entries 0 or of
# magnitude in [1e-4, 1e16), the floats on both sides of them, and
# subnormal, least normal and huge entries
_RANGE_EDGES = [9.999999999999999e-05, 1e-4, 1.0000000000000001e-04, 9999999999999998.0, 1e16, -0.0, 5e-324,
                2.2250738585072014e-308, 1e300]


@pytest.mark.parametrize("other", [0.5, 1e-05, -0.0, 1e16])
@pytest.mark.parametrize("value", _RANGE_EDGES)
def test_save_model_writes_rows_across_the_orjson_range_as_the_stdlib_json(tmp_path, value, other):
    # reward rows of the value alone and beside other, an entry in the range,
    # below it, zero or above it; kernel rows hold the value where it is a probability
    p = value if 0.0 <= value < 0.5 else 0.25
    kernel = np.tile([[p, 0.5, 0.5 - p], [0.5, 0.5 - p, p], [1.0, 0.0, 0.0]], (2, 1, 1))
    model = Model(kernel, np.array([[value, value], [value, other], [other, value]]))
    save_model(model, tmp_path / "model.json")
    want = json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "model.json").read_bytes() == want.encode("utf-8")


def test_orjson_prints_the_repr_of_doubles_in_its_range():
    # _write_rows prints a row with orjson when every entry is 0 or of
    # magnitude in [1e-4, 1e16): random bit patterns with binary exponents
    # -14..53, uniform [0, 1) values and log-uniform [1e-4, 1e16) values
    import orjson

    rng = np.random.default_rng(29)
    exponents = rng.integers(1023 - 14, 1023 + 54, size=70_000, dtype=np.uint64) << np.uint64(52)
    bits = rng.integers(0, 2**64, size=70_000, dtype=np.uint64) & ~np.uint64(0x7FF << 52) | exponents
    values = np.concatenate([bits.view(np.float64), rng.random(70_000), 10.0 ** rng.uniform(-4.0, 16.0, 70_000)])
    mag = np.abs(values)
    values = values[(mag >= 1e-4) & (mag < 1e16)].tolist()
    assert len(values) > 200_000
    assert orjson.dumps(values).decode("ascii")[1:-1].split(",") == list(map(float.__repr__, values))


def test_save_model_streams_rows(tmp_path):
    # json.dump with an indent peaks at 5.0 MB on this 4.9 MB file; a writer
    # that built the whole document first would peak near the file's size
    model = gen_model({"n_states": 200, "n_actions": 4, "min_entry": 0.001, "seed": 369571992})
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        save_model(model, tmp_path / "model.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("spec, digest", [
    # the README model
    (("3", "2", "0.05", "7"), "6e854c8ff588b625115e5bcf2cc307cd7d1130ee93651e253495aadd55282f80"),
    # perfbench's solve-large model at seed 7
    (("200", "4", "0.001", "369571992"), "92580c06d3a80b67e553e6f6a252d85b37993c98840c71a598deac823929e685"),
])
def test_gen_model_files_are_pinned(tmp_path, spec, digest):
    # digests of the stdlib's json.dump(indent=2, sort_keys=True) output plus "\n"
    states, actions, min_entry, seed = spec
    argv = ["gen-model", "--states", states, "--actions", actions, "--min-entry", min_entry, "--seed", seed]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == digest


def _random_float_literals(rng, count: int) -> list:
    """count finite floats of random bit patterns, written alternately as %.17g and repr."""
    bits = rng.integers(0, 2**64, size=4 * count, dtype=np.uint64)
    values = [v for v in bits.view(np.float64).tolist() if math.isfinite(v)][:count]
    return [repr(v) if i % 2 else "%.17g" % v for i, v in enumerate(values)]


def _document(kernel: list, reward: list) -> str:
    """A model document from nested lists of number literals."""
    def array(x):
        return "[" + ", ".join(map(array, x)) + "]" if isinstance(x, list) else x

    sizes = f'"n_states": {len(reward)}, "n_actions": {len(reward[0])}'
    return f'{{{sizes}, "kernel": {array(kernel)}, "reward": {array(reward)}}}'


def _literal_documents() -> list:
    """Documents of hand-picked hard decimals: subnormals, -0.0, 17 and 25 digits, exponents near +-308."""
    edge = ["5e-324", "-5e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "2.2250738585072009e-308",
            "2.2250738585072014e-308", "1e-307", "-0.0", "0.0", "1e308", "9.99999999999999999999999e307",
            "1.7976931348623157e308", "-1.7976931348623157e308", "0.1000000000000000055511151231257827",
            "0.3333333333333333333333333", "1.0000000000000002220446049250313", "12345678901234567890123456789e-300"]
    rows = [["5e-324", "1.0"], ["-0.0", "1.0"], ["0.33333333333333331", "0.66666666666666674"],
            ["0.3333333333333333333333333", "0.6666666666666666666666667"],
            ["0.1000000000000000055511151231257827", "0.8999999999999999944488848768742173"],
            ["2.2250738585072014e-308", "0.99999999999999999999999999"]]
    random = _random_float_literals(np.random.default_rng(27), 400)
    docs = [_document([[row, row]], [[edge[i]], [edge[-1 - i]]]) for i, row in enumerate(rows)]
    # one state, one action per value: every literal lands in the reward table
    docs += [_document([[["1.0"]]] * len(values), [values]) for values in (edge, random)]
    return docs


@pytest.mark.parametrize("source", ["gen_model", "literals"])
def test_load_model_reads_the_floats_of_the_stdlib_parser(tmp_path, source):
    # load_model parses with orjson; every kernel and reward entry must be the
    # float the stdlib json module reads, bit for bit
    if source == "gen_model":
        texts = []
        for seed, (s, a, min_entry) in enumerate([(3, 2, 0.05), (17, 3, 0.001), (40, 4, 1e-9)]):
            save_model(gen_model({"n_states": s, "n_actions": a, "min_entry": min_entry, "seed": seed}),
                       tmp_path / "m.json")
            texts.append((tmp_path / "m.json").read_text(encoding="utf-8"))
    else:
        texts = _literal_documents()
    for text in texts:
        (tmp_path / "m.json").write_text(text, encoding="utf-8")
        got, want = load_model(tmp_path / "m.json"), model_from_dict(json.loads(text))
        assert np.array_equal(got.kernel.view(np.uint64), want.kernel.view(np.uint64))
        assert np.array_equal(got.reward.view(np.uint64), want.reward.view(np.uint64))


@pytest.mark.parametrize("text", [
    '{"n_states": 1, "n_actions": 1, "kernel": [[[1.0]]], "reward": [[NaN]]}',
    '{"n_states": 1, "n_actions": 1, "kernel": [[[1.0]]], "reward": [[-Infinity]]}',
    '\ufeff{"n_states": 1, "n_actions": 1, "kernel": [[[1.0]]], "reward": [[0.0]]}',
    '{"n_states": 1, "n_actions": 1, "kernel": [[[1.0]]], "reward": [[0.0]]',
])
def test_load_model_reads_strict_json(tmp_path, text):
    (tmp_path / "m.json").write_text(text, encoding="utf-8")
    with pytest.raises(InvalidModel, match="not valid JSON"):
        load_model(tmp_path / "m.json")


@pytest.mark.parametrize("text, depth", [
    ("", 0), ("1", 0), ("[]", 1), ('{"a": [[1], {"b": []}]}', 4), ('"[[[["', 0), ('["]]]]", [[]]]', 3),
    ('{"a\\": [[1]]}', 3), ('{"a\\\"[[[": [[1]]}', 3), ('["\\\\", "\\u005b[", [["\\"]]]', 3),
])
def test_nesting_depth_skips_strings(text, depth):
    assert longrun.model._nesting_depth(text.encode()) == depth


def test_load_model_refuses_nesting_past_the_limit(tmp_path):
    limit = longrun.model._MAX_NESTING
    for inner in ("[" * limit + "]" * limit, '[{"a": ' * (limit // 2) + "1" + "}]" * (limit // 2)):
        (tmp_path / "m.json").write_text(inner, encoding="utf-8")
        with pytest.raises(InvalidModel, match="must be a JSON object"):  # parsed, then refused as a model
            load_model(tmp_path / "m.json")
        (tmp_path / "m.json").write_text("[" + inner + "]", encoding="utf-8")
        with pytest.raises(InvalidModel, match=f"nests {limit + 1} levels deep"):
            load_model(tmp_path / "m.json")


def test_model_dict_rejects_unknown_fields(reference_model):
    data = model_to_dict(reference_model)
    data["extra"] = 1
    with pytest.raises(InvalidModel):
        model_from_dict(data)


def test_model_dict_rejects_mismatched_counts(reference_model):
    data = model_to_dict(reference_model)
    data["n_states"] = 3
    with pytest.raises(InvalidModel):
        model_from_dict(data)


@pytest.mark.parametrize("field, value", [("n_states", 2.7), ("n_states", "2"), ("n_actions", True), ("n_states", 2.0)])
def test_model_dict_rejects_non_integer_counts(reference_model, field, value):
    # int() used to turn each of these into the right count
    data = model_to_dict(reference_model)
    data[field] = value
    with pytest.raises(InvalidModel, match="must be integers"):
        model_from_dict(data)


def test_schedule_spec_parsing():
    sched = schedule_from_dict({"family": "hyperbolic", "h": 2.0, "r": 1.0})
    assert isinstance(sched, HyperbolicSchedule)
    assert isinstance(schedule_from_dict({"family": "unit"}), UnitSchedule)
    tab = schedule_from_dict({"family": "tabulated", "values": [1.0, 0.9], "tail_divergent": True})
    assert isinstance(tab, TabulatedSchedule)
    with pytest.raises(InvalidModel):
        schedule_from_dict({"family": "unit", "h": 1.0})
    with pytest.raises(InvalidModel):
        schedule_from_dict({"family": "geometric"})
    with pytest.raises(InvalidModel):
        schedule_from_dict({"family": "tabulated", "values": [1.0]})
