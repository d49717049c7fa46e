import json
import math

import numpy as np
import pytest

from longrun import (
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
    deviation_rate_infimum,
    gamma_sweep,
    ldp_upper_bound_check,
    phi_partial_sum,
    poisson_solve,
    risk_contraction_margin,
    span_seminorm,
    stationary_distribution,
    validate_schedule,
)
import longrun.model
from longrun.cli import gen_model, main
from longrun.model import load_model, model_from_dict, model_to_dict, save_model, schedule_from_dict

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
        StationaryPolicy([0, 5]).check_against(reference_model)
    with pytest.raises(InvalidModel):
        StationaryPolicy([0]).check_against(reference_model)
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
        assert ergodicity_coefficient(m) == best
        assert m.ergodicity == best


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
