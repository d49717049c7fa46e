"""Invariances the paper's long-run gains obey on every ergodic model,
checked as derandomized properties on random models: a reward shift, a
joint scaling of reward and risk factor, and a relabelling of the states.

Tolerances come from the solvers' stopping rules, fixed beforehand: the
average solver certifies a span distance of at most tol to the fixed-point
class, so min-0 relative values of two solves differ by at most 2 tol and
gains by at most their span residuals; a risk solve's gain is within its
residual / |gamma| of the exact one (the log-space operator is monotone
and commutes with constants), and 1e-12 covers the rounding of one sweep.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun import Model, relative_value_iteration, risk_relative_value_iteration

from conftest import random_model

TOL = 1e-10
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)

models = st.builds(
    random_model,
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(2, 5),
    n_actions=st.integers(1, 3),
    min_entry=st.sampled_from([0.01, 0.05, 0.15]),
)


@PROPERTY
@given(model=models, shift=st.floats(-5.0, 5.0))
def test_a_reward_shift_moves_the_gain_and_keeps_the_relative_values(model, shift):
    base = relative_value_iteration(model, tol=TOL)
    moved = relative_value_iteration(Model(model.kernel, model.reward + shift), tol=TOL)
    assert abs(moved.lam - (base.lam + shift)) <= base.residual + moved.residual + 1e-12
    assert np.abs(moved.w - base.w).max() <= 2 * TOL + 1e-12


@PROPERTY
@given(model=models, gamma=st.sampled_from([-1.0, -0.3, 0.2, 1.0]), a=st.floats(0.25, 4.0))
def test_scaling_the_reward_scales_the_risk_gain_at_the_scaled_factor(model, gamma, a):
    # lambda_gamma(a c) = a lambda_(a gamma)(c): both are (1/gamma) ln rho(P e^(gamma a c))
    scaled = risk_relative_value_iteration(Model(model.kernel, a * model.reward), gamma, tol=TOL)
    base = risk_relative_value_iteration(model, a * gamma, tol=TOL)
    err = (scaled.residual + base.residual) / abs(gamma) + 1e-12
    assert abs(scaled.lam - a * base.lam) <= err


@PROPERTY
@given(model=models, data=st.data())
def test_relabelling_the_states_permutes_the_relative_values_and_the_policy(model, data):
    s = model.n_states
    perm = np.array(data.draw(st.permutations(range(s))))
    # new state perm[x] is old state x
    kernel = np.empty_like(model.kernel)
    kernel[:, perm[:, None], perm[None, :]] = model.kernel
    reward = np.empty_like(model.reward)
    reward[perm] = model.reward
    base = relative_value_iteration(model, tol=TOL)
    moved = relative_value_iteration(Model(kernel, reward), tol=TOL)
    assert abs(moved.lam - base.lam) <= base.residual + moved.residual + 1e-12
    assert np.abs(moved.w[perm] - base.w).max() <= 2 * TOL + 1e-12
    assert (np.asarray(moved.policy.actions)[perm] == np.asarray(base.policy.actions)).all()
