import numpy as np
import pytest

from longrun import HyperbolicSchedule, Model, StationaryPolicy, UnitSchedule
from longrun.cli import gen_model


@pytest.fixture
def reference_model():
    """Two states, one action, P = [[0.75, 0.25], [0.5, 0.5]], c = (1, 0).

    Hand-solved: invariant measure (2/3, 1/3), gain 2/3, relative value
    (4/3, 0), ergodicity coefficient 0.25, density bound 2, row ratio 2.
    """
    kernel = np.array([[[0.75, 0.25], [0.5, 0.5]]])
    reward = np.array([[1.0], [0.0]])
    return Model(kernel, reward)


@pytest.fixture
def reference_policy():
    return StationaryPolicy([0, 0])


@pytest.fixture
def uniform_model():
    kernel = np.array([[[0.5, 0.5], [0.5, 0.5]]])
    reward = np.array([[1.0], [0.0]])
    return Model(kernel, reward)


@pytest.fixture
def two_action_model():
    """Two states, two actions; action 1 prefers state 0 and pays more there."""
    kernel = np.array(
        [
            [[0.75, 0.25], [0.5, 0.5]],
            [[0.9, 0.1], [0.6, 0.4]],
        ]
    )
    reward = np.array([[1.0, 1.2], [0.0, 0.1]])
    return Model(kernel, reward)


@pytest.fixture
def hyperbolic():
    return HyperbolicSchedule(1.0, 1.0)


@pytest.fixture
def unit():
    return UnitSchedule()


def random_model(seed: int, n_states: int = 3, n_actions: int = 2, min_entry: float = 0.05) -> Model:
    """Seeded random model with all kernel entries at least min_entry."""
    rng = np.random.default_rng(seed)
    g = rng.random((n_actions, n_states, n_states))
    kernel = min_entry + (1.0 - n_states * min_entry) * (g / g.sum(axis=2, keepdims=True))
    reward = rng.random((n_states, n_actions))
    return Model(kernel, reward)


def readme_model() -> Model:
    """The README model: gen-model --states 3 --actions 2 --min-entry 0.05 --seed 7."""
    return gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 7})


def deviation_kernel(seed: int, copy: int = 0) -> np.ndarray:
    """The kernel that the deviation benchmark's model copy audits at a
    workload seed (model seed SeedSequence([seed, 3] + [copy if nonzero]))."""
    entropy = [seed, 3] + ([copy] if copy else [])
    model_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    model = gen_model({"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": model_seed})
    return model.policy_kernel(StationaryPolicy([0, 0, 0]))
