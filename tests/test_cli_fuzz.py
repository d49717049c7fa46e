"""Property test of the command line's input path: whatever a config file
holds, main returns a documented exit code and raises nothing."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun.cli import gen_model, main
from longrun.model import save_model

# malformed and edge values; a broken field draws one of them
POOL = [None, True, False, "abc", [], ["a"], [math.nan], [-1], [2.5], {}, {"a": 1},
        -1, 0, 2.5, math.nan, math.inf, -math.inf, 1e308]
BAD_SOURCES = [{"path": 5}, {"path": ["a"]}, {"path": None}, {"path": "missing.json"}, {"path": "x", "generator": {}}]

# one valid value per field, small enough that every run is quick
VALID = {
    "schedule": {"family": "hyperbolic", "h": 1.0, "r": 1.0},
    "gamma": -0.05, "gammas": [-0.5, 0.5], "k": 1, "x": 1, "horizon": 12, "horizons": [5, 12],
    "epsilon": 0.1, "tol": 1e-9, "seed": 3, "panel_size": 4, "f": [2.0, 1.0], "kappa": 0.02,
    "n_grid": [4, 6], "reps": 2, "window": 8,
}
GENERATOR = {"n_states": 2, "n_actions": 2, "min_entry": 0.2, "seed": 5}
TASKS = ("solve-average", "solve-risk", "evaluate", "ldp-check", "sweep-gamma", "gen-model")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_model(gen_model(GENERATOR), root / "model.json")
    return root


@st.composite
def configs(draw, model_path: str):
    """A valid config for a 2x2 model with one to three fields broken: a
    config field, the model source, or one generator field."""
    doc = {name: valid for name, valid in VALID.items() if draw(st.booleans())}
    doc["model"] = draw(st.sampled_from([model_path, {"generator": GENERATOR}]))
    for name in draw(st.lists(st.sampled_from(sorted(VALID) + ["model", "generator"]), min_size=1, max_size=3, unique=True)):
        if name == "model":
            doc["model"] = draw(st.sampled_from(POOL + BAD_SOURCES))
        elif name == "generator":
            field = draw(st.sampled_from(sorted(GENERATOR)))
            doc["model"] = {"generator": {**GENERATOR, field: draw(st.sampled_from(POOL))}}
        else:
            doc[name] = draw(st.sampled_from(POOL))
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_any_config_exits_with_a_documented_code(workdir, data):
    task = data.draw(st.sampled_from(TASKS))
    doc = data.draw(configs(str(workdir / "model.json")))
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main([task, "--config", str(cfg), "--out", str(workdir / "out")]) in (0, 1, 2, 3)
