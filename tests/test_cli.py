import json
import os

import numpy as np
import pytest

from longrun import density_bounds, ergodicity_coefficient, load_model
from longrun.cli import gen_model, main, parse_schedule_arg
from longrun.errors import ConfigError


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ------------------------------------------------------------------ gen-model


def test_gen_model_is_deterministic():
    spec = {"n_states": 3, "n_actions": 2, "min_entry": 0.05, "seed": 11}
    a = gen_model(spec)
    b = gen_model(spec)
    assert np.array_equal(a.kernel, b.kernel)
    assert np.array_equal(a.reward, b.reward)
    c = gen_model({**spec, "seed": 12})
    assert not np.array_equal(a.kernel, c.kernel)


def test_gen_model_passes_density_bounds():
    m = gen_model({"n_states": 2, "n_actions": 1, "min_entry": 0.25, "seed": 3})
    b = density_bounds(m)
    assert b.m <= 2.0 + 1e-12
    assert ergodicity_coefficient(m) <= 0.5 + 1e-12


def test_gen_model_min_entry_floor():
    m = gen_model({"n_states": 4, "n_actions": 3, "min_entry": 0.02, "seed": 0})
    assert m.kernel.min() >= 0.02 - 1e-15


def test_gen_model_infeasible():
    with pytest.raises(ConfigError):
        gen_model({"n_states": 4, "n_actions": 1, "min_entry": 0.3, "seed": 0})
    with pytest.raises(ConfigError):
        gen_model({"n_states": 2, "n_actions": 1, "min_entry": 0.25, "seed": 0, "bogus": 1})


def test_gen_model_cli_writes_identical_files(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05", "--seed", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert read(out1 / "model.json") == read(out2 / "model.json")
    mdl = load_model(out1 / "model.json")
    assert mdl.n_states == 3


# ------------------------------------------------------------------- parsing


def test_parse_schedule_arg():
    assert parse_schedule_arg("unit") == {"family": "unit"}
    assert parse_schedule_arg("hyperbolic:1,0.5") == {"family": "hyperbolic", "h": 1.0, "r": 0.5}
    assert parse_schedule_arg('{"family": "unit"}') == {"family": "unit"}
    with pytest.raises(ConfigError):
        parse_schedule_arg("geometric:0.9")


def test_malformed_config_exits_2(tmp_path, capsys, model_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"task": "verify", "bogus_field": 1}), encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 2
    for flag in ("--gammas=a,b", "--horizons=1,x"):
        assert main(["sweep-gamma", flag, "--out", str(tmp_path)]) == 2
    out = ["--model", model_file, "--out", str(tmp_path / "o")]
    for task in ("solve-average", "solve-risk"):
        assert main([task, "--tol", "nan"] + out) == 2
    # an empty panel would make the risk upper-bound check pass vacuously
    for size in ("0", "-1"):
        assert main(["verify", "--panel-size", size, "--horizons", "10"] + out) == 2
    for task, doc in (
        ("solve-risk", {"gamma": "abc"}),
        ("solve-average", {"tol": "abc"}),
        ("ldp-check", {"kappa": "z"}),
        ("sweep-gamma", {"gammas": "a"}),
        ("evaluate", {"horizons": ["x"]}),
        ("solve-average", {"window": "abc", "schedule": {"family": "hyperbolic", "h": 1.0, "r": 1.0}}),
    ):
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main([task, "--config", str(cfg)] + out) == 2
    for schedule in (
        {"family": "hyperbolic", "h": "a", "r": 1.0},
        {"family": "hyperbolic", "h": None, "r": 1.0},
        {"family": "hyperbolic", "h": float("inf"), "r": 1.0},
        {"family": "hyperbolic", "h": True, "r": True},
        {"family": "tabulated", "values": ["a"], "tail_divergent": True},
        {"family": "tabulated", "values": [1.0, 0.5], "tail_divergent": "no"},
    ):
        cfg.write_text(json.dumps({"schedule": schedule}), encoding="utf-8")
        for task in ("solve-average", "evaluate", "ldp-check"):
            assert main([task, "--config", str(cfg)] + out) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_missing_model_exits_2(tmp_path, capsys):
    assert main(["solve-average", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    # a model file that exists but is not a model is a usage error as well
    bad = tmp_path / "bad.json"
    for text in (
        '{"n_states": 2, "n_actions": 1, "kernel": [[["a", 0.5], [0.5, 0.5]]], "reward": [[1.0], [0.0]]}',
        '{"n_states": 2, "n_actions": 1, "kernel": [[[0.5, 0.5], [1.0]]], "reward": [[1.0], [0.0]]}',
        "{not json",
    ):
        bad.write_text(text, encoding="utf-8")
        assert main(["solve-average", "--model", str(bad), "--out", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "task": "gen-model",
                "model": {"generator": {"n_states": 2, "n_actions": 1, "min_entry": 0.25, "seed": 9}},
                "out": str(tmp_path / "from_config"),
            }
        ),
        encoding="utf-8",
    )
    assert main(["gen-model", "--out", str(tmp_path / "from_flag"), "--config", str(cfg)]) == 0
    assert os.path.exists(tmp_path / "from_config" / "model.json")
    assert not os.path.exists(tmp_path / "from_flag")


# --------------------------------------------------------------------- tasks


@pytest.fixture
def model_file(tmp_path):
    out = tmp_path / "gen"
    assert main(["gen-model", "--states", "2", "--actions", "2", "--min-entry", "0.2",
                 "--seed", "7", "--out", str(out)]) == 0
    return str(out / "model.json")


def test_solve_average_single_state(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps({"n_states": 1, "n_actions": 2, "kernel": [[[1.0]], [[1.0]]], "reward": [[0.3, 0.7]]}),
        encoding="utf-8",
    )
    out = tmp_path / "o"
    assert main(["solve-average", "--model", str(path), "--out", str(out)]) == 0
    text = read(out / "report.txt")
    assert "lambda: 0.7" in text


def test_solve_average_with_schedule_emits_csv(model_file, tmp_path):
    out = tmp_path / "avg"
    assert main(["solve-average", "--model", model_file, "--schedule", "hyperbolic:1,1",
                 "--out", str(out)]) == 0
    lines = read(out / "lambda_tilde.csv").splitlines()
    assert lines[0] == "i,phi_i,lambda_tilde_i"
    assert len(lines) > 1


def test_solve_risk_report(model_file, tmp_path):
    out = tmp_path / "risk"
    assert main(["solve-risk", "--model", model_file, "--gamma", "0.5", "--out", str(out)]) == 0
    text = read(out / "report.txt")
    assert "gamma: 0.5" in text
    assert "certificate: equivalence" in text


def test_solve_risk_gamma_zero_exits_3(model_file, tmp_path):
    assert main(["solve-risk", "--model", model_file, "--gamma", "0", "--out", str(tmp_path / "z")]) == 3


def test_not_ergodic_exits_3(tmp_path):
    path = tmp_path / "per.json"
    path.write_text(
        json.dumps({"n_states": 2, "n_actions": 1, "kernel": [[[0.0, 1.0], [1.0, 0.0]]],
                    "reward": [[1.0], [0.0]]}),
        encoding="utf-8",
    )
    assert main(["solve-average", "--model", str(path), "--out", str(tmp_path / "o")]) == 3


def test_evaluate_task(model_file, tmp_path):
    out = tmp_path / "ev"
    assert main(["evaluate", "--model", model_file, "--schedule", "hyperbolic:1,1",
                 "--gamma", "0.5", "--horizons", "10,100", "--out", str(out)]) == 0
    lines = read(out / "timeseries.csv").splitlines()
    assert lines[0] == "n,J_n,bound"
    assert len(lines) == 3
    assert "risk_value[+gamma]" in read(out / "report.txt")


def test_sweep_gamma_task(model_file, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep-gamma", "--model", model_file, "--gammas=-0.5,0.5", "--out", str(out)]) == 0
    lines = read(out / "sweep.csv").splitlines()
    assert lines[0] == "gamma,lambda,certificate,residual"
    assert len(lines) == 4  # two gammas plus the zero row
    lams = [float(l.split(",")[1]) for l in lines[1:]]
    assert lams == sorted(lams)


def test_ldp_check_task(model_file, tmp_path):
    out = tmp_path / "ldp"
    assert main(["ldp-check", "--model", model_file, "--schedule", "hyperbolic:1,1",
                 "--kappa", "0.02", "--out", str(out)]) == 0
    lines = read(out / "decay.csv").splitlines()
    assert lines[0] == "n,sum_phi,Q_exact,bound,normalized_log_Q"
    assert "result: PASS" in read(out / "report.txt")


def test_ldp_check_margin_with_negative_gamma(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(
        json.dumps({"n_states": 2, "n_actions": 1, "kernel": [[[0.75, 0.25], [0.5, 0.5]]],
                    "reward": [[1.0], [0.0]]}),
        encoding="utf-8",
    )
    out = tmp_path / "m"
    code = main(["ldp-check", "--model", str(path), "--schedule", "hyperbolic:1,1",
                 "--gamma=-0.003", "--epsilon", "0.1", "--horizon", "500", "--out", str(out)])
    assert code == 0
    text = read(out / "report.txt")
    assert "margin_rate_infimum" in text
    assert "result: PASS" in text


def test_verify_reference_model(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(
        json.dumps({"n_states": 2, "n_actions": 1, "kernel": [[[0.75, 0.25], [0.5, 0.5]]],
                    "reward": [[1.0], [0.0]]}),
        encoding="utf-8",
    )
    out = tmp_path / "v"
    code = main(["verify", "--model", str(path), "--schedule", "hyperbolic:1,1",
                 "--horizons", "50,200", "--panel-size", "20", "--seed", "1", "--out", str(out)])
    assert code == 0
    text = read(out / "report.txt")
    assert "result: PASS" in text
    assert text.count("PASS") == 8  # seven checks plus the summary


def test_verify_reports_are_byte_identical(model_file, tmp_path):
    outs = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        code = main(["verify", "--model", model_file, "--schedule", "hyperbolic:1,1",
                     "--horizons", "50,200", "--panel-size", "15", "--seed", "3", "--out", str(out)])
        assert code == 0
        outs.append(read(out / "report.txt"))
    assert outs[0] == outs[1]
