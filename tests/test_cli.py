import json
import os
import subprocess
import sys

import numpy as np
import pytest

import longrun.average_solver
import longrun.cli
import longrun.evaluator
import longrun.ldp
from longrun import density_bounds, ergodicity_coefficient, load_model
from longrun.cli import gen_model, main, parse_schedule_arg
from longrun.errors import CheckFailed, ConfigError
from longrun.ldp import MarginReport


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package and its CLI run on numpy
    code = "import longrun, sys; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_orjson_is_imported_only_to_read_or_write_a_model_file(tmp_path):
    # its import (about 8 ms) stays off `import longrun`; gen-model writes its file with it
    code = (
        "import sys, longrun, longrun.cli\n"
        "seen = ['orjson' in sys.modules]\n"
        "assert longrun.cli.main(['gen-model', '--states', '3', '--out', sys.argv[1]]) == 0\n"
        "seen.append('orjson' in sys.modules)\n"
        "longrun.load_model(sys.argv[1] + '/model.json')\n"
        "seen.append('orjson' in sys.modules)\n"
        "print(seen)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[False, True, True]"


def test_a_deeply_nested_model_file_exits_2(tmp_path):
    # orjson overflows the C stack on such files; load_model refuses them before it parses
    for name, text in (("lists", "[" * 1_000_000 + "]" * 1_000_000),
                       ("objects", '{"a": ' * 100_000 + "1" + "}" * 100_000),
                       ("mixed", '[{"a": ' * 100_000 + "1" + "}]" * 100_000)):
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
        out = subprocess.run([sys.executable, "-m", "longrun.cli", "solve-average", "--model",
                              str(tmp_path / f"{name}.json"), "--out", str(tmp_path / "o")],
                             env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
        assert out.returncode == 2, name
        assert "levels deep" in out.stderr and "Traceback" not in out.stderr


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


@pytest.mark.parametrize("sizes", [["--states", "0", "--actions", "2"], ["--states", "3", "--actions", "0"],
                                   ["--states", "0"], ["--actions", "0"]])
def test_gen_model_refuses_a_zero_size_with_exit_2(tmp_path, capsys, sizes):
    # a size given as 0 is refused, not replaced by its default
    assert main(["gen-model", *sizes, "--out", str(tmp_path / "g")]) == 2
    assert "generator needs at least one state and one action" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


# ------------------------------------------------------------------- parsing


@pytest.mark.parametrize("argv", [
    ["--help"], *([task, "--help"] for task in longrun.cli.TASKS),
    [], ["nope"], ["solve-average", "--bogus"], ["--bogus", "solve-risk", "--gamma", "0.5"],
    ["--", "gen-model", "--states", "x"], ["-1", "gen-model"], ["evaluate", "--out", "gen-model", "--horizon"],
])
def test_the_parser_prints_the_text_of_the_parser_with_every_task_filled(capsys, argv):
    # main fills only the invoked task's subparser with flags: its help,
    # usage and errors are those of the parser that fills all seven
    code = main(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        longrun.cli._build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == ((2 if exc.value.code else 0), want.out, want.err)
    assert got.out or got.err


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
    cfg.write_bytes(b'{"gamma": "\xff"}')  # not UTF-8
    assert main(["verify", "--config", str(cfg)]) == 2
    # nesting past the stdlib parser's recursion limit is a usage error, not a RecursionError traceback
    cfg.write_text("[" * 100_000, encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert main(["solve-average", "--schedule", '{"h": ' + "[" * 100_000, "--model", model_file,
                 "--out", str(tmp_path / "o")]) == 2
    # an empty list flag is refused, not read as the default
    for flag in ("--gammas=a,b", "--horizons=1,x", "--gammas=", "--horizons="):
        assert main(["sweep-gamma", flag, "--out", str(tmp_path)]) == 2
    out = ["--model", model_file, "--out", str(tmp_path / "o")]
    for task in ("solve-average", "solve-risk"):
        assert main([task, "--tol", "nan"] + out) == 2
    # non-finite numbers and negative seeds are usage errors, never a failed check
    for task, flags in (
        ("solve-risk", ["--gamma", "nan"]),
        ("solve-risk", ["--gamma", "inf"]),
        ("ldp-check", ["--kappa", "nan"]),
        ("ldp-check", ["--kappa=-1000"]),
        ("ldp-check", ["--gamma=-0.003", "--epsilon", "nan"]),
        ("ldp-check", ["--gamma=-0.003", "--epsilon", "inf"]),
        ("verify", ["--seed=-1"]),
        ("ldp-check", ["--seed=-1"]),
        ("sweep-gamma", ["--gammas=0.5,nan"]),
    ):
        assert main([task] + flags + out) == 2
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
        ("solve-risk", {"gamma": float("nan")}),
        ("solve-risk", {"gamma": 10**400}),
        ("ldp-check", {"f": [2.0, float("inf")]}),
        ("evaluate", {"seed": -1, "reps": 2}),
        ("solve-average", {"out": 5}),
        ("solve-average", {"task": ["solve-average"]}),
        # phi vanishes on the window [1, 3): the decay column divided by zero
        ("ldp-check", {"schedule": {"family": "tabulated", "values": [1.0, 0.0, 0.0], "tail_divergent": True},
                       "k": 1, "n_grid": [2]}),
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
    # generator specs go through the same numeric checks
    for field, value in (("n_states", "abc"), ("n_states", 2.7), ("min_entry", "x"), ("min_entry", float("nan")),
                         ("seed", -1)):
        spec = {"n_states": 2, "n_actions": 1, "min_entry": 0.1, "seed": 0, field: value}
        cfg.write_text(json.dumps({"model": {"generator": spec}}), encoding="utf-8")
        for task in ("gen-model", "solve-average"):
            assert main([task, "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2
    assert main(["gen-model", "--states", "2", "--seed=-1", "--out", str(tmp_path / "g")]) == 2
    # an output directory that cannot be made is a usage error
    assert main(["solve-average", "--model", model_file, "--out", model_file]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("task, field", [("ldp-check", "f"), ("ldp-check", "n_grid"),
                                         ("evaluate", "horizons"), ("sweep-gamma", "gammas")])
def test_empty_config_list_exits_2(tmp_path, capsys, model_file, task, field):
    # an empty list is refused as the flag form --gammas= is, never read as the default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: []}), encoding="utf-8")
    assert main([task, "--config", str(cfg), "--model", model_file, "--out", str(tmp_path / "o")]) == 2
    assert f"{field} must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_model_exits_2(tmp_path, capsys):
    assert main(["solve-average", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    # a model file that exists but is not a model is a usage error as well
    bad = tmp_path / "bad.json"
    for text in (
        '{"n_states": 2, "n_actions": 1, "kernel": [[["a", 0.5], [0.5, 0.5]]], "reward": [[1.0], [0.0]]}',
        '{"n_states": 2, "n_actions": 1, "kernel": [[[0.5, 0.5], [1.0]]], "reward": [[1.0], [0.0]]}',
        # a declared size is an integer, not a number that int() truncates to one
        '{"n_states": 2.5, "n_actions": 1, "kernel": [[[0.5, 0.5], [0.5, 0.5]]], "reward": [[1.0], [0.0]]}',
        "{not json",
        "[" * 100_000,
        # model files are strict JSON: no NaN or Infinity literal, no byte order mark
        '{"n_states": 2, "n_actions": 1, "kernel": [[[0.5, 0.5], [0.5, 0.5]]], "reward": [[NaN], [0.0]]}',
        '{"n_states": 2, "n_actions": 1, "kernel": [[[0.5, 0.5], [0.5, 0.5]]], "reward": [[Infinity], [0.0]]}',
        '\ufeff{"n_states": 2, "n_actions": 1, "kernel": [[[0.5, 0.5], [0.5, 0.5]]], "reward": [[1.0], [0.0]]}',
        # an integer past 64 bits is read as a float, which no size is
        '{"n_states": 18446744073709551616, "n_actions": 1, "kernel": [[[0.5, 0.5], [0.5, 0.5]]],'
        ' "reward": [[1.0], [0.0]]}',
    ):
        bad.write_text(text, encoding="utf-8")
        assert main(["solve-average", "--model", str(bad), "--out", str(tmp_path)]) == 2
    # a path that is not a string: an int would be read as an open file
    # descriptor (0 is standard input, 2 standard error)
    cfg = tmp_path / "cfg.json"
    for path in (0, 1, 2, ["a"], None, str(tmp_path)):
        cfg.write_text(json.dumps({"model": {"path": path}}), encoding="utf-8")
        assert main(["solve-average", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "Traceback" not in capsys.readouterr().err


SIZE_CAPS = {"horizon": 100_000, "horizons": 100_000, "n_grid": 100_000, "window": 10_000, "panel_size": 1_000,
             "reps": 10_000, "n_states": 500, "n_actions": 10}


def test_sizes_above_their_caps_exit_2(tmp_path, capsys, model_file):
    assert longrun.cli._SIZE_CAPS == SIZE_CAPS  # the values the README documents
    out = ["--model", model_file, "--out", str(tmp_path / "o")]
    cfg = tmp_path / "cfg.json"
    for task, doc in (
        ("ldp-check", {"gamma": -0.01, "horizon": 100_001}),
        ("evaluate", {"horizons": [10, 100_001]}),
        ("solve-average", {"window": 10_001, "schedule": {"family": "hyperbolic", "h": 1.0, "r": 1.0}}),
        ("verify", {"panel_size": 1_001}),
        ("evaluate", {"reps": 10_001, "horizons": [10]}),
    ):
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main([task, "--config", str(cfg)] + out) == 2
    assert main(["evaluate", "--horizon", "100001"] + out) == 2
    assert main(["verify", "--horizons", "10,100001"] + out) == 2
    assert main(["verify", "--panel-size", "1001"] + out) == 2
    for field, value in (("n_states", 501), ("n_actions", 11)):
        spec = {"n_states": 2, "n_actions": 1, "min_entry": 0.001, "seed": 0, field: value}
        cfg.write_text(json.dumps({"model": {"generator": spec}}), encoding="utf-8")
        for task in ("gen-model", "solve-average"):
            assert main([task, "--config", str(cfg), "--out", str(tmp_path / "g")]) == 2
    assert main(["gen-model", "--states", "501", "--out", str(tmp_path / "g")]) == 2
    assert main(["gen-model", "--states", "2", "--actions", "11", "--out", str(tmp_path / "g")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "n_actions must be at most 10, got 11" in err
    # a value at its cap passes the check
    longrun.cli._check_numeric_fields({"horizon": 100_000, "horizons": [1, 100_000], "window": 10_000,
                                       "panel_size": 1_000, "reps": 10_000})
    longrun.cli._check_numeric_fields({"n_states": 500, "n_actions": 10, "min_entry": 0.001, "seed": 0},
                                      longrun.cli._GENERATOR_FIELDS)


def test_verify_refuses_a_panel_above_its_entry_cap_with_exit_2(tmp_path, capsys, model_file):
    # each field is under its cap, but 1000 policies x 67109 slices x 2
    # states is just over the panel's 2^27 action entries
    out = ["--model", model_file, "--out", str(tmp_path / "o")]
    assert main(["verify", "--panel-size", "1000", "--horizons", "67109"] + out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "exceeds 134217728 action entries" in err


def test_verify_refuses_an_oversized_panel_before_any_evaluation(tmp_path, capsys, model_file, monkeypatch):
    # the discounted check draws its panel before it evaluates any horizon,
    # so the refusal costs no forward pass
    calls = []
    inner = longrun.evaluator._forward
    monkeypatch.setattr(longrun.evaluator, "_forward", lambda *args: calls.append(args) or inner(*args))
    out = ["--model", model_file, "--out", str(tmp_path / "o")]
    assert main(["verify", "--panel-size", "1000", "--horizons", "67109"] + out) == 2
    assert "exceeds 134217728 action entries" in capsys.readouterr().err
    assert not calls


def test_evaluate_takes_its_horizons_and_both_gammas_from_one_pass_each(tmp_path, model_file, monkeypatch):
    # every horizon is a prefix of one discounted pass, and the +gamma and
    # -gamma risk values are the two members of one risk pass
    sizes = []
    inner = longrun.evaluator._forward
    monkeypatch.setattr(longrun.evaluator, "_forward", lambda m, a, *rest: sizes.append(a.shape) or inner(m, a, *rest))
    args = ["evaluate", "--model", model_file, "--gamma", "0.5", "--horizons", "100,1000,10"]
    assert main(args + ["--out", str(tmp_path / "o")]) == 0
    assert sizes == [(1, 1000, 2), (2, 10, 2)]
    report = (tmp_path / "o" / "report.txt").read_text(encoding="utf-8")
    assert [line.split(":")[0] for line in report.splitlines()[3:]] == [
        "J[100]", "J[1000]", "J[10]", "risk_value[+gamma]", "risk_value[-gamma]"]


def test_ldp_horizons_past_the_guard_exit_3_and_past_the_cap_exit_2(tmp_path, capsys, model_file):
    # a two-state chain is enumerated up to n = 22; beyond, the guard refuses
    # every row before any phi work, and an entry above the cap is a usage error
    cfg = tmp_path / "cfg.json"
    for grid, code in (([8, 23], 3), ([8, 100_000], 3), ([8, 100_001], 2), ([8, 30_000_000], 2)):
        cfg.write_text(json.dumps({"n_grid": grid}), encoding="utf-8")
        assert main(["ldp-check", "--config", str(cfg), "--model", model_file, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "n_grid must be at most 100000, got 30000000" in err


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


def test_a_config_task_other_than_the_invoked_one_exits_2(tmp_path, capsys):
    # the config's task used to replace the command's: verify ran gen-model and exited 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"task": "gen-model", "model": {"generator": {
        "n_states": 2, "n_actions": 1, "min_entry": 0.25, "seed": 9}}}), encoding="utf-8")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 2
    assert "config task 'gen-model' differs from the invoked task 'verify'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.json"]


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


def test_risk_factor_beyond_exp_overflow(tmp_path, capsys):
    # span(c) = 0.945 on this model: |gamma| span(c) > 709.78 overflows exp
    # in the contraction margin, so the margin certificate is unavailable
    out = tmp_path / "gen"
    assert main(["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05", "--seed", "7",
                 "--out", str(out)]) == 0
    model = ["--model", str(out / "model.json"), "--out", str(tmp_path / "o")]
    for argv in (
        ["solve-risk", "--gamma", "800"],
        ["solve-risk", "--gamma=-1000"],
        ["sweep-gamma", "--gammas=-1,1000"],
        ["verify", "--gamma", "1000", "--horizons", "20", "--panel-size", "5"],
    ):
        assert main(argv + model) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_a_risk_factor_below_the_floor_is_a_precondition(tmp_path):
    # on the README model ldp-check --gamma=-1e-300 exited 1 with a margin of
    # -1.7e282, and evaluate --gamma 1e-300 exited 0 with a risk value of 2.3e283
    out = tmp_path / "gen"
    assert main(["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05", "--seed", "7",
                 "--out", str(out)]) == 0
    model = ["--model", str(out / "model.json")]
    assert main(["ldp-check", "--gamma=-1e-300", "--out", str(tmp_path / "ldp")] + model) == 3
    assert main(["evaluate", "--gamma", "1e-300", "--out", str(tmp_path / "eval")] + model) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--gamma=-1e-300"],  # below the floor of admitted risk factors
        ["--gamma=-0.5"],  # not below the rate threshold
        ["--gamma=-0.01", "--epsilon", "1e-8"],  # rate infimum below the bracket's resolution
    ],
    ids=["tiny-gamma", "large-gamma", "tiny-epsilon"],
)
def test_ldp_check_exiting_3_writes_no_output(tmp_path, argv):
    # the audit runs before the margin reads gamma; its decay.csv used to be
    # written then, and stayed behind without a report.txt
    gen = tmp_path / "gen"
    assert main(["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05", "--seed", "7",
                 "--out", str(gen)]) == 0
    out = tmp_path / "ldp"
    assert main(["ldp-check", "--model", str(gen / "model.json"), "--out", str(out)] + argv) == 3
    assert not os.path.exists(out / "decay.csv")
    assert not os.path.exists(out / "report.txt")


def test_evaluate_task(model_file, tmp_path):
    out = tmp_path / "ev"
    assert main(["evaluate", "--model", model_file, "--schedule", "hyperbolic:1,1",
                 "--gamma", "0.5", "--horizons", "10,100", "--out", str(out)]) == 0
    lines = read(out / "timeseries.csv").splitlines()
    assert lines[0] == "n,J_n,bound"
    assert len(lines) == 3
    assert "risk_value[+gamma]" in read(out / "report.txt")


@pytest.mark.parametrize("task", ["evaluate", "verify", "solve-average", "ldp-check"])
@pytest.mark.parametrize("k", [2**63 - 8, 2**63 - 1, 2**63])
def test_a_window_past_int64_exits_0(model_file, tmp_path, capsys, task, k):
    # k + horizon leaves int64; the window is read in Python ints, never as a traceback
    out = tmp_path / "far"
    assert main([task, "--model", model_file, "--schedule", "hyperbolic:1,1", "--k", str(k),
                 "--horizons", "10,100", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert os.path.exists(out / "report.txt")


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


def test_ldp_check_margin_at_tiny_epsilon_exits_3_with_the_reason(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05", "--seed", "7",
                 "--out", str(out)]) == 0
    code = main(["ldp-check", "--model", str(out / "model.json"), "--gamma=-0.01", "--epsilon", "1e-8",
                 "--out", str(tmp_path / "m")])
    assert code == 3
    assert "is not below the rate threshold 0.0" in capsys.readouterr().err


def test_ldp_check_reports_a_failed_margin(model_file, tmp_path, monkeypatch):
    def failing_margin(model, policy, schedule, eps, gamma, k, n):
        report = MarginReport(lam_u=0.5, rate_infimum=0.2, slack=0.01, eps=eps, gamma=gamma, values=[0.1, 0.2],
                              margin=-0.25, passed=False)
        raise CheckFailed("risk value fell below the near-optimality floor by 0.25", report)

    monkeypatch.setattr(longrun.ldp, "near_optimality_margin", failing_margin)
    out = tmp_path / "m"
    assert main(["ldp-check", "--model", model_file, "--gamma=-0.003", "--out", str(out)]) == 1
    text = read(out / "report.txt")
    assert "margin: -0.25\n" in text
    assert text.endswith("result: FAIL\n")
    assert os.path.exists(out / "decay.csv")


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


def test_verify_solves_the_average_equation_once(tmp_path, monkeypatch):
    # the discounted check audits verify's own solve of the README model, so
    # the additive span iteration sees the full 3 x 2 model once (it saw it
    # twice), then the sweep's frozen one-action model
    seen = []
    inner = longrun.average_solver._span_iterate

    def counted(model, sweep, *args):
        if sweep.func is longrun.average_solver._bellman_values:
            seen.append(model.n_actions)
        return inner(model, sweep, *args)

    monkeypatch.setattr(longrun.average_solver, "_span_iterate", counted)
    gen = tmp_path / "gen"
    assert main(["gen-model", "--states", "3", "--actions", "2", "--min-entry", "0.05", "--seed", "7",
                 "--out", str(gen)]) == 0
    assert main(["verify", "--model", str(gen / "model.json"), "--schedule", "hyperbolic:1,1",
                 "--horizons", "100,500", "--seed", "1", "--out", str(tmp_path / "v")]) == 0
    assert seen == [2, 1]


def test_verify_reports_are_byte_identical(model_file, tmp_path):
    outs = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        code = main(["verify", "--model", model_file, "--schedule", "hyperbolic:1,1",
                     "--horizons", "50,200", "--panel-size", "15", "--seed", "3", "--out", str(out)])
        assert code == 0
        outs.append(read(out / "report.txt"))
    assert outs[0] == outs[1]
