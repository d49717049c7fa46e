"""Benchmark for `longrun`: workloads of CLI tasks, timed end to end.

    python3 perfbench/run.py --workload readme --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout; `src/longrun` is imported from that
checkout.  One process drives `longrun.cli.main` in-process in a closed loop
with one client: it repeats the workload's round (its fixed task mix) until
`--seconds` have passed, at least twice.  Every task's output is checked
outside the timed region (see workloads.py), and reports and CSVs must be
byte-identical across rounds and across runs with the same seed.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
times untraced rounds for the first half of the run and traced rounds (spans
at each module boundary, see spans.py) for the second half, and prints the
per-layer metrics.  Work files and one results file per run (with the
environment) go under `.perfbench/` in the checkout.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
BASELINE = os.path.join(HERE, "baseline", "baseline.json")
DEFAULT_SEED = 7  # the README's `gen-model --seed 7`
SETUP_REPEATS = 5


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    threads = corename = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            lib = ctypes.CDLL(libs[0])
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_threads.restype = ctypes.c_int
            get_core = lib.scipy_openblas_get_corename64_
            get_core.restype = ctypes.c_char_p
            threads, corename = get_threads(), get_core().decode()
        except (OSError, AttributeError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        # the CPU model as OpenBLAS detected it (its kernel core name)
        "cpu": f"{platform.machine()} {corename or 'unknown'}",
        "workload_seed": seed,
    }


def compare_with_baseline(env: dict) -> str:
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            recorded = json.load(fh)[0]["environment"]
    except OSError:
        return "no recorded baseline"
    differ = [k for k in env if k != "workload_seed" and recorded.get(k) != env[k]]
    if differ:
        return f"environment differs from the recorded baseline in: {', '.join(differ)}; do not compare silently"
    return "environment matches the recorded baseline"


def _clear(path: str):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _read_outputs(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _digest(files: dict) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def set_up(workload, seed: int, inputs: str) -> tuple:
    """One timed set-up: a fresh interpreter imports longrun, then the
    workload's model and config files are generated under `inputs`.

    Returns the inputs of each copy and the seconds taken.
    """
    from workloads import generate_inputs

    _clear(inputs)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import longrun"], env=dict(os.environ, PYTHONPATH=SRC), check=True)
    try:
        copies = generate_inputs(workload, seed, inputs)
    except RuntimeError as exc:
        _fail(str(exc))
    return copies, time.perf_counter() - t0


class SetUpSampler:
    """Repeats the set-up between rounds, spread over the run, so that its
    median covers the same stretch of time as the rounds' median.  The
    repeats write to their own directory and must reproduce the first
    set-up's files byte for byte."""

    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.first = os.path.join(work, "inputs")
        self.again = os.path.join(work, "inputs-again")
        self.copies, elapsed = set_up(workload, seed, self.first)
        self.times = [elapsed]
        self.mismatches = 0

    def sample(self):
        _, elapsed = set_up(self.workload, self.seed, self.again)
        self.times.append(elapsed)
        if _read_tree(self.again) != _read_tree(self.first):
            self.mismatches += 1


def _read_tree(directory: str) -> dict:
    out = {}
    for parent, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                # config files name their model by its path
                out[os.path.relpath(path, directory)] = fh.read().replace(directory.encode(), b"")
    return out


class Runner:
    """Runs rounds of one workload and checks every task call."""

    def __init__(self, workload, seed: int, work: str, copies: list):
        import longrun.cli
        from workloads import Context, call_key, task_argv

        self.cli = longrun.cli
        self.workload = workload
        # one call per task and copy: (key, task, the copy's Context)
        self.calls = []
        self.out_dirs = {}
        self.argv = {}
        for copy, (model_path, configs) in enumerate(copies):
            ctx = Context(model_path)
            for task in workload.tasks:
                key = call_key(workload, task, copy)
                self.calls.append((key, task, ctx))
                self.out_dirs[key] = os.path.join(work, "out", key)
                self.argv[key] = task_argv(task, model_path, configs, self.out_dirs[key])
        self.rounds = 0
        self.attempted = 0
        self.failures = []
        self._previous = {}
        self._checked = set()
        self._recorded = _recorded_references(workload.name, seed)
        self._digest_path = os.path.join(STATE, "digests", f"{workload.name}-seed{seed}.json")

    def warm_up(self):
        """Untimed calls of each task on the first copy's model, so that lazy
        imports finish and the allocator grows to the working set.  Their
        outputs are replaced by the next round's, which is checked."""
        done = set()
        for key, task, _ in self.calls:
            if task.name in done:
                continue
            done.add(task.name)
            try:
                self.cli.main(list(self.argv[key]))
            except Exception:
                pass  # the rounds run the same call and count the failure

    def round(self) -> tuple:
        """One round; returns (its wall seconds, {task: wall seconds})."""
        for d in self.out_dirs.values():
            _clear(d)
        gc.collect()
        codes = {}
        task_s = dict.fromkeys((t.name for t in self.workload.tasks), 0.0)
        t_round = time.perf_counter()
        for key, task, _ in self.calls:
            t0 = time.perf_counter()
            try:
                # looked up per call, so the traced run reaches the wrapped main
                codes[key] = self.cli.main(list(self.argv[key]))
            except Exception:
                codes[key] = traceback.format_exc(limit=3)
            task_s[task.name] += time.perf_counter() - t0
        elapsed = time.perf_counter() - t_round
        self.rounds += 1
        self._check_round(codes)
        return elapsed, task_s

    def _fail(self, task: str, problem: str):
        self.failures.append({"round": self.rounds, "task": task, "problem": problem})

    def _check_round(self, codes: dict):
        from workloads import CheckError, check_recorded

        for key, task, ctx in self.calls:
            self.attempted += 1
            code = codes[key]
            files = _read_outputs(self.out_dirs[key])
            digest = _digest(files)
            previous = self._previous.get(key, digest)
            self._previous[key] = digest
            if code != 0:
                self._fail(key, f"exit {code}" if isinstance(code, int) else f"traceback:\n{code}")
            elif previous != digest:
                self._fail(key, "outputs differ from the previous round")
            elif (key, digest) not in self._checked:
                try:
                    task.check(ctx, files)
                    check_recorded(self._recorded.get(key, {}), files)
                    self._checked.add((key, digest))
                except (CheckError, ValueError, KeyError, IndexError) as exc:
                    self._fail(key, f"check failed: {exc}")

    def check_across_runs(self):
        """Compare the last round's outputs with those of an earlier run of the
        same workload and seed in this checkout, or, when none is recorded and
        every call passed, record them for later runs."""
        try:
            with open(self._digest_path, encoding="utf-8") as fh:
                earlier = json.load(fh)
        except (OSError, ValueError):
            if self.failures:
                return
            os.makedirs(os.path.dirname(self._digest_path), exist_ok=True)
            tmp = f"{self._digest_path}.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._previous, fh, indent=1, sort_keys=True)
            os.replace(tmp, self._digest_path)
            return
        for name, digest in self._previous.items():
            if earlier.get(name, digest) != digest:
                self._fail(name, "outputs differ from an earlier run with this seed")


def _recorded_references(workload: str, seed: int) -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def _summary(values: list) -> dict:
    return {"median": statistics.median(values), "n": len(values), "samples": values}


def _run_rounds(runner: Runner, seconds: float, min_rounds: int, sampler: SetUpSampler | None = None) -> list:
    """Repeat rounds for `seconds`, and at least `min_rounds` times.

    With a sampler, the set-up is repeated between rounds, at most once per
    gap, until it has SETUP_REPEATS samples spread over the run; the time
    that takes is not counted in `seconds`.  Samples still missing at the
    end are taken then.
    """
    start = time.perf_counter()
    spent = 0.0
    rounds = []
    while len(rounds) < min_rounds or time.perf_counter() - spent < start + seconds:
        rounds.append(runner.round())
        if sampler is None:
            continue
        extra = len(sampler.times) - 1
        progress = (time.perf_counter() - spent - start) / seconds
        if extra < SETUP_REPEATS - 1 and progress * (SETUP_REPEATS - 1) >= extra + 0.5:
            t0 = time.perf_counter()
            sampler.sample()
            spent += time.perf_counter() - t0
    while sampler is not None and len(sampler.times) < SETUP_REPEATS:
        sampler.sample()
    return rounds


def per_layer_value(name: str, tracer, rounds: int, overhead: float):
    if name == "trace.overhead_share":
        return overhead
    span, _, field_name = name.rpartition(".")
    if span not in tracer.stats:
        raise KeyError(f"no span {span!r} for per-layer metric {name!r}")
    stats = tracer.stats[span]
    if field_name == "calls":
        return stats.calls / rounds
    if field_name == "self_s":
        return stats.self_time / rounds
    if field_name == "calls_per_model":
        return stats.calls / rounds / max(tracer.distinct_models(), 1)
    return stats.counts[field_name] / rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "longrun", "__init__.py")):
        _fail(f"no longrun sources under {SRC}; run from the root of a longrun checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, SRC)
    import longrun

    if os.path.dirname(os.path.abspath(longrun.__file__)) != os.path.join(SRC, "longrun"):
        _fail(f"imported longrun from {longrun.__file__}, not from {SRC}")
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed < 0:
        _fail("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    work = os.path.join(STATE, "work", workload.name)

    sampler = SetUpSampler(workload, args.seed, work)
    runner = Runner(workload, args.seed, work, sampler.copies)
    runner.warm_up()
    if args.trace:
        timed = _run_rounds(runner, args.seconds / 2, min_rounds=1, sampler=sampler)
        tracer = Tracer()
        tracer.install()
        traced = [elapsed for elapsed, _ in _run_rounds(runner, args.seconds / 2, min_rounds=1)]
        overhead = statistics.median(traced) / statistics.median(e for e, _ in timed) - 1.0
    else:
        timed = _run_rounds(runner, args.seconds, min_rounds=2, sampler=sampler)
    if sampler.mismatches:
        runner.failures.append({"round": 0, "task": "set-up", "problem": "repeated set-up wrote different files"})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_across_runs()

    end_to_end = {
        "setup_s": _summary(sampler.times),
        "round_s": _summary([elapsed for elapsed, _ in timed]),
        "peak_rss_mb": {"median": peak_rss_mb, "n": 1},
    }
    for task in workload.tasks:
        end_to_end[task.name.replace("-", "_") + "_s"] = _summary([task_s[task.name] for _, task_s in timed])
    failed = len({(f["round"], f["task"]) for f in runner.failures})
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_share": failed / runner.attempted,
        "failures": runner.failures,
        "end_to_end": end_to_end,
    }
    for name, summary in end_to_end.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"{name}: {summary['median']:.6g} {unit} (median of {summary['n']})")
    print(f"failed_share: {result['failed_share']:.6g} ({failed} of {runner.attempted} task calls)")
    for f in runner.failures:
        print(f"FAILED round {f['round']} {f['task']}: {f['problem']}")

    if args.trace:
        rounds = len(traced)
        result["traced_round_s"] = _summary(traced)
        result["spans"] = {
            name: {
                "calls": s.calls / rounds,
                "wall_s": s.wall / rounds,
                "self_s": s.self_time / rounds,
                **{f"{k} (computed)": v / rounds for k, v in s.counts.items()},
            }
            for name, s in sorted(tracer.stats.items())
        }
        # the remainder is the benchmark's own loop between task calls
        result["self_s_accounted_share"] = sum(s.self_time for s in tracer.stats.values()) / sum(traced)
        metrics = {
            m["name"]: {"value": per_layer_value(m["name"], tracer, rounds, overhead), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
        print(f"span self times cover {result['self_s_accounted_share']:.4f} of the traced round")
    else:
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]]["median"], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    result["metrics"] = metrics
    print(compare_with_baseline(env))
    print("environment: " + json.dumps(env, sort_keys=True))

    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(STATE, "results", f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
