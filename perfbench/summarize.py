"""Summarize benchmark results files across runs.

    python3 perfbench/summarize.py [--out FILE] [RESULTS ...]

Reads the given results files (default: every file in .perfbench/results)
and groups them by workload, trace setting and environment (all recorded
environment fields except the workload seed), so runs made under different
environments are never pooled.  For each group and end-to-end metric it
prints the median over runs, the quartiles and their distance as a share of
the median, which is the spread that BENCHMARK.json's bounds are checked
against.  Traced groups also get the median of each per-layer metric.
`--out` writes the summary as JSON.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".perfbench", "results")


def _stats(values: list) -> dict:
    out = {"runs": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def summarize(paths: list) -> list:
    groups = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        env = {k: v for k, v in result["environment"].items() if k != "workload_seed"}
        key = (result["workload"], result["trace"], json.dumps(env, sort_keys=True))
        groups.setdefault(key, []).append(result)
    summary = []
    for (workload, trace, env), results in sorted(groups.items()):
        entry = {
            "workload": workload,
            "trace": trace,
            "environment": json.loads(env),
            "seeds": sorted({r["seed"] for r in results}),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: _stats([r["end_to_end"][name]["median"] for r in results])
                for name in results[0]["end_to_end"]
            },
        }
        if trace:
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in results)
                for name in results[0]["metrics"]
            }
        summary.append(entry)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    paths = args.results or sorted(glob.glob(os.path.join(RESULTS, "*.json")))
    if not paths:
        print("no results files", file=sys.stderr)
        return 2
    summary = summarize(paths)
    envs = {json.dumps(e["environment"], sort_keys=True) for e in summary}
    if len(envs) > 1:
        print(f"warning: results come from {len(envs)} different environments; they are summarized apart")
    for e in summary:
        print(f"{e['workload']} trace={e['trace']} seeds={e['seeds']} failed {e['failed']} of {e['attempted']}")
        for name, s in e["end_to_end"].items():
            spread = f"  spread {s['spread']:.4f}" if s.get("spread") is not None else ""
            print(f"  {name}: median {s['median']:.6g} over {s['runs']} runs{spread}")
        for name, value in e.get("per_layer", {}).items():
            print(f"  {name}: {value:.6g}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
