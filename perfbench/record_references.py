"""Record the reference values in references.json from this checkout.

    python3 perfbench/record_references.py

For the default seed and a second seed, runs one round of every workload,
checks each task against its oracle, and stores the gains and finite-horizon
values of each report (workloads.REFERENCE_KEY).  The benchmark then checks
the outputs of those seeds against the stored values.  Record them only when
the workloads change; a change that claims a speed-up keeps them.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from longrun.cli import main  # noqa: E402
from run import DEFAULT_SEED, STATE, _read_outputs  # noqa: E402
from workloads import WORKLOADS, Context, call_key, generate_inputs, reference_values, task_argv  # noqa: E402

SEEDS = (DEFAULT_SEED, 11)


def record(workload, seed: int, work: str) -> dict:
    out = {}
    for copy, (model_path, configs) in enumerate(generate_inputs(workload, seed, os.path.join(work, "inputs"))):
        ctx = Context(model_path)
        for task in workload.tasks:
            key = call_key(workload, task, copy)
            out_dir = os.path.join(work, key)
            if main(task_argv(task, model_path, configs, out_dir)) != 0:
                raise SystemExit(f"{workload.name}/{key} failed for seed {seed}")
            files = _read_outputs(out_dir)
            task.check(ctx, files)
            values = reference_values(files)
            if values:
                out[key] = values
    return out


def main_record():
    refs = {}
    os.makedirs(STATE, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE, prefix="references-") as tmp:
        for name, workload in WORKLOADS.items():
            refs[name] = {str(seed): record(workload, seed, os.path.join(tmp, f"{name}-{seed}")) for seed in SEEDS}
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main_record()
