"""Spans around the public functions at each `longrun` module boundary.

The wrappers are installed from outside the package: `average_solver`,
`risk_solver`, `evaluator`, `ldp` and `cli` bind names with `from .model
import ...`, so each wrapper replaces the function in every `longrun` module
namespace that binds it.  Spans are aggregated while they close: per span
name the number of calls, the wall time, and the self time (wall time minus
the time covered by child spans), plus counts computed from the arguments or
the result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# layer -> functions wrapped in it; "Class.method" wraps a method on the class
SPANS = {
    "model": (
        "ergodicity_coefficient",
        "equivalence_constant",
        "risk_contraction_margin",
        "load_model",
        "StationaryPolicy.__init__",
        "Model.policy_kernel",
    ),
    "average_solver": (
        "relative_value_iteration",
        "time_extended_solve",
        "poisson_solve",
        "stationary_distribution",
        "invariant_measure",
        "cesaro_values",
    ),
    "risk_solver": (
        "risk_relative_value_iteration",
        "multiplicative_poisson_solve",
        "certificate_for",
        "gamma_sweep",
        "perron_oracle",
    ),
    "evaluator": (
        "exact_discounted_value",
        "exact_risk_value",
        "simulate",
        "random_policy_panel",
        "discounted_optimality_check",
        "risk_upper_bound_check",
        "sandwich_check",
    ),
    "ldp": (
        "exact_event_probability",
        "rate_function",
        "ldp_upper_bound_check",
        "deviation_rate_infimum",
        "near_optimality_margin",
    ),
    "cli": ("main",),
}


def _kernel_key(model) -> bytes:
    return model.kernel.tobytes()


# span name -> function(arguments, result) -> {count name: increment}; these
# counts are computed from arguments or results, not measured
COMPUTED = {
    "model.ergodicity_coefficient": lambda a, r: {
        "pair_entries": (a["model"].n_states * a["model"].n_actions) ** 2 * a["model"].n_states
    },
    "average_solver.relative_value_iteration": lambda a, r: {"iterations": r.iterations},
    "average_solver.time_extended_solve": lambda a, r: {"slices": r.lambda_seq.shape[0]},
    "risk_solver.risk_relative_value_iteration": lambda a, r: {"iterations": r.iterations},
    "evaluator.exact_discounted_value": lambda a, r: {"steps": a["n"]},
    "evaluator.exact_risk_value": lambda a, r: {"steps": a["n"]},
    "evaluator.simulate": lambda a, r: {"path_steps": a["reps"] * a["n"]},
    # no kernel entry is zero in the generated models, so every path survives
    "ldp.exact_event_probability": lambda a, r: {"paths": len(a["P"]) ** (a["n"] - 1)},
}


class SpanStats:
    __slots__ = ("calls", "wall", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.self_time = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Aggregates the spans of the wrapped functions; install() wraps them."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._models = set()

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        compute = COMPUTED.get(name)
        signature = inspect.signature(fn)
        track_models = name == "model.ergodicity_coefficient"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.wall += dt
                stats.self_time += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if compute is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in compute(bound.arguments, result).items():
                    stats.counts[key] += value
                if track_models:
                    self._models.add(_kernel_key(bound.arguments["model"]))
            return result

        return wrapper

    def install(self):
        """Wrap every function in SPANS in each `longrun` namespace binding it."""
        namespaces = [vars(m) for n, m in sorted(sys.modules.items()) if n == "longrun" or n.startswith("longrun.")]
        for layer, names in SPANS.items():
            module = importlib.import_module(f"longrun.{layer}")
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                span = f"{layer}.{qualname.replace('.__init__', '.init')}"
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self._wrap(span, getattr(owner, attr)))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(span, original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapped

    def distinct_models(self) -> int:
        """Distinct kernels (by content) the ergodicity coefficient was computed for."""
        return len(self._models)
