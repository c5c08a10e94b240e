"""Span recording and per-layer analysis for the traced benchmark run.

The traced child process calls `install` before `semsched.cli.main`: it
replaces the names that the caller modules (`semsched.cli`,
`semsched.experiments`) hold for each layer's public functions with
wrappers that record one span per call. Nothing inside `src/` changes.
Spans stay in memory and are written out once, when the child ends.

A span is a dict: id, name, parent (span id or None), run (run id),
start and end (time.perf_counter seconds) and optional counts. The layer
of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

LAYERS = ("cli", "policies", "mdp", "sim", "experiments")


class Recorder:
    """In-memory span stack for one single-threaded process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counts=None):
        """Run fn(*args, **kwargs) inside a span; `counts(result, *args,
        **kwargs)` adds integer attributes once the call has returned."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        if counts is not None:
            rec.update(counts(result, *args, **(kwargs or {})))
        return result

    def wrap(self, module, attr: str, name, counts=None) -> None:
        """Replace module.attr by a span-recording wrapper. `name` is a
        span name or a function of the call arguments returning one."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            return self.call(span, fn, args, kwargs, counts)

        setattr(module, attr, wrapper)


def sim_counts(result, *args, **kwargs) -> dict:
    """Slots simulated by one `simulate` call, warm-up included."""
    return {"slots": result.horizon}


def install(rec: Recorder) -> None:
    """Wrap each layer's entry points as the caller modules see them."""
    import semsched.cli as cli
    import semsched.experiments as experiments
    from semsched.mdp import evaluation_chain_size
    from semsched.policies import state_count

    def eval_name(params, kind, policy):
        # same-family chains have exactly the model's states; anything
        # larger is the cross-family product chain
        states = evaluation_chain_size(params, kind, policy)
        same = states == state_count(params.delta_max, params.B)
        return "mdp.eval_same" if same else "mdp.eval_cross"

    def eval_counts(result, params, kind, policy):
        return {"states": evaluation_chain_size(params, kind, policy)}

    def solve_counts(result, *args, **kwargs):
        return {"iterations": result.iterations}

    def rate_counts(result, *args, **kwargs):
        return {"evaluations": len(result.evaluations)}

    rec.wrap(cli, "rvia_solve", "mdp.solve", solve_counts)
    rec.wrap(experiments, "rvia_solve", "mdp.solve", solve_counts)
    rec.wrap(experiments, "evaluate_policy_exact", eval_name, eval_counts)
    rec.wrap(experiments, "simulate", "sim.simulate", sim_counts)
    rec.wrap(experiments, "greedy_policy", "policies.greedy_policy")
    rec.wrap(cli, "greedy_policy", "policies.greedy_policy")
    rec.wrap(cli, "load_policy", "policies.load_policy")
    rec.wrap(cli, "replicate", "sim.replicate")
    rec.wrap(cli, "charging_sweep", "experiments.charging_sweep")
    rec.wrap(cli, "comparison_grid", "experiments.comparison_grid")
    rec.wrap(experiments, "required_charging_rate",
             "experiments.required_charging_rate", rate_counts)


# --- analysis (benchmark parent process) ---------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    covered: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            covered.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        busy = 0.0
        last = -math.inf
        for a, b in sorted(covered.get(s["id"], [])):
            a = max(a, last)
            if b > a:
                busy += b - a
                last = b
        out[s["id"]] = (s["end"] - s["start"]) - busy
    return out


def self_by_name(spans: list[dict]) -> dict[str, float]:
    """Self time summed per span name."""
    names = {s["id"]: s["name"] for s in spans}
    out: dict[str, float] = {}
    for i, t in self_times(spans).items():
        out[names[i]] = out.get(names[i], 0.0) + t
    return out


def tree_problems(spans: list[dict]) -> list[str]:
    """Ways in which the spans fail to form a well-nested tree."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if "end" not in s or s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} has no valid end")
            continue
        p = s["parent"]
        if p is None:
            continue
        parent = by_id.get(p)
        if parent is None:
            problems.append(f"span {s['id']} has unknown parent {p}")
        elif parent["run"] != s["run"]:
            problems.append(f"span {s['id']} crosses runs")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} {s['name']} outside parent {p}")
    problems.extend(
        f"span {i} has negative self time {t:.3g}"
        for i, t in self_times(spans).items()
        if t < 0
    )
    return problems


def layer_metrics(spans: list[dict], reps: int, jobs: int) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced invocation.

    Returns (times, counts): times vary run to run, counts repeat
    exactly for the same code and workload.
    """
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(n):
        return [s for s in spans if s["name"] == n]

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    solves = named("mdp.solve")
    same = named("mdp.eval_same")
    cross = named("mdp.eval_cross")
    sims = named("sim.simulate")
    reps_spans = named("sim.replicate")
    loads = named("policies.load_policy")
    # compare rows evaluate directly under the grid span (jobs = 1)
    in_grid = [
        s for s in spans if parent_name(s) == "experiments.comparison_grid"
    ]

    iterations = sum(s["iterations"] for s in solves)
    solve_s = sum(map(dur, solves))
    sim_s = sum(map(dur, sims))
    slots = sum(s["slots"] for s in sims)
    replicate_s = sum(map(dur, reps_spans))
    one_rep_s = statistics.median(map(dur, sims)) if sims else 0.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["name"].split(".")[0]] += selfs[s["id"]]

    times = {
        "mdp.solve.s": solve_s,
        "mdp.solve.us_per_iter": 1e6 * solve_s / iterations if iterations else 0.0,
        "mdp.eval_same.s": sum(map(dur, same)),
        "mdp.eval_cross.s": sum(map(dur, cross)),
        "sim.simulate.s": sim_s,
        "sim.slots_per_s": slots / sim_s if sim_s > 0 else 0.0,
        "sim.replicate.s": replicate_s,
        # computed, not measured: the pool's cost beyond ceil(reps/jobs)
        # back-to-back replications of the in-process speed
        "sim.pool_overhead_s": (
            replicate_s - math.ceil(reps / jobs) * one_rep_s if reps_spans else 0.0
        ),
        "policies.load_policy_s": sum(map(dur, loads)),
    }
    times.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    counts = {
        "mdp.solve.calls": len(solves),
        "mdp.solve.iterations": iterations,
        "mdp.eval_same.calls": len(same),
        "mdp.eval_same.states": sum(s["states"] for s in same),
        "mdp.eval_cross.calls": len(cross),
        "mdp.eval_cross.states": sum(s["states"] for s in cross),
        "sim.slots": slots,
        "experiments.rows_exact": sum(
            1 for s in in_grid if s["name"].startswith("mdp.eval_")
        ),
        "experiments.rows_simulated": sum(
            1 for s in in_grid if s["name"] == "sim.simulate"
        ),
        "experiments.bisection_evals": sum(
            s["evaluations"] for s in named("experiments.required_charging_rate")
        ),
    }
    return times, counts
