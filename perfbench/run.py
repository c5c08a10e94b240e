"""semsched benchmark: end-to-end and per-layer metrics on three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed invocation is a fresh interpreter running perfbench/child.py,
which imports `semsched.cli` from ./src, parses the workload's config and
calls `semsched.cli.main(argv)`, so caches and imports start cold as in
a real CLI call. Invocations repeat until the next one would end past
--seconds (at least MIN_CALLS), and each metric is the median over them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced invocations and prints the per-layer metrics. Human-readable
lines come first; the last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics". Any failed correctness
gate, or a malformed trace, sets "correct" to false and the exit code
to 1. See perfbench/README.md for why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CALLS = 3           # untraced invocations per --trace 0 run
MIN_TRACED_PAIRS = 2    # (untraced, traced) pairs per --trace 1 run
SETUP_PROBES = 2        # set-up-only interpreters before the first call
HARD_LIMIT_S = 170.0    # a run ends well inside the 180 s it is allowed

# compare_dm28 pins the exact qvaoi row. The committed acceptance anchor,
# 2.398950 per query, belongs to delta_max = 60; at delta_max = 28 the seed
# code gives 2.396925511962683 (truncation moves it by 2.0e-3), pinned
# here with the same 1e-4 tolerance.
COMPARE_ANCHOR = 2.396926
ANCHOR_TOL = 1e-4
SWEEP_RATIO = (0.17, 0.37)
# 8 replications of 2.5e6 slots: the "mean within 3 half-widths of the
# exact value" gate then fails a correct simulator for about 0.06% of
# seeds; with 4 replications (3 degrees of freedom) it would be about 1%
SIM_REPS, SIM_JOBS, SIM_HORIZON, SIM_WARMUP = 8, 2, 2_500_000, 10_000


@dataclass
class Workload:
    name: str
    config: dict
    ops_per_call: int
    argv: Callable[[int, Path], list[str]]
    gate: Callable[[str, dict], list[str]]   # one message per failed operation
    prepare: Callable | None = None          # once per run, outside wall_s
    state: dict = field(default_factory=dict)


# --- correctness gates ---------------------------------------------------

def _csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def gate_sweep(text: str, state: dict) -> list[str]:
    rows = _csv_rows(text)
    if len(rows) != 1:
        return [f"expected 1 sweep point, got {len(rows)}"]
    r = rows[0]
    if r["error"]:
        return [f"sweep point failed: {r['error']}"]
    ratio = float(r["ratio"])
    lo, hi = SWEEP_RATIO
    if float(r["p_q"]) != 0.1 or not (lo <= ratio <= hi and ratio <= 1.0):
        return [f"ratio {ratio!r} at p_q {r['p_q']} outside [{lo}, {hi}]"]
    return []


def gate_compare(text: str, state: dict) -> list[str]:
    rows = {r["policy"]: r for r in _csv_rows(text)}
    bad: dict[str, str] = {}
    names = ("greedy", "aoi", "vaoi", "qaoi", "qvaoi")
    for n in names:
        r = rows.get(n)
        if r is None:
            bad[n] = "row missing"
        elif r["eval"] != "exact" or r["error"]:
            bad[n] = f"eval={r['eval']} error={r['error']!r}"
    if bad:
        return [f"{n}: {why}" for n, why in bad.items()]
    v = {n: float(rows[n]["qvaoi"]) for n in names}
    per_query = float(rows["qvaoi"]["qvaoi_per_query"])
    if abs(per_query - COMPARE_ANCHOR) > ANCHOR_TOL:
        bad["qvaoi"] = f"per-query {per_query!r} != {COMPARE_ANCHOR} +- {ANCHOR_TOL}"
    for better, worse in (("qvaoi", "qaoi"), ("vaoi", "aoi")):
        if v[better] > v[worse] + 1e-9:
            bad.setdefault(better, f"{better} {v[better]!r} > {worse} {v[worse]!r}")
    for n in ("aoi", "vaoi", "qaoi", "qvaoi"):
        if not v[n] < v["greedy"]:
            bad.setdefault(n, f"{n} {v[n]!r} not below greedy {v['greedy']!r}")
    return [f"{n}: {why}" for n, why in bad.items()]


def gate_simulate(text: str, state: dict) -> list[str]:
    lines = text.splitlines()
    rows = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
    means = {}
    for ln in lines:
        if ln.startswith("# mean_"):
            key, _, rest = ln[2:].partition(" = ")
            mean, _, hw = rest.partition(" +- ")
            means[key] = (float(mean), float(hw))
    if len(rows) != SIM_REPS or "mean_qvaoi" not in means:
        return [f"expected {SIM_REPS} summary rows and mean_qvaoi"] * SIM_REPS
    # every run of the same code and seed prints the same rows, byte for byte
    ref = state.setdefault("rows", rows)
    failed = [f"replication {i} differs from the first call"
              for i, (a, b) in enumerate(zip(rows, ref)) if a != b]
    mean, hw = means["mean_qvaoi"]
    exact = state["exact_qvaoi"]
    if abs(mean - exact) > 3 * hw:
        return [f"mean_qvaoi {mean!r} not within 3 x {hw!r} of exact {exact!r}"] * SIM_REPS
    return failed


def prepare_simulate(wl: Workload, work: Path) -> None:
    """Solve the qvaoi policy once and evaluate it exactly for the gate."""
    sys.path.insert(0, str(SRC))
    from semsched.core import MetricKind, load_config
    from semsched.mdp import evaluate_policy_exact, rvia_solve, save_solve_result

    params = load_config(str(work / "workload.cfg"))
    res = rvia_solve(params, MetricKind.QVAOI)
    save_solve_result(params, res, str(work / "policy.txt"))
    wl.state["params"] = params
    wl.state["policy"] = res.policy
    wl.state["exact_qvaoi"] = evaluate_policy_exact(params, MetricKind.QVAOI, res.policy)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_qvaoi", {}, 1,
            lambda seed, work: ["sweep", "--kind", "qvaoi", "--target", "1.5",
                                "--pq", "0.1"],
            gate_sweep,
        ),
        Workload(
            "compare_dm28", {"delta_max": 28}, 5,
            lambda seed, work: ["compare", "--pe", "0.05", "--pq", "0.2",
                                "--seed", str(seed)],
            gate_compare,
        ),
        Workload(
            "simulate_reps", {"p_e": 0.2, "p_q": 0.3}, SIM_REPS,
            lambda seed, work: ["simulate", "--policy", str(work / "policy.txt"),
                                "--horizon", str(SIM_HORIZON),
                                "--warmup", str(SIM_WARMUP), "--seed", str(seed),
                                "--reps", str(SIM_REPS), "--jobs", str(SIM_JOBS)],
            gate_simulate,
            prepare_simulate,
        ),
    )
}


# --- child processes -----------------------------------------------------

@dataclass
class Call:
    setup_s: float
    wall_s: float | None = None
    rss_mb: float | None = None
    rc: int | None = None
    spans: list | None = None
    output: str = ""


def run_child(work: Path, tag: str, argv: list[str] | None, trace: bool,
              timeout: float) -> Call:
    """Start a fresh interpreter, reap it with wait4 for its peak RSS."""
    job = work / f"{tag}.job.json"
    result = work / f"{tag}.result.json"
    out = work / f"{tag}.out"
    full = None if argv is None else [*argv, "--config", str(work / "workload.cfg"),
                                      "--out", str(out)]
    job.write_text(json.dumps({
        "config": str(work / "workload.cfg"), "argv": full, "trace": trace,
        "run_id": tag, "result": str(result),
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job)],
            cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        # a stuck child (and any pool workers it forked) is killed as a group
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        t_end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        res = json.loads(result.read_text())
    except (OSError, ValueError):
        return Call(setup_s=math.nan, rc=proc.returncode or -1)
    call = Call(
        setup_s=res["t_ready"] - t_spawn,
        wall_s=t_end - res["t_ready"],
        rss_mb=usage.ru_maxrss / 1024.0,
        rc=proc.returncode,
        spans=res.get("spans"),
    )
    if argv is not None and out.exists():
        call.output = out.read_text()
    return call


# --- reporting -----------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    def proc_field(path: str, key: str) -> str:
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "semsched" / "cli.py").is_file():
        print(f"no semsched source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # a terminated run unwinds like an interrupted one: run_child kills the
    # running child's process group and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(wl, args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def measure(wl: Workload, args, work: Path, started: float) -> int:
    (work / "workload.cfg").write_text(
        f"# {wl.name}: defaults plus these overrides\n"
        + "".join(f"{k} = {v}\n" for k, v in wl.config.items())
    )

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    # set-up: one discarded interpreter (writes bytecode caches), then
    # probes; one more probe precedes every call, so that set-up is
    # sampled across the whole run and not in one burst
    run_child(work, "warm", None, False, remaining())
    probes = [run_child(work, f"probe{i}", None, False, remaining())
              for i in range(SETUP_PROBES)]
    t_prep = time.monotonic()
    if wl.prepare is not None:
        wl.prepare(wl, work)
    prep_s = time.monotonic() - t_prep

    calls: list[Call] = []
    traced: list[Call] = []
    problems: list[str] = []
    attempted = failed = 0
    argv = wl.argv(args.seed, work)

    def invoke(trace: bool) -> Call:
        nonlocal attempted, failed
        tag = f"{'traced' if trace else 'call'}{len(calls) + len(traced)}"
        c = run_child(work, tag, argv, trace, remaining())
        attempted += wl.ops_per_call
        if c.rc != 0 or c.wall_s is None:
            failed += wl.ops_per_call
            problems.append(f"{tag}: exit code {c.rc}")
        else:
            msgs = wl.gate(c.output, wl.state)
            failed += min(len(msgs), wl.ops_per_call)
            problems.extend(f"{tag}: {m}" for m in msgs)
        (traced if trace else calls).append(c)
        return c

    t0 = time.monotonic()
    while True:
        t_call = time.monotonic()
        probes.append(run_child(work, f"probe{len(probes)}", None, False, remaining()))
        invoke(False)
        if args.trace:
            invoke(True)
        last = time.monotonic() - t_call
        done = len(calls) >= (MIN_TRACED_PAIRS if args.trace else MIN_CALLS)
        elapsed = time.monotonic() - t0
        if (done and elapsed + last > args.seconds) or remaining() < 1.5 * last:
            break

    ok_calls = [c for c in calls if c.wall_s is not None]
    e2e = {
        "setup_s": ("s", [c.setup_s for c in probes + calls + traced
                          if not math.isnan(c.setup_s)]),
        "wall_s": ("s", [c.wall_s for c in ok_calls]),
        "peak_rss_mb": ("MB", [c.rss_mb for c in ok_calls]),
    }

    def row(name: str, unit: str, vals: list[float]) -> None:
        q1, med, q3 = quartiles(vals)
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}  {unit:<6} {len(vals)}")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"calls {len(calls)} untraced, {len(traced)} traced  "
          f"prepare {prep_s:.3f} s")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}  unit   n")
    for name, (unit, vals) in e2e.items():
        if vals:
            row(name, unit, vals)
    if wl.name == "simulate_reps" and ok_calls:
        slots = SIM_REPS * SIM_HORIZON
        row("sim_slots_per_s", "1/s", [slots / c.wall_s for c in ok_calls])
    print(f"{'error_rate':<28}{failed / attempted:>14.6g}{'':>28}  1      {attempted}")
    print("wall_s per call: " + " ".join(f"{c.wall_s:.4f}" for c in ok_calls))

    if args.trace:
        layer, trace_problems = per_layer(wl, traced, ok_calls, args.seed)
        problems.extend(trace_problems)
        for k, (v, u) in layer.items():
            print(f"{k:<28}{v:>14.6g}  {u}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {name: {"value": statistics.median(vals), "unit": unit}
                   for name, (unit, vals) in e2e.items() if vals}

    print("machine " + json.dumps(machine_record(args.seed)))
    for p in dict.fromkeys(problems):  # one line per distinct failure
        print("FAIL " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def per_layer(wl: Workload, traced: list[Call], untraced: list[Call], seed: int):
    """Per-layer metrics from the traced calls, with the self-test: a
    well-formed span tree per call and identical counts across calls."""
    import spans

    problems = []
    times: dict[str, list[float]] = {}
    by_name: dict[str, list[float]] = {}
    counts_seen = []
    reps = SIM_REPS if wl.name == "simulate_reps" else 0
    extra = []
    if reps:
        # pool workers are forked and their spans are lost, so the
        # simulator's own speed comes from one in-process replication,
        # the same as replication 0 of the CLI call
        from semsched.sim import SimConfig, simulate

        rec = spans.Recorder("in-process")
        cfg = SimConfig(horizon=SIM_HORIZON, seed=seed, warmup=SIM_WARMUP)
        rec.call("sim.simulate", simulate,
                 (wl.state["params"], wl.state["policy"], cfg),
                 counts=spans.sim_counts)
        extra = rec.spans
        problems.extend(spans.tree_problems(extra))
    for c in traced:
        if not c.spans:
            problems.append("traced call recorded no spans")
            continue
        problems.extend(spans.tree_problems(c.spans))
        shifted = [{**s, "id": s["id"] + len(c.spans)} for s in extra]
        t, n = spans.layer_metrics(c.spans + shifted, reps, SIM_JOBS)
        for name, v in spans.self_by_name(c.spans + shifted).items():
            by_name.setdefault(name, []).append(v)
        counts_seen.append(n)
        for k, v in t.items():
            times.setdefault(k, []).append(v)
    if any(n != counts_seen[0] for n in counts_seen[1:]):
        problems.append(f"per-layer counts differ between traced calls: {counts_seen}")
    out: dict[str, tuple[float, str]] = {}
    for k, vals in times.items():
        unit = "1/s" if k.endswith("per_s") else "us" if k.endswith("per_iter") else "s"
        out[k] = (statistics.median(vals), unit)
    if counts_seen:
        for k, v in counts_seen[0].items():
            out[k] = (v, "count")
    traced_walls = [c.wall_s for c in traced if c.wall_s is not None]
    untraced_walls = [c.wall_s for c in untraced]
    if traced_walls and untraced_walls:
        out["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    top = max(by_name, key=lambda k: statistics.median(by_name[k]), default=None)
    if top is not None:
        print(f"largest self time: {top} {statistics.median(by_name[top]):.4f} s")
    return out, problems


if __name__ == "__main__":
    sys.exit(main())
