"""Command-line entry point.

Subcommands: solve, simulate, trace, compare, regions, sweep. One flat
config file supplies SystemParams; flags override file values. Every
output file gets a JSON manifest written atomically next to it with
enough resolved state to rerun the command bit-identically.

Exit codes: 0 ok, 2 config or input problem, 3 solver non-convergence,
4 policy/params stamp mismatch, 5 partial experiment failure.

Importing this module freezes the import-time heap (`gc.freeze()`, see
below), so that process exit does not spend time freeing numpy and scipy.
`python -m semsched` (`__main__.py`) and the `semsched` script both run
`main`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace

from . import __version__
from .core import (
    ConfigError,
    MetricKind,
    NoAnswer,
    ParamError,
    SystemParams,
    load_config,
    params_stamp,
    validate_params,
)
from .metrics import evolve_trace, format_trace_table, parse_events_table
from .mdp import format_solve_result, rvia_solve
from .policies import (
    MismatchedStamp,
    NotThresholdStructured,
    extract_thresholds,
    format_thresholds,
    greedy_policy,
    load_policy,
)
from .sim import SimConfig, replicate
from .experiments import (
    DEFAULT_PE_CELLS,
    DEFAULT_PQ_CELLS,
    charging_sweep,
    comparison_grid,
    format_action_map,
    format_comparison,
    format_ratio_table,
    format_simulation,
    named_policy,
)

# Move everything the imports above allocated (numpy's and scipy's module
# objects, mostly) to the permanent generation, so the final collection at
# interpreter exit no longer walks and frees it; the OS reclaims it anyway.
# That cut the time from a script's last line to its process's exit from
# 58-85 ms to 15-19 ms (medians of 9-15 fresh interpreters, 2 vCPUs,
# Python 3.11, numpy 2.4, scipy 1.17), and compare_dm28's wall_s by 53 ms.
# It is safe: import-time objects live until exit anyway, objects made
# later are collected as before, atexit handlers and the stdio flush still
# run, and pool workers forked later no longer touch those objects' pages.
# Module level, so it runs once per process, not once per main() call.
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_STAMP = 4
EXIT_PARTIAL = 5


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename. The
    file gets the mode open() would give it, 0o666 less the umask, not
    mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # os.umask sets a new mask and returns the old
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_params(args) -> SystemParams:
    # grid subcommands carry --pe/--pq as comma lists (str), validated
    # per point where they are parsed; only scalar overrides land here
    params = load_config(args.config) if args.config else SystemParams()
    overrides = {}
    if isinstance(getattr(args, "pe", None), float):
        overrides["p_e"] = args.pe
    if isinstance(getattr(args, "pq", None), float):
        overrides["p_q"] = args.pq
    return validate_params(replace(params, **overrides)) if overrides else params


class _Run:
    """One subcommand's run: its params, its clock and the files it has
    written, which its manifest lists in write order."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.params = _load_params(args)
        self.outputs: list[str] = []

    def write(self, path: str, text: str) -> None:
        _atomic_write(path, text)
        self.outputs.append(path)

    def finish(self, options: dict, **records: dict) -> None:
        """Write `<out>.manifest.json`; `options` are the resolved flags
        other than --out, which comes last."""
        manifest = {
            "subcommand": self.args.subcommand,
            "tool_version": __version__,
            "params": asdict(self.params),
            "params_stamp": params_stamp(self.params),
            "options": {**options, "out": self.args.out},
            "seed_derivation": "streams keyed (seed, id): energy=1 channel=2 "
            "version=3 query=4 init=5; replication r uses seed + r",
            "outputs": self.outputs,
            "duration_s": round(time.monotonic() - self.started, 3),
            **records,
        }
        _atomic_write(self.args.out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _rates(params: SystemParams, field: str, text: str | None,
           default: tuple[float, ...]) -> tuple[float, ...]:
    """The comma list `text` of rates for `field`, each checked in
    params; `default` only for an absent flag (None)."""
    if text is None:
        values = default
    else:
        try:
            values = tuple(float(v) for v in text.split(","))
        except ValueError as exc:
            raise ConfigError(None, f"bad rate list {text!r}") from exc
    for v in values:
        validate_params(replace(params, **{field: v}))
    return values


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(None, f"--jobs must be >= 1, got {jobs}")


def _thresholds(policy) -> tuple[dict[tuple[int, int], int] | None, str | None]:
    """The policy's threshold table, or None and the reason it has none."""
    try:
        return extract_thresholds(policy), None
    except NotThresholdStructured as exc:
        return None, str(exc)


def _partial(failed: int, what: str) -> int:
    if failed:
        print(f"{failed} {what} failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_solve(args) -> int:
    run = _Run(args)
    kind = MetricKind(args.kind)
    result = rvia_solve(run.params, kind)
    run.write(args.out, format_solve_result(result))
    thresholds, reason = _thresholds(result.policy)
    if thresholds is None:
        print(f"note: {reason}", file=sys.stderr)
    else:
        run.write(args.out + ".thresholds", format_thresholds(result.policy, thresholds))
    print(f"gain {result.gain!r} after {result.iterations} iterations")
    run.finish({"kind": kind.value}, solver=result.record)
    return EXIT_OK


def cmd_simulate(args) -> int:
    run = _Run(args)
    _check_jobs(args.jobs)
    if args.policy == "greedy":
        policy = greedy_policy(run.params)
        policy_id = "greedy"
    else:
        policy = load_policy(args.policy)
        policy_id = os.path.basename(args.policy)
    cfg = SimConfig(horizon=args.horizon, seed=args.seed, warmup=args.warmup)
    sim_started = time.perf_counter()
    rep = replicate(run.params, policy, cfg, n_reps=args.reps, jobs=args.jobs)
    sim_seconds = time.perf_counter() - sim_started
    run.write(args.out, format_simulation(run.params, policy_id, rep))
    run.finish(
        {
            "policy": args.policy, "horizon": args.horizon,
            "warmup": args.warmup, "seed": args.seed,
            "reps": args.reps, "jobs": args.jobs,
        },
        simulation={
            "slots": args.reps * args.horizon,
            "seconds": round(sim_seconds, 3),
            "slots_per_s": round(args.reps * args.horizon / sim_seconds),
            "rewalked_slots": sum(s.rewalked_slots for s in rep.summaries),
        },
    )
    return EXIT_OK


def cmd_trace(args) -> int:
    run = _Run(args)
    try:
        with open(args.events, "r", encoding="utf-8") as fh:
            events = parse_events_table(fh.read())
        trace = evolve_trace(events, run.params.delta_max)
    except (OSError, ValueError) as exc:
        print(f"cannot replay events: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    run.write(args.out, format_trace_table(events, trace))
    run.finish({"events": args.events})
    return EXIT_OK


def cmd_compare(args) -> int:
    run = _Run(args)
    pe_values = _rates(run.params, "p_e", args.pe, DEFAULT_PE_CELLS)
    pq_values = _rates(run.params, "p_q", args.pq, DEFAULT_PQ_CELLS)
    _check_jobs(args.jobs)
    # built under either mode, so that bad --horizon/--warmup/--seed exit 2
    sim_cfg = SimConfig(horizon=args.horizon, seed=args.seed, warmup=args.warmup)
    rows = comparison_grid(
        run.params,
        pe_values=pe_values,
        pq_values=pq_values,
        sim_cfg=sim_cfg if args.mode == "simulated" else None,
        jobs=args.jobs,
    )
    run.write(args.out, format_comparison(run.params, rows))
    run.finish(
        {
            "pe": list(pe_values), "pq": list(pq_values), "mode": args.mode,
            "horizon": args.horizon, "warmup": args.warmup, "seed": args.seed,
            "jobs": args.jobs,
        },
        evaluation={
            "rows": [
                {
                    "p_e": r.p_e, "p_q": r.p_q, "policy": r.policy,
                    "eval": r.eval_mode,
                    "evaluation_chain_size": r.chain_states,
                    **r.solver,
                }
                for r in rows
            ],
        },
    )
    return _partial(sum(1 for r in rows if r.error), "row(s)")


def cmd_regions(args) -> int:
    run = _Run(args)
    pe_values = _rates(run.params, "p_e", args.pe, (run.params.p_e,))
    names = [f"{pe:g}" for pe in pe_values]
    for name in names:
        if names.count(name) > 1:
            clash = ", ".join(repr(pe) for pe, n in zip(pe_values, names) if n == name)
            raise ConfigError(
                None, f"--pe rates {clash} would all write {args.out}.pe{name}.csv"
            )
    failures = 0
    for pe, name in zip(pe_values, names):
        cell = replace(run.params, p_e=pe)
        try:
            policy = named_policy(args.kind, cell)[0]
        except NoAnswer as exc:
            print(f"p_e={name}: {exc}", file=sys.stderr)
            failures += 1
            continue
        thresholds, reason = _thresholds(policy)
        run.write(
            f"{args.out}.pe{name}.csv",
            format_action_map(cell, args.kind, policy, thresholds, reason),
        )
        if thresholds is not None:
            run.write(f"{args.out}.pe{name}.thresholds",
                      format_thresholds(policy, thresholds))
    run.finish({"kind": args.kind, "pe": list(pe_values)})
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_sweep(args) -> int:
    run = _Run(args)
    pq_values = _rates(run.params, "p_q", args.pq, (0.1, 0.2, 0.3, 0.4))
    if not 0 < args.tol < 1:
        raise ConfigError(None, f"--tol must be in (0, 1), got {args.tol!r}")
    if not math.isfinite(args.target):
        raise ConfigError(None, f"--target must be finite, got {args.target!r}")
    if 0.0 in pq_values:
        raise ConfigError(None, "sweep needs p_q > 0: the target is a per-query average")
    points = charging_sweep(run.params, args.kind, args.target, pq_values, tol=args.tol)
    run.write(args.out, format_ratio_table(run.params, points, args.kind, args.target))
    run.finish(
        {"kind": args.kind, "target": args.target, "pq": list(pq_values), "tol": args.tol}
    )
    return _partial(sum(1 for p in points if p.error), "grid point(s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semsched",
        description="Semantics-aware transmission scheduling: solver, "
        "simulator, and experiment drivers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    kinds = [k.value for k in MetricKind]

    def common(p, pe="override", pq="override"):
        """--config, --out, and each rate flag as an "override" of the
        config value, a comma "list", or None where the rate is unused."""
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", required=True, help="output path")
        for flag, field, noun, form in (
            ("--pe", "p_e", "charging", pe), ("--pq", "p_q", "query", pq),
        ):
            if form == "override":
                p.add_argument(flag, type=float, help=f"override {field}")
            elif form == "list":
                p.add_argument(flag, help=f"comma-separated {noun} rates")

    p = sub.add_parser("solve", help="derive a policy via value iteration")
    common(p)
    p.add_argument("--kind", choices=kinds, default="qvaoi")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte Carlo replications of a policy")
    common(p)
    p.add_argument("--policy", default="greedy",
                   help="'greedy' or a saved policy file")
    p.add_argument("--horizon", type=int, default=10**6)
    p.add_argument("--warmup", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="replay a slot event table")
    common(p, pe=None, pq=None)
    p.add_argument("events", help="event table file: delivered new_version query")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="policy comparison over a rate grid")
    common(p, pe="list", pq="list")
    p.add_argument("--mode", choices=["exact", "simulated"], default="exact")
    p.add_argument("--horizon", type=int, default=10**6)
    p.add_argument("--warmup", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("regions", help="transmission region maps")
    common(p, pe="list")
    p.add_argument("--kind", choices=kinds + ["greedy"], default="qvaoi")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("sweep", help="required charging rate vs greedy")
    common(p, pe=None, pq="list")
    p.add_argument("--kind", choices=kinds + ["greedy"], default="qvaoi")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParamError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoAnswer as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except MismatchedStamp as exc:
        print(f"stamp mismatch: {exc}", file=sys.stderr)
        return EXIT_STAMP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
