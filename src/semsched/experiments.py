"""Orchestrated evaluations: policy comparison tables and
required-charging-rate sweeps, and the CSV layouts of those tables, of
the transmission region maps and of the simulation summaries, which one
writer (`_csv`) writes.

Query-gated values carry two normalizations. The all-slot average is the
quantity the solver optimizes; dividing it by p_q gives the conditional
average per query slot, which is the axis the comparison tables and the
charging-rate targets use (monitor-side offsets apply verbatim on that
axis). Exact stationary evaluation is the default; simulation is an
explicit cross-check (a `SimConfig` passed as `sim_cfg`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .core import MetricKind, SystemParams, params_stamp
from .mdp import (
    NotConverged,
    SolveResult,
    evaluate_policy_exact,
    evaluation_chain_size,
    rvia_solve,
)
from .policies import PolicyTable, greedy_policy
from .sim import ReplicationResult, SimConfig, monitor_offset, pool_map, simulate

POLICY_NAMES = ("greedy", "aoi", "vaoi", "qaoi", "qvaoi")
DEFAULT_PE_CELLS = (0.05, 0.20)
DEFAULT_PQ_CELLS = (0.2, 0.4)


class TargetUnreachable(ValueError):
    """Average exceeds the target even at p_e = 1."""

    def __init__(self, target: float, value_at_one: float):
        super().__init__(
            f"target {target} unreachable: value {value_at_one:.6f} at p_e = 1"
        )


class MonotonicityViolation(RuntimeError):
    """Evaluated average increased with p_e; bisection preconditions broken."""


# --- comparison ----------------------------------------------------------

@dataclass(frozen=True)
class CompareRow:
    p_e: float
    p_q: float
    policy: str
    qvaoi: float
    qvaoi_per_query: float
    monitor_qvaoi: float
    eval_mode: str
    # the solve's SolveResult.record, a failed solve's included; the same
    # keys, every value None, for greedy, which is not solved
    solver: dict
    error: str | None = None
    # evaluation_chain_size: the lumped chain the row is averaged over;
    # the evaluator factors only its recurrent class
    chain_states: int | None = None


def compare_policies(
    params: SystemParams, sim_cfg: SimConfig | None = None
) -> list[CompareRow]:
    """Average QVAoI of each policy at the CS and at the monitor, one row
    per policy at the cell (params.p_e, params.p_q).

    Without `sim_cfg` every row is evaluated exactly from its stationary
    distribution; with it, the simulator runs that configuration instead.
    Each row records the chain size and the solver record. A policy whose
    solve fails is reported in its row, with the failed solve's record,
    and the rest continue.
    """
    meter = MetricKind.QVAOI
    rows: list[CompareRow] = []
    for name in POLICY_NAMES:
        if name == "greedy":
            policy = greedy_policy(params)
            solver = dict.fromkeys(SolveResult.RECORD_KEYS)
        else:
            try:
                solved = rvia_solve(params, MetricKind(name))
            except NotConverged as exc:
                rows.append(CompareRow(
                    params.p_e, params.p_q, name, math.nan, math.nan, math.nan,
                    "none", exc.result.record, str(exc),
                ))
                continue
            policy, solver = solved.policy, solved.record
        if sim_cfg is None:
            all_slot = evaluate_policy_exact(params, meter, policy)
            per_query = all_slot / params.p_q if params.p_q > 0 else math.nan
            used = "exact"
        else:
            s = simulate(params, policy, sim_cfg)
            all_slot = s.avg[meter]
            per_query = s.avg_per_query[meter]
            used = "simulated"
        monitor = per_query + monitor_offset(params, meter)
        rows.append(CompareRow(
            params.p_e, params.p_q, name, all_slot, per_query, monitor, used,
            solver, chain_states=evaluation_chain_size(params, meter, policy),
        ))
    return rows


def _cell_worker(args) -> list[CompareRow]:
    params, pe, pq, sim_cfg = args
    return compare_policies(replace(params, p_e=pe, p_q=pq), sim_cfg)


def comparison_grid(
    params: SystemParams,
    pe_values: tuple[float, ...] = DEFAULT_PE_CELLS,
    pq_values: tuple[float, ...] = DEFAULT_PQ_CELLS,
    sim_cfg: SimConfig | None = None,
    jobs: int = 1,
) -> list[CompareRow]:
    """compare_policies over the cross product of charging and query
    rates, as one list of rows in grid order: p_e-major, then p_q, then
    POLICY_NAMES.

    Cells evaluate independently, in min(jobs, cells) worker processes,
    or in this process when that is 1 (pool_map); the order does not
    depend on how they were scheduled.
    """
    work = [(params, pe, pq, sim_cfg) for pe in pe_values for pq in pq_values]
    return [row for rows in pool_map(_cell_worker, work, jobs) for row in rows]


# --- required charging rate ----------------------------------------------

@dataclass(frozen=True)
class ChargingRateResult:
    bracket_lo: float
    bracket_hi: float
    evaluations: tuple[tuple[float, float], ...]


def required_charging_rate(
    policy_kind: str,
    target: float,
    params: SystemParams,
    p_q: float,
    tol: float = 1e-3,
) -> ChargingRateResult:
    """Minimal p_e keeping the per-query average QVAoI at or under
    `target`, by bisection on (0, 1].

    Each candidate re-solves the policy at that charging rate (solver
    bias warm-starts the next candidate) and evaluates exactly; the
    returned bracket_hi is the feasible end, within tol of the true
    boundary (or one float away, for a tol below the float spacing there).
    Feasibility at p_e = 1 is checked before bisecting, and the
    expected decrease of the average in p_e is verified on every point
    actually evaluated. `policy_kind` is one of POLICY_NAMES; tol in
    (0, 1), a finite target and p_q > 0 are the caller's to check
    (cmd_sweep does).
    """
    base = replace(params, p_q=p_q)
    evals: list[tuple[float, float]] = []
    h0 = None  # the last solve's bias

    def value(pe: float) -> float:
        nonlocal h0
        cand = replace(base, p_e=pe)
        if policy_kind == "greedy":
            policy = greedy_policy(cand)
        else:
            res = rvia_solve(cand, MetricKind(policy_kind), h0=h0)
            h0 = res.bias
            policy = res.policy
        all_slot = evaluate_policy_exact(cand, MetricKind.QVAOI, policy)
        v = all_slot / p_q
        evals.append((pe, v))
        return v

    v_one = value(1.0)
    if v_one > target:
        raise TargetUnreachable(target, v_one)
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if value(mid) <= target:
            hi = mid
        else:
            lo = mid

    pts = sorted(evals)
    for (pe_a, va), (pe_b, vb) in zip(pts, pts[1:]):
        if vb > va + 1e-9 + 1e-9 * abs(va):
            raise MonotonicityViolation(
                f"average rose from {va:.9f} at p_e={pe_a:.6f} "
                f"to {vb:.9f} at p_e={pe_b:.6f}"
            )
    return ChargingRateResult(bracket_lo=lo, bracket_hi=hi, evaluations=tuple(evals))


@dataclass(frozen=True)
class RatioPoint:
    p_q: float
    pe_policy: float
    pe_greedy: float
    ratio: float
    ratio_lo: float
    ratio_hi: float
    error: str | None = None


def charging_sweep(
    params: SystemParams,
    policy_kind: str,
    target: float,
    p_q_values: tuple[float, ...],
    tol: float = 1e-3,
) -> list[RatioPoint]:
    """Required charging rate of a policy relative to greedy across query
    rates.

    The true p_e* lies in [bracket_lo, bracket_hi] on both sides, so the
    ratio interval is [lo_p / hi_g, hi_p / lo_g] by interval division; a
    failed point is recorded and the sweep continues.

    Greedy ignores the query flag, so its per-query average, and with it
    its required charging rate, is the same at every query rate: it is
    found once, at the first query rate, and reused at every point, on
    both sides when `policy_kind` is greedy. A greedy error is raised
    again at every point, after the policy's own search.
    """
    out: list[RatioPoint] = []
    rg = greedy_error = None
    try:
        rg = required_charging_rate("greedy", target, params, p_q_values[0], tol)
    except (TargetUnreachable, MonotonicityViolation) as exc:
        greedy_error = exc
    for pq in p_q_values:
        try:
            rp = rg if policy_kind == "greedy" else required_charging_rate(
                policy_kind, target, params, pq, tol
            )
            if greedy_error is not None:
                raise greedy_error
        except (TargetUnreachable, MonotonicityViolation, NotConverged) as exc:
            out.append(
                RatioPoint(pq, math.nan, math.nan, math.nan, math.nan, math.nan,
                           error=str(exc))
            )
            continue
        ratio = rp.bracket_hi / rg.bracket_hi
        ratio_lo = rp.bracket_lo / rg.bracket_hi
        ratio_hi = rp.bracket_hi / rg.bracket_lo if rg.bracket_lo > 0 else math.inf
        out.append(
            RatioPoint(pq, rp.bracket_hi, rg.bracket_hi, ratio, ratio_lo, ratio_hi)
        )
    return out


# --- tabular output ------------------------------------------------------

def _csv(head, columns, rows, tail=()) -> str:
    """The one CSV layout of every table: the `# ` comment lines of `head`,
    the column names, one line per row, then those of `tail`. Each value
    is written as its str() (a float as its shortest repr), None as an
    empty field; a field holding a comma, a quote or a newline is quoted."""
    out = io.StringIO()
    out.writelines(f"# {line}\n" for line in head)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(["" if v is None else str(v) for v in row] for row in rows)
    out.writelines(f"# {line}\n" for line in tail)
    return out.getvalue()


def _header_lines(params: SystemParams, extra: dict[str, object]) -> list[str]:
    items = {
        "tool_version": __version__,
        "params_stamp": params_stamp(params),
        "p_s": params.p_s, "p_v": params.p_v, "p_q": params.p_q,
        "p_e": params.p_e, "B": params.B, "N": params.N,
        "delta_max": params.delta_max,
    }
    items.update(extra)
    return [f"{k} = {v}" for k, v in items.items()]


def format_comparison(params: SystemParams, rows: list[CompareRow]) -> str:
    """Long CSV, one row per (grid cell, policy)."""
    return _csv(
        _header_lines(params, {"experiment": "compare"}),
        ("p_e", "p_q", "policy", "qvaoi", "qvaoi_per_query", "monitor_qvaoi",
         "eval", "error"),
        ((r.p_e, r.p_q, r.policy, r.qvaoi, r.qvaoi_per_query, r.monitor_qvaoi,
          r.eval_mode, r.error) for r in rows),
    )


def format_action_map(
    params: SystemParams,
    policy_id: str,
    policy: PolicyTable,
    thresholds: dict[tuple[int, int], int] | None,
    warning: str | None,
) -> str:
    """Long CSV (metric, battery, action) of the table's query = 1 slice,
    with its thresholds, or the reason it has none, in the header."""
    extra: dict[str, object] = {"experiment": "regions", "policy": policy_id}
    if warning:
        extra["warning"] = warning
    head = _header_lines(params, extra)
    if thresholds is not None:
        head += [f"threshold b={b} q={q}: {thr}"
                 for (b, q), thr in sorted(thresholds.items())]
    return _csv(
        head,
        ("metric", "battery", "action"),
        ((m, b, a) for (m, b), a in np.ndenumerate(policy.actions[:, :, 1])),
    )


def format_ratio_table(
    params: SystemParams,
    points: list[RatioPoint],
    policy: str,
    target: float,
) -> str:
    """One CSV row per query rate."""
    return _csv(
        _header_lines(params, {"experiment": "sweep", "policy": policy, "target": target}),
        ("p_q", "pe_policy", "pe_greedy", "ratio", "ratio_lo", "ratio_hi", "error"),
        ((pt.p_q, pt.pe_policy, pt.pe_greedy, pt.ratio, pt.ratio_lo, pt.ratio_hi,
          pt.error) for pt in points),
    )


def format_simulation(params: SystemParams, policy_id: str, rep: ReplicationResult) -> str:
    """One CSV row per replication, then the `# mean_<kind> = <mean> +-
    <half-width>` lines. The monitor columns add `monitor_offset` to the
    CS values, the per-query ones for the query-gated kinds; every run
    starts from a full battery, B."""
    return _csv(
        (),
        ("p_s", "p_v", "p_q", "p_e", "B", "N", "delta_max",
         "policy", "horizon", "warmup", "seed",
         "aoi", "vaoi", "qaoi", "qvaoi", "qaoi_per_query", "qvaoi_per_query",
         "mon_aoi", "mon_vaoi", "mon_qaoi", "mon_qvaoi",
         "transmissions", "successes", "energy_harvested",
         "empty_battery_slots", "query_slots",
         "initial_battery", "final_battery"),
        ((params.p_s, params.p_v, params.p_q, params.p_e,
          params.B, params.N, params.delta_max,
          policy_id, s.horizon, s.warmup, s.seed,
          *(s.avg[kind] for kind in MetricKind),
          s.avg_per_query[MetricKind.QAOI], s.avg_per_query[MetricKind.QVAOI],
          *((s.avg_per_query if kind.query_gated else s.avg)[kind]
            + monitor_offset(params, kind) for kind in MetricKind),
          s.transmissions, s.successes, s.energy_harvested,
          s.empty_battery_slots, s.query_slots,
          params.B, s.final_battery) for s in rep.summaries),
        [f"mean_{kind.value} = {rep.means[kind]!r} +- {rep.half_widths[kind]!r}"
         for kind in MetricKind],
    )
