"""Experiment-layer tests on deliberately small instances: the policy
comparison, transmission regions, and the required-charging-rate search."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest

import semsched.experiments as experiments
import semsched.sim as sim
from semsched.core import MetricKind, SystemParams, params_stamp
from semsched.experiments import (
    CompareRow,
    TargetUnreachable,
    charging_sweep,
    compare_policies,
    comparison_grid,
    format_action_map,
    format_comparison,
    format_ratio_table,
    required_charging_rate,
)
from semsched.mdp import SolveResult, evaluate_policy_exact, rvia_solve
from semsched.policies import (
    NotThresholdStructured,
    extract_thresholds,
    greedy_policy,
)
from semsched.sim import SimConfig

SMALL = SystemParams(
    p_s=0.8, p_v=0.25, p_q=0.3, p_e=0.1, B=2, delta_max=6,
    allow_tight_truncation=True,
)


class TestComparePolicies:
    def test_greedy_row_matches_direct_evaluation(self):
        row = compare_policies(SMALL)[0]
        assert row.policy == "greedy"
        direct = evaluate_policy_exact(SMALL, MetricKind.QVAOI, greedy_policy(SMALL))
        assert row.eval_mode == "exact"
        assert row.error is None
        assert row.qvaoi == pytest.approx(direct, abs=1e-12)
        assert row.qvaoi_per_query == pytest.approx(direct / SMALL.p_q, abs=1e-12)
        assert row.monitor_qvaoi == pytest.approx(
            row.qvaoi_per_query + SMALL.N * SMALL.p_v, abs=1e-12
        )

    def test_the_matching_policy_wins_its_own_meter(self):
        rows = compare_policies(SMALL)
        assert [r.policy for r in rows] == list(experiments.POLICY_NAMES)
        by_name = {r.policy: r for r in rows}
        best = by_name["qvaoi"].qvaoi
        for r in rows:
            assert best <= r.qvaoi + 1e-9

    def test_delta_max_28_cell_is_pinned_to_the_last_bit(self):
        # the benchmark's comparison cell, as its CSV prints the qvaoi column
        p = dataclasses.replace(SystemParams(), delta_max=28, p_e=0.05, p_q=0.2)
        assert [(r.policy, repr(r.qvaoi)) for r in compare_policies(p)] == [
            ("greedy", "1.2333121686001005"),
            ("aoi", "0.7380946905123216"),
            ("vaoi", "0.6333929192083702"),
            ("qaoi", "0.549143149551055"),
            ("qvaoi", "0.4793851023925359"),
        ]

    def test_simulated_mode_is_close_to_exact(self):
        cfg = SimConfig(horizon=300_000, seed=3, warmup=5000)
        # greedy's rows, the first of each table
        sim_row = compare_policies(SMALL, sim_cfg=cfg)[0]
        exact_row = compare_policies(SMALL)[0]
        assert sim_row.policy == exact_row.policy == "greedy"
        assert sim_row.eval_mode == "simulated"
        assert sim_row.qvaoi == pytest.approx(exact_row.qvaoi, rel=0.05)
        assert exact_row.eval_mode == "exact"
        assert sim_row.error is None and exact_row.error is None
        assert sim_row.chain_states == exact_row.chain_states == 42


class TestComparisonGrid:
    def test_cells_cover_the_grid_in_order(self):
        rows = comparison_grid(
            SMALL,
            pe_values=(0.1, 0.3),
            pq_values=(0.2,),
        )
        assert [(r.p_e, r.p_q, r.policy) for r in rows] == [
            (pe, 0.2, name) for pe in (0.1, 0.3) for name in experiments.POLICY_NAMES
        ]

    def test_workers_do_not_change_the_numbers(self):
        kw = dict(pe_values=(0.1, 0.2), pq_values=(0.3,))
        seq = comparison_grid(SMALL, jobs=1, **kw)
        par = comparison_grid(SMALL, jobs=2, **kw)
        assert [r.qvaoi for r in seq] == [r.qvaoi for r in par]

    def test_pool_never_outnumbers_the_cells(self, monkeypatch):
        pools = []

        class Recorder:
            """Records the pool size and runs the cells in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", Recorder)
        comparison_grid(
            SMALL, pe_values=(0.1, 0.2), pq_values=(0.3,), jobs=10**6,
        )
        assert pools == [2]

    def test_one_cell_runs_in_this_process(self, monkeypatch):
        # one cell needs one worker, so no pool is forked for it
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} was constructed")

        # neither module that could fork a pool may construct one
        for module in (sim, experiments):
            monkeypatch.setattr(module, "ProcessPoolExecutor", no_pool, raising=False)
        rows = comparison_grid(SMALL, pe_values=(0.1,), pq_values=(0.3,), jobs=2)
        assert [(r.p_e, r.p_q) for r in rows] == [(0.1, 0.3)] * 5


def region_map(policy_id, policy):
    """format_action_map of a table as cmd_regions writes it, and the
    table's (metric, battery) -> action rows read back."""
    try:
        thresholds, warning = extract_thresholds(policy), None
    except NotThresholdStructured as exc:
        thresholds, warning = None, str(exc)
    text = format_action_map(SMALL, policy_id, policy, thresholds, warning)
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "metric,battery,action"
    grid = np.zeros((SMALL.delta_max + 1, SMALL.B + 1), dtype=int)
    for row in rows[1:]:
        m, b, a = map(int, row.split(","))
        grid[m, b] = a
    assert len(rows) == 1 + grid.size
    return text, grid


class TestRegionMap:
    def test_greedy_region_is_battery_feasibility(self):
        text, grid = region_map("greedy", greedy_policy(SMALL))
        assert not grid[:, 0].any()
        assert grid[:, 1:].all()
        assert "# policy = greedy" in text
        assert "# threshold b=0 q=1: 7" in text
        assert "# warning" not in text

    def test_solved_version_region_spares_zero_lag(self):
        policy = rvia_solve(SMALL, MetricKind.QVAOI).policy
        text, grid = region_map("qvaoi", policy)
        assert "# policy = qvaoi" in text
        assert not grid[0].any()
        assert np.array_equal(grid, policy.actions.reshape(7, 3, 2)[:, :, 1])

    def test_a_table_without_threshold_structure_carries_the_reason(self):
        actions = greedy_policy(SMALL).actions.copy()
        actions.reshape(7, 3, 2)[2, 1, 1] = 0  # idle at metric 2 alone
        table = dataclasses.replace(greedy_policy(SMALL), actions=actions)
        text, grid = region_map("greedy", table)
        assert "# warning = non-threshold slices (battery, query): (1, 1)" in text
        assert "# threshold" not in text
        assert grid[2, 1] == 0 and grid[3, 1] == 1


class TestRequiredChargingRate:
    def test_bracket_and_feasibility_invariants(self):
        r = required_charging_rate("qvaoi", 2.5, SMALL, p_q=0.3, tol=1e-2)
        assert r.bracket_hi - r.bracket_lo <= 1e-2 + 1e-15
        assert 0.0 < r.bracket_hi <= 1.0
        assert r.evaluations[0][0] == 1.0
        at_star = dataclasses.replace(SMALL, p_e=r.bracket_hi, p_q=0.3)
        val = (
            evaluate_policy_exact(
                at_star, MetricKind.QVAOI, rvia_solve(at_star, MetricKind.QVAOI).policy
            )
            / 0.3
        )
        assert val <= 2.5 + 1e-9

    def test_easier_targets_need_less_charging(self):
        tight = required_charging_rate("qvaoi", 2.0, SMALL, p_q=0.3, tol=1e-2)
        loose = required_charging_rate("qvaoi", 3.5, SMALL, p_q=0.3, tol=1e-2)
        assert loose.bracket_hi <= tight.bracket_hi + 1e-12

    def test_impossible_target_is_reported_with_the_best_value(self):
        with pytest.raises(TargetUnreachable) as exc:
            required_charging_rate("qvaoi", 0.0, SMALL, p_q=0.3, tol=1e-2)
        best = re.fullmatch(r"target 0.0 unreachable: value (\S+) at p_e = 1", str(exc.value))
        assert float(best[1]) > 0.0

    def test_a_tolerance_below_float_spacing_ends(self, monkeypatch):
        # the bracket stops at adjacent floats, long before 200 evaluations
        calls = []
        evaluate = experiments.evaluate_policy_exact

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 200, "bisection did not stop"
            return evaluate(*args)

        monkeypatch.setattr(experiments, "evaluate_policy_exact", counted)
        r = required_charging_rate("greedy", 2.5, SMALL, p_q=0.3, tol=1e-300)
        assert 0.0 < r.bracket_lo < r.bracket_hi
        assert (r.bracket_lo + r.bracket_hi) / 2 in (r.bracket_lo, r.bracket_hi)


class TestChargingSweep:
    def test_greedy_against_itself_is_ratio_one(self):
        (pt,) = charging_sweep(SMALL, "greedy", 3.0, (0.3,), tol=1e-2)
        assert pt.error is None
        assert pt.ratio == 1.0
        assert pt.ratio_lo <= 1.0 <= pt.ratio_hi

    def test_aware_policy_never_needs_more_energy(self):
        (pt,) = charging_sweep(SMALL, "qvaoi", 2.5, (0.3,), tol=1e-2)
        assert pt.error is None
        assert pt.ratio <= 1.0 + 1e-12
        assert pt.pe_policy <= pt.pe_greedy + 1e-12

    @pytest.mark.parametrize("kind", ["qvaoi", "greedy"])
    def test_greedy_is_bisected_once_per_sweep(self, monkeypatch, kind):
        # greedy's per-query average does not depend on p_q, so one search,
        # p_e = 1 and ten bisection points, serves every point, and both
        # sides of every point when greedy is also the policy swept
        made = []
        monkeypatch.setattr(
            experiments, "greedy_policy", lambda p: made.append(p) or greedy_policy(p)
        )
        pts = charging_sweep(SMALL, kind, 2.5, (0.1, 0.2, 0.3, 0.4), tol=1e-3)
        assert len(made) == 11
        assert len({pt.pe_greedy for pt in pts}) == 1
        for pt in pts:
            alone = required_charging_rate("greedy", 2.5, SMALL, pt.p_q, tol=1e-3)
            assert pt.error is None and pt.pe_greedy == alone.bracket_hi

    def test_a_greedy_error_is_reported_at_every_point(self, monkeypatch):
        searched = []
        search = experiments.required_charging_rate

        def failing_greedy(kind, target, params, p_q, tol):
            if kind != "greedy":
                return search(kind, target, params, p_q, tol)
            searched.append(p_q)
            raise TargetUnreachable(target, 9.0)

        monkeypatch.setattr(experiments, "required_charging_rate", failing_greedy)
        pts = charging_sweep(SMALL, "qvaoi", 2.5, (0.2, 0.3), tol=1e-2)
        assert searched == [0.2]
        assert [pt.error for pt in pts] == [str(TargetUnreachable(2.5, 9.0))] * 2

    def test_failed_points_do_not_stop_the_sweep(self):
        pts = charging_sweep(SMALL, "qvaoi", 0.0, (0.2, 0.3), tol=1e-2)
        assert len(pts) == 2
        assert all(pt.error is not None for pt in pts)
        assert all(math.isnan(pt.ratio) for pt in pts)


class TestFormatting:
    def test_comparison_tables_carry_header_and_rows(self):
        rows = comparison_grid(SMALL, pe_values=(0.1,), pq_values=(0.3,))
        text = format_comparison(SMALL, rows)
        assert f"# params_stamp = {params_stamp(SMALL)}" in text
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data) == 1 + 5  # column header + one row per policy
        assert data[0] == "p_e,p_q,policy,qvaoi,qvaoi_per_query,monitor_qvaoi,eval,error"
        r = rows[0]
        assert data[1] == (
            f"0.1,0.3,greedy,{r.qvaoi!r},{r.qvaoi_per_query!r},{r.monitor_qvaoi!r},exact,"
        )

    def test_an_error_holding_a_comma_reads_back_as_one_field(self):
        error = 'span 0.5, bracket [1, 2]: "stalled"'
        row = CompareRow(0.1, 0.3, "aoi", math.nan, math.nan, math.nan, "none",
                         dict.fromkeys(SolveResult.RECORD_KEYS), error)
        text = format_comparison(SMALL, [row])
        header, *rows = csv.reader(l for l in text.splitlines() if not l.startswith("#"))
        assert rows == [["0.1", "0.3", "aoi", "nan", "nan", "nan", "none", error]]
        assert len(header) == len(rows[0])

    def test_ratio_table_lists_every_point(self):
        pts = charging_sweep(SMALL, "greedy", 3.0, (0.3,), tol=5e-2)
        text = format_ratio_table(SMALL, pts, "greedy", 3.0)
        assert "# target = 3" in text
        data = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert len(data) == 1 + len(pts)
