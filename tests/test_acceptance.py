"""Release acceptance checks.

One test per criterion; each prints a single [PASS]/[FAIL] verdict line
(visible with -s, and in the captured output on failure).
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import semsched.mdp as mdp
from semsched.core import MetricKind, SystemParams, params_stamp
from semsched.experiments import charging_sweep, comparison_grid
from semsched.mdp import evaluate_policy_exact, rvia_solve
from semsched.metrics import SlotEvents, evolve_trace
from semsched.policies import PolicyTable, extract_thresholds, greedy_policy
from semsched.sim import SimConfig, replicate, simulate
from test_mdp import bruteforce_optimum
from test_sim import simulation_csv


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}", flush=True)
        raise
    print(f"[PASS] {label}", flush=True)


def battery_rule(params, min_battery, query_gated):
    """Metric-blind table: transmit iff battery >= min_battery (and the
    query flag is up, when gated)."""
    dm, B = params.delta_max, params.B
    row = (np.arange(B + 1) >= min_battery).astype(np.int8)
    grid = np.zeros((dm + 1, B + 1, 2), dtype=np.int8)
    grid[:, :, 1] = row
    if not query_gated:
        grid[:, :, 0] = row
    return PolicyTable(
        kind=MetricKind.AOI,  # tag is irrelevant for a metric-blind table
        params_stamp=params_stamp(params),
        delta_max=dm,
        B=B,
        actions=grid,
    )


def test_solver_agrees_with_exhaustive_oracle_on_small_instances():
    rng = random.Random(20260822)
    started = time.time()
    checks = 0
    worst_gap = 0.0
    with verdict("criterion 1: solver gain = brute-force optimum on random small instances"):
        for _ in range(20):
            B = rng.choice([1, 2])
            dm = rng.randint(2, 5) if B == 1 else rng.randint(1, 2)
            p = SystemParams(
                p_s=rng.choice([0.3, 0.5, 0.8, 1.0]),
                p_v=rng.choice([0.1, 0.25, 0.5, 0.9]),
                p_q=rng.choice([0.1, 0.3, 0.5, 0.9]),
                p_e=rng.choice([0.05, 0.2, 0.5, 0.8]),
                B=B,
                delta_max=dm,
                allow_tight_truncation=True,
            )
            for kind in MetricKind:
                res = rvia_solve(p, kind)
                _, best = bruteforce_optimum(p, kind)
                gap = abs(res.gain - best)
                worst_gap = max(worst_gap, gap)
                assert gap <= 1e-6, (p, kind, res.gain, best)
                sc = evaluate_policy_exact(p, kind, res.policy)
                assert abs(sc - res.gain) <= 1e-9, (p, kind)
                checks += 1
        assert checks == 80
        elapsed = time.time() - started
        assert elapsed < 60.0
    print(f"       80 instance/kind pairs, max gain gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_simulator_reproduces_exact_chain_averages_at_scale():
    cases = [
        (0.05, 0.20, lambda p: greedy_policy(p)),
        (0.20, 0.40, lambda p: battery_rule(p, 1, query_gated=True)),
        (0.10, 0.30, lambda p: battery_rule(p, 3, query_gated=False)),
        (0.30, 0.20, lambda p: battery_rule(p, 2, query_gated=True)),
        (0.15, 0.25, lambda p: battery_rule(p, 5, query_gated=False)),
    ]
    with verdict("criterion 2: 10^6-slot simulation matches the exact chain on all four metrics"):
        for i, (pe, pq, make) in enumerate(cases):
            started = time.time()
            p = replace(SystemParams(), p_e=pe, p_q=pq)
            pol = make(p)
            rep = replicate(
                p, pol, SimConfig(horizon=10**6, seed=40 + i, warmup=10**4),
                n_reps=10, jobs=4,
            )
            for kind in MetricKind:
                exact = evaluate_policy_exact(p, kind, pol)
                dev = abs(rep.means[kind] - exact)
                assert dev <= 3.0 * rep.half_widths[kind], (pe, pq, kind, dev)
            assert time.time() - started < 60.0


REFERENCE_EVENTS = [
    (0, 1, 0), (1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 0),
    (0, 1, 1), (0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 0), (0, 0, 0),
    (0, 0, 1), (1, 0, 0),
]


def test_reference_episode_replays_exactly():
    with verdict("criterion 3: reference episode landmarks replay as exact integers"):
        t = evolve_trace([SlotEvents(*e) for e in REFERENCE_EVENTS], delta_max=20)
        # first delivery: age resets to 1, version lag clears
        assert t.aoi[1] == 1 and t.vaoi[1] == 0
        # five versions pile up before the second delivery clears them
        assert t.vaoi[12] == 5 and t.vaoi[13] == 0
        query_slots = [i for i, e in enumerate(REFERENCE_EVENTS) if e[2]]
        assert query_slots == [4, 6, 9, 12]
        for i in range(len(REFERENCE_EVENTS)):
            if i in query_slots:
                assert t.qaoi[i] == t.aoi[i] and t.qvaoi[i] == t.vaoi[i]
            else:
                assert t.qaoi[i] == 0 and t.qvaoi[i] == 0


def test_policy_comparison_orderings_hold():
    base = SystemParams(delta_max=60)
    with verdict("criterion 4: policy orderings and query-rate directions in all four cells"):
        cells = {}
        for r in comparison_grid(
            base, pe_values=(0.05, 0.20), pq_values=(0.2, 0.4), jobs=4
        ):
            cells.setdefault((r.p_e, r.p_q), []).append(r)
        table = {}
        for (p_e, p_q), cell in cells.items():
            rows = {r.policy: r for r in cell}
            assert all(r.error is None and r.eval_mode == "exact" for r in cell)
            assert rows["qvaoi"].qvaoi <= rows["qaoi"].qvaoi + 1e-9
            assert rows["vaoi"].qvaoi <= rows["aoi"].qvaoi + 1e-9
            for name in ("aoi", "vaoi", "qaoi", "qvaoi"):
                assert rows[name].qvaoi < rows["greedy"].qvaoi
            table[(p_e, p_q)] = rows
        # more frequent queries hurt under scarce energy, help under rich
        assert (
            table[(0.05, 0.4)]["qvaoi"].qvaoi_per_query
            > table[(0.05, 0.2)]["qvaoi"].qvaoi_per_query
        )
        assert (
            table[(0.20, 0.4)]["qvaoi"].qvaoi_per_query
            < table[(0.20, 0.2)]["qvaoi"].qvaoi_per_query
        )
        anchors = {
            (0.05, 0.2): 2.398950, (0.05, 0.4): 2.850753,
            (0.20, 0.2): 0.564762, (0.20, 0.4): 0.511497,
        }
        for key, want in anchors.items():
            assert table[key]["qvaoi"].qvaoi_per_query == pytest.approx(want, abs=1e-4)


def test_transmission_regions_are_threshold_structured_and_nested():
    base = replace(SystemParams(), p_q=0.3)
    with verdict("criterion 5: threshold structure, no transmissions at zero lag, nested regions"):
        grids = {}
        for pe in (0.05, 0.20):
            cell = replace(base, p_e=pe)
            policy = rvia_solve(cell, MetricKind.QVAOI).policy
            extract_thresholds(policy)  # raises NotThresholdStructured otherwise
            grid = policy.actions[:, :, 1]
            assert not grid[0].any()
            grids[pe] = grid
            vpol = rvia_solve(cell, MetricKind.VAOI).policy
            assert not vpol.actions[0].any()
        assert np.all(grids[0.05] <= grids[0.20])


def test_charging_rate_advantage_anchor_and_dominance():
    with verdict("criterion 6: required-charging-rate ratio anchor and dominance over query rates"):
        points = charging_sweep(
            SystemParams(), "qvaoi", target=1.5,
            p_q_values=(0.1, 0.2, 0.3, 0.4), tol=1e-3,
        )
        assert all(pt.error is None for pt in points)
        anchor = points[0]
        assert anchor.p_q == 0.1
        assert 0.17 <= anchor.ratio <= 0.37, anchor
        for pt in points:
            assert pt.ratio <= 1.0 + 1e-12, pt


def test_monitor_side_offsets():
    with verdict("criterion 7: the simulate CSV adds N (age) and N * p_v (version lag) at the monitor"):
        for N in (0, 4, 10):
            p = replace(SystemParams(), N=N, p_e=0.2, p_q=0.3)
            cfg = SimConfig(horizon=300_000, seed=70 + N, warmup=5000)
            s = simulate(p, greedy_policy(p), cfg)
            columns, [fields] = simulation_csv(p, "greedy", s)
            row = {k: float(v) for k, v in zip(columns, fields) if k != "policy"}
            assert row["mon_aoi"] == row["aoi"] + N
            assert row["mon_qaoi"] == row["qaoi_per_query"] + N
            assert row["mon_vaoi"] == row["vaoi"] + N * p.p_v
            assert row["mon_qvaoi"] == row["qvaoi_per_query"] + N * p.p_v


def test_structural_properties_hold():
    with verdict("criterion 8: normalization, conservation, gating dominance, determinism, monotone gain"):
        # the solver's transition rows are probability distributions: every
        # row of the chain of all Idle, and of Transmit wherever the
        # battery allows it
        for p in (
            SystemParams(B=2, delta_max=4, allow_tight_truncation=True),
            replace(SystemParams(), p_e=0.2, p_q=0.3),
        ):
            for kind in (MetricKind.AOI, MetricKind.QVAOI):
                m = mdp._build_model(p, kind)
                charged = np.repeat(m.battery[:, None] >= 1, 2, axis=1)
                for table in (np.zeros_like(charged), charged):
                    P = mdp._policy_matrix(m, table.astype(np.int8))
                    totals = np.asarray(P.sum(axis=1)).ravel()
                    assert np.abs(totals - 1.0).max() <= 1e-12

        # conservation, gating dominance, determinism on full runs
        p = replace(SystemParams(), p_e=0.2, p_q=0.3)
        solved = rvia_solve(p, MetricKind.QVAOI).policy
        for pol in (greedy_policy(p), solved):
            for seed in (1, 2):
                cfg = SimConfig(horizon=200_000, seed=seed, warmup=1000)
                s = simulate(p, pol, cfg)
                assert (
                    p.B + s.energy_harvested - s.transmissions
                    == s.final_battery
                )
                assert s.avg[MetricKind.QAOI] <= s.avg[MetricKind.AOI]
                assert s.avg[MetricKind.QVAOI] <= s.avg[MetricKind.VAOI]
                again = simulate(p, pol, cfg)
                assert simulation_csv(p, "x", s) == simulation_csv(p, "x", again)

        # optimal gain is monotone in charging and channel quality
        ps_grid = (0.5, 0.6, 0.7, 0.8, 0.9)
        pe_grid = (0.1, 0.2, 0.3, 0.4, 0.5)
        gains = np.empty((5, 5))
        for i, ps in enumerate(ps_grid):
            for j, pe in enumerate(pe_grid):
                cell = SystemParams(p_s=ps, p_e=pe, p_v=0.25, p_q=0.3, B=2, delta_max=20)
                gains[i, j] = rvia_solve(cell, MetricKind.VAOI).gain
        assert np.all(np.diff(gains, axis=1) <= 1e-9)
        assert np.all(np.diff(gains, axis=0) <= 1e-9)
