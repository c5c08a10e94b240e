"""Monte Carlo simulator tests: determinism, conservation laws, agreement
with the exact chain, trace replay, and the monitor-side offsets."""

import dataclasses
import math

import numpy as np
import pytest

from semsched.core import MetricKind, SystemParams
from semsched.mdp import evaluate_policy_exact, rvia_solve
from semsched.metrics import SlotEvents, evolve_trace
from semsched.policies import greedy_policy
from semsched.sim import (
    MismatchedStamp,
    SimConfig,
    monitor_metrics,
    replicate,
    simulate,
    summary_csv_header,
    summary_csv_row,
)

MID = SystemParams(
    p_s=0.8, p_v=0.25, p_q=0.3, p_e=0.2, B=4, delta_max=8,
    allow_tight_truncation=True,
)


def summary_fields(s):
    return (
        s.avg,
        s.avg_per_query,
        s.transmissions,
        s.successes,
        s.energy_harvested,
        s.empty_battery_slots,
        s.final_battery,
        s.query_slots,
    )


class TestConfig:
    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, seed=1, warmup=-1)
        with pytest.raises(ValueError):
            SimConfig(horizon=10, seed=1, warmup=10)

    def test_rejects_seeds_outside_the_philox_key_range(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                SimConfig(horizon=10, seed=seed, warmup=0)
        SimConfig(horizon=10, seed=2**64 - 1, warmup=0)

    def test_seeds_past_two_to_the_63_stay_distinct(self):
        runs = [
            simulate(MID, greedy_policy(MID), SimConfig(horizon=2000, seed=s, warmup=0))
            for s in (2**63, 2**63 + 1)
        ]
        assert runs[0].avg != runs[1].avg


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        cfg = SimConfig(horizon=50_000, seed=11, warmup=1000)
        pol = greedy_policy(MID)
        a = simulate(MID, pol, cfg, record_trace=True)
        b = simulate(MID, pol, cfg, record_trace=True)
        assert summary_fields(a) == summary_fields(b)
        assert np.array_equal(a.trace.delivered, b.trace.delivered)
        assert np.array_equal(a.trace.new_version, b.trace.new_version)
        assert np.array_equal(a.trace.query, b.trace.query)

    def test_different_seed_differs(self):
        pol = greedy_policy(MID)
        a = simulate(MID, pol, SimConfig(horizon=50_000, seed=11, warmup=1000))
        b = simulate(MID, pol, SimConfig(horizon=50_000, seed=12, warmup=1000))
        assert summary_fields(a) != summary_fields(b)


class TestConservation:
    def test_energy_bookkeeping_balances(self):
        for seed in (1, 2, 3):
            s = simulate(
                MID, greedy_policy(MID), SimConfig(horizon=30_000, seed=seed, warmup=0)
            )
            assert (
                s.initial_battery + s.energy_harvested - s.transmissions
                == s.final_battery
            )
            assert 0 <= s.final_battery <= MID.B
            assert s.successes <= s.transmissions

    def test_no_harvesting_limits_transmissions(self):
        p = dataclasses.replace(MID, p_e=0.0)
        s = simulate(p, greedy_policy(p), SimConfig(horizon=20_000, seed=3, warmup=0))
        assert s.transmissions <= s.initial_battery
        assert s.energy_harvested == 0

    def test_dead_battery_saturates_age(self):
        # greedy drains the battery early; after warmup the age sits at
        # the truncation cap every slot
        p = dataclasses.replace(MID, p_e=0.0)
        s = simulate(p, greedy_policy(p), SimConfig(horizon=20_000, seed=3, warmup=10_000))
        assert s.avg[MetricKind.AOI] == float(p.delta_max)


class TestQueryGatingDominance:
    def test_gated_averages_never_exceed_ungated(self):
        for seed in (1, 7):
            s = simulate(MID, greedy_policy(MID), SimConfig(horizon=100_000, seed=seed, warmup=1000))
            assert s.avg[MetricKind.QAOI] <= s.avg[MetricKind.AOI]
            assert s.avg[MetricKind.QVAOI] <= s.avg[MetricKind.VAOI]


class TestKnownValues:
    def test_perfect_everything_pins_version_lag_at_one(self):
        # always a query, always energy, certain delivery, fresh version
        # every slot: the closing lag is exactly 1 forever
        p = dataclasses.replace(MID, p_s=1.0, p_e=1.0, p_v=1.0, p_q=1.0)
        s = simulate(p, greedy_policy(p), SimConfig(horizon=5000, seed=5, warmup=100))
        assert s.avg[MetricKind.VAOI] == 1.0
        assert s.avg[MetricKind.QVAOI] == 1.0
        assert s.transmissions == 5000
        assert s.successes == 5000

    def test_simulated_average_matches_exact_chain(self):
        res = rvia_solve(MID, MetricKind.QVAOI)
        s = simulate(MID, res.policy, SimConfig(horizon=10**6, seed=1, warmup=10**4))
        assert s.avg[MetricKind.QVAOI] == pytest.approx(res.gain, rel=0.01)
        # the same run meters the ungated kinds; check one against the chain
        v_exact = evaluate_policy_exact(MID, MetricKind.VAOI, res.policy)
        assert s.avg[MetricKind.VAOI] == pytest.approx(v_exact, rel=0.02)

    def test_per_query_average_scales_the_gated_one(self):
        s = simulate(MID, greedy_policy(MID), SimConfig(horizon=200_000, seed=2, warmup=1000))
        n = s.horizon - s.warmup
        if s.query_slots:
            expect = s.avg[MetricKind.QVAOI] * n / s.query_slots
            assert s.avg_per_query[MetricKind.QVAOI] == pytest.approx(expect, rel=1e-12)


class TestTraceReplay:
    def test_recorded_flags_replay_to_the_reported_sums(self):
        cfg = SimConfig(horizon=20_000, seed=9, warmup=0)
        s = simulate(MID, greedy_policy(MID), cfg, record_trace=True)
        events = [
            SlotEvents(int(d), int(v), int(q))
            for d, v, q in zip(s.trace.delivered, s.trace.new_version, s.trace.query)
        ]
        replay = evolve_trace(events, MID.delta_max)
        n = cfg.horizon
        assert sum(replay.aoi) / n == s.avg[MetricKind.AOI]
        assert sum(replay.vaoi) / n == s.avg[MetricKind.VAOI]
        assert sum(replay.qaoi) / n == s.avg[MetricKind.QAOI]
        assert sum(replay.qvaoi) / n == s.avg[MetricKind.QVAOI]
        assert int(s.trace.query.sum()) == s.query_slots
        assert int(s.trace.delivered.sum()) == s.successes

    def test_trace_is_post_warmup_only(self):
        cfg = SimConfig(horizon=5000, seed=9, warmup=2000)
        s = simulate(MID, greedy_policy(MID), cfg, record_trace=True)
        assert len(s.trace.delivered) == 3000

    def test_no_trace_by_default(self):
        s = simulate(MID, greedy_policy(MID), SimConfig(horizon=100, seed=1, warmup=0))
        assert s.trace is None


class TestStampCheck:
    def test_foreign_policy_is_rejected(self):
        other = dataclasses.replace(MID, p_e=0.5)
        with pytest.raises(MismatchedStamp):
            simulate(MID, greedy_policy(other), SimConfig(horizon=100, seed=1, warmup=0))


class TestMonitorSide:
    def test_zero_hops_changes_nothing(self):
        p = dataclasses.replace(MID, N=0)
        cfg = SimConfig(horizon=50_000, seed=4, warmup=1000)
        s = simulate(p, greedy_policy(p), cfg, record_trace=True)
        mm = monitor_metrics(s, s.trace, p, seed=cfg.seed)
        assert mm.analytic[MetricKind.AOI] == s.avg[MetricKind.AOI]
        assert mm.analytic[MetricKind.VAOI] == s.avg[MetricKind.VAOI]
        assert mm.overlay[MetricKind.VAOI] == s.avg[MetricKind.VAOI]

    def test_age_offset_is_exact(self):
        p = dataclasses.replace(MID, N=7)
        cfg = SimConfig(horizon=50_000, seed=4, warmup=1000)
        s = simulate(p, greedy_policy(p), cfg, record_trace=True)
        mm = monitor_metrics(s, s.trace, p, seed=cfg.seed)
        assert mm.analytic[MetricKind.AOI] == s.avg[MetricKind.AOI] + 7
        assert mm.analytic[MetricKind.QAOI] == s.avg_per_query[MetricKind.QAOI] + 7
        assert mm.overlay[MetricKind.AOI] == mm.analytic[MetricKind.AOI]

    def test_version_offset_matches_overlay_in_the_mean(self):
        p = dataclasses.replace(MID, N=4)
        cfg = SimConfig(horizon=200_000, seed=4, warmup=1000)
        s = simulate(p, greedy_policy(p), cfg, record_trace=True)
        mm = monitor_metrics(s, s.trace, p, seed=cfg.seed)
        assert mm.analytic[MetricKind.VAOI] == s.avg[MetricKind.VAOI] + 4 * p.p_v
        # Binomial(4, .25) noise over 199k slots: the overlay mean sits
        # within a few mills of the closed form
        assert mm.overlay[MetricKind.VAOI] == pytest.approx(
            mm.analytic[MetricKind.VAOI], abs=0.02
        )
        assert mm.overlay[MetricKind.QVAOI] == pytest.approx(
            mm.analytic[MetricKind.QVAOI], abs=0.1
        )

    def test_overlay_requires_a_trace(self):
        s = simulate(MID, greedy_policy(MID), SimConfig(horizon=100, seed=1, warmup=0))
        with pytest.raises(ValueError):
            monitor_metrics(s, None, MID, seed=1)

    def test_overlay_is_deterministic_in_the_seed(self):
        p = dataclasses.replace(MID, N=4)
        cfg = SimConfig(horizon=20_000, seed=4, warmup=0)
        s = simulate(p, greedy_policy(p), cfg, record_trace=True)
        a = monitor_metrics(s, s.trace, p, seed=cfg.seed)
        b = monitor_metrics(s, s.trace, p, seed=cfg.seed)
        assert a.overlay == b.overlay


class TestReplication:
    def test_replication_seeds_are_consecutive(self):
        cfg = SimConfig(horizon=5000, seed=100, warmup=100)
        r = replicate(MID, greedy_policy(MID), cfg, n_reps=3)
        assert [s.seed for s in r.summaries] == [100, 101, 102]
        assert r.n_reps == 3

    def test_interval_shrinks_with_sample_size(self):
        cfg = SimConfig(horizon=5000, seed=100, warmup=100)
        pol = greedy_policy(MID)
        small_r = replicate(MID, pol, cfg, n_reps=3)
        big_r = replicate(MID, pol, cfg, n_reps=12)
        k = MetricKind.VAOI
        assert big_r.half_widths[k] < small_r.half_widths[k] * 2
        assert small_r.means[k] == pytest.approx(big_r.means[k], rel=0.2)

    def test_parallel_jobs_change_nothing(self):
        cfg = SimConfig(horizon=5000, seed=100, warmup=100)
        pol = greedy_policy(MID)
        seq = replicate(MID, pol, cfg, n_reps=4, jobs=1)
        par = replicate(MID, pol, cfg, n_reps=4, jobs=2)
        assert seq.means == par.means
        assert seq.half_widths == par.half_widths

    def test_needs_at_least_two_reps(self):
        with pytest.raises(ValueError):
            replicate(MID, greedy_policy(MID), SimConfig(horizon=100, seed=1, warmup=0), n_reps=1)


class TestCsv:
    def test_row_matches_header_arity(self):
        s = simulate(MID, greedy_policy(MID), SimConfig(horizon=1000, seed=1, warmup=100))
        header = summary_csv_header()
        row = summary_csv_row(MID, "greedy", s)
        assert len(row.split(",")) == len(header.split(","))
        assert not math.isnan(float(row.split(",")[header.split(",").index("vaoi")]))
