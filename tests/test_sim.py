"""Monte Carlo simulator tests: bit-for-bit agreement with the per-slot
reference loop, the flag draw from raw Philox words, determinism,
conservation laws, agreement with the exact chain, replay of the
reference loop's flags, and the monitor-side CSV columns."""

import csv
import dataclasses
import math

import numpy as np
import pytest

import semsched.sim as sim
from semsched.core import ConfigError, MetricKind, SystemParams, params_stamp
from semsched.experiments import format_simulation
from semsched.mdp import evaluate_policy_exact, rvia_solve
from semsched.metrics import SlotEvents, evolve_trace
from semsched.policies import MismatchedStamp, PolicyTable, greedy_policy
from semsched.sim import (
    STREAM_CHANNEL,
    STREAM_ENERGY,
    STREAM_INIT,
    STREAM_QUERY,
    STREAM_VERSION,
    ReplicationResult,
    SimConfig,
    SimSummary,
    _stream,
    replicate,
    simulate,
)

MID = SystemParams(
    p_s=0.8, p_v=0.25, p_q=0.3, p_e=0.2, B=4, delta_max=8,
    allow_tight_truncation=True,
)


REFERENCE_CHUNK = 1 << 18


def simulation_csv(params, policy_id, *summaries):
    """The simulate CSV of `summaries`, one replication each, read back
    with csv.reader: the column names and one list of fields per summary."""
    rep = ReplicationResult(summaries[0].avg, dict.fromkeys(MetricKind, 0.0), summaries)
    text = format_simulation(params, policy_id, rep)
    header, *rows = csv.reader(l for l in text.splitlines() if not l.startswith("#"))
    return header, rows


def reference_simulate(
    params: SystemParams, policy: PolicyTable, cfg: SimConfig
) -> tuple[SimSummary, list[SlotEvents]]:
    """The per-slot loop that `simulate` replaced, kept as its reference:
    same streams, same draws, one Python step per slot. Also returns each
    post-warmup slot's (delivered, new_version, query) flags."""
    policy.check(params)
    p = params
    dm = p.delta_max
    B = p.B
    pol_age = policy.kind.age_family
    actions = policy.actions.tolist()

    g_ch = _stream(cfg.seed, STREAM_CHANNEL)
    g_en = _stream(cfg.seed, STREAM_ENERGY)
    g_vr = _stream(cfg.seed, STREAM_VERSION)
    g_qu = _stream(cfg.seed, STREAM_QUERY)
    q = int(_stream(cfg.seed, STREAM_INIT).random() < p.p_q)

    aoi = dm
    vaoi = 0
    battery = B

    sum_aoi = sum_vaoi = sum_qaoi = sum_qvaoi = 0
    transmissions = successes = harvested = empty = 0
    query_slots = 0
    events: list[SlotEvents] = []

    warmup = cfg.warmup
    t = 0
    while t < cfg.horizon:
        n = min(REFERENCE_CHUNK, cfg.horizon - t)
        ch = (g_ch.random(n) < p.p_s).tolist()
        en = (g_en.random(n) < p.p_e).tolist()
        vr = (g_vr.random(n) < p.p_v).tolist()
        qu = (g_qu.random(n) < p.p_q).tolist()
        for i in range(n):
            if battery == 0:
                empty += 1
                delivered = 0
            else:
                m = aoi if pol_age else vaoi
                if actions[m][battery][q]:
                    battery -= 1
                    transmissions += 1
                    delivered = 1 if ch[i] else 0
                    successes += delivered
                else:
                    delivered = 0
            if en[i] and battery < B:
                battery += 1
                harvested += 1
            v = 1 if vr[i] else 0
            if delivered:
                aoi = 1
                vaoi = v
            else:
                aoi = aoi + 1 if aoi < dm else dm
                nv = vaoi + v
                vaoi = nv if nv < dm else dm
            if t + i >= warmup:
                sum_aoi += aoi
                sum_vaoi += vaoi
                if q:
                    query_slots += 1
                    sum_qaoi += aoi
                    sum_qvaoi += vaoi
                events.append(SlotEvents(delivered, v, q))
            q = 1 if qu[i] else 0
        t += n

    span = cfg.horizon - warmup
    avg = {
        MetricKind.AOI: sum_aoi / span,
        MetricKind.VAOI: sum_vaoi / span,
        MetricKind.QAOI: sum_qaoi / span,
        MetricKind.QVAOI: sum_qvaoi / span,
    }
    avg_pq = {
        MetricKind.QAOI: sum_qaoi / query_slots if query_slots else math.nan,
        MetricKind.QVAOI: sum_qvaoi / query_slots if query_slots else math.nan,
    }
    summary = SimSummary(
        avg=avg,
        avg_per_query=avg_pq,
        transmissions=transmissions,
        successes=successes,
        energy_harvested=harvested,
        empty_battery_slots=empty,
        final_battery=battery,
        query_slots=query_slots,
        horizon=cfg.horizon,
        warmup=warmup,
        seed=cfg.seed,
    )
    return summary, events



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
        a = simulate(MID, pol, cfg)
        b = simulate(MID, pol, cfg)
        assert summary_fields(a) == summary_fields(b)
        assert simulation_csv(MID, "greedy", a) == simulation_csv(MID, "greedy", b)

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
                MID.B + s.energy_harvested - s.transmissions
                == s.final_battery
            )
            assert 0 <= s.final_battery <= MID.B
            assert s.successes <= s.transmissions

    def test_no_harvesting_limits_transmissions(self):
        p = dataclasses.replace(MID, p_e=0.0)
        s = simulate(p, greedy_policy(p), SimConfig(horizon=20_000, seed=3, warmup=0))
        assert s.transmissions <= p.B
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
    def test_reference_flags_replay_to_the_reported_sums(self):
        cfg = SimConfig(horizon=20_000, seed=9, warmup=0)
        pol = greedy_policy(MID)
        s = simulate(MID, pol, cfg)
        _, events = reference_simulate(MID, pol, cfg)
        replay = evolve_trace(events, MID.delta_max)
        n = cfg.horizon
        assert sum(replay.aoi) / n == s.avg[MetricKind.AOI]
        assert sum(replay.vaoi) / n == s.avg[MetricKind.VAOI]
        assert sum(replay.qaoi) / n == s.avg[MetricKind.QAOI]
        assert sum(replay.qvaoi) / n == s.avg[MetricKind.QVAOI]
        assert sum(e.query for e in events) == s.query_slots
        assert sum(e.delivered for e in events) == s.successes


class TestStampCheck:
    def test_foreign_policy_is_rejected(self):
        other = dataclasses.replace(MID, p_e=0.5)
        with pytest.raises(MismatchedStamp, match="^policy stamp "):
            simulate(MID, greedy_policy(other), SimConfig(horizon=100, seed=1, warmup=0))

    def test_matching_stamp_with_another_geometry_is_rejected(self):
        # the stamp matches MID, but the table is laid out for delta_max 9
        wider = greedy_policy(dataclasses.replace(MID, delta_max=9))
        policy = dataclasses.replace(wider, params_stamp=params_stamp(MID))
        with pytest.raises(MismatchedStamp, match=r"\(delta_max, B\) = \(9, 4\)"):
            simulate(MID, policy, SimConfig(horizon=100, seed=1, warmup=0))


class TestMonitorSide:
    @pytest.mark.parametrize("N", [0, 4, 10])
    def test_csv_adds_the_relay_offsets(self, N):
        p = dataclasses.replace(MID, N=N)
        s = simulate(p, greedy_policy(p), SimConfig(horizon=50_000, seed=4, warmup=1000))
        columns, [fields] = simulation_csv(p, "greedy", s)
        row = {k: float(v) for k, v in zip(columns, fields) if k != "policy"}
        assert row["mon_aoi"] == row["aoi"] + N
        assert row["mon_qaoi"] == row["qaoi_per_query"] + N
        assert row["mon_vaoi"] == row["vaoi"] + N * p.p_v
        assert row["mon_qvaoi"] == row["qvaoi_per_query"] + N * p.p_v


class TestReplication:
    def test_replication_seeds_are_consecutive(self):
        cfg = SimConfig(horizon=5000, seed=100, warmup=100)
        r = replicate(MID, greedy_policy(MID), cfg, n_reps=3)
        assert [s.seed for s in r.summaries] == [100, 101, 102]
        assert len(r.summaries) == 3

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

    def test_pool_never_outnumbers_the_replications(self, monkeypatch):
        pools = []

        class Recorder:
            """Records the pool size and runs the replications in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", Recorder)
        cfg = SimConfig(horizon=500, seed=1, warmup=0)
        replicate(MID, greedy_policy(MID), cfg, n_reps=3, jobs=10**6)
        assert pools == [3]

    def test_needs_at_least_two_reps(self):
        with pytest.raises(ConfigError):
            replicate(MID, greedy_policy(MID), SimConfig(horizon=100, seed=1, warmup=0), n_reps=1)


# rates where p * 2**53 is an integer (0.25, 0.8, 1 - 2**-53) and where
# it is not (the neighbours of 0.25), down to the smallest steps
DRAW_RATES = [
    0.0, 2.0**-53, 3 * 2.0**-53,
    math.nextafter(0.25, 0), 0.25, math.nextafter(0.25, 1),
    0.8, 1 - 2.0**-53, 1.0,
]


class TestRawDraws:
    """`_below` against numpy's conversion of a raw word to random()."""

    @pytest.mark.parametrize("p", DRAW_RATES)
    def test_words_around_the_threshold(self, p):
        top = math.ceil(p * 2**53)
        words = [
            (k << 11) + d for k in (top - 1, top, top + 1) for d in (-1, 0, 2047)
        ]
        raw = np.array([w for w in words if 0 <= w < 2**64], dtype=np.uint64)
        as_random = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert np.array_equal(sim._below(raw, p), as_random < p)

    @pytest.mark.parametrize("p", [*DRAW_RATES, 0.2, 0.3])
    def test_matches_random_on_philox_streams(self, p):
        for seed in (0, 5, 2**64 - 1):
            raw, floats = _stream(seed, STREAM_CHANNEL), _stream(seed, STREAM_CHANNEL)
            # lengths off Philox's 4-word block keep both generators mid-block
            for n in (1, 7, 4096):
                flags = sim._below(raw.bit_generator.random_raw(n), p)
                assert np.array_equal(flags, floats.random(n) < p)


REF_BASE = SystemParams(
    p_s=0.8, p_v=0.3, p_q=0.4, p_e=0.3, B=3, delta_max=5,
    allow_tight_truncation=True,
)
# (p_e, p_q, p_v): the mid rates and every rate pinned at 0 or 1
REF_RATES = [
    (0.3, 0.4, 0.3), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 0.0),
]
REF_POLICIES = ["greedy", "aoi", "vaoi", "qaoi", "qvaoi", "threshold", "always"]


@pytest.fixture(scope="module")
def solved_tables():
    """Solved tables at the mid rates, per battery size; the edge-rate
    cases run these same tables under their own stamp."""
    return {
        (B, kind): rvia_solve(dataclasses.replace(REF_BASE, B=B), kind).policy
        for B in (1, 3)
        for kind in MetricKind
    }


def reference_policy(name, p, solved_tables):
    stamp = params_stamp(p)
    if name == "greedy":
        return greedy_policy(p)
    if name == "threshold":
        # transmit from metric max(1, delta_max - b - 2q) up at battery
        # b >= 1 and query q, never at battery 0
        m, b, q = np.indices((p.delta_max + 1, p.B + 1, 2))
        actions = (b >= 1) & (m >= np.maximum(1, p.delta_max - b - 2 * q))
        return PolicyTable(MetricKind.VAOI, stamp, p.delta_max, p.B, actions.astype(np.int8))
    if name == "always":
        # asks to transmit in every state, battery 0 included, which
        # PolicyTable refuses: only the simulator's forced Idle stops it
        table = object.__new__(PolicyTable)
        for attr, value in (
            ("kind", MetricKind.QVAOI), ("params_stamp", stamp),
            ("delta_max", p.delta_max), ("B", p.B),
            ("actions", np.ones((p.delta_max + 1, p.B + 1, 2), dtype=np.int8)),
        ):
            object.__setattr__(table, attr, value)
        return table
    solved = solved_tables[(p.B, MetricKind(name))]
    return PolicyTable(solved.kind, stamp, p.delta_max, p.B, solved.actions)


def assert_matches_reference(p, policy, cfg):
    got = simulate(p, policy, cfg)
    want, _ = reference_simulate(p, policy, cfg)
    # repr: bit-identical floats (nan included) and the same Python types;
    # rewalked_slots is a diagnostic of the lane walk the reference lacks
    for f in dataclasses.fields(SimSummary):
        if f.name != "rewalked_slots":
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


class TestMatchesReference:
    """`simulate` against the per-slot reference loop, bit for bit."""

    @pytest.mark.parametrize("name", REF_POLICIES)
    @pytest.mark.parametrize("rates", REF_RATES)
    @pytest.mark.parametrize("B", [1, 3])
    def test_every_policy_and_edge_rate(self, B, rates, name, solved_tables, monkeypatch):
        pe, pq, pv = rates
        p = dataclasses.replace(REF_BASE, B=B, p_e=pe, p_q=pq, p_v=pv)
        policy = reference_policy(name, p, solved_tables)
        assert_matches_reference(p, policy, SimConfig(horizon=3000, seed=B, warmup=0))
        # chunks of 7 slots carry AoI, VAoI, the state and the query flag
        # across hundreds of boundaries; warm-ups on and next to one
        monkeypatch.setattr(sim, "_CHUNK", 7)
        for warmup in (0, 700, 701, 1399):
            assert_matches_reference(
                p, policy, SimConfig(horizon=1400, seed=10 + B, warmup=warmup)
            )

    @pytest.mark.parametrize("name", REF_POLICIES)
    @pytest.mark.parametrize("rates", [(0.0, 0.0, 0.0), REF_RATES[0], (1.0, 1.0, 1.0)])
    @pytest.mark.parametrize("B", [1, 3])
    def test_certain_channel(self, B, rates, name, solved_tables):
        # p_s = 1 draws every channel flag through the p = 1 case of the
        # raw-word draw, which the reference's random() < p does not share
        pe, pq, pv = rates
        p = dataclasses.replace(REF_BASE, B=B, p_s=1.0, p_e=pe, p_q=pq, p_v=pv)
        policy = reference_policy(name, p, solved_tables)
        for warmup in (0, 1501):
            cfg = SimConfig(horizon=3000, seed=20 + B, warmup=warmup)
            assert_matches_reference(p, policy, cfg)

    @pytest.mark.parametrize("name", ["greedy", "aoi", "qvaoi", "threshold"])
    def test_warmups_at_the_chunk_boundary(self, name, solved_tables):
        c = sim._CHUNK
        policy = reference_policy(name, REF_BASE, solved_tables)
        for warmup in (0, c - 1, c, c + 1):
            cfg = SimConfig(horizon=2 * c + 3, seed=warmup, warmup=warmup)
            assert_matches_reference(REF_BASE, policy, cfg)


# _PASS_LANES 0 runs passes for as long as they fix any lane; a huge
# value stops after the first pass and leaves the rest to serial walks
PASS_LANES = [0, 1 << 30]


class TestLaneWalk:
    """The lane walk against the reference loop with tiny walk chunks and
    lanes, so that padding, lane and chunk edges and re-walks all occur."""

    @pytest.mark.parametrize("pass_lanes", PASS_LANES)
    @pytest.mark.parametrize("name", ["greedy", "aoi", "vaoi", "qvaoi", "always"])
    @pytest.mark.parametrize("walk_chunk, lanes, horizon", [
        (64, 8, 1003),  # a last chunk of 43 slots: 8 lanes of 6, the last padded
        (50, 8, 1000),  # lanes of 7 in every chunk: each last lane padded
        (40, 64, 1000),  # more lanes than slots: 40 lanes of one slot
        (1 << 17, 256, 3000),  # the default lane count on a short horizon
    ])
    def test_lane_layouts(
        self, walk_chunk, lanes, horizon, name, pass_lanes, solved_tables, monkeypatch
    ):
        monkeypatch.setattr(sim, "_WALK_CHUNK", walk_chunk)
        monkeypatch.setattr(sim, "_LANES", lanes)
        monkeypatch.setattr(sim, "_PASS_LANES", pass_lanes)
        policy = reference_policy(name, REF_BASE, solved_tables)
        assert_matches_reference(REF_BASE, policy, SimConfig(horizon=horizon, seed=3, warmup=0))

    @pytest.mark.parametrize("name", ["greedy", "aoi", "qvaoi", "threshold"])
    def test_warmups_at_the_walk_chunk_boundary(self, name, solved_tables, monkeypatch):
        # folds of 24 slots inside walk chunks of 64: 24, 24, 16
        monkeypatch.setattr(sim, "_CHUNK", 24)
        monkeypatch.setattr(sim, "_WALK_CHUNK", 64)
        monkeypatch.setattr(sim, "_LANES", 4)
        policy = reference_policy(name, REF_BASE, solved_tables)
        for warmup in (63, 64, 65):
            cfg = SimConfig(horizon=200, seed=warmup, warmup=warmup)
            assert_matches_reference(REF_BASE, policy, cfg)

    @pytest.mark.parametrize("pass_lanes", PASS_LANES)
    @pytest.mark.parametrize("name", REF_POLICIES)
    def test_lanes_shorter_than_delta_max_are_walked_again(
        self, name, pass_lanes, solved_tables, monkeypatch
    ):
        # lanes of 2 slots against delta_max 5: most guessed starts are
        # still wrong at the lane's end, and the check must catch each one
        monkeypatch.setattr(sim, "_WALK_CHUNK", 64)
        monkeypatch.setattr(sim, "_LANES", 32)
        monkeypatch.setattr(sim, "_PASS_LANES", pass_lanes)
        policy = reference_policy(name, REF_BASE, solved_tables)
        cfg = SimConfig(horizon=2000, seed=9, warmup=0)
        assert_matches_reference(REF_BASE, policy, cfg)
        rewalked = simulate(REF_BASE, policy, cfg).rewalked_slots
        # unbounded passes may fix every lane; after one, the serial walk must run
        assert 0 <= rewalked < cfg.horizon and (rewalked > 0 or pass_lanes == 0)

    def test_default_lanes_rarely_walk_again(self, solved_tables):
        policy = reference_policy("qvaoi", REF_BASE, solved_tables)
        s = simulate(REF_BASE, policy, SimConfig(horizon=1 << 18, seed=1, warmup=0))
        assert s.rewalked_slots < s.horizon // 100


class TestCsv:
    def test_row_matches_header_arity(self):
        s = simulate(MID, greedy_policy(MID), SimConfig(horizon=1000, seed=1, warmup=100))
        header, [row] = simulation_csv(MID, "greedy", s)
        assert len(row) == len(header)
        assert not math.isnan(float(row[header.index("vaoi")]))
        # every run starts from a full battery
        assert row[header.index("initial_battery")] == str(MID.B)
