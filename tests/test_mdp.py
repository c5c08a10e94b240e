"""Solver tests: the transition model's rows and costs, RVIA vs the
brute-force oracle, exact policy evaluation, and the solve-result file."""

import dataclasses
import hashlib
from itertools import product
from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import semsched.mdp as mdp
from semsched.core import MetricKind, SystemParams, params_stamp
from semsched.mdp import (
    MultichainPolicy,
    NotConverged,
    SolveResult,
    SingularSolve,
    _closed_classes,
    _solve_chain,
    evaluate_policy_exact,
    evaluation_chain_size,
    format_solve_result,
    rvia_solve,
    save_solve_result,
)
from semsched.metrics import step_aoi, step_vaoi
from semsched.policies import (
    MismatchedStamp,
    PolicyTable,
    greedy_policy,
    parse_policy,
    state_count,
)
from test_policies import split_solve_file

IDLE, TRANSMIT = 0, 1  # the two actions, as a table holds them


class AgentState(NamedTuple):
    """(metric value, battery level, query flag): one MDP state."""

    metric: int
    battery: int
    query: int


def small(**over):
    base = dict(
        p_s=0.8, p_v=0.25, p_q=0.2, p_e=0.05, B=2, delta_max=4,
        allow_tight_truncation=True,
    )
    base.update(over)
    return SystemParams(**base)


PROBS = st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0])


@st.composite
def instance_and_state(draw):
    p = small(
        p_s=draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0])),
        p_v=draw(PROBS),
        p_q=draw(PROBS),
        p_e=draw(PROBS),
        B=draw(st.integers(1, 3)),
        delta_max=draw(st.integers(2, 6)),
    )
    s = AgentState(
        metric=draw(st.integers(0, p.delta_max)),
        battery=draw(st.integers(0, p.B)),
        query=draw(st.integers(0, 1)),
    )
    kind = draw(st.sampled_from(list(MetricKind)))
    if s.battery >= 1:
        a = draw(st.sampled_from([IDLE, TRANSMIT]))
    else:
        a = IDLE
    return p, kind, s, a


# --- dense reference chains ----------------------------------------------
# Built outcome by outcome from the scalar step rules of `metrics`, the
# battery rule and the gated cost, with no semsched.mdp code, so that the
# solver and the evaluator are checked against a model they do not share.

def outcomes(p, a):
    """Each outcome of one slot under action `a`: (probability, delivered,
    new version, harvest, next query); Transmit adds the channel draw."""
    channel = [(1, p.p_s), (0, 1 - p.p_s)] if a else [(0, 1.0)]
    for (u, pu), (e, pe), (v, pv), (q2, pq2) in product(
        channel,
        [(1, p.p_e), (0, 1 - p.p_e)],
        [(1, p.p_v), (0, 1 - p.p_v)],
        [(1, p.p_q), (0, 1 - p.p_q)],
    ):
        yield pu * pe * pv * pq2, bool(a and u), bool(v), e, q2


def dense_chain(p, ages, act):
    """Dense chain over (one metric per entry of `ages`, battery, query),
    states in product order, under act(state) in {0, 1}; True in `ages` is
    an age, False a version lag. Also returns each state's expected
    closing value of every metric, the value the slot ends with, which a
    query-aware meter charges at query slots."""
    dm, B = p.delta_max, p.B
    states = list(product(*[range(dm + 1)] * len(ages), range(B + 1), (0, 1)))
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    closing = np.zeros((len(states), len(ages)))
    for i, s in enumerate(states):
        *ms, b, q = s
        a = act(s)
        for prob, delivered, v, e, q2 in outcomes(p, a):
            ms2 = [
                step_aoi(m, delivered, dm) if age else step_vaoi(m, delivered, v, dm)
                for age, m in zip(ages, ms)
            ]
            P[i, index[(*ms2, min(b - a + e, B), q2)]] += prob
            closing[i] += prob * np.array(ms2)
    return states, P, closing


def stage_costs(kind, states, closing, k=0):
    """`kind`'s expected one-slot cost per state, metered on metric k: the
    metric itself, or the closing metric at query slots only."""
    if kind.query_gated:
        return np.array([s[-1] for s in states]) * closing[:, k]
    return np.array([s[k] for s in states], dtype=float)


def start_states(p, states, metrics):
    """The simulator's initial states: the given metrics, full battery,
    and each query flag the Bernoulli(p_q) draw can take."""
    return [
        states.index((*metrics, p.B, q))
        for q, pq in ((0, 1 - p.p_q), (1, p.p_q)) if pq > 0
    ]


def chain_averages(P, c, starts):
    """Long-run average cost of each chain P[k] under the costs c[k] from
    the start states; nan where several recurrent classes are reachable.

    Stationary vectors come from pi (I - P + 1 1^T) = 1^T, nonsingular
    exactly when the chain is unichain; rows of states unreachable from
    the starts are first redirected to a start, so that closed classes out
    of reach cannot make the system singular.
    """
    nm, n, _ = P.shape
    A = ((P > 0.0) | np.eye(n, dtype=bool)).astype(np.float32)
    for _ in range(int(np.ceil(np.log2(n))) + 1):
        A = (A @ A > 0.0).astype(np.float32)
    A = A > 0.0  # A[k, i, j]: j reachable from i
    reach = A[:, starts, :].any(axis=1)
    recurrent = reach & np.all(~A | A.transpose(0, 2, 1), axis=2)
    multi = (recurrent[:, :, None] & recurrent[:, None, :] & ~A).any(axis=(1, 2))
    unreach = ~reach
    Pm = np.where(unreach[:, :, None], 0.0, P)
    Pm[:, :, starts[0]] += unreach
    good = np.flatnonzero(~multi)
    averages = np.full(nm, np.nan)
    if good.size:
        M = np.transpose(np.eye(n) - Pm[good], (0, 2, 1)) + 1.0
        pi = np.linalg.solve(M, np.ones((good.size, n, 1)))[..., 0]
        averages[good] = (pi * c[good]).sum(axis=1)
    return averages


def bellman_model(p, kind):
    """The dense (metric, battery, query) chain under each action, as
    (P0, c0, P1, c1, where Transmit may be chosen): battery >= 1, and for
    the query-aware kinds the query flag up. P1 idles at battery 0."""
    ages = (kind.age_family,)
    states, P0, closing0 = dense_chain(p, ages, lambda s: 0)
    _, P1, closing1 = dense_chain(p, ages, lambda s: int(s[1] >= 1))
    free = np.array([b >= 1 and (q == 1 or not kind.query_gated) for _, b, q in states])
    return (
        states,
        P0, stage_costs(kind, states, closing0),
        P1, stage_costs(kind, states, closing1),
        free,
    )


def bruteforce_optimum(p, kind):
    """Exhaustive search over the stationary deterministic policies of the
    solved class: the best table and its average cost.

    Only states where Transmit may be chosen vary; everything else idles.
    Policies with several recurrent classes reachable from the start
    states are skipped: in a weakly communicating MDP the optimum is
    attained by a policy that is unichain from them.
    """
    states, P0, c0, P1, c1, free = bellman_model(p, kind)
    choice = np.flatnonzero(free)
    assert choice.size <= 16, f"2^{choice.size} policies are too many to enumerate"
    starts = start_states(p, states, (p.delta_max if kind.age_family else 0,))
    masks = np.arange(1 << choice.size)
    bits = ((masks[:, None] >> np.arange(choice.size)) & 1).astype(bool)
    costs = np.empty(masks.size)
    for lo in range(0, masks.size, 4096):
        act = np.zeros((min(4096, masks.size - lo), len(states)), dtype=bool)
        act[:, choice] = bits[lo:lo + 4096]
        costs[lo:lo + act.shape[0]] = chain_averages(
            np.where(act[:, :, None], P1, P0), np.where(act, c1, c0), starts
        )
    best = int(np.nanargmin(costs))  # raises when every policy is multichain
    actions = np.zeros(len(states), dtype=np.int8)
    actions[choice[bits[best]]] = 1
    policy = PolicyTable(
        kind=kind,
        params_stamp=params_stamp(p),
        delta_max=p.delta_max,
        B=p.B,
        actions=actions.reshape(p.delta_max + 1, p.B + 1, 2),
    )
    return policy, float(costs[best])


class TestStateSpace:
    def test_sizes(self):
        assert state_count(3, 1) == 16
        p = SystemParams()
        assert state_count(p.delta_max, p.B) == 2222


def model_row(p, kind, s, a):
    """The (metric, battery, query) distribution of row `s` of the solver's
    model under action `a`, taken at both query flags: row s.metric,
    s.battery of the policy chain _policy_matrix builds, re-expanded over
    the next query flag by the model's law of it, pq."""
    m = mdp._build_model(p, kind)
    table = np.full(m.feas1.shape, int(a), dtype=np.int8)
    row = mdp._policy_matrix(m, table)[s.metric * (p.B + 1) + s.battery]
    return {
        AgentState(int(m.metric[j]), int(m.battery[j]), q): float(prob * m.pq[q])
        for j, prob in zip(row.indices, row.data)
        for q in (0, 1) if m.pq[q] > 0
    }


def model_cost(p, kind, s, a):
    """Entry `s` of the solver's cost table c1 (Transmit) or c0 (Idle)."""
    m = mdp._build_model(p, kind)
    return (m.c1 if a == TRANSMIT else m.c0)[s.metric * (p.B + 1) + s.battery, s.query]


class TestTransition:
    """Rows of the solver's own model (_build_model, _policy_matrix),
    against values worked out by hand."""

    def test_certain_delivery_resets_version_lag(self):
        p = small(p_s=1.0, p_v=0.0, p_e=0.0, p_q=0.0)
        row = model_row(p, MetricKind.VAOI, AgentState(2, 1, 1), TRANSMIT)
        assert row == {AgentState(0, 0, 0): 1.0}

    def test_pure_aging_when_idle(self):
        p = small(p_e=0.0, p_q=0.0, delta_max=6)
        row = model_row(p, MetricKind.AOI, AgentState(4, 0, 0), IDLE)
        assert row == {AgentState(5, 0, 0): 1.0}

    def test_merged_product_distribution(self):
        # Worked out by hand before the merge was implemented. From
        # (metric=1, battery=1, query=1) under Transmit the version lag
        # lands on 0 (success, no new version), 1 (success with new
        # version, or failure without), or 2 (failure with new version);
        # battery ends at the harvest bit; next query is a free coin.
        p = small(p_s=0.8, p_v=0.25, p_e=0.05, p_q=0.2)
        got = model_row(p, MetricKind.QVAOI, AgentState(1, 1, 1), TRANSMIT)
        m_probs = {0: 0.8 * 0.75, 1: 0.8 * 0.25 + 0.2 * 0.75, 2: 0.2 * 0.25}
        expected = {}
        for m, pm in m_probs.items():
            for b, pb in ((0, 0.95), (1, 0.05)):
                for q, pq in ((0, 0.8), (1, 0.2)):
                    expected[AgentState(m, b, q)] = pm * pb * pq
        assert len(got) == 12
        assert set(got) == set(expected)
        for s, prob in expected.items():
            assert got[s] == pytest.approx(prob, abs=1e-15)
        assert sum(got.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_transmit_is_never_chosen_on_an_empty_battery(self, kind):
        m = mdp._build_model(small(), kind)
        assert not m.feas1[m.battery == 0].any()
        assert m.feas1[m.battery >= 1, 1].all()

    @given(instance_and_state())
    @settings(max_examples=150, deadline=None)
    def test_rows_are_merged_distributions(self, case):
        p, kind, s, a = case
        row = model_row(p, kind, s, a)
        total = sum(row.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        for nxt, prob in row.items():
            # a merged sure outcome can round to 1 + 2^-52, so no entry
            # is bounded by 1 itself, only by the row's total
            assert 0.0 < prob <= total
            assert 0 <= nxt.metric <= p.delta_max
            assert 0 <= nxt.battery <= p.B
            assert nxt.battery <= s.battery - int(a) + 1


class TestStageCost:
    def test_gated_cost_is_expected_closing_lag(self):
        # By hand: transmit from lag 1 with p_s=.8, p_v=.25 closes at
        # .8(.25*1) + .2(.25*2 + .75*1) = 0.45; idling closes at 1.25.
        p = small()
        s = AgentState(1, 1, 1)
        c1 = model_cost(p, MetricKind.QVAOI, s, TRANSMIT)
        c0 = model_cost(p, MetricKind.QVAOI, s, IDLE)
        assert c1 == pytest.approx(0.45, abs=1e-12)
        assert c0 == pytest.approx(1.25, abs=1e-12)

    def test_gated_cost_is_zero_without_query(self):
        p = small()
        for a in (IDLE, TRANSMIT):
            assert model_cost(p, MetricKind.QVAOI, AgentState(3, 2, 0), a) == 0.0
            assert model_cost(p, MetricKind.QAOI, AgentState(3, 2, 0), a) == 0.0

    def test_ungated_cost_is_the_current_metric(self):
        p = small()
        for q in (0, 1):
            for a in (IDLE, TRANSMIT):
                assert model_cost(p, MetricKind.AOI, AgentState(3, 1, q), a) == 3.0
                assert model_cost(p, MetricKind.VAOI, AgentState(2, 1, q), a) == 2.0


class TestModel:
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_every_state_and_action_has_a_valid_row(self, kind):
        # Transmit columns of battery-0 states too, which feas1 masks
        m = mdp._build_model(small(B=3, delta_max=20), kind)
        for nxt in (m.nxt0, m.nxt1):
            assert nxt.min() >= 0 and nxt.max() < m.n_states
        assert np.all(m.battery[m.nxt0] <= m.battery[:, None] + 1)
        assert np.all(m.battery[m.nxt1] <= m.battery[:, None])
        assert m.c0.min() >= 0.0 and m.c1.min() >= 0.0


class TestRviaSolve:
    def test_no_queries_means_zero_gain_and_all_idle_is_optimal(self):
        p = small(p_q=0.0)
        res = rvia_solve(p, MetricKind.QVAOI)
        assert res.converged
        assert res.gain == pytest.approx(0.0, abs=1e-9)
        # query-1 states are unreachable; on the reachable slice the
        # solver idles, and the fully idle table matches the gain
        assert not res.policy.actions[:, :, 0].any()
        idle = PolicyTable(
            kind=MetricKind.QVAOI,
            params_stamp=params_stamp(p),
            delta_max=p.delta_max,
            B=p.B,
            actions=np.zeros(res.policy.actions.shape, dtype=np.int8),
        )
        assert evaluate_policy_exact(p, MetricKind.QVAOI, idle) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_no_versions_means_zero_version_lag(self):
        res = rvia_solve(small(p_v=0.0), MetricKind.VAOI)
        assert res.gain == pytest.approx(0.0, abs=1e-9)

    def test_frozen_gains_at_default_scale(self):
        # Values frozen from this solver at tol 1e-9 and pinned here so a
        # numerical regression shows up as a hard failure.
        p = dataclasses.replace(SystemParams(), p_e=0.2, p_q=0.2)
        assert rvia_solve(p, MetricKind.QVAOI).gain == pytest.approx(0.112952, abs=1e-5)
        p = dataclasses.replace(SystemParams(), p_e=0.2, p_q=0.4)
        assert rvia_solve(p, MetricKind.QVAOI).gain == pytest.approx(0.204599, abs=1e-5)

    def test_not_converged_carries_diagnostics(self, monkeypatch):
        monkeypatch.setattr(mdp, "_MAX_SWEEPS", 3)
        p = small()
        with pytest.raises(NotConverged) as exc:
            rvia_solve(p, MetricKind.AOI)
        res = exc.value.result
        assert isinstance(res, SolveResult)
        assert not res.converged
        assert res.iterations == 3
        assert res.residual_span >= 1e-9
        assert res.policy.actions.shape == (p.delta_max + 1, p.B + 1, 2)
        assert res.policy.actions.size == res.bias.size

    def test_warm_start_reaches_the_same_gain_faster(self):
        p = small(B=3, delta_max=8)
        cold = rvia_solve(p, MetricKind.QVAOI)
        warm = rvia_solve(
            dataclasses.replace(p, p_e=0.06), MetricKind.QVAOI, h0=cold.bias
        )
        ref = rvia_solve(dataclasses.replace(p, p_e=0.06), MetricKind.QVAOI)
        assert warm.gain == pytest.approx(ref.gain, abs=1e-8)
        assert warm.iterations <= ref.iterations

    def test_version_kinds_never_transmit_at_zero_lag(self):
        p = small(B=2, delta_max=6, p_e=0.2, p_q=0.35)
        for kind in (MetricKind.VAOI, MetricKind.QVAOI):
            assert not rvia_solve(p, kind).policy.actions[0].any()

    def test_query_gating_never_costs_more(self):
        p = small(B=2, delta_max=8, p_e=0.15, p_q=0.35)
        assert (
            rvia_solve(p, MetricKind.QVAOI).gain
            <= rvia_solve(p, MetricKind.VAOI).gain + 1e-9
        )
        assert (
            rvia_solve(p, MetricKind.QAOI).gain
            <= rvia_solve(p, MetricKind.AOI).gain + 1e-9
        )

    def test_gain_monotone_in_charging_and_channel(self):
        base = small(B=2, delta_max=6)
        gains_e = [
            rvia_solve(dataclasses.replace(base, p_e=pe), MetricKind.VAOI).gain
            for pe in (0.1, 0.3, 0.5)
        ]
        assert gains_e[0] >= gains_e[1] - 1e-9 >= gains_e[2] - 2e-9
        gains_s = [
            rvia_solve(dataclasses.replace(base, p_s=ps), MetricKind.AOI).gain
            for ps in (0.5, 0.7, 0.9)
        ]
        assert gains_s[0] >= gains_s[1] - 1e-9 >= gains_s[2] - 2e-9

    def test_multichain_tables_are_never_certified(self, monkeypatch):
        # at p_e = p_v = 1 the version lag never rests at 0, so the solver
        # transmits whenever it can and every battery level >= 1 is closed
        p = small(p_e=1.0, p_v=1.0)
        plain = rvia_solve(p, MetricKind.VAOI)
        closed_counts, solves = [], []
        evaluate, splu = mdp._evaluate, mdp.splu
        model = mdp._build_model(p, MetricKind.VAOI)

        def count_closed(m, actions):
            P = mdp._policy_matrix(model, actions)
            closed_counts.append(int(_closed_classes(P)[1].sum()))
            return evaluate(m, actions)

        def record_solve(*args, **kwargs):
            solves.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(mdp, "_CERT_EVERY", 1)
        monkeypatch.setattr(mdp, "_evaluate", count_closed)
        monkeypatch.setattr(mdp, "splu", record_solve)
        res = rvia_solve(p, MetricKind.VAOI)
        assert closed_counts and min(closed_counts) > 1
        assert solves == []  # declined before any bias solve
        assert res.evaluations == 0
        assert res.residual_span < 1e-9  # the span test ended the solve
        assert np.array_equal(res.policy.actions, plain.policy.actions)
        assert res.gain == pytest.approx(plain.gain, abs=1e-9)

    def test_policy_iteration_steps_keep_plain_rvia_tables(self, monkeypatch):
        # checks at every sweep hand the steps the crudest greedy tables
        stops, evaluations = set(), []
        for p_e, p_q, (B, dm), kind in product(
            (0.05, 0.2, 1.0), (0.2, 0.5), ((1, 4), (3, 8)), MetricKind
        ):
            p = small(p_s=1.0, p_v=1.0, p_e=p_e, p_q=p_q, B=B, delta_max=dm)
            monkeypatch.setattr(mdp, "_CERT_EVERY", 10**9)
            plain = rvia_solve(p, kind)
            for every in (1, 16):
                monkeypatch.setattr(mdp, "_CERT_EVERY", every)
                res = rvia_solve(p, kind)
                assert np.array_equal(res.policy.actions, plain.policy.actions)
                assert res.gain == pytest.approx(plain.gain, abs=1e-9)
                stops.add(res.stop)
                evaluations.append(res.evaluations)
        assert stops == {"span", "certificate"}
        assert max(evaluations) >= 3  # some tables were improved twice

    def test_improvement_stops_when_the_gain_does_not_fall(self, monkeypatch):
        m = mdp._build_model(small(B=3, delta_max=8), MetricKind.QVAOI)
        idle = np.zeros_like(m.feas1, dtype=np.int8)  # per ((m, b), q)
        certified, n = mdp._improve(m, idle)
        assert certified is not None and n >= 2
        evaluate = mdp._evaluate
        monkeypatch.setattr(mdp, "_evaluate", lambda m, a: (1.0, evaluate(m, a)[1]))
        assert mdp._improve(m, idle) == (None, 2)

    def test_compare_cell_solves_stop_on_the_first_certificates(self):
        # the delta_max 28 comparison cell: a certificate regression shows
        # up here as a sweep count
        p = dataclasses.replace(SystemParams(), delta_max=28, p_e=0.05, p_q=0.2)
        for kind in MetricKind:
            res = rvia_solve(p, kind)
            assert res.stop == "certificate"
            assert res.iterations <= 256

    @pytest.mark.parametrize("kind, gap", [
        (MetricKind.VAOI, 4.0),  # version lag m held forever at battery 0
        (MetricKind.QVAOI, 0.3 * 4.0),  # the same lag, charged at queries only
    ])
    def test_stranded_classes_that_differ_fail_before_sweeping(self, kind, gap):
        p = small(p_e=0.0, p_v=0.0, p_q=0.3, B=1)
        with pytest.raises(NotConverged) as exc:
            rvia_solve(p, kind)
        res = exc.value.result
        assert (res.iterations, res.evaluations, res.converged) == (0, 0, False)
        assert "stranded at an empty battery differ" in str(exc.value)
        assert res.residual_span == pytest.approx(gap, abs=1e-12)

    @pytest.mark.parametrize("kind", [MetricKind.AOI, MetricKind.QAOI, MetricKind.QVAOI])
    def test_stranded_classes_that_agree_still_solve(self, kind):
        # no queries: the query-aware kinds cost 0 in every stranded class;
        # AoI has one, at delta_max
        p = small(p_e=0.0, p_v=0.0, p_q=0.0, B=1)
        res = rvia_solve(p, kind)
        assert res.gain == pytest.approx(0.0 if kind.query_gated else p.delta_max, abs=1e-9)


class TestGainBracket:
    """`gain_lo`/`gain_hi`: the last sweep's min and max change, which
    bracket the optimal gain."""

    CASES = [
        small(B=1, delta_max=3, p_e=0.3, p_q=0.4),
        small(B=2, delta_max=2, p_e=0.2, p_q=0.5, p_v=0.4),
        small(B=1, delta_max=4, p_s=1.0, p_v=1.0, p_e=0.2, p_q=0.2),
    ]

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_both_stops_bracket_the_optimal_gain(self, kind, monkeypatch):
        stops = set()
        for p in self.CASES:
            _, optimal = bruteforce_optimum(p, kind)
            for every in (1, 10**9):  # every sweep, or never: the span stops
                monkeypatch.setattr(mdp, "_CERT_EVERY", every)
                res = rvia_solve(p, kind)
                stops.add(res.stop)
                assert res.gain_lo - 1e-12 <= res.gain <= res.gain_hi + 1e-12
                assert res.gain_lo - 1e-9 <= optimal <= res.gain_hi + 1e-9
                assert res.gain_hi - res.gain_lo == res.residual_span
                if res.stop == "span":
                    assert res.gain_hi - res.gain_lo < mdp.SPAN_TOL
        assert stops == {"span", "certificate"}

    def test_bracket_holds_before_convergence(self, monkeypatch):
        p = self.CASES[0]
        _, optimal = bruteforce_optimum(p, MetricKind.AOI)
        monkeypatch.setattr(mdp, "_MAX_SWEEPS", 3)
        with pytest.raises(NotConverged) as exc:
            rvia_solve(p, MetricKind.AOI)
        res = exc.value.result
        assert res.gain_hi - res.gain_lo == res.residual_span >= mdp.SPAN_TOL
        assert res.gain_lo <= optimal <= res.gain_hi

    def test_no_bracket_without_a_sweep(self):
        with pytest.raises(NotConverged) as exc:
            rvia_solve(small(p_e=0.0, p_v=0.0, p_q=0.3, B=1), MetricKind.VAOI)
        res = exc.value.result
        assert res.iterations == 0
        assert np.isnan(res.gain_lo) and np.isnan(res.gain_hi)

    def test_not_kept_in_the_result_file(self):
        p = self.CASES[0]
        res = rvia_solve(p, MetricKind.QAOI)
        header, _ = split_solve_file(format_solve_result(res))
        assert "gain_lo" not in header and "gain_hi" not in header


class TestExactEvaluation:
    def test_all_idle_age_saturates_at_truncation(self):
        p = small()
        pol = PolicyTable(
            kind=MetricKind.AOI,
            params_stamp=params_stamp(p),
            delta_max=p.delta_max,
            B=p.B,
            actions=np.zeros((p.delta_max + 1, p.B + 1, 2), dtype=np.int8),
        )
        assert evaluate_policy_exact(p, MetricKind.AOI, pol) == pytest.approx(
            p.delta_max, abs=1e-12
        )

    def test_greedy_is_strictly_worse_than_optimal_when_energy_is_scarce(self):
        p = SystemParams()  # p_e=0.05, p_q=0.2
        opt = rvia_solve(p, MetricKind.QVAOI)
        greedy_cost = evaluate_policy_exact(p, MetricKind.QVAOI, greedy_policy(p))
        assert np.isfinite(greedy_cost)
        assert greedy_cost > opt.gain

    def test_solver_policy_reproduces_its_own_gain(self):
        p = small(B=4, delta_max=8, p_e=0.2, p_q=0.3)
        for kind in (MetricKind.AOI, MetricKind.QVAOI):
            res = rvia_solve(p, kind)
            val = evaluate_policy_exact(p, kind, res.policy)
            assert val == pytest.approx(res.gain, abs=1e-9)

    def test_cross_family_meter_self_consistency(self):
        # An age policy metered on version lag must agree with the joint
        # chain regardless of which family solved it; sanity anchor is the
        # same-family result for a metric-blind table.
        p = small(B=2, delta_max=5, p_e=0.2, p_q=0.3)
        age = rvia_solve(p, MetricKind.AOI).policy
        v = evaluate_policy_exact(p, MetricKind.VAOI, age)
        assert np.isfinite(v) and v >= 0.0
        vopt = rvia_solve(p, MetricKind.VAOI).gain
        assert v >= vopt - 1e-9

    def test_stamp_mismatch_is_rejected(self):
        p = small()
        pol = greedy_policy(small(p_e=0.5))
        with pytest.raises(MismatchedStamp, match="^policy stamp "):
            evaluate_policy_exact(p, MetricKind.AOI, pol)

    def test_a_table_laid_out_for_other_params_is_rejected(self):
        # a table of as many states as the params' but of another shape,
        # under their stamp: read as laid out for them it meters 0.7653 on
        # qvaoi, against its own 0.5945
        solved_at = SystemParams(p_s=1.0, delta_max=21, B=10)
        other = SystemParams(p_s=1.0, delta_max=10, B=21)
        pol = rvia_solve(solved_at, MetricKind.AOI).policy
        assert pol.actions.size == state_count(other.delta_max, other.B)
        forged = dataclasses.replace(pol, params_stamp=params_stamp(other))
        with pytest.raises(
            MismatchedStamp, match=r"^policy \(delta_max, B\) = \(21, 10\) != params \(10, 21\)$"
        ):
            evaluate_policy_exact(other, MetricKind.QVAOI, forged)

    def test_chain_sizes(self):
        p = small()  # 5 * 3 * 2 = 30 same-family states
        age = rvia_solve(p, MetricKind.AOI).policy
        assert evaluation_chain_size(p, MetricKind.AOI, age) == 30
        assert evaluation_chain_size(p, MetricKind.QAOI, age) == 30
        # greedy ignores the metric entirely, so any meter reuses its grid
        assert evaluation_chain_size(p, MetricKind.QVAOI, greedy_policy(p)) == 30
        vpol = rvia_solve(p, MetricKind.VAOI).policy
        # one copy of the policy's chain per level of the age meter
        assert evaluation_chain_size(p, MetricKind.AOI, vpol) == 5 * 30

    @pytest.mark.parametrize("meter", [MetricKind.QVAOI, MetricKind.AOI])
    def test_one_class_search_per_evaluation(self, monkeypatch, meter):
        # the closed class is found once, by the one chain solve, for a
        # same-family (qvaoi) and a cross-family (aoi) meter of a vaoi policy
        p = small()
        policy = rvia_solve(p, MetricKind.VAOI).policy
        real = mdp.connected_components
        calls = []

        def counted(P, *args, **kwargs):
            calls.append(P.shape)
            return real(P, *args, **kwargs)

        monkeypatch.setattr(mdp, "connected_components", counted)
        evaluate_policy_exact(p, meter, policy)
        assert calls == [(15, 15)]

    def test_multichain_detection(self):
        # Two absorbing states both reachable from the start splits the
        # chain: that must be reported, never averaged over.
        P = sp.csr_matrix(
            np.array(
                [
                    [0.0, 0.5, 0.5, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
        with pytest.raises(MultichainPolicy):
            _solve_chain(P, np.zeros(4), start=0)
        # from state 3 only the absorbing state 3 is reachable
        gain, h, pi, members = _solve_chain(P, np.arange(4.0), start=3)
        assert (gain, h.tolist(), pi.tolist(), members.tolist()) == (3.0, [0.0], [1.0], [3])

    def test_closed_classes(self):
        # 0 leaks into both {1} and {2, 3}, which no edge leaves
        P = sp.csr_matrix(
            np.array(
                [
                    [0.2, 0.4, 0.4, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 0.5, 0.5],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            )
        )
        labels, closed = _closed_classes(P)
        assert closed.size == 3
        classes = {tuple(np.flatnonzero(labels == c)) for c in np.flatnonzero(closed)}
        assert classes == {(1,), (2, 3)}

    def test_unreachable_closed_class_is_ignored(self):
        P = sp.csr_matrix(
            np.array(
                [
                    [0.0, 1.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                ]
            )
        )
        # the chain is cut to the class {1} that state 0 reaches: its cost,
        # bias and stationary vector, and not state 2's
        gain, h, pi, members = _solve_chain(P, np.array([5.0, 2.0, 7.0]), start=0)
        assert (gain, h.tolist(), pi.tolist(), members.tolist()) == (2.0, [0.0], [1.0], [1])


@st.composite
def irreducible_chain(draw):
    """Random irreducible stochastic matrix: a random Hamiltonian cycle
    plus random extra edges, or, for the periodic case, random weights on
    the complete bipartite graph between even and odd states (period 2)."""
    n = draw(st.integers(2, 8))
    weights = np.array(
        draw(st.lists(st.floats(0.05, 1.0), min_size=n * n, max_size=n * n))
    ).reshape(n, n)
    if draw(st.booleans()):
        i, j = np.indices((n, n))
        mask = (i + j) % 2 == 1
    else:
        mask = np.array(
            draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        ).reshape(n, n)
        cycle = draw(st.permutations(range(n)))
        mask[cycle, np.roll(cycle, -1)] = True
    P = np.where(mask, weights, 0.0)
    return P / P.sum(axis=1, keepdims=True)


class TestSolveChain:
    @settings(max_examples=150, deadline=None)
    @given(irreducible_chain(), st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9))
    def test_matches_dense_solves(self, P, costs):
        n = P.shape[0]
        # a transient state in front: the closed class is states 1..n
        full = np.zeros((n + 1, n + 1))
        full[0, 1] = 1.0
        full[1:, 1:] = P
        c = np.array(costs[: n + 1])
        gain, h, pi, members = _solve_chain(sp.csr_matrix(full), c)
        assert members.tolist() == list(range(1, n + 1))
        # pi (I - P + 1 1^T) = 1^T has the stationary vector as its only
        # solution when P is irreducible, periodic or not
        ref = np.linalg.solve((np.eye(n) - P + 1.0).T, np.ones(n))
        assert abs(pi[0]) <= 1e-12
        assert np.abs(pi[1:] - ref).max() <= 1e-12
        assert np.abs(pi @ full - pi).max() <= 1e-12
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        # g = pi c, and g + h = c + P h holds for h = z - z(0), z the
        # solution of (I - P + 1 pi) z = c - g 1 (the fundamental matrix)
        pi_full = np.concatenate(([0.0], ref))
        g_ref = pi_full @ c
        z = np.linalg.solve(np.eye(n + 1) - full + pi_full[None, :], c - g_ref)
        assert gain == pytest.approx(g_ref, abs=1e-12 * max(1.0, c.max()))
        assert h[0] == 0.0
        assert np.abs(h - (z - z[0])).max() <= 1e-10 * max(1.0, np.abs(z).max())

    def test_single_state(self):
        gain, h, pi, members = _solve_chain(sp.csr_matrix(np.ones((1, 1))), np.array([3.0]))
        assert (gain, h.tolist(), pi.tolist(), members.tolist()) == (3.0, [0.0], [1.0], [0])

    def test_two_closed_classes_raise_before_any_factor(self, monkeypatch):
        # each 2-state block is closed; together they have a whole line of
        # stationary vectors and gains, so there is no single answer
        P = np.zeros((4, 4))
        P[:2, :2] = [[0.3, 0.7], [0.6, 0.4]]
        P[2:, 2:] = [[0.9, 0.1], [0.2, 0.8]]
        factored = []
        monkeypatch.setattr(mdp, "splu", lambda *args, **kw: factored.append(args))
        with pytest.raises(SingularSolve):
            _solve_chain(sp.csr_matrix(P), np.arange(4.0))
        assert factored == []

    @pytest.mark.parametrize("spoiled", ["N", "T"])
    def test_an_inexact_solve_is_rejected(self, monkeypatch, spoiled):
        # a solve that comes back off by 1e-6 in one entry, the bias solve
        # ("N") or the stationary one ("T"), fails its residual check
        factor = mdp._factor

        class Spoiled:
            def __init__(self, A):
                self.lu = factor(A)

            def solve(self, b, trans="N"):
                x = self.lu.solve(b, trans=trans)
                x[1] += 1e-6 if trans == spoiled else 0.0
                return x

        monkeypatch.setattr(mdp, "_factor", Spoiled)
        P = sp.csr_matrix(np.array([[0.2, 0.8, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]]))
        with pytest.raises(SingularSolve):
            _solve_chain(P, np.array([1.0, 2.0, 3.0]))


def coo_policy_matrix(m, table):
    """Reference build of the policy chain: every outcome column as a COO
    entry, then scipy's own merge and zero drop."""
    a = table.astype(bool)
    idle, tx = (~a) @ m.pq, a @ m.pq
    rows = np.repeat(np.arange(m.n_states), m.pr0.size + m.pr1.size)
    cols = np.concatenate([m.nxt0, m.nxt1], axis=1).ravel()
    vals = np.concatenate([np.outer(idle, m.pr0), np.outer(tx, m.pr1)], axis=1).ravel()
    P = sp.csr_matrix((vals, (rows, cols)), shape=(m.n_states,) * 2)
    P.sum_duplicates()
    P.eliminate_zeros()
    return P


def same_arrays(A, B):
    """Bit-for-bit equal compressed sparse matrices."""
    return (
        A.shape == B.shape
        and np.array_equal(A.indptr, B.indptr)
        and np.array_equal(A.indices, B.indices)
        and A.data.dtype == B.data.dtype
        and A.data.tobytes() == B.data.tobytes()
    )


# the edge rates p_s = 1 and p_v, p_q, p_e in {0, 1}, and points between
ASSEMBLY_CASES = [
    small(p_s=p_s, p_v=p_v, p_q=p_q, p_e=p_e, B=2, delta_max=5)
    for p_s in (1.0, 0.8)
    for p_v in (0.0, 0.25, 1.0)
    for p_q in (0.0, 0.2, 1.0)
    for p_e in (0.0, 0.05, 1.0)
]


class TestChainAssembly:
    """The policy chain is read off the model's merged pattern, the
    bordered system splices a ones column onto scipy's I - P, and
    sub-chains are cut with np.ix_; each must equal the scipy build."""

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_policy_matrix_matches_the_coo_build(self, kind):
        rng = np.random.default_rng(7)
        for p in ASSEMBLY_CASES:
            m = mdp._build_model(p, kind)
            tables = [rng.integers(0, 2, m.feas1.shape, dtype=np.int8) for _ in range(4)]
            tables += [m.feas1.astype(np.int8), np.ones_like(m.feas1, dtype=np.int8)]
            for table in tables:
                P = mdp._policy_matrix(m, table)
                assert same_arrays(P, coo_policy_matrix(m, table)), (p, table)
                assert np.all(P.data > 0)

    def test_transmitting_at_both_flags_leaves_no_idle_edges(self):
        # Idle carries weight 0 everywhere, so only Transmit's outcomes are
        # edges; with no energy arrivals every edge from a charged battery
        # spends one unit, where an Idle edge would keep it
        p = small(p_e=0.0, p_v=1.0, B=2, delta_max=5)
        m = mdp._build_model(p, MetricKind.AOI)
        P = mdp._policy_matrix(m, np.ones_like(m.feas1, dtype=np.int8))
        rows = np.repeat(np.arange(m.n_states), np.diff(P.indptr))
        full = m.battery[rows] >= 1
        assert np.all(m.battery[P.indices[full]] == m.battery[rows[full]] - 1)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_bordered_matrix_matches_hstack(self, kind):
        rng = np.random.default_rng(11)
        for p in ASSEMBLY_CASES:
            m = mdp._build_model(p, kind)
            P = mdp._policy_matrix(m, rng.integers(0, 2, m.feas1.shape, dtype=np.int8))
            n = P.shape[0]
            want = sp.hstack(
                [sp.csc_matrix(np.ones((n, 1))), (sp.eye(n, format="csc") - P)[:, 1:]],
                format="csc",
            )
            assert same_arrays(mdp._bordered(P), want), p

    def test_bordered_matrix_drops_an_absorbing_diagonal(self):
        # 1 - P_ii is an exact zero at an absorbing state and is no entry
        P = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.3, 0.7]]))
        A = mdp._bordered(P)
        want = sp.hstack(
            [sp.csc_matrix(np.ones((3, 1))), (sp.eye(3, format="csc") - P)[:, 1:]],
            format="csc",
        )
        assert same_arrays(A, want)
        # three ones, then -0.5 and -0.3 in column 1 and 0.3 in column 2
        assert A.nnz == 6 and np.all(A.data != 0)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_submatrix_matches_fancy_indexing(self, kind):
        rng = np.random.default_rng(13)
        for p in ASSEMBLY_CASES:
            m = mdp._build_model(p, kind)
            P = mdp._policy_matrix(m, rng.integers(0, 2, m.feas1.shape, dtype=np.int8))
            assert mdp._submatrix(P, np.arange(m.n_states)) is P
            for size in (1, m.n_states // 3, m.n_states - 1, m.n_states):
                members = np.sort(rng.choice(m.n_states, size, replace=False))
                sub = mdp._submatrix(P, members)
                assert same_arrays(sub, P[np.ix_(members, members)].tocsr()), (p, size)


def joint_chain_average(p, kind, policy):
    """Independent reference for cross-family evaluation: the dense chain
    over (policy metric, meter metric, battery, query) under `policy`,
    averaged from its start states."""
    dm = p.delta_max

    def act(s):
        return int(policy.actions[s[0], s[2], s[3]])

    ages = (policy.kind.age_family, kind.age_family)
    states, P, closing = dense_chain(p, ages, act)
    starts = start_states(p, states, tuple(dm if age else 0 for age in ages))
    (avg,) = chain_averages(P[None], stage_costs(kind, states, closing, k=1)[None], starts)
    assert not np.isnan(avg), "several recurrent classes"
    return float(avg)


class TestCrossFamilyEvaluation:
    """Policy and meter from different metric families, checked against
    the independent dense joint chain; so are the pairs evaluated on the
    meter's own model."""

    PAIRS = [
        # (policy kind, meter): query-blind and query-reading policies,
        # age -> version and version -> age
        (MetricKind.AOI, MetricKind.VAOI),
        (MetricKind.AOI, MetricKind.QVAOI),
        (MetricKind.QAOI, MetricKind.QVAOI),
        (MetricKind.QAOI, MetricKind.VAOI),
        (MetricKind.VAOI, MetricKind.AOI),
        (MetricKind.VAOI, MetricKind.QAOI),
        (MetricKind.QVAOI, MetricKind.QAOI),
        (MetricKind.QVAOI, MetricKind.AOI),
    ]

    @pytest.mark.parametrize("p_q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "B, delta_max, p_e", [(1, 4, 0.3), (2, 5, 0.2), (3, 6, 0.15)]
    )
    def test_matches_the_dense_joint_chain(self, p_q, B, delta_max, p_e):
        p = small(B=B, delta_max=delta_max, p_e=p_e, p_q=p_q)
        for pol_kind, meter in self.PAIRS:
            policy = rvia_solve(p, pol_kind).policy
            got = evaluate_policy_exact(p, meter, policy)
            ref = joint_chain_average(p, meter, policy)
            assert got == pytest.approx(ref, abs=1e-10), (pol_kind, meter)

    @pytest.mark.parametrize("p_q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "B, delta_max, p_e", [(1, 4, 0.3), (2, 5, 0.2), (3, 6, 0.15)]
    )
    def test_own_model_pairs_match_the_dense_joint_chain(self, p_q, B, delta_max, p_e):
        # same-family pairs, and the metric-blind greedy table on every meter
        p = small(B=B, delta_max=delta_max, p_e=p_e, p_q=p_q)
        solved = {kind: rvia_solve(p, kind).policy for kind in MetricKind}
        cases = [
            (solved[pol_kind], meter)
            for pol_kind, meter in product(MetricKind, MetricKind)
            if pol_kind.age_family == meter.age_family
        ] + [(greedy_policy(p), meter) for meter in MetricKind]
        assert len(cases) == 12
        for policy, meter in cases:
            assert not mdp._reads_other_family(meter, policy)
            got = evaluate_policy_exact(p, meter, policy)
            ref = joint_chain_average(p, meter, policy)
            assert got == pytest.approx(ref, abs=1e-10), (policy.kind, meter)

    def test_chain_size_is_meter_levels_times_policy_states(self):
        p = small(B=2, delta_max=5, p_e=0.2, p_q=0.3)
        n_same = (p.delta_max + 1) * (p.B + 1) * 2
        blind = rvia_solve(p, MetricKind.AOI).policy
        reading = rvia_solve(p, MetricKind.QAOI).policy
        assert evaluation_chain_size(p, MetricKind.QVAOI, blind) == 6 * n_same
        assert evaluation_chain_size(p, MetricKind.QVAOI, reading) == 6 * n_same

    def test_a_meter_that_never_moves_keeps_its_start_value(self):
        # p_v = 0, and qaoi at p_q = 0 never transmits on its recurrent
        # class: no level of the version meter is ever left, so I - S is
        # singular and the meter stays at its start value 0
        p = small(B=3, delta_max=6, p_e=0.5, p_v=0.0, p_q=0.0)
        policy = rvia_solve(p, MetricKind.QAOI).policy
        assert mdp._reads_other_family(MetricKind.VAOI, policy)
        got = evaluate_policy_exact(p, MetricKind.VAOI, policy)
        assert got == pytest.approx(joint_chain_average(p, MetricKind.VAOI, policy), abs=1e-12)

    @pytest.mark.parametrize("params", [
        small(B=2, delta_max=6, p_v=0.0, p_e=1.0, p_q=1.0),
        SystemParams(p_v=0.0, p_e=1.0, p_q=1.0, B=10, delta_max=20),
    ])
    @pytest.mark.parametrize("pol_kind", [MetricKind.AOI, MetricKind.QAOI])
    def test_a_zero_average_is_not_negative(self, params, pol_kind):
        # no versions: the lag stays 0, and the cap level, the start mass
        # less every other level's, must not carry their rounding below 0
        policy = rvia_solve(params, pol_kind).policy
        for meter in (MetricKind.VAOI, MetricKind.QVAOI):
            got = evaluate_policy_exact(params, meter, policy)
            assert 0.0 <= got <= 1e-15, (meter, got)

    @pytest.mark.parametrize(
        "pol_kind, meter",
        [
            (MetricKind.QAOI, MetricKind.VAOI),
            (MetricKind.AOI, MetricKind.QVAOI),
            (MetricKind.VAOI, MetricKind.QAOI),
            (MetricKind.QVAOI, MetricKind.AOI),
        ],
    )
    @pytest.mark.parametrize("p_q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("p_e", [0.05, 1.0])
    @pytest.mark.parametrize("p_v", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("p_s", [0.3, 1.0])
    def test_edge_rates_match_the_dense_joint_chain(self, p_s, p_v, p_e, p_q, pol_kind, meter):
        p = small(B=2, delta_max=4, p_s=p_s, p_v=p_v, p_e=p_e, p_q=p_q)
        # every solved policy here is unichain from its start states (at
        # p_e = 1 the battery never leaves B), so each case has a value
        policy = rvia_solve(p, pol_kind).policy
        ref = joint_chain_average(p, meter, policy)
        assert evaluate_policy_exact(p, meter, policy) == pytest.approx(ref, abs=1e-10)


class TestBruteForce:
    CASES = [
        (small(B=1, delta_max=3, p_e=0.3, p_q=0.4), MetricKind.AOI),
        (small(B=1, delta_max=3, p_e=0.3, p_q=0.4), MetricKind.QVAOI),
        (small(B=2, delta_max=2, p_e=0.2, p_q=0.5, p_v=0.4), MetricKind.VAOI),
    ]

    def test_matches_rvia_on_small_instances(self):
        for p, kind in self.CASES:
            pol, cost = bruteforce_optimum(p, kind)
            res = rvia_solve(p, kind)
            assert cost == pytest.approx(res.gain, abs=1e-6)
            assert evaluate_policy_exact(p, kind, pol) == pytest.approx(cost, abs=1e-9)

    def test_certified_solves_match_the_oracle(self, monkeypatch):
        # these instances converge before the first default check, so
        # checking every sweep is what puts the certificate to work
        monkeypatch.setattr(mdp, "_CERT_EVERY", 1)
        for p, kind in self.CASES:
            _, cost = bruteforce_optimum(p, kind)
            res = rvia_solve(p, kind)
            assert res.converged
            assert res.residual_span >= 1e-9  # stopped on the certificate
            assert res.gain == pytest.approx(cost, abs=1e-9)

    def test_oracle_never_loses_to_greedy(self):
        p = small(B=1, delta_max=3, p_e=0.3, p_q=0.4)
        _, cost = bruteforce_optimum(p, MetricKind.VAOI)
        assert cost <= evaluate_policy_exact(p, MetricKind.VAOI, greedy_policy(p)) + 1e-12


class TestFullScaleOptimality:
    """rvia_solve's (metric, battery, query) bias h at delta_max 100,
    checked against the Bellman operator T of the dense chain. Odoni's
    bracket [min(Th - h), max(Th - h)] holds the optimal gain whatever h
    is, so a narrow bracket around the reported gain, with every chosen
    action attaining the minimum in Th, shows the solve optimal."""

    @pytest.mark.parametrize("p_e, p_q", [
        (0.05, 0.2), (0.05, 0.4), (0.2, 0.2), (0.2, 0.4), (1.0, 0.3),
    ])
    @pytest.mark.parametrize("age_family", [True, False])
    def test_the_bias_is_a_bellman_fixed_point(self, p_e, p_q, age_family):
        p = dataclasses.replace(SystemParams(), p_e=p_e, p_q=p_q)
        for kind in MetricKind:
            if kind.age_family != age_family:
                continue
            _, P0, c0, P1, c1, free = bellman_model(p, kind)
            res = rvia_solve(p, kind)
            q0 = c0 + P0 @ res.bias
            q1 = np.where(free, c1 + P1 @ res.bias, np.inf)
            Th = np.minimum(q0, q1)
            lo, hi = (Th - res.bias).min(), (Th - res.bias).max()
            assert lo <= res.gain <= hi, kind
            assert hi - lo <= (1e-11 if res.stop == "certificate" else 1e-9), kind
            chosen = np.where(res.policy.actions.ravel() == 1, q1, q0)
            assert np.all(chosen <= Th + 1e-9), kind


# delta_max 28 and 100 x p_e x p_q, plus delta_max 40 x p_s x p_v: with
# the four kinds, 216 solves, at the edge rates and in between
SOLVE_GRID = [
    dataclasses.replace(SystemParams(), delta_max=dm, p_e=p_e, p_q=p_q)
    for dm in (28, 100)
    for p_e in (0.05, 0.2, 0.5, 0.8, 1.0)
    for p_q in (0.1, 0.2, 0.3, 0.4, 1.0)
] + [
    dataclasses.replace(SystemParams(), delta_max=40, p_s=p_s, p_v=p_v)
    for p_s in (0.3, 1.0)
    for p_v in (0.05, 1.0)
]


def test_span_stops_report_the_bracket_of_the_written_bias():
    # Odoni's bracket [min(Th - h), max(Th - h)] of the written (metric,
    # battery, query) bias h, one Bellman step of the solver's own model
    # taken here, must hold the reported gain with no slack
    span_stops = 0
    for p, kind in product(SOLVE_GRID, MetricKind):
        res = rvia_solve(p, kind)
        if res.stop != "span":
            continue
        span_stops += 1
        m = mdp._build_model(p, kind)
        H = res.bias.reshape(-1, 2) @ m.pq
        q0 = m.c0 + (H[m.nxt0] @ m.pr0)[:, None]
        q1 = np.where(m.feas1, m.c1 + (H[m.nxt1] @ m.pr1)[:, None], np.inf)
        step = np.minimum(q0, q1).ravel() - res.bias
        assert step.min() <= res.gain <= step.max(), (p, kind)
        assert res.gain_lo <= res.gain <= res.gain_hi, (p, kind)
        assert res.gain_hi - res.gain_lo == res.residual_span < mdp.SPAN_TOL
    assert span_stops >= 30


# sha256 of policy.actions.tobytes() at delta_max 28, kinds in MetricKind
# order (aoi, vaoi, qaoi, qvaoi), keyed by (p_e, p_q)
PINNED_TABLES = {
    (0.05, 0.0): (
        "d88cbd480269a14ae510e5de49f193cb6a0d309a5903fba52390881da7c563f3",
        "de3489588455d83e423f43f0777caeacff75a43c642155bea28d08c8931f1c90",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
    ),
    (0.05, 0.2): (
        "d88cbd480269a14ae510e5de49f193cb6a0d309a5903fba52390881da7c563f3",
        "de3489588455d83e423f43f0777caeacff75a43c642155bea28d08c8931f1c90",
        "461aa431c7d7c8e621c73c7ce9e3c17a42f6951173e8c10bcb02b232b8a973a3",
        "367c39f738edbc679f2ae094b3e47c8f6052a4a576428b8146d56ccb9f047e77",
    ),
    (0.05, 1.0): (
        "d88cbd480269a14ae510e5de49f193cb6a0d309a5903fba52390881da7c563f3",
        "de3489588455d83e423f43f0777caeacff75a43c642155bea28d08c8931f1c90",
        "ff3479833688455cc900d4ed52898e75b649c477121845962d893904d9b05c57",
        "4d1223d581d0f3e081233ca52a4b84101c78c94910c1573e5fb947100ae48264",
    ),
    (0.2, 0.0): (
        "3f387f48ac12674e3841d84816b681736b32c39567fa06641cb01fc18ab694a9",
        "4b3d2b533e55a20068de61b6fd36273599b71ea0afb1e1caf5fc94ed5fd90d4e",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
    ),
    (0.2, 0.2): (
        "3f387f48ac12674e3841d84816b681736b32c39567fa06641cb01fc18ab694a9",
        "4b3d2b533e55a20068de61b6fd36273599b71ea0afb1e1caf5fc94ed5fd90d4e",
        "46c3684700923410ce19894f79570c3b606d4a3e2cdaee96da6fad96dd578462",
        "d4ca72531d10d2ab018265d6db269da42e5797228250ffb32d73a8de57f79511",
    ),
    (0.2, 1.0): (
        "3f387f48ac12674e3841d84816b681736b32c39567fa06641cb01fc18ab694a9",
        "4b3d2b533e55a20068de61b6fd36273599b71ea0afb1e1caf5fc94ed5fd90d4e",
        "aefdad427a4b3d4567c9e1658eeaf6080c96b07e79010530d609cd3e039b8369",
        "7b93ce9912229f4403c06a530599c514d8b806121d7986dea72cab3a98a82d9c",
    ),
    (1.0, 0.0): (
        "cf0b85e6132243d734b6946ed191568a488e7e1194059146e693b7ef139bfee9",
        "cf0b85e6132243d734b6946ed191568a488e7e1194059146e693b7ef139bfee9",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
    ),
    (1.0, 0.2): (
        "cf0b85e6132243d734b6946ed191568a488e7e1194059146e693b7ef139bfee9",
        "cf0b85e6132243d734b6946ed191568a488e7e1194059146e693b7ef139bfee9",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
    ),
    (1.0, 1.0): (
        "cf0b85e6132243d734b6946ed191568a488e7e1194059146e693b7ef139bfee9",
        "cf0b85e6132243d734b6946ed191568a488e7e1194059146e693b7ef139bfee9",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
        "eff5742656c514bfefaefe5efb2b02771e20d60a7ae276ac57a939083b704933",
    ),
}


# repr of the same solves' gains, kinds in MetricKind order: a move in the
# last bit of the exact path shows up here
PINNED_GAINS = {
    (0.05, 0.0): ("13.404297655807143", "3.1669645960418555", "0.0", "0.0"),
    (0.05, 0.2): (
        "13.404297655807143", "3.1669645960418555", "2.031284833411992", "0.4793851023925359",
    ),
    (0.05, 1.0): (
        "13.404297655807143", "3.1669645960418555", "13.404297655807143", "3.166964596041854",
    ),
    (0.2, 0.0): ("3.8346427981640723", "0.6770238533042295", "0.0", "0.0"),
    (0.2, 0.2): (
        "3.8346427981640723", "0.6770238533042295", "0.48649273070994126", "0.11295240632135208",
    ),
    (0.2, 1.0): (
        "3.8346427981640723", "0.6770238533042295", "3.8346427981640723", "0.6770238533042279",
    ),
    # span stops at p_e 1: the gain of one Bellman step on the written bias
    (1.0, 0.0): ("1.2499999999987874", "0.3124999999998181", "0.0", "0.0"),
    (1.0, 0.2): (
        "1.2499999999987879", "0.3124999999998181", "0.44774326400136827", "0.11249999035965201",
    ),
    (1.0, 1.0): (
        "1.2499999999987874", "0.3124999999998181", "1.2499999999988773", "0.31249999999971934",
    ),
}


@pytest.mark.parametrize("p_e, p_q", list(PINNED_TABLES))
def test_solved_tables_are_pinned(p_e, p_q):
    # the tables the solver wrote before it moved to the (metric, battery)
    # chain, at the charging-rate and query-rate edges and in between
    p = dataclasses.replace(SystemParams(), delta_max=28, p_e=p_e, p_q=p_q)
    results = [rvia_solve(p, kind) for kind in MetricKind]
    digests = tuple(hashlib.sha256(r.policy.actions.tobytes()).hexdigest() for r in results)
    assert digests == PINNED_TABLES[(p_e, p_q)]
    assert tuple(repr(r.gain) for r in results) == PINNED_GAINS[(p_e, p_q)]


class TestSolveResultSerialization:
    """The solve file holds the table, the solver's diagnostics and the
    bias bit for bit; the package reads it back only as a policy."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        p = small(B=2, delta_max=3, p_e=0.15, p_q=0.3)
        res = rvia_solve(p, MetricKind.QVAOI)
        path = tmp_path / "solve.txt"
        save_solve_result(p, res, str(path))
        text = path.read_text(encoding="utf-8")
        header, bias = split_solve_file(text)
        assert header["gain"] == repr(res.gain)
        assert header["iterations"] == str(res.iterations)
        assert header["residual_span"] == repr(res.residual_span)
        assert header["converged"] == "1"
        assert bias.tobytes() == res.bias.tobytes()
        back = parse_policy(text)
        assert np.array_equal(back.actions, res.policy.actions)
        assert back.params_stamp == res.policy.params_stamp == params_stamp(p)
        assert back.kind == MetricKind.QVAOI

    def test_text_form_round_trips_through_string(self):
        p = small(B=1, delta_max=2, p_q=0.4)
        res = rvia_solve(p, MetricKind.AOI)
        header, bias = split_solve_file(format_solve_result(res))
        assert float(header["gain"]) == res.gain
        assert np.array_equal(bias, res.bias)
