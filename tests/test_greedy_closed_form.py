"""Closed-form oracle for the greedy baseline, at every scale.

Under greedy the battery falls to {0, 1} and stays there, so a slot
transmits exactly when energy arrived in the slot before, and deliveries
are i.i.d. Bernoulli(r), r = p_e p_s. The closing version lag counts the
versions from the last delivery slot on, that slot included: P(L >= k) =
q x^(k-1) with q = p_v / (r + p_v - r p_v) and x = (1 - r) q. Capped at
delta_max, E[L] = q (1 - x^delta_max) / (1 - x); greedy's per-query QVAoI is
E[L] for every p_q and B, and its all-slot QVAoI p_q E[L] (renewal argument
as in Yates et al., IEEE JSAC 39(5), 2021).

The formula below uses no semsched code; the values it checks come from
the exact evaluator, directly and through the experiment drivers.
"""

from dataclasses import replace
from itertools import product

import pytest

from semsched.core import MetricKind, SystemParams
from semsched.experiments import compare_policies, required_charging_rate
from semsched.mdp import evaluate_policy_exact
from semsched.policies import greedy_policy


def greedy_closing_lag(p_s, p_v, p_e, delta_max):
    """E[L] of greedy's closing version lag; needs r = p_e p_s > 0 and
    p_v > 0, else x = 1 and the form divides by zero."""
    r = p_e * p_s
    q = p_v / (r + p_v - r * p_v)
    x = (1 - r) * q
    return q * (1 - x**delta_max) / (1 - x)


GRID = list(product(
    (0.3, 0.8, 1.0),                   # p_s
    (0.05, 0.25, 1.0),                 # p_v
    (0.01, 0.05, 0.2, 0.5, 1.0),       # p_e
    (0.1, 0.4, 1.0),                   # p_q
))


@pytest.mark.parametrize("B, delta_max", [(1, 5), (3, 20), (10, 100)])
def test_exact_greedy_rows_match_the_closed_form(B, delta_max):
    for p_s, p_v, p_e, p_q in GRID:
        p = SystemParams(p_s=p_s, p_v=p_v, p_q=p_q, p_e=p_e, B=B,
                         delta_max=delta_max, allow_tight_truncation=True)
        qvaoi = evaluate_policy_exact(p, MetricKind.QVAOI, greedy_policy(p))
        want = greedy_closing_lag(p_s, p_v, p_e, delta_max)
        assert qvaoi == pytest.approx(p_q * want, rel=1e-12), (p_s, p_v, p_e, p_q)


@pytest.mark.parametrize("delta_max, p_e, p_q, value", [
    (100, 0.05, 0.2, 1.2499997475176314),
    (100, 0.05, 0.4, 2.499999495035265),
    (100, 0.2, 0.2, 0.31250000000000094),
    (100, 0.2, 0.4, 0.6250000000000004),
    (28, 0.05, 0.2, 1.2333121686001003),
])
def test_compare_greedy_cells_match_the_closed_form(delta_max, p_e, p_q, value):
    # the default compare grid and the delta_max 28 cell, as the CSV prints them
    p = replace(SystemParams(), delta_max=delta_max, p_e=p_e, p_q=p_q)
    want = p_q * greedy_closing_lag(p.p_s, p.p_v, p_e, delta_max)
    assert value == pytest.approx(want, rel=1e-12)
    row = compare_policies(p)[0]
    assert row.policy == "greedy"
    assert row.qvaoi_per_query == pytest.approx(want / p_q, rel=1e-12)
    assert row.qvaoi == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p_q", [0.1, 0.4])
def test_every_greedy_charging_rate_evaluation_matches_the_closed_form(p_q):
    p = SystemParams()
    res = required_charging_rate("greedy", 1.5, p, p_q=p_q)
    assert len(res.evaluations) == 11  # p_e = 1, then ten bisection points
    for pe, v in res.evaluations:
        want = greedy_closing_lag(p.p_s, p.p_v, pe, p.delta_max)
        assert v == pytest.approx(want, rel=1e-12), pe
