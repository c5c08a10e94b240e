"""Average-cost MDP construction and solution.

State (metric, battery, query), actions Idle/Transmit, slot mechanics:
a transmitted packet occupies one slot and consumes one battery unit
regardless of channel outcome; energy, version, and next-query draws are
independent Bernoulli events folded into the transition product. That
product lives in one model, _build_model, which the solver, the evaluator
and the oracle read; transition() and expected_stage_cost() are its rows.
Every exact gain, bias and stationary vector comes from one factor of one
bordered linear system (_solve_chain).

Cost accounting. The query-agnostic kinds charge the metric value itself
every slot. The query-aware kinds charge, at query slots only, the metric
value the receiver holds once the slot's delivery and version events have
resolved (the value the reply to that query actually exhibits), which is
the expected next-state metric; and the solved query-aware policies are
restricted to transmit only at query slots, which is what makes them
distinct from their query-agnostic counterparts. Query-agnostic policies
such as greedy remain free to transmit at any slot and can be evaluated
under any cost.

Solved with Relative Value Iteration over the damped operator
P~ = (1-tau) I + tau P, which leaves stationary distributions, gains, and
argmins untouched while guaranteeing span convergence on periodic chains;
the reported bias is rescaled back to the undamped fixed point. The greedy
table is usually near-optimal long before the span settles, so every
_CERT_EVERY sweeps it seeds policy-iteration steps (modified policy
iteration, Puterman 1994, §8.6-8.7): the table is evaluated exactly and
replaced by its greedy table under its own bias until it is its own greedy
table, which certifies it optimal and stops the solve with its exact gain
and bias. The steps give up, and sweeping resumes, when a table's chain
has several closed classes (p_e = 1 can make every battery level closed),
where the bias equations have no unique solution, or when the gain stops
falling; the span test then ends the solve. A model whose stranded closed
classes (no Transmit anywhere in them) differ in cost has no single gain
and fails before the first sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .core import Action, AgentState, MetricKind, SystemParams, params_stamp
from .policies import (
    POLICY_COLUMNS,
    STAMP_KEYS,
    PolicyTable,
    finite_float,
    format_policy,
    header_value,
    parse_table,
    policy_from_table,
    state_count,
    state_index,
)

_DAMPING = 0.5
_TIE_EPS = 1e-12
_CERT_EVERY = 128  # sweeps between optimality-certificate checks
_MAX_SWEEPS = 10**6  # rvia_solve raises NotConverged past this many sweeps
SPAN_TOL = 1e-9  # rvia_solve's span tolerance
_ORACLE_STATES = 64  # enumerate_optimal_bruteforce's state-count guard


class InfeasibleAction(ValueError):
    pass


class NotConverged(RuntimeError):
    """RVIA ran _MAX_SWEEPS sweeps with neither stop, or no single gain
    exists; diagnostics attached."""

    def __init__(self, result: "SolveResult", message: str | None = None):
        self.result = result
        super().__init__(message or (
            f"no convergence after {result.iterations} iterations, "
            f"residual span {result.residual_span:.3e}"
        ))


class MultichainPolicy(ValueError):
    """The policy-induced chain has several recurrent classes reachable
    from the start states; a single long-run average does not exist."""


class SingularSolve(RuntimeError):
    pass


class TooLarge(ValueError):
    pass


@dataclass(frozen=True)
class TransitionEntry:
    next: AgentState
    prob: float


@dataclass(frozen=True, eq=False)
class SolveResult:
    gain: float
    bias: np.ndarray = field(repr=False)
    policy: PolicyTable
    iterations: int
    residual_span: float
    converged: bool = True
    evaluations: int = 0  # exact table evaluations; not kept in the result file
    # min and max of the last sweep's change, which bracket the optimal
    # gain (Odoni); nan before the first sweep, not kept in the result file
    gain_lo: float = np.nan
    gain_hi: float = np.nan

    @property
    def stop(self) -> str | None:
        """How a converged solve ended: "span", or "certificate", which
        stops with the span still >= SPAN_TOL."""
        if not self.converged:
            return None
        return "span" if self.residual_span < SPAN_TOL else "certificate"


# --- vectorized model ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Model:
    """Dense transition/cost arrays for one (params, kind).

    nxt0/nxt1 hold next-state indices per outcome column, pr0/pr1 the
    state-independent outcome probabilities; feas1 marks states where the
    solver may choose Transmit (battery for all kinds, plus the query
    restriction for the query-aware policy class). Rows are valid where
    feas1 is False too: a Transmit at battery 0 keeps battery 0.
    """

    params: SystemParams
    kind: MetricKind
    n_states: int
    metric: np.ndarray
    battery: np.ndarray
    query: np.ndarray
    nxt0: np.ndarray
    pr0: np.ndarray
    nxt1: np.ndarray
    pr1: np.ndarray
    feas1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray


@lru_cache(maxsize=32)
def _build_model(params: SystemParams, kind: MetricKind) -> _Model:
    p = params
    n = state_count(p.delta_max, p.B)
    idx = np.arange(n)
    metric = idx // ((p.B + 1) * 2)
    battery = (idx // 2) % (p.B + 1)
    query = idx % 2

    def next_index(m, b, q):
        return (m * (p.B + 1) + b) * 2 + q

    def step_metric(delivered, v):
        grow = 1 if kind.age_family else v
        return np.full(n, grow) if delivered else np.minimum(metric + grow, p.delta_max)

    # idle: outcomes (energy, version, q2); transmit adds the channel draw
    # u in front. Cross-family evaluation reads the delivering columns off
    # this (u, e, v, q2) order.
    idle_cols, idle_pr = [], []
    tx_cols, tx_pr = [], []
    for u, pu in ((1, p.p_s), (0, 1 - p.p_s)):
        for e, pe in ((1, p.p_e), (0, 1 - p.p_e)):
            for v, pv in ((1, p.p_v), (0, 1 - p.p_v)):
                for q2, pq2 in ((1, p.p_q), (0, 1 - p.p_q)):
                    tx_cols.append(
                        next_index(step_metric(u, v), np.clip(battery - 1 + e, 0, p.B), q2)
                    )
                    tx_pr.append(pu * pe * pv * pq2)
                    if u == 0:
                        idle_cols.append(
                            next_index(step_metric(0, v), np.minimum(battery + e, p.B), q2)
                        )
                        idle_pr.append(pe * pv * pq2)

    nxt0 = np.stack(idle_cols, axis=1)
    nxt1 = np.stack(tx_cols, axis=1)
    pr0 = np.array(idle_pr)
    pr1 = np.array(tx_pr)

    feas1 = battery >= 1
    if kind.query_gated:
        feas1 = feas1 & (query == 1)
        # cost: query times expected end-of-slot metric
        m_next0 = (nxt0 // ((p.B + 1) * 2)).astype(float) @ pr0
        m_next1 = (nxt1 // ((p.B + 1) * 2)).astype(float) @ pr1
        c0 = query * m_next0
        c1 = query * m_next1
    else:
        c0 = metric.astype(float)
        c1 = c0.copy()

    return _Model(
        params=p, kind=kind, n_states=n,
        metric=metric, battery=battery, query=query,
        nxt0=nxt0, pr0=pr0, nxt1=nxt1, pr1=pr1,
        feas1=feas1, c0=c0, c1=c1,
    )


def _model_row(
    params: SystemParams, kind: MetricKind, s: AgentState, a: Action
) -> tuple[_Model, int]:
    """The model of (params, kind) and the row index of state `s`."""
    if not (0 <= s.metric <= params.delta_max and 0 <= s.battery <= params.B
            and s.query in (0, 1)):
        raise ValueError(f"state {s} lies outside the state space")
    if a == Action.TRANSMIT and s.battery < 1:
        raise InfeasibleAction(f"Transmit at battery 0 in state {s}")
    return _build_model(params, kind), state_index(params.delta_max, params.B, s)


def transition(
    params: SystemParams, kind: MetricKind, s: AgentState, a: Action
) -> list[TransitionEntry]:
    """Row `s` of the solver's own model (_build_model) under action `a`.

    Its outcome columns (channel success for Transmit only, x energy
    arrival x version generation x next-slot query) are merged by next
    state, zero-probability states dropped, and returned in canonical
    state order; probabilities sum to 1.
    """
    m, i = _model_row(params, kind, s, a)
    nxt, pr = (m.nxt1, m.pr1) if a == Action.TRANSMIT else (m.nxt0, m.pr0)
    merged = np.bincount(nxt[i], weights=pr)
    # rounding can carry a merged sure outcome a hair past 1
    return [
        TransitionEntry(
            AgentState(int(m.metric[j]), int(m.battery[j]), int(m.query[j])),
            min(float(merged[j]), 1.0),
        )
        for j in np.flatnonzero(merged)
    ]


def expected_stage_cost(
    params: SystemParams, kind: MetricKind, s: AgentState, a: Action
) -> float:
    """Expected one-slot cost of (s, a) under `kind`'s accounting: entry
    `s` of the solver's cost column c1 (Transmit) or c0 (Idle)."""
    m, i = _model_row(params, kind, s, a)
    return float((m.c1 if a == Action.TRANSMIT else m.c0)[i])


def _greedy(m: _Model, h: np.ndarray, scale: float, rel: float = 0.0) -> np.ndarray:
    """Action table greedy in `scale * h`: Transmit where it undercuts Idle
    by more than _TIE_EPS + rel * |Q0|, Q0 the Idle value; Idle wins ties."""
    q0 = m.c0 + scale * (h[m.nxt0] @ m.pr0)
    q1 = m.c1 + scale * (h[m.nxt1] @ m.pr1) + np.where(m.feas1, 0.0, np.inf)
    return (q1 < q0 - (_TIE_EPS + rel * np.abs(q0))).astype(np.int8)


def _evaluate(m: _Model, actions: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Exact gain and bias of `actions` (_solve_chain), or None when they
    are not unique (several closed classes) or the solve cannot be trusted."""
    c = np.where(actions.astype(bool), m.c1, m.c0)
    try:
        gain, bias, _ = _solve_chain(_policy_matrix(m, actions), c)
    except SingularSolve:
        return None
    return gain, bias


def _improve(
    m: _Model, table: np.ndarray
) -> tuple[tuple[np.ndarray, float, np.ndarray] | None, int]:
    """Policy-iteration steps from `table` (Puterman 1994, §8.6-8.7).

    Each table is evaluated exactly and replaced by its greedy table under
    its own bias (Idle on ties within 1e-12 + 1e-9 |Q0|). Returns the
    certified (table, gain, bias) once a table is its own greedy table,
    else None: a table is declined by _evaluate, or its gain does not
    fall strictly below the previous table's, which also rules out cycles.
    The second value counts the exact evaluations that returned a gain.
    """
    best = np.inf
    evaluations = 0
    while True:
        exact = _evaluate(m, table)
        if exact is None:
            return None, evaluations
        evaluations += 1
        gain, bias = exact
        if not gain < best:
            return None, evaluations
        improved = _greedy(m, bias, 1.0, rel=1e-9)
        if np.array_equal(improved, table):
            return (table, gain, bias), evaluations
        best, table = gain, improved


def _stranded_gain_gap(m: _Model) -> float:
    """Largest gap between the average costs of the closed classes that no
    policy can leave or act in, 0.0 when there are fewer than two.

    Such a class is closed in the graph of both actions' edges and has
    Transmit feasible nowhere, so its cost is the Idle chain's whatever
    the policy. Classes with different costs give different optimal gains
    by start state, and the span of an RVIA sweep never falls below the
    gap (p_e = p_v = 0 strands every version lag at battery 0).
    """
    idle = _policy_matrix(m, np.zeros(m.n_states, dtype=np.int8))
    labels, closed = _closed_classes(idle + _policy_matrix(m, m.feas1))
    costs = []
    for label in np.flatnonzero(closed):
        members = np.flatnonzero(labels == label)
        if not m.feas1[members].any():
            costs.append(_solve_chain(idle[np.ix_(members, members)], m.c0[members])[0])
    return float(max(costs) - min(costs)) if costs else 0.0


def rvia_solve(
    params: SystemParams, kind: MetricKind, h0: np.ndarray | None = None
) -> SolveResult:
    """Relative Value Iteration, stopped by the span test or by an exact
    optimality certificate.

    The span stop ends the solve once the span of one sweep's change is
    below SPAN_TOL. Every _CERT_EVERY sweeps the greedy table is handed to
    policy-iteration steps (_improve): it is evaluated exactly and
    improved until a table is greedy in its own exact bias, which stops
    the solve with that table, its exact gain and bias. When the steps
    are declined (several closed classes, a failed solve) or the gain
    stops falling, sweeping resumes. `iterations` counts the sweeps run,
    `evaluations` the exact evaluations, and `residual_span` is the span
    at the stop, which may be >= SPAN_TOL after a certificate.
    NotConverged is raised when neither stop happens within _MAX_SWEEPS
    sweeps, and at once (`iterations` 0) when closed classes that no
    policy can act in differ in cost by more than SPAN_TOL, so that no
    single gain exists; `residual_span` is then that difference.

    The reference state is the canonical first state (0, 0, 0); ties
    between actions break toward Idle within 1e-12. `h0` warm-starts the
    iteration from a previous solve's `bias` at nearby parameters; on the
    default sweep that saves 20 of 5,632 sweeps and 30 of 114 exact
    evaluations, about 15% of the time.
    """
    m = _build_model(params, kind)
    policy = PolicyTable(
        kind=kind,
        params_stamp=params_stamp(params),
        delta_max=params.delta_max,
        B=params.B,
        actions=np.zeros(m.n_states, dtype=np.int8),
    )
    gap = _stranded_gain_gap(m)
    if gap > SPAN_TOL:
        raise NotConverged(
            SolveResult(
                gain=np.nan, bias=np.zeros(m.n_states), policy=policy,
                iterations=0, residual_span=gap, converged=False,
            ),
            f"closed classes stranded at an empty battery differ in average "
            f"cost by {gap:.3e}; no single gain exists",
        )
    tau = _DAMPING
    h = np.zeros(m.n_states) if h0 is None else h0.astype(float) / tau
    big = np.where(m.feas1, 0.0, np.inf)
    span = lo = hi = np.inf
    gain = np.nan
    certified = None
    evaluations = 0
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        e0 = h[m.nxt0] @ m.pr0
        e1 = h[m.nxt1] @ m.pr1
        w0 = m.c0 + (1 - tau) * h + tau * e0
        w1 = m.c1 + (1 - tau) * h + tau * e1 + big
        w = np.minimum(w0, w1)
        diff = w - h
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        gain = float(w[0])
        h = w - gain
        if span < SPAN_TOL:
            break
        if it % _CERT_EVERY == 0:
            certified, n = _improve(m, _greedy(m, h, tau))
            evaluations += n
            if certified is not None:
                break
    if certified is None:
        actions, bias = _greedy(m, h, tau), h * tau
    else:
        actions, gain, bias = certified
    result = SolveResult(
        gain=gain,
        bias=bias,
        policy=replace(policy, actions=actions),
        iterations=it,
        residual_span=span,
        converged=certified is not None or span < SPAN_TOL,
        evaluations=evaluations,
        gain_lo=lo,
        gain_hi=hi,
    )
    if not result.converged:
        raise NotConverged(result)
    return result


# --- exact policy evaluation --------------------------------------------

def _factor(A: sp.csc_matrix):
    """SuperLU factors of A under the fill-reducing MMD_AT_PLUS_A column
    ordering in symmetric mode, which on these chains reaches the default
    mode's fill in less time (5-10x less on some certificate systems).
    Raises SingularSolve when SuperLU finds A singular."""
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSolve(str(exc)) from exc


def _policy_matrix(m: _Model, actions: np.ndarray) -> sp.csr_matrix:
    """Sparse chain transition matrix under the given action vector."""
    n = m.n_states
    a = actions.astype(bool)
    k0, k1 = m.pr0.size, m.pr1.size
    idle_idx = np.flatnonzero(~a)
    tx_idx = np.flatnonzero(a)
    rows = np.concatenate([np.repeat(idle_idx, k0), np.repeat(tx_idx, k1)])
    cols = np.concatenate([m.nxt0[idle_idx].ravel(), m.nxt1[tx_idx].ravel()])
    vals = np.concatenate([np.tile(m.pr0, idle_idx.size), np.tile(m.pr1, tx_idx.size)])
    P = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    P.sum_duplicates()
    P.eliminate_zeros()  # zero-prob outcomes must not become graph edges
    return P


def _start_indices(params: SystemParams, kind: MetricKind) -> list[int]:
    """Simulator initial states: full battery, fresh metric convention,
    query flag per its Bernoulli support."""
    m0 = params.delta_max if kind.age_family else 0
    qs = [0, 1]
    if params.p_q == 0:
        qs = [0]
    elif params.p_q == 1:
        qs = [1]
    return [
        state_index(params.delta_max, params.B, AgentState(m0, params.B, q))
        for q in qs
    ]


def _solve_chain(
    P: sp.csr_matrix, c: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Gain g, bias h and stationary vector pi of the chain P under the
    stage costs c, from one SuperLU factor.

    g + h = c + P h with h(0) = 0 reads A x = c, x = (g, h(1), ...), where
    A is I - P with its first column replaced by ones. The transposed solve
    pi A = e_1^T gives pi 1 = 1 and pi (I - P) = 0 (its column 0 follows
    from (I - P) 1 = 0), the pairing of potentials and stationary vector
    that performance derivatives use (Cao & Chen, IEEE TAC 1997). A is
    nonsingular exactly when P has one closed class; pi is 0 off it.
    Raises SingularSolve, before any factor, unless P has one closed
    class; and when SuperLU finds A singular or the solution is not
    finite, has a bias residual above 1e-9 max(1, ||c||_inf),
    ||pi P - pi||_inf > 1e-9 or min(pi) < -1e-9.
    """
    n_closed = np.count_nonzero(_closed_classes(P)[1])
    if n_closed != 1:
        raise SingularSolve(f"{n_closed} closed classes: no single gain")
    n = P.shape[0]
    A = sp.hstack(
        [sp.csc_matrix(np.ones((n, 1))), (sp.eye(n, format="csc") - P)[:, 1:]],
        format="csc",
    )
    e1 = np.zeros(n)
    e1[0] = 1.0
    with np.errstate(all="ignore"):
        lu = _factor(A)
        x = lu.solve(c)
        pi = lu.solve(e1, trans="T")
        residual = np.abs(A @ x - c).max()
        balance = np.abs(P.T @ pi - pi).max()
    # a non-finite entry makes a residual nan or inf, which fails its test
    tol = 1e-9 * max(1.0, np.abs(c).max())
    if not (residual <= tol and balance <= 1e-9 and pi.min() >= -1e-9):
        raise SingularSolve(
            f"chain solve failed (bias residual {residual:.3e}, balance "
            f"residual {balance:.3e}, min pi {pi.min():.3e})"
        )
    gain = float(x[0])
    x[0] = 0.0  # h(0)
    return gain, x, np.clip(pi, 0.0, None)


def _closed_classes(P: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected component label per state, and per component
    whether it is closed (no edge leaves it)."""
    ncomp, labels = connected_components(P, directed=True, connection="strong")
    coo = P.tocoo()
    src, dst = labels[coo.row], labels[coo.col]
    closed = np.ones(ncomp, dtype=bool)
    closed[src[src != dst]] = False
    return labels, closed


def _single_recurrent_class(
    P: sp.csr_matrix, starts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Reachable set and the unique closed class within it, or raise."""
    n = P.shape[0]
    reach = np.zeros(n, dtype=bool)
    for s0 in starts:
        if not reach[s0]:
            order = breadth_first_order(P, s0, return_predecessors=False)
            reach[order] = True
    ridx = np.flatnonzero(reach)
    labels, closed = _closed_classes(P[np.ix_(ridx, ridx)].tocsr())
    n_closed = np.count_nonzero(closed)
    if n_closed != 1:
        raise MultichainPolicy(
            f"{n_closed} recurrent classes reachable from the start states"
        )
    return ridx, ridx[labels == np.flatnonzero(closed)[0]]


def _reads_other_family(
    params: SystemParams, kind: MetricKind, policy: PolicyTable
) -> bool:
    """Whether metering `policy` on `kind` needs the level-by-level
    evaluator: the policy reads a metric of the other family. A policy of
    the meter's family, or one that reads no metric at all (actions depend
    on battery and query only), runs on the meter's own model."""
    if policy.kind.age_family == kind.age_family:
        return False
    grid = policy.actions.reshape(params.delta_max + 1, params.B + 1, 2)
    return not np.all(grid == grid[0])


def _level_average(
    params: SystemParams, kind: MetricKind, policy: PolicyTable
) -> float:
    """Long-run average of the `kind` meter under a policy that reads the
    other metric family, level by level on the policy's own chain.

    The meter's metric resets on delivery or steps up by 0 or 1 and never
    feeds back into the policy, so the chain over (meter level, policy
    state) lumps onto the policy chain, stationary vector mu (Kemeny &
    Snell 1960, §6.3). With its transitions split into R_m (deliveries
    resetting the meter to m), U (steps up) and S (keeps), the mass x_m at
    level m solves x_m (I - S) = mu R_m + x_{m-1} U for m < delta_max, and
    x_delta_max = mu - sum of the rest (Latouche & Ramaswami 1999). I - S
    is singular only when nothing on mu's class moves the meter, which
    then keeps its start value. Raises SingularSolve unless every x_m is
    finite and >= -1e-9; x is then clipped at 0, as _solve_chain clips pi,
    since x_delta_max carries the rounding of every other level.
    """
    pol = _build_model(params, policy.kind)
    met = _build_model(params, kind)
    P = _policy_matrix(pol, policy.actions)
    _, members = _single_recurrent_class(P, _start_indices(params, policy.kind))
    mu = _solve_chain(P[np.ix_(members, members)], np.zeros(members.size))[2]

    # the meter's level after each outcome column from level 0 at full
    # battery; the first half of the (u, e, v, q2) transmit columns delivers
    idle_to = met.metric[met.nxt0[2 * params.B]]
    tx_to = met.metric[met.nxt1[2 * params.B]]
    delivers = np.arange(tx_to.size) < tx_to.size // 2

    def part(idle_cols, tx_cols):
        cols = replace(pol, pr0=pol.pr0 * idle_cols, pr1=pol.pr1 * tx_cols)
        return _policy_matrix(cols, policy.actions)[np.ix_(members, members)]

    U = part(idle_to == 1, ~delivers & (tx_to == 1))
    S = part(idle_to == 0, ~delivers & (tx_to == 0))
    R = {r: part(False, delivers & (tx_to == r)) for r in np.unique(tx_to[delivers])}
    dm = params.delta_max
    x = np.zeros((dm + 1, members.size))
    if U.nnz == 0 and not any(Rm.nnz for Rm in R.values()):
        x[met.metric[_start_indices(params, kind)[0]]] = mu
    else:
        lu = _factor((sp.eye(members.size) - S).T.tocsc())
        for lvl in range(dm):
            rhs = U.T @ x[lvl - 1] if lvl else np.zeros(members.size)
            if lvl in R:
                rhs = rhs + mu @ R[lvl]
            x[lvl] = lu.solve(rhs)
        x[dm] = mu - x[:dm].sum(axis=0)
        if not (np.all(np.isfinite(x)) and x.min() >= -1e-9):
            raise SingularSolve(f"negative or non-finite level mass {x.min():.3e}")
        np.clip(x, 0.0, None, out=x)
    bq = members % (2 * (params.B + 1))  # battery and query, alike in both models
    a = policy.actions[members].astype(bool)
    c0, c1 = met.c0.reshape(dm + 1, -1)[:, bq], met.c1.reshape(dm + 1, -1)[:, bq]
    return float(np.sum(x * np.where(a, c1, c0)))


def evaluate_policy_exact(
    params: SystemParams, kind: MetricKind, policy: PolicyTable
) -> float:
    """Long-run average cost of a fixed policy: the gain of _solve_chain
    on the policy chain's unique recurrent class.

    `kind` selects the cost being averaged and may differ from
    `policy.kind`: a query-agnostic policy is metered on a query-aware
    cost (or vice versa) by running the meter's own chain. A policy that
    reads a metric of the other family is evaluated level by level on its
    own chain (see _level_average).
    """
    if policy.params_stamp != params_stamp(params):
        raise ValueError("policy stamped under different params")
    if _reads_other_family(params, kind, policy):
        return _level_average(params, kind, policy)
    m = _build_model(params, kind)
    P = _policy_matrix(m, policy.actions)
    _, members = _single_recurrent_class(P, _start_indices(params, kind))
    cost = np.where(policy.actions.astype(bool), m.c1, m.c0)
    return _solve_chain(P[np.ix_(members, members)], cost[members])[0]


def evaluation_chain_size(
    params: SystemParams, kind: MetricKind, policy: PolicyTable
) -> int:
    """The model's own state count, or, for a policy that reads the other
    metric family, (delta_max + 1) meter levels times it: the size of the
    lumped chain that policy is averaged over. The evaluator factors
    nothing that large: its matrices are the size of the evaluated chain's
    recurrent class."""
    n = state_count(params.delta_max, params.B)
    if _reads_other_family(params, kind, policy):
        return (params.delta_max + 1) * n
    return n


# --- brute-force oracle --------------------------------------------------

def _bruteforce_chunk(
    m: _Model, choice: np.ndarray, masks: np.ndarray, starts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Average costs for a chunk of policy bitmasks (nan = multichain).

    Stationary vectors come from the identity pi (I - P + 1 1^T) = 1^T,
    nonsingular exactly when the chain is unichain; rows of states
    unreachable from the starts are first redirected to a start state so
    that closed classes outside the reachable set cannot make the system
    singular without changing the reachable dynamics.
    """
    n = m.n_states
    nc = choice.size
    nm = masks.size
    k0 = m.pr0.size
    P0 = np.zeros((n, n))
    np.add.at(
        P0,
        (np.repeat(np.arange(n), k0), m.nxt0.ravel()),
        np.tile(m.pr0, n),
    )
    bits = ((masks[:, None] >> np.arange(nc)) & 1).astype(bool) if nc else np.zeros((nm, 0), bool)
    P = np.broadcast_to(P0, (nm, n, n)).copy()
    for j in range(nc):
        row1 = np.zeros(n)
        np.add.at(row1, m.nxt1[choice[j]], m.pr1)
        P[bits[:, j], choice[j], :] = row1
    A = (P > 0.0) | np.eye(n, dtype=bool)
    Af = A.astype(np.float32)
    for _ in range(max(1, int(np.ceil(np.log2(n))) + 1)):
        Af = (Af @ Af > 0.0).astype(np.float32)
    A = Af > 0.0
    reach = A[:, starts, :].any(axis=1)
    rec = reach & np.all(~A | A.transpose(0, 2, 1), axis=2)
    multi = (rec[:, :, None] & rec[:, None, :] & ~A).any(axis=(1, 2))

    s0 = starts[0]
    unreach = ~reach
    Pm = np.where(unreach[:, :, None], 0.0, P)
    Pm[:, :, s0] += unreach.astype(float)
    good = np.flatnonzero(~multi)
    costs = np.full(nm, np.nan)
    if good.size:
        M = np.transpose(np.eye(n) - Pm[good], (0, 2, 1)) + 1.0
        try:
            pi = np.linalg.solve(M, np.ones((good.size, n, 1)))[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularSolve(str(exc)) from exc
        act = np.zeros((good.size, n), dtype=bool)
        if nc:
            act[:, choice] = bits[good]
        c = np.where(act, m.c1, m.c0)
        costs[good] = (pi * c).sum(axis=1)
    return costs, bits


def enumerate_optimal_bruteforce(
    params: SystemParams, kind: MetricKind
) -> tuple[PolicyTable, float]:
    """Evaluate every stationary deterministic policy in the solved class.

    Only states where Transmit is actually choosable vary (battery >= 1,
    plus query = 1 for the query-aware kinds); everything else is Idle.
    Policies inducing several reachable recurrent classes are skipped: in
    a weakly communicating MDP the optimum is attained by a policy that is
    unichain from the start states, so skipping cannot hide the optimum.
    Raises TooLarge past _ORACLE_STATES states or 2^24 free choices.
    """
    m = _build_model(params, kind)
    n = m.n_states
    if n > _ORACLE_STATES:
        raise TooLarge(f"{n} states exceed the {_ORACLE_STATES}-state guard")
    choice = np.flatnonzero(m.feas1)
    if choice.size > 24:
        raise TooLarge(f"2^{choice.size} policies exceed the 2^24 guard")
    starts = _start_indices(params, kind)
    best_cost = np.inf
    best_mask = 0
    chunk = 4096
    total = 1 << choice.size
    for lo in range(0, total, chunk):
        masks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        costs, _ = _bruteforce_chunk(m, choice, masks, starts)
        finite = np.isfinite(costs)
        if not finite.any():
            continue
        i = int(np.nanargmin(costs))
        if costs[i] < best_cost - 1e-15:
            best_cost = float(costs[i])
            best_mask = int(masks[i])
    if not np.isfinite(best_cost):
        raise MultichainPolicy("every enumerated policy was multichain")
    actions = np.zeros(n, dtype=np.int8)
    picked = choice[[i for i in range(choice.size) if best_mask >> i & 1]]
    actions[picked] = 1
    policy = PolicyTable(
        kind=kind,
        params_stamp=params_stamp(params),
        delta_max=params.delta_max,
        B=params.B,
        actions=actions,
    )
    return policy, best_cost


# --- SolveResult serialization ------------------------------------------

_SOLVE_KEYS = ("gain", "iterations", "residual_span", "converged")


def format_solve_result(params: SystemParams, result: SolveResult) -> str:
    """The policy table plus solver diagnostics and a bias column, with
    bit-exact float round-trip (repr shortest form)."""
    diagnostics = {
        "gain": float(result.gain),
        "iterations": result.iterations,
        "residual_span": float(result.residual_span),
        "converged": int(result.converged),
    }
    return format_policy(result.policy, "solve result", diagnostics, result.bias)


def parse_solve_result(text: str) -> tuple[SolveResult, dict[str, str]]:
    """Inverse of format_solve_result; returns the result and raw header."""
    header, stamp, values = parse_table(
        text, POLICY_COLUMNS + ("bias",), STAMP_KEYS + _SOLVE_KEYS
    )
    result = SolveResult(
        gain=header_value(header, "gain", finite_float),
        bias=values[:, 1].copy(),
        policy=policy_from_table(stamp, values[:, 0]),
        iterations=header_value(header, "iterations", int),
        residual_span=header_value(header, "residual_span", finite_float),
        converged=header_value(header, "converged", {"0": False, "1": True}.__getitem__),
    )
    return result, header


def save_solve_result(params: SystemParams, result: SolveResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_solve_result(params, result))


def load_solve_result(path: str) -> tuple[SolveResult, dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_solve_result(fh.read())
