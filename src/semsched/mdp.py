"""Average-cost MDP construction and solution.

Policies see (metric, battery, query), actions Idle/Transmit, slot
mechanics: a transmitted packet occupies one slot and consumes one battery
unit regardless of channel outcome; energy and version draws are
independent Bernoulli events folded into the transition product. The next
query flag is a Bernoulli(p_q) draw independent of everything else, so the
model, _build_model, is a chain over (metric, battery) alone with the
query flag as an exogenous input (dynamic programming with an
uncontrollable state component, Bertsekas, DP and Optimal Control I,
§1.4): a policy's chain is Q = sum_q p(q) P_a(q), with cost sum_q p(q)
c_a(q), half the size of the (metric, battery, query) chain and with the
same gains. The solver and the evaluator read that model and no other
step rules. Action tables and the written bias keep the (metric, battery,
query) layout. Every exact gain, bias and stationary vector comes from
one factor of one bordered linear system (_solve_chain).

Cost accounting. The query-agnostic kinds charge the metric value itself
every slot. The query-aware kinds charge, at query slots only, the metric
value the receiver holds once the slot's delivery and version events have
resolved (the value the reply to that query actually exhibits), which is
the expected next-state metric; and the solved query-aware policies are
restricted to transmit only at query slots, which is what makes them
distinct from their query-agnostic counterparts. Query-agnostic policies
such as greedy remain free to transmit at any slot and can be evaluated
under any cost.

Solved with Relative Value Iteration on the (metric, battery) chain,
W = (1 - tau) H + sum_q p(q) min_a [c_a(q) + tau P_a H], the damped
operator Q~ = (1-tau) I + tau Q, which leaves stationary distributions,
gains, and argmins untouched while guaranteeing span convergence on
periodic chains; the reported bias is rescaled back to the undamped fixed
point and expanded to h(q) = c_a(q) - g + P_a H per query flag. The greedy
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

from .core import MetricKind, NoAnswer, SystemParams, params_stamp
from .policies import PolicyTable, format_policy, state_count

_DAMPING = 0.5
_TIE_EPS = 1e-12
_CERT_EVERY = 128  # sweeps between optimality-certificate checks
_MAX_SWEEPS = 10**6  # rvia_solve raises NotConverged past this many sweeps
SPAN_TOL = 1e-9  # rvia_solve's span tolerance


class NotConverged(NoAnswer):
    """RVIA ran _MAX_SWEEPS sweeps with neither stop, or no single gain
    exists; diagnostics attached."""

    def __init__(self, result: "SolveResult", message: str | None = None):
        self.result = result
        super().__init__(message or (
            f"no convergence after {result.iterations} iterations, "
            f"residual span {result.residual_span:.3e}"
        ))


@dataclass(frozen=True, eq=False)
class SolveResult:
    gain: float
    bias: np.ndarray = field(repr=False)
    policy: PolicyTable
    iterations: int
    residual_span: float
    converged: bool = True
    evaluations: int = 0  # exact table evaluations; not kept in the result file
    # min and max of the last sweep's change, or after a span stop of one
    # Bellman step on the written bias, which bracket the optimal gain
    # (Odoni); nan before the first sweep, not kept in the result file
    gain_lo: float = np.nan
    gain_hi: float = np.nan

    @property
    def stop(self) -> str | None:
        """How a converged solve ended: "span", or "certificate", which
        stops with the span still >= SPAN_TOL."""
        if not self.converged:
            return None
        return "span" if self.residual_span < SPAN_TOL else "certificate"

    # the keys of `record`, in the order the manifests write them
    RECORD_KEYS = (
        "iterations", "evaluations", "residual_span", "gain_lo", "gain_hi", "stop",
    )

    @property
    def record(self) -> dict:
        """The manifests' `solver` record of this solve; the gain bracket
        is None when no sweep ran."""
        swept = self.iterations > 0
        return dict(zip(self.RECORD_KEYS, (
            self.iterations, self.evaluations, self.residual_span,
            self.gain_lo if swept else None, self.gain_hi if swept else None,
            self.stop,
        )))


# --- vectorized model ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Model:
    """Dense transition/cost arrays for one (params, kind) on the chain over
    (metric, battery), with the query flag as an exogenous input.

    The next query flag is a Bernoulli(p_q) draw independent of everything
    else, so a transition from (m, b, q) under action a factors as
    P_a((m, b) -> (m', b')) p(q'), and the (m, b, q) chain lumps onto the
    (m, b) chain Q = sum_q p(q) P_a(q) with cost sum_q p(q) c_a(q).
    nxt0/nxt1 hold next (m, b) indices per outcome column, (e, v) for Idle
    and (u, e, v) for Transmit, and pr0/pr1 the state-independent outcome
    probabilities; pq is the law [1 - p_q, p_q] of the query flag. feas1,
    c0 and c1 are per ((m, b), q), shape (n_states, 2): feas1 marks where
    the solver may choose Transmit (battery for all kinds, plus the query
    restriction for the query-aware policy class), and a policy's action
    grid read with `PolicyTable.actions.reshape(-1, 2)` has the same shape.
    Rows are valid where feas1 is False too: a Transmit at battery 0 keeps
    battery 0. entry, indptr and indices are the merged CSR pattern of all
    12 outcome columns, built once per model from one np.unique of
    row * n + column; every policy chain (_policy_matrix) is one bincount
    of its outcome weights into it, and models made from this one with
    dataclasses.replace (the outcome splits of _level_average) share it.
    The pattern is kept because it pays: a COO build with sum_duplicates
    takes 180-330 us per policy chain at delta_max 28 and 100, against
    70-250 us for the bincount.
    """

    n_states: int  # (m, b) states; a PolicyTable has twice as many
    metric: np.ndarray
    battery: np.ndarray
    nxt0: np.ndarray
    pr0: np.ndarray
    nxt1: np.ndarray
    pr1: np.ndarray
    pq: np.ndarray
    feas1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    # entry[i, k]: the pattern entry of row i's outcome column k (Idle's,
    # then Transmit's); indptr/indices: the pattern, columns sorted in a row
    entry: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


@lru_cache(maxsize=32)
def _build_model(params: SystemParams, kind: MetricKind) -> _Model:
    p = params
    n = (p.delta_max + 1) * (p.B + 1)
    idx = np.arange(n)
    metric = idx // (p.B + 1)
    battery = idx % (p.B + 1)

    def step_metric(delivered, v):
        grow = 1 if kind.age_family else v
        return np.full(n, grow) if delivered else np.minimum(metric + grow, p.delta_max)

    # idle: outcomes (energy, version); transmit adds the channel draw u in
    # front. Cross-family evaluation reads the delivering columns off this
    # (u, e, v) order.
    idle_cols, idle_pr = [], []
    tx_cols, tx_pr = [], []
    for u, pu in ((1, p.p_s), (0, 1 - p.p_s)):
        for e, pe in ((1, p.p_e), (0, 1 - p.p_e)):
            for v, pv in ((1, p.p_v), (0, 1 - p.p_v)):
                tx_b = np.clip(battery - 1 + e, 0, p.B)
                tx_cols.append(step_metric(u, v) * (p.B + 1) + tx_b)
                tx_pr.append(pu * pe * pv)
                if u == 0:
                    idle_b = np.minimum(battery + e, p.B)
                    idle_cols.append(step_metric(0, v) * (p.B + 1) + idle_b)
                    idle_pr.append(pe * pv)

    nxt0 = np.stack(idle_cols, axis=1)
    nxt1 = np.stack(tx_cols, axis=1)
    pr0 = np.array(idle_pr)
    pr1 = np.array(tx_pr)

    feas1 = np.repeat(battery[:, None] >= 1, 2, axis=1)
    if kind.query_gated:
        feas1[:, 0] = False
        # cost: query times expected end-of-slot metric
        query = np.array([0.0, 1.0])
        c0 = np.outer(metric[nxt0] @ pr0, query)
        c1 = np.outer(metric[nxt1] @ pr1, query)
    else:
        c0 = np.repeat(metric[:, None].astype(float), 2, axis=1)
        c1 = c0.copy()

    cols = np.concatenate([nxt0, nxt1], axis=1)
    keys, entry = np.unique((idx[:, None] * n + cols).ravel(), return_inverse=True)
    return _Model(
        n_states=n, metric=metric, battery=battery,
        nxt0=nxt0, pr0=pr0, nxt1=nxt1, pr1=pr1, pq=np.array([1 - p.p_q, p.p_q]),
        feas1=feas1, c0=c0, c1=c1, entry=entry.reshape(cols.shape),
        indptr=np.searchsorted(keys, idx.size * np.arange(n + 1)).astype(np.int32),
        indices=(keys % n).astype(np.int32),
    )


def _action_values(
    m: _Model, c1: np.ndarray, H: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Idle's and Transmit's values c_a(q) + P_a H per ((m, b), q) under
    the (m, b) values H, with `c1` the Transmit cost."""
    return m.c0 + (H[m.nxt0] @ m.pr0)[:, None], c1 + (H[m.nxt1] @ m.pr1)[:, None]


def _greedy(m: _Model, H: np.ndarray, rel: float = 0.0) -> np.ndarray:
    """Action table, per ((m, b), q), greedy in the (m, b) values H:
    Transmit where it undercuts Idle by more than _TIE_EPS + rel * |Q0|,
    Q0 the Idle value; Idle wins ties."""
    q0, q1 = _action_values(m, np.where(m.feas1, m.c1, np.inf), H)
    return (q1 < q0 - (_TIE_EPS + rel * np.abs(q0))).astype(np.int8)


def _bellman(m: _Model, c1: np.ndarray, H: np.ndarray) -> np.ndarray:
    """One Bellman step on the (m, b) chain, sum_q p(q) min_a [c_a(q) +
    P_a H], with `c1` the Transmit cost, inf where Transmit is infeasible."""
    return np.minimum(*_action_values(m, c1, H)) @ m.pq


def _chain_cost(m: _Model, table: np.ndarray) -> np.ndarray:
    """Expected one-slot cost per (m, b) under `table`: sum_q p(q) c_a(q)."""
    return np.where(table.astype(bool), m.c1, m.c0) @ m.pq


def _evaluate(m: _Model, table: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Exact gain and (m, b) bias of `table` (_solve_chain), or None when
    they are not unique (several closed classes) or the solve cannot be
    trusted."""
    try:
        return _solve_chain(_policy_matrix(m, table), _chain_cost(m, table))[:2]
    except NoAnswer:
        return None


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
        improved = _greedy(m, bias, rel=1e-9)
        if np.array_equal(improved, table):
            return (table, gain, bias), evaluations
        best, table = gain, improved


def _full_bias(m: _Model, table: np.ndarray, H: np.ndarray) -> np.ndarray:
    """The (metric, battery, query) bias h = c_a(q) - g + P_a H of `table`
    under the (m, b) bias H, in PolicyTable order with h(0, 0, 0) = 0,
    which drops g."""
    q0, q1 = _action_values(m, m.c1, H)
    h = np.where(table.astype(bool), q1, q0).ravel()
    return h - h[0]


def _stranded_gain_gap(m: _Model) -> float:
    """Largest gap between the average costs of the closed classes that no
    policy can leave or act in, 0.0 when there are fewer than two.

    Such a class is closed in the graph of both actions' edges and has
    Transmit feasible nowhere, so its cost is the Idle chain's whatever
    the policy. Classes with different costs give different optimal gains
    by start state, and the span of an RVIA sweep never falls below the
    gap (p_e = p_v = 0 strands every version lag at battery 0).
    """
    # Transmit can be chosen only at a query flag the draw can take
    tx = m.feas1 @ m.pq
    labels, closed = _closed_classes(_outcome_matrix(m, np.ones(m.n_states), tx))
    classes = (np.flatnonzero(labels == c) for c in np.flatnonzero(closed))
    stranded = [members for members in classes if not tx[members].any()]
    if not stranded:
        return 0.0
    idle_table = np.zeros_like(m.feas1, dtype=np.int8)
    idle, idle_cost = _policy_matrix(m, idle_table), _chain_cost(m, idle_table)
    costs = [_solve_chain(_submatrix(idle, s), idle_cost[s])[0] for s in stranded]
    return float(max(costs) - min(costs))


def rvia_solve(
    params: SystemParams, kind: MetricKind, h0: np.ndarray | None = None
) -> SolveResult:
    """Relative Value Iteration, stopped by the span test or by an exact
    optimality certificate.

    The span stop ends the solve once the span of one sweep's change is
    below SPAN_TOL; the gain, `gain_lo`/`gain_hi` and `residual_span` are
    then read off one more Bellman step on the written bias, whose span is
    no wider (the operator is nonexpansive in the span), so the gain lies
    in the bracket of the bias it ships with. Every _CERT_EVERY sweeps the
    greedy table is handed to policy-iteration steps (_improve): it is
    evaluated exactly and improved until a table is greedy in its own
    exact bias, which stops the solve with that table, its exact gain and
    bias. When the steps
    are declined (several closed classes, a failed solve) or the gain
    stops falling, sweeping resumes. `iterations` counts the sweeps run,
    `evaluations` the exact evaluations, and `residual_span` is the span
    at the stop, which may be >= SPAN_TOL after a certificate.
    NotConverged is raised when neither stop happens within _MAX_SWEEPS
    sweeps, and at once (`iterations` 0) when closed classes that no
    policy can act in differ in cost by more than SPAN_TOL, so that no
    single gain exists; `residual_span` is then that difference.

    Sweeps run on the (metric, battery) chain with reference state
    (0, 0); the written `bias` is over (metric, battery, query), expanded
    by _full_bias with h(0, 0, 0) = 0. Ties between actions break toward
    Idle within 1e-12. `h0` warm-starts the iteration from a previous
    solve's `bias` at nearby parameters, averaged over the query flag; on
    the default sweep that saves 20 of 5,632 sweeps and 30 of 114 exact
    evaluations, about 15% of the time.
    """
    m = _build_model(params, kind)
    policy = PolicyTable(
        kind=kind,
        params_stamp=params_stamp(params),
        delta_max=params.delta_max,
        B=params.B,
        actions=np.zeros((params.delta_max + 1, params.B + 1, 2), dtype=np.int8),
    )
    gap = _stranded_gain_gap(m)
    if gap > SPAN_TOL:
        raise NotConverged(
            SolveResult(
                gain=np.nan, bias=np.zeros(2 * m.n_states), policy=policy,
                iterations=0, residual_span=gap, converged=False,
            ),
            f"closed classes stranded at an empty battery differ in average "
            f"cost by {gap:.3e}; no single gain exists",
        )
    tau = _DAMPING
    # sweeps run on the (m, b) chain: h0 is averaged over the query flag
    h = np.zeros(m.n_states) if h0 is None else (h0.reshape(-1, 2) @ m.pq) / tau
    c1 = np.where(m.feas1, m.c1, np.inf)
    span = lo = hi = np.inf
    gain = np.nan
    certified = None
    evaluations = 0
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        w = (1 - tau) * h + _bellman(m, c1, tau * h)
        diff = w - h
        lo, hi = float(diff.min()), float(diff.max())
        span = hi - lo
        gain = float(w[0])
        h = w - gain
        if span < SPAN_TOL:
            break
        if it % _CERT_EVERY == 0:
            certified, n = _improve(m, _greedy(m, tau * h))
            evaluations += n
            if certified is not None:
                break
    converged = certified is not None or span < SPAN_TOL
    if certified is None:
        table = _greedy(m, tau * h)
        bias = _full_bias(m, table, h * tau)
        if converged:
            # a span stop: report the gain and bracket of the bias that is
            # written, from one Bellman step on it, not of the sweep before
            H = bias.reshape(-1, 2) @ m.pq
            diff = _bellman(m, c1, H) - H
            lo, hi = float(diff.min()), float(diff.max())
            gain, span = float(diff[0]), hi - lo
    else:
        table, gain, H = certified
        bias = _full_bias(m, table, H)
    result = SolveResult(
        gain=gain,
        bias=bias,
        policy=replace(policy, actions=table.reshape(policy.actions.shape)),
        iterations=it,
        residual_span=span,
        converged=converged,
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
    Raises NoAnswer when SuperLU finds A singular."""
    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NoAnswer(str(exc)) from exc


def _outcome_matrix(m: _Model, idle: np.ndarray, tx: np.ndarray) -> sp.csr_matrix:
    """Sparse (m, b) matrix whose row i puts weight idle[i] on each Idle
    outcome and tx[i] on each Transmit outcome, in canonical CSR form.

    One bincount sums the outcomes into the model's merged pattern, in
    outcome-column order, which is how a COO build with sum_duplicates
    adds them, bit for bit; exact zeros are dropped, so a zero-probability
    outcome never becomes a graph edge."""
    w = np.concatenate([np.outer(idle, m.pr0), np.outer(tx, m.pr1)], axis=1)
    data = np.bincount(m.entry.ravel(), weights=w.ravel(), minlength=m.indices.size)
    keep = data != 0
    indptr = np.concatenate(([0], np.cumsum(keep)))[m.indptr]
    return sp.csr_matrix((data[keep], m.indices[keep], indptr), shape=(m.n_states,) * 2)


def _policy_matrix(m: _Model, table: np.ndarray) -> sp.csr_matrix:
    """Sparse (m, b) chain transition matrix under the action table, per
    ((m, b), q): Q = sum_q p(q) P_a(q). Each action's weight per (m, b) is
    the probability of the query flags at which the table takes it."""
    a = table.astype(bool)
    return _outcome_matrix(m, (~a) @ m.pq, a @ m.pq)


def _submatrix(P: sp.csr_matrix, members: np.ndarray) -> sp.csr_matrix:
    """P restricted to the sorted states `members`. When they are every
    state, P itself is returned: np.ix_ would copy it, at 110-190 us per
    call at delta_max 28 and 100."""
    if members.size == P.shape[0]:
        return P
    return P[np.ix_(members, members)]


def _start_index(params: SystemParams, kind: MetricKind) -> int:
    """The simulator's initial (m, b) state: full battery, fresh metric
    convention (its query flag is a draw like any other)."""
    m0 = params.delta_max if kind.age_family else 0
    return m0 * (params.B + 1) + params.B


def _bordered(P: sp.csr_matrix) -> sp.csc_matrix:
    """I - P with its first column replaced by ones, in CSC form: the
    arrays sp.hstack gives for [1 | (sp.eye - P)[:, 1:]]. scipy forms
    I - P, and the ones column is spliced onto its arrays by hand: 150-260
    us per call at delta_max 28 and 100, against 250-500 us for
    sp.hstack."""
    n = P.shape[0]
    M = sp.eye(n, format="csc") - P.tocsc()
    k = M.indptr[1]  # where column 1 starts
    return sp.csc_matrix(
        (
            np.concatenate((np.ones(n), M.data[k:])),
            np.concatenate((np.arange(n, dtype=M.indices.dtype), M.indices[k:])),
            np.concatenate(([0], M.indptr[1:] - k + n)),
        ),
        shape=(n, n),
    )


def _solve_chain(
    P: sp.csr_matrix, c: np.ndarray, start: int | None = None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Gain g, bias h and stationary vector pi of the chain P under the
    stage costs c, from one SuperLU factor, and the members of P's closed
    class, which one _closed_classes pass finds.

    Without `start`, P must have one closed class, and h and pi run over
    every state (pi is 0 off the class). With `start`, P and c are cut to
    the one closed class that `start` reaches, else NoAnswer, and
    h and pi run over `members`: no edge leaves the reachable set, so a
    class of P that it meets is closed there exactly when it is closed
    in P.
    g + h = c + P h with h(0) = 0 reads A x = c, x = (g, h(1), ...), where
    A is I - P with its first column replaced by ones. The transposed solve
    pi A = e_1^T gives pi 1 = 1 and pi (I - P) = 0 (its column 0 follows
    from (I - P) 1 = 0), the pairing of potentials and stationary vector
    that performance derivatives use (Cao & Chen, IEEE TAC 1997). A is
    nonsingular exactly when P has one closed class. P is a canonical CSR
    matrix; A is built in CSC form (_bordered), the layout SuperLU factors.
    Raises NoAnswer, before any factor, when P has several closed
    classes (reachable from `start`, if given); and when SuperLU finds A
    singular or the solution is not finite, has a bias residual above
    1e-9 max(1, ||c||_inf), ||pi P - pi||_inf > 1e-9 or min(pi) < -1e-9.
    """
    labels, closed = _closed_classes(P)
    hits = np.flatnonzero(closed)
    if start is not None:
        reached = labels[breadth_first_order(P, start, return_predecessors=False)]
        hits = np.intersect1d(hits, reached)
    if hits.size != 1:
        if start is None:
            raise NoAnswer(f"{hits.size} closed classes: no single gain")
        raise NoAnswer(f"{hits.size} recurrent classes reachable from the start states")
    members = np.flatnonzero(labels == hits[0])
    if start is not None:
        P, c = _submatrix(P, members), c[members]
    n = P.shape[0]
    A = _bordered(P)
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
        raise NoAnswer(
            f"chain solve failed (bias residual {residual:.3e}, balance "
            f"residual {balance:.3e}, min pi {pi.min():.3e})"
        )
    gain = float(x[0])
    x[0] = 0.0  # h(0)
    return gain, x, np.clip(pi, 0.0, None), members


def _closed_classes(P: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Strongly connected component label per state, and per component
    whether it is closed (no edge leaves it), read off the CSR P's arrays."""
    ncomp, labels = connected_components(P, directed=True, connection="strong")
    src, dst = np.repeat(labels, np.diff(P.indptr)), labels[P.indices]
    closed = np.ones(ncomp, dtype=bool)
    closed[src[src != dst]] = False
    return labels, closed


def _reads_other_family(kind: MetricKind, policy: PolicyTable) -> bool:
    """Whether metering `policy` on `kind` needs the level-by-level
    evaluator: the policy reads a metric of the other family. A policy of
    the meter's family, or one that reads no metric at all (actions depend
    on battery and query only), runs on the meter's own model."""
    if policy.kind.age_family == kind.age_family:
        return False
    return not np.all(policy.actions == policy.actions[0])


def _level_average(
    params: SystemParams, kind: MetricKind, pol: _Model, table: np.ndarray,
    mu: np.ndarray, members: np.ndarray,
) -> float:
    """Long-run average of the `kind` meter under a policy that reads the
    other metric family, level by level on the policy's own chain: its
    model `pol` and table, and the stationary vector `mu` of its closed
    class `members` (_solve_chain from the start state).

    The meter's metric resets on delivery or steps up by 0 or 1 and never
    feeds back into the policy, so the chain over (meter level, policy
    state) lumps onto the policy chain, stationary vector mu (Kemeny &
    Snell 1960, §6.3). The query flag is drawn afresh each slot, so the
    mass at (level m, metric, battery, query) factors as x_m(metric,
    battery) p(query), and the levels run on the policy's (m, b) chain.
    With its transitions split into R_m (deliveries resetting the meter to
    m), U (steps up) and S (keeps), the mass x_m at level m solves
    x_m (I - S) = mu R_m + x_{m-1} U for m < delta_max, and x_delta_max =
    mu - sum of the rest (Latouche & Ramaswami 1999). I - S is singular
    only when nothing on mu's class moves the meter, which then keeps its
    start value. Raises NoAnswer unless every x_m is finite and
    >= -1e-9; x is then clipped at 0, as _solve_chain clips pi, since
    x_delta_max carries the rounding of every other level.
    """
    met = _build_model(params, kind)
    # the meter's level after each outcome column from level 0 at full
    # battery; the first half of the (u, e, v) transmit columns delivers
    idle_to = met.metric[met.nxt0[params.B]]
    tx_to = met.metric[met.nxt1[params.B]]
    delivers = np.arange(tx_to.size) < tx_to.size // 2

    def part(idle_cols, tx_cols):
        cols = replace(pol, pr0=pol.pr0 * idle_cols, pr1=pol.pr1 * tx_cols)
        return _submatrix(_policy_matrix(cols, table), members)

    U = part(idle_to == 1, ~delivers & (tx_to == 1))
    S = part(idle_to == 0, ~delivers & (tx_to == 0))
    R = {r: part(False, delivers & (tx_to == r)) for r in np.unique(tx_to[delivers])}
    dm = params.delta_max
    x = np.zeros((dm + 1, members.size))
    if U.nnz == 0 and not any(Rm.nnz for Rm in R.values()):
        x[met.metric[_start_index(params, kind)]] = mu
    else:
        lu = _factor((sp.eye(members.size, format="csr") - S).T)
        UT = U.T
        resets = {r: mu @ Rm for r, Rm in R.items()}
        for lvl in range(dm):
            rhs = UT @ x[lvl - 1] if lvl else np.zeros(members.size)
            if lvl in resets:
                rhs = rhs + resets[lvl]
            x[lvl] = lu.solve(rhs)
        x[dm] = mu - x[:dm].sum(axis=0)
        if not (np.all(np.isfinite(x)) and x.min() >= -1e-9):
            raise NoAnswer(f"negative or non-finite level mass {x.min():.3e}")
        np.clip(x, 0.0, None, out=x)
    # the meter's cost at (level, policy state's battery, query)
    b = pol.battery[members]
    grid = (dm + 1, params.B + 1, 2)
    c0, c1 = met.c0.reshape(grid)[:, b], met.c1.reshape(grid)[:, b]
    cost = np.where(table[members].astype(bool), c1, c0) @ met.pq
    return float(np.sum(x * cost))


def evaluate_policy_exact(
    params: SystemParams, kind: MetricKind, policy: PolicyTable
) -> float:
    """Long-run average cost of a fixed policy: the gain of _solve_chain
    on the closed class that the policy's (m, b) chain reaches from the
    simulator's start state (_start_index), else NoAnswer.

    `kind` selects the cost being averaged and may differ from
    `policy.kind`: a query-agnostic policy is metered on a query-aware
    cost (or vice versa) by running the meter's own chain. A policy that
    reads a metric of the other family runs on its own chain, and
    _level_average meters it from that chain's pi and class. Either way
    one chain is built and solved. A table built under other params raises
    MismatchedStamp (PolicyTable.check).
    """
    policy.check(params)
    cross = _reads_other_family(kind, policy)
    chain_kind = policy.kind if cross else kind
    m = _build_model(params, chain_kind)
    table = policy.actions.reshape(-1, 2)
    P, c = _policy_matrix(m, table), _chain_cost(m, table)
    gain, _, pi, members = _solve_chain(P, c, _start_index(params, chain_kind))
    if cross:
        return _level_average(params, kind, m, table, pi, members)
    return gain


def evaluation_chain_size(
    params: SystemParams, kind: MetricKind, policy: PolicyTable
) -> int:
    """The policy table's (metric, battery, query) state count, or, for a
    policy that reads the other metric family, (delta_max + 1) meter
    levels times it: the size of the lumped chain that policy is averaged
    over. The evaluator factors nothing that large: its matrices are the
    size of the recurrent class of the policy's (metric, battery) chain,
    at most half the count."""
    n = state_count(params.delta_max, params.B)
    if _reads_other_family(kind, policy):
        return (params.delta_max + 1) * n
    return n


# --- SolveResult serialization ------------------------------------------

def format_solve_result(result: SolveResult) -> str:
    """The policy table plus solver diagnostics and a bias column, with
    bit-exact float round-trip (repr shortest form)."""
    diagnostics = {
        "gain": float(result.gain),
        "iterations": result.iterations,
        "residual_span": float(result.residual_span),
        "converged": int(result.converged),
    }
    return format_policy(result.policy, "solve result", diagnostics, result.bias)


def save_solve_result(params: SystemParams, result: SolveResult, path: str) -> None:
    """Write format_solve_result to `path`. `params` goes unread; it stays
    because the benchmark harness (perfbench/run.py) calls this signature."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_solve_result(result))
