"""Slotted Monte Carlo simulator for device-to-CS transmission policies.

Each slot runs the same steps: observe state, apply the policy (forced
Idle on an empty battery), resolve the channel draw for a transmission,
harvest energy, generate a version, advance both metrics with the slot's
delivery outcome, then draw the next slot's query flag. The delivery
therefore shows up in the metrics the observer sees from the next slot
on, matching the transition model exactly.

No Python code runs per slot. The only state a slot hands to the next,
besides the query flag, is the policy's own metric and the battery, and
a slot's exogenous draws form one 4-bit code (query, channel, energy,
version). `_step_table` applies the step rules above once to every
(state, code) pair; the simulator builds it itself, so it stays an
independent check on the exact evaluator.

The walk through that successor table runs on time segments ("lanes")
of a walk chunk side by side, one numpy step for all lanes at once
(data-parallel finite-state machines: Mytkowicz, Musuvathi & Schulte,
ASPLOS 2014). Pass 1 starts every lane from the chunk's true start
state; each later pass starts a lane from its left neighbour's end in
the pass before. Walks that share their codes merge within a few hundred
slots (the coupling of Propp & Wilson, 1996), so pass 2 is almost
always exact; where walks merge slowly (a low harvest rate), passes go
on while each fixes more lanes than `_PASS_LANES`. A left-to-right check
then proves the last pass: a lane is exact when its left neighbour is
and its start equals that neighbour's end. A lane that fails the check
is walked again, serially, from the corrected start. The result is the
serial walk, bit for bit, and `rewalked_slots` counts the slots walked
again.

A slot's step index s * 16 + c (its state and code) fixes its
transmission, delivery, harvest, empty battery, query flag and the
policy's own metric after the slot (the successor's metric). So a
histogram of the step indices, dotted with per-step tables, gives the
counters and the own metric's sums exactly. Only the other metric family
(VAoI for an age-family policy, AoI for a version-family one) is not in
the walk state; numpy folds it, `_CHUNK` slots at a time, from the
slots' deliveries and versions.

Randomness comes from counter-based Philox streams keyed (seed, stream)
so every stochastic process is independent and reproducible regardless of
evaluation order: energy=1, channel=2, version=3, query=4, init=5. One
draw is consumed per slot per stream; the channel draw is discarded on
Idle slots. A slot's flag is `random() < p`, read off the raw 64-bit
word without the float (`_below`). Replication r reuses the same streams
under seed + r.

All accumulators are integers, so identical inputs give bit-identical
summaries on any platform.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import accumulate
from operator import getitem, itemgetter

import numpy as np

from .core import ConfigError, MetricKind, SystemParams
from .policies import PolicyTable

STREAM_ENERGY = 1
STREAM_CHANNEL = 2
STREAM_VERSION = 3
STREAM_QUERY = 4
STREAM_INIT = 5

_CHUNK = 1 << 14  # slots per fold of the other metric family
_WALK_CHUNK = 1 << 17  # slots per lane walk
_LANES = 256  # time segments walked side by side
# a numpy pass over the lanes costs about as much as walking this many
# lanes serially (about 1 ms against 50 us for lanes of 512 slots)
_PASS_LANES = 20
# exogenous slot code: q | ch << 1 | en << 2 | v << 3
_CODES = 16
_INDEX = itemgetter(_CODES)


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    seed: int
    warmup: int = 10**4

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(None, "horizon must be >= 1")
        if self.warmup < 0:
            raise ConfigError(None, "warmup must be >= 0")
        if self.warmup >= self.horizon:
            raise ConfigError(None, "warmup must be < horizon")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(None, f"seed {self.seed} outside [0, 2**64)")


@dataclass(frozen=True, eq=False)
class SimSummary:
    """Long-run averages over slots [warmup, horizon) plus counters.

    `transmissions`, `successes`, `energy_harvested` and
    `empty_battery_slots` count the whole run, warm-up included;
    `query_slots` counts post-warmup slots only, as the denominator of
    the per-query averages.

    `avg` normalizes every kind over all post-warmup slots (the
    query-gated kinds count zero on query-free slots, matching the
    average-cost criterion the solver optimizes); `avg_per_query` is the
    secondary conditional average over query slots only, nan when the
    window saw no query.

    `rewalked_slots` is a diagnostic of the lane walk, not a result: the
    slots whose lane failed the start/end check and was walked again.
    """

    avg: dict[MetricKind, float]
    avg_per_query: dict[MetricKind, float]
    transmissions: int
    successes: int
    energy_harvested: int
    empty_battery_slots: int
    final_battery: int
    query_slots: int
    horizon: int
    warmup: int
    seed: int
    rewalked_slots: int = 0


def _stream(seed: int, stream: int) -> np.random.Generator:
    # an explicit uint64 key: a tuple would go through float64 above 2**63
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _step_table(
    params: SystemParams, policy: PolicyTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One slot from every state s = m * (B + 1) + b (m the policy's own
    metric, b the battery) under every exogenous code c: the successor
    state succ[s, c] and whether the slot transmits, tx[s, c], and keeps
    a harvested unit, harvest[s, c].

    The step rules: forced Idle at battery 0, else the table's action at
    (m, b, q); a Transmit spends one unit and delivers on ch; a harvest on
    en is kept only below B; a delivery resets AoI to 1 and VAoI to v,
    otherwise AoI steps by 1 and VAoI by v, both capped at delta_max.
    """
    dm, bp1 = params.delta_max, params.B + 1
    s = np.arange((dm + 1) * bp1)[:, None]
    c = np.arange(_CODES)
    q, ch, en, v = c & 1, c >> 1 & 1, c >> 2 & 1, c >> 3 & 1
    m, b = s // bp1, s % bp1
    tx = (b > 0) & (policy.actions[m, b, q] == 1)
    delivered = tx & (ch == 1)
    b = b - tx
    harvest = (en == 1) & (b < params.B)
    b = b + harvest
    if policy.kind.age_family:
        m = np.where(delivered, 1, np.minimum(m + 1, dm))
    else:
        m = np.where(delivered, v, np.minimum(m + v, dm))
    return m * bp1 + b, tx, harvest


def _linked_rows(succ: np.ndarray) -> list[list]:
    """One list per state: row[c] is the successor's row, row[_CODES] the
    state's index, so a walk is a chain of C-level list lookups."""
    rows = [[None] * _CODES + [i] for i in range(len(succ))]
    for row, nxt in zip(rows, succ.tolist()):
        row[:_CODES] = [rows[j] for j in nxt]
    return rows


def _lane_walk(
    nxt: np.ndarray, rows: list[list], codes: np.ndarray, start: int
) -> tuple[np.ndarray, int]:
    """Walk the slot codes from state `start` through the flat successor
    table nxt[s * _CODES + c] = succ[s, c] * _CODES.

    Returns each slot's step index s * _CODES + c, which indexes the
    per-step tables, in slot order, and the number of slots walked again.
    """
    n = codes.size
    length = -(-n // _LANES)
    lanes = -(-n // length)
    # grid[k, j] is slot j * length + k; the last lane is padded with code 0
    grid = np.zeros((length, lanes), dtype=np.intp)
    full = (lanes - 1) * length
    grid[:, :-1] = codes[:full].reshape(lanes - 1, length).T
    grid[: n - full, -1] = codes[full:]

    # pass 1 starts every lane from the true state, each later pass lane j
    # from lane j - 1's end in the pass before; another pass pays only
    # while passes fix more lanes than it costs to walk serially
    add, take = np.add, nxt.take
    starts = np.full(lanes, start, dtype=np.intp)
    cur = starts.copy()
    previous = math.inf
    while True:
        for row in grid:  # each row turns into its step indices
            add(cur, row, out=row)
            take(row, out=cur, mode="clip")
        bad = np.flatnonzero(starts[1:] != cur[:-1])
        if min(bad.size, previous - bad.size) <= _PASS_LANES:
            break
        previous = bad.size
        grid &= _CODES - 1  # back to the codes
        starts = np.concatenate(([start], cur[:-1]))
        cur[:] = starts
    lane_steps = grid.T

    # lane 0 starts from the true state; lane j is exact when lane j - 1
    # is and its start is that lane's end
    rewalked = 0
    if bad.size:
        end = cur[bad[0]]
        for j in range(bad[0] + 1, lanes):
            if starts[j] == end:
                end = cur[j]
                continue
            seg = codes[j * length : (j + 1) * length]
            walk = accumulate(seg.tolist(), getitem, initial=rows[end // _CODES])
            s = np.fromiter(map(_INDEX, walk), dtype=np.intp, count=seg.size)
            lane_steps[j, : seg.size] = s * _CODES + seg
            end = nxt[lane_steps[j, seg.size - 1]]
            rewalked += seg.size
    return lane_steps.ravel()[:n], rewalked


def _below(raw: np.ndarray, p: float) -> np.ndarray:
    """`(raw >> 11) * 2**-53 < p` on raw Philox words, without the float:
    the flags `Generator.random() < p` gives on the same words, bit for bit.

    random() is the word's top 53 bits times 2**-53, and an integer x has
    x * 2**-53 < p exactly when x < ceil(p * 2**53).
    """
    if p == 1:  # the threshold 2**64 overflows uint64; every word is below
        return np.ones(raw.shape, dtype=bool)
    return raw < np.uint64(math.ceil(p * 2**53) << 11)


def simulate(
    params: SystemParams,
    policy: PolicyTable,
    cfg: SimConfig,
) -> SimSummary:
    """Run one simulation and return its summary.

    Starts from a full battery, AoI = delta_max, VAoI = 0, and a query
    flag drawn from Bern(p_q); energy capped at B is lost and not counted
    as harvested, which keeps the conservation identity
    B + harvested - transmissions = final_battery exact. A table built under
    other params raises MismatchedStamp (PolicyTable.check).
    """
    policy.check(params)
    p = params
    dm = p.delta_max
    B = p.B
    bp1 = B + 1
    succ, tx, harvest = _step_table(p, policy)
    nxt = succ.ravel() * _CODES
    rows = _linked_rows(succ)
    # per step index s * _CODES + c: what the slot counts, and the policy's
    # own metric after it (the successor's metric)
    step = np.arange(succ.size)
    tx = tx.ravel()
    delivered = tx & (step >> 1 & 1 == 1)
    query = step & 1
    own = succ.ravel() // bp1
    run_tables = np.stack([tx, delivered, harvest.ravel(), step // _CODES % bp1 == 0])
    window_tables = np.stack([query, own, own * query])
    counts = np.zeros(succ.size, dtype=np.int64)  # step indices of all slots
    warm = np.zeros_like(counts)  # step indices of the warm-up slots

    g_ch = _stream(cfg.seed, STREAM_CHANNEL)
    g_en = _stream(cfg.seed, STREAM_ENERGY)
    g_vr = _stream(cfg.seed, STREAM_VERSION)
    g_qu = _stream(cfg.seed, STREAM_QUERY)
    q_next = _stream(cfg.seed, STREAM_INIT).random() < p.p_q

    age_family = policy.kind.age_family
    # the metric the walk state does not hold: VAoI from 0, AoI from dm
    other = 0 if age_family else dm
    state = ((dm if age_family else 0) * bp1 + B) * _CODES

    sum_other = sum_qother = rewalked = 0
    warmup = cfg.warmup
    t = 0
    while t < cfg.horizon:
        n = min(_WALK_CHUNK, cfg.horizon - t)
        ch = _below(g_ch.bit_generator.random_raw(n), p.p_s)
        en = _below(g_en.bit_generator.random_raw(n), p.p_e)
        v = _below(g_vr.bit_generator.random_raw(n), p.p_v)
        qu = _below(g_qu.bit_generator.random_raw(n), p.p_q)
        # slot i acts on the query flag drawn at the end of slot i - 1
        q = np.concatenate(([q_next], qu[:-1]))
        q_next = qu[-1]
        codes = (
            q.view(np.uint8) | ch.view(np.uint8) << 1
            | en.view(np.uint8) << 2 | v.view(np.uint8) << 3
        )
        del ch, en, v, qu, q
        steps, r = _lane_walk(nxt, rows, codes, state)
        rewalked += r
        state = int(nxt[steps[-1]])
        counts += np.bincount(steps, minlength=counts.size)
        if t < warmup:
            warm += np.bincount(steps[: warmup - t], minlength=counts.size)

        for a in range(0, n, _CHUNK):
            code = codes[a : a + _CHUNK]
            dl = delivered[steps[a : a + _CHUNK]]
            # the metric restarts at the chunk's last delivery and otherwise
            # carries over from the last chunk; every increment is >= 0, so
            # one cap at dm is exact
            if age_family:
                # VAoI: the versions since the last delivery, its own included;
                # the count before a slot never falls, so a running max of it
                # over the deliveries reads the last one's
                v = (code >> 3).view(bool)
                versions = np.cumsum(v, dtype=np.int64) + other
                before = np.maximum.accumulate(np.where(dl, versions - v, 0))
                other_t = np.minimum(versions - before, dm)
            else:
                # AoI: slots since the last delivery, taken `other` slots
                # before the chunk when it has none
                i = np.arange(code.size)
                last = np.maximum.accumulate(np.where(dl, i, -other))
                other_t = np.minimum(i - last + 1, dm)
            other = int(other_t[-1])

            w = max(warmup - t - a, 0)
            sum_other += int(other_t[w:].sum())
            sum_qother += int(np.dot(other_t[w:], (code[w:] & 1).view(bool)))
        t += n

    transmissions, successes, harvested, empty = (run_tables @ counts).tolist()
    query_slots, sum_own, sum_qown = (window_tables @ (counts - warm)).tolist()
    if age_family:
        sum_aoi, sum_qaoi, sum_vaoi, sum_qvaoi = sum_own, sum_qown, sum_other, sum_qother
    else:
        sum_aoi, sum_qaoi, sum_vaoi, sum_qvaoi = sum_other, sum_qother, sum_own, sum_qown
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
    return SimSummary(
        avg=avg,
        avg_per_query=avg_pq,
        transmissions=transmissions,
        successes=successes,
        energy_harvested=harvested,
        empty_battery_slots=empty,
        final_battery=state // _CODES % bp1,
        query_slots=query_slots,
        horizon=cfg.horizon,
        warmup=warmup,
        seed=cfg.seed,
        rewalked_slots=rewalked,
    )


# --- monitor-side averages ----------------------------------------------

def monitor_offset(params: SystemParams, kind: MetricKind) -> float:
    """Expected monitor-minus-CS gap of `kind` behind N relay hops: N for
    the age kinds (deterministic), N * p_v (versions generated in flight)
    for the version kinds. It applies verbatim to per-query averages."""
    return params.N if kind.age_family else params.N * params.p_v


# --- replication ---------------------------------------------------------

def pool_map(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items], in order: in this process when one
    worker would do, else in min(jobs, len(items)) worker processes."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class ReplicationResult:
    """Sample means and 95% normal-approximation half-widths of the
    all-slot averages across replications."""

    means: dict[MetricKind, float]
    half_widths: dict[MetricKind, float]
    summaries: tuple[SimSummary, ...] = field(repr=False, default=())


def replicate(
    params: SystemParams,
    policy: PolicyTable,
    cfg: SimConfig,
    n_reps: int,
    jobs: int = 1,
) -> ReplicationResult:
    """Run n_reps independent replications, seed = cfg.seed + r.

    Replications share nothing; with jobs > 1 they run in separate
    processes (at most n_reps of them) and are reduced in replication
    order either way.
    """
    if n_reps < 2:
        raise ConfigError(None, "n_reps must be >= 2")
    # built here so that a seed + r past the seed range fails before any run
    cfgs = [replace(cfg, seed=cfg.seed + r) for r in range(n_reps)]
    summaries = tuple(pool_map(partial(simulate, params, policy), cfgs, jobs))
    means, hws = {}, {}
    for kind in MetricKind:
        values = np.array([s.avg[kind] for s in summaries])
        means[kind] = float(values.mean())
        hws[kind] = 1.96 * float(values.std(ddof=1)) / math.sqrt(n_reps)
    return ReplicationResult(means=means, half_widths=hws, summaries=summaries)
