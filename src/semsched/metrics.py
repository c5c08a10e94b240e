"""Per-slot evolution rules for the four semantic metrics.

Pure integer arithmetic. The value a series shows at slot t already
reflects slot t's delivery and version events (an update delivered in
slot t makes the age 1 *at* t), so replaying a recorded event table
reproduces the reference trace exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import MetricKind


class SlotEvents(NamedTuple):
    """One slot's independent event flags."""

    delivered: int
    new_version: int
    query: int


def step_aoi(aoi: int, delivered: bool, delta_max: int) -> int:
    """Age after one slot: reset to 1 on delivery, else grow, capped."""
    if delivered:
        return 1
    return min(aoi + 1, delta_max)


def step_vaoi(vaoi: int, delivered: bool, new_version: bool, delta_max: int) -> int:
    """Version lag after one slot.

    A delivery hands over the version current as of the transmission slot;
    a version generated during the one-slot flight leaves the receiver one
    behind, hence 1 rather than 0 on a coinciding generation.
    """
    if delivered:
        return 1 if new_version else 0
    return min(vaoi + (1 if new_version else 0), delta_max)


def stage_cost(kind: MetricKind, metric: int, query: int) -> int:
    """Instantaneous cost: the metric itself, gated by the query flag for
    the query-aware kinds (no penalty in the absence of requests)."""
    if kind.query_gated:
        return metric * query
    return metric


@dataclass(frozen=True)
class MetricTrace:
    """Per-slot series for all four metrics over one event sequence."""

    aoi: list[int]
    vaoi: list[int]
    qaoi: list[int]
    qvaoi: list[int]


def evolve_trace(events: Sequence[SlotEvents], delta_max: int) -> MetricTrace:
    """Fold the step rules over an event sequence, from AoI delta_max
    (maximally stale before any delivery) and VAoI 0."""
    if not events:
        raise ValueError("event sequence is empty")
    aoi = delta_max
    vaoi = 0
    out = MetricTrace([], [], [], [])
    for ev in events:
        aoi = step_aoi(aoi, bool(ev.delivered), delta_max)
        vaoi = step_vaoi(vaoi, bool(ev.delivered), bool(ev.new_version), delta_max)
        out.aoi.append(aoi)
        out.vaoi.append(vaoi)
        out.qaoi.append(stage_cost(MetricKind.QAOI, aoi, ev.query))
        out.qvaoi.append(stage_cost(MetricKind.QVAOI, vaoi, ev.query))
    return out


# --- tabular I/O for the trace-replay subcommand -------------------------

_TRACE_HEADER = "delivered new_version query aoi vaoi qaoi qvaoi"


def parse_events_table(text: str) -> list[SlotEvents]:
    """Read one slot per row: ``delivered new_version query`` (0/1 each).

    A header row and `#` comments are tolerated; extra columns (e.g. a
    previously emitted trace) are ignored on input.
    """
    events = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if parts[0] == "delivered":
            continue
        if len(parts) < 3:
            raise ValueError(f"line {line_no}: expected 3 flag columns")
        flags = []
        for p in parts[:3]:
            if p not in ("0", "1"):
                raise ValueError(f"line {line_no}: flag {p!r} is not 0/1")
            flags.append(int(p))
        events.append(SlotEvents(*flags))
    return events


def format_trace_table(events: Sequence[SlotEvents], trace: MetricTrace) -> str:
    """Emit events alongside the four metric columns, one slot per row."""
    rows = [_TRACE_HEADER]
    for ev, a, v, qa, qv in zip(events, trace.aoi, trace.vaoi, trace.qaoi, trace.qvaoi):
        rows.append(
            f"{ev.delivered} {ev.new_version} {ev.query} {a} {v} {qa} {qv}"
        )
    return "\n".join(rows) + "\n"
