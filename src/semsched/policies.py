"""Policy zoo: greedy baseline, solved lookup tables, threshold compression.

A `PolicyTable` is the dense map from every (metric, battery, query) state
to an action, stamped with the parameter digest it was built under. When a
table is threshold-structured it compresses to one switch point per
(battery, query) slice, which is what a deployed device would store.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import (
    MAX_STATES,
    ConfigError,
    MetricKind,
    SystemParams,
    params_stamp,
    state_count,
)


class MismatchedStamp(ValueError):
    """Policy was solved under different system parameters."""


class NotThresholdStructured(ValueError):
    """Some (battery, query) slice has a Transmit below an Idle."""

    def __init__(self, slices: list[tuple[int, int]]):
        super().__init__(
            "non-threshold slices (battery, query): " + ", ".join(map(str, slices))
        )


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Stationary deterministic policy as a lookup table of 0/1 actions.

    `actions[metric, battery, query]` is a grid of shape (delta_max + 1,
    B + 1, 2); its ravel is the canonical state order, metric-major, then
    battery, then query. `delta_max`/`B` restate that geometry for the
    file headers. The greedy baseline is metric-blind; its `kind` field
    is just the stamp it was built under.
    """

    kind: MetricKind
    params_stamp: str
    delta_max: int
    B: int
    actions: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.delta_max + 1, self.B + 1, 2)
        if self.actions.shape != expected:
            raise ValueError(
                f"actions has shape {self.actions.shape}, expected {expected}"
            )
        if self.actions[:, 0].any():
            raise ValueError("policy transmits at empty battery")
        self.actions.setflags(write=False)

    def check(self, params: SystemParams) -> None:
        """Raise MismatchedStamp unless the table was built under `params`:
        the same stamp and the same (delta_max, B)."""
        if self.params_stamp != params_stamp(params):
            raise MismatchedStamp(
                f"policy stamp {self.params_stamp} != params stamp {params_stamp(params)}"
            )
        if (self.delta_max, self.B) != (params.delta_max, params.B):
            raise MismatchedStamp(
                f"policy (delta_max, B) = {(self.delta_max, self.B)} != "
                f"params {(params.delta_max, params.B)}"
            )


def greedy_policy(params: SystemParams) -> PolicyTable:
    """Transmit whenever the battery is non-empty, blind to metric and query."""
    actions = np.ones((params.delta_max + 1, params.B + 1, 2), dtype=np.int8)
    actions[:, 0] = 0
    return PolicyTable(
        kind=MetricKind.AOI,
        params_stamp=params_stamp(params),
        delta_max=params.delta_max,
        B=params.B,
        actions=actions,
    )


def extract_thresholds(policy: PolicyTable) -> dict[tuple[int, int], int]:
    """Verify threshold structure per (battery, query) slice and compress
    it to the {(battery, query): threshold} switch points.

    The switch point is inclusive: Transmit at metric >= threshold. Slices
    that transmit nowhere get delta_max + 1.
    """
    falls = (np.diff(policy.actions, axis=0) < 0).any(axis=0)
    if falls.any():
        raise NotThresholdStructured([s for s, bad in np.ndenumerate(falls) if bad])
    # a slice that never falls is all Idle up to its switch point, which is
    # its count of Idle states
    idle = (policy.actions == 0).sum(axis=0)
    return {s: int(t) for s, t in np.ndenumerate(idle)}


# --- serialization -------------------------------------------------------
#
# Policy, threshold and solve-result files share one layout: a `# title`
# comment, `key = value` header lines, an optional line of column names,
# then one row of space-separated fields per key, where the keys are
# (metric, battery, query) states or (battery, query) slices. The package
# reads only the policy in a file: a policy table, or a solve result read
# as its policy.

_STAMP_KEYS = ("kind", "params_stamp", "delta_max", "B")
_POLICY_COLUMNS = ("metric", "battery", "query", "action")


def format_table(
    title: str,
    header: dict[str, object],
    columns: tuple[str, ...] | None,
    rows: Iterable[Iterable[object]],
) -> str:
    """The one writer; `columns` None leaves out the column-name line.
    Floats must be Python floats, whose str is the round-trip repr."""
    lines = [f"# {title}", *(f"{k} = {v}" for k, v in header.items())]
    if columns is not None:
        lines.append(" ".join(columns))
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> tuple[dict[str, object], np.ndarray]:
    """The one reader. Returns the typed stamp fields (kind, params_stamp,
    delta_max, B) and the grid of actions[metric, battery, query].

    The file's column-name line must start with the policy columns;
    further columns (a solve result's bias) must be present on every row
    and are skipped. Fails closed with ConfigError on missing or
    duplicate header keys, a geometry above the state ceiling, missing or
    duplicate rows, rows outside the geometry the header stamps,
    non-integer fields, and actions out of range.
    """
    header: dict[str, str] = {}
    names = None
    rows: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" in stripped:
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in header:
                raise ConfigError(line_no, f"duplicate header key {key!r}")
            header[key] = value.strip()
        elif names is None:
            names = tuple(stripped.split())
            if names[: len(_POLICY_COLUMNS)] != _POLICY_COLUMNS:
                raise ConfigError(
                    line_no, f"expected columns {' '.join(_POLICY_COLUMNS)!r}"
                )
        else:
            fields = stripped.split()
            if len(fields) != len(names):
                raise ConfigError(
                    line_no, f"expected {len(names)} fields, got {len(fields)}"
                )
            rows.append((line_no, fields[: len(_POLICY_COLUMNS)]))
    missing = [k for k in _STAMP_KEYS if k not in header]
    if missing:
        raise ConfigError(None, f"missing header key(s): {', '.join(missing)}")
    stamp = {
        "kind": _header_value(header, "kind", MetricKind),
        "params_stamp": _header_value(header, "params_stamp", _stamp),
        "delta_max": _header_value(header, "delta_max", _positive_int),
        "B": _header_value(header, "B", _positive_int),
    }
    dm, B = stamp["delta_max"], stamp["B"]
    if state_count(dm, B) > MAX_STATES:
        raise ConfigError(
            None, f"delta_max = {dm}, B = {B} give {state_count(dm, B)} states, "
            f"above the ceiling of {MAX_STATES}"
        )
    actions = np.zeros((dm + 1, B + 1, 2), dtype=np.int8)
    seen = np.zeros(actions.shape, dtype=bool)
    for line_no, fields in rows:
        m, b, q, a = (
            _field(f, c, top, line_no)
            for f, c, top in zip(fields, _POLICY_COLUMNS, (dm, B, 1, 1))
        )
        if seen[m, b, q]:
            raise ConfigError(line_no, f"duplicate row for {(m, b, q)}")
        seen[m, b, q] = True
        actions[m, b, q] = a
    if not seen.all():
        first = np.unravel_index(int(np.argmin(seen)), seen.shape)
        raise ConfigError(
            None,
            f"{int((~seen).sum())} row(s) missing, the first for "
            f"{tuple(int(v) for v in first)}",
        )
    return stamp, actions


def _header_value(header: dict[str, str], key: str, convert):
    """`convert(header[key])`, failing with ConfigError."""
    try:
        return convert(header[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(None, f"bad header value {key} = {header.get(key)!r}") from exc


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _stamp(text: str) -> str:
    if re.fullmatch(r"[0-9a-f]{12}", text) is None:
        raise ValueError(text)
    return text


def _field(text: str, column: str, top: int, line_no: int) -> int:
    """One row field: an integer in 0..top."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(line_no, f"bad {column} value {text!r}") from None
    if not 0 <= value <= top:
        raise ConfigError(line_no, f"{column} {value} outside 0..{top}")
    return value


def _stamp_header(table: PolicyTable) -> dict[str, object]:
    return {
        "kind": table.kind.value,
        "params_stamp": table.params_stamp,
        "delta_max": table.delta_max,
        "B": table.B,
    }


def format_policy(
    policy: PolicyTable,
    title: str = "policy table",
    extra: dict[str, object] | None = None,
    bias: np.ndarray | None = None,
) -> str:
    """One row per state in canonical order; a solve result adds `extra`
    header lines and a bias column."""
    grids = (*np.indices(policy.actions.shape), policy.actions)
    cols = [grid.ravel().tolist() for grid in grids]
    names = _POLICY_COLUMNS
    if bias is not None:
        cols.append(bias.tolist())
        names += ("bias",)
    return format_table(title, {**_stamp_header(policy), **(extra or {})}, names, zip(*cols))


def parse_policy(text: str) -> PolicyTable:
    """Read a policy table; a solve result reads as its policy."""
    stamp, actions = parse_table(text)
    try:
        return PolicyTable(**stamp, actions=actions)
    except ValueError as exc:  # a transmit at empty battery
        raise ConfigError(None, str(exc)) from exc


def load_policy(path: str) -> PolicyTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(None, f"{path} is not UTF-8 text: {exc}") from exc
    return parse_policy(text)


def format_thresholds(
    policy: PolicyTable, thresholds: dict[tuple[int, int], int]
) -> str:
    """Compact export of extract_thresholds(policy): one `b q threshold`
    line per slice, under the table's stamp."""
    title = (
        "thresholds (metric switch point per battery/query; "
        f"{policy.delta_max + 1} = never)"
    )
    rows = ((b, q, thresholds[(b, q)]) for b in range(policy.B + 1) for q in (0, 1))
    return format_table(title, _stamp_header(policy), None, rows)
